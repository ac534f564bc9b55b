"""Byte-identical exports: sha256 digests of CLI and coupling-matrix output.

Each table digest covers every channel string of one source in one format:
for each channel, in the order of CHANNELS, the exit code, stderr and stdout
of ``so5cg table``. Each export digest covers ``so5cg decompose`` and then
``so5cg branch`` of one label in one format, and each verify digest one
``so5cg verify`` report, the same three parts each. A digest changes whenever
any exported byte, error message or exit code does. To re-record after an
intended output change, run ``PYTHONPATH=src python tests/test_golden.py``
and paste what it prints.
"""

import contextlib
import csv
import hashlib
import io

import pytest

from so5cg.cli import main
from so5cg.fullcg import coupling_matrix
from so5cg.labels import IrrepLabel

CHANNELS = ("+1,+1", "+1,0", "0,+1", "+1,-1", "+1/2,+1/2", "+1/2,-1/2",
            "0,0#1", "0,0#2",
            "-1,-1", "-1,0", "0,-1", "-1,+1", "-1/2,-1/2", "-1/2,+1/2",
            "aux")

TABLE_DIGESTS = {
    ("1/2,0", "csv"): "9f894bab85f0f3af6d7ed1e0c6734e8e8960218a6566461f21913b5658ce2dbf",
    ("1/2,0", "json"): "ad58414a35305c469a7ae98fa8b45ee4728ff8acb69418fae9d4d6e87f5c0ad5",
    ("1,1", "csv"): "5efa96a9e6d192e3653c83018c71605f55c1f000eaada5e133c8f9a6ce02d3df",
    ("1,1", "json"): "97131901d11c8a37d83ac0dfc960ab4260f46e00797fd1e778df83f69a5ba45e",
    ("3/2,1/2", "csv"): "a1ac7f209c459d48bec67a8da04b3d91bb43ff51933a319dd3603d9749a409f2",
    ("3/2,1/2", "json"): "284e165b063beb8dbc66a6fb0cd8f86a6f464a3176c8957b1ae07d5800278820",
    ("2,1", "csv"): "b1d7359dba2098cc8208bd7e6434efd12f4784db9ce88e38624800bee1d9c759",
    ("2,1", "json"): "8e24d088819e052c090225d9164e0f1297c396b42b899bc2cb90fba86843a584",
    ("7/2,3/2", "csv"): "4b14c98fe8fc024c788e88ebdb7179ec92862def38e39bf2bfe2999deeae3e82",
    ("7/2,3/2", "json"): "b0e2af2d2de02d4c8c101d0777db5f1877d9ddd1955cf54c5b1c7db7b54cfd8c",
    ("13/2,6", "csv"): "0bcf6b8e90ae57adf7282bfd7861a71bcbcc2834453e32bd4dc0c6e813244bc9",
    ("14,0", "json"): "39afe59e78e67579e0576dcab0b7c9a3431da939e7294c0e7650799e3a31e944",
    ("20,20", "csv"): "b659f847d3f8ab9b0c058d45219abfed1c1af89b9d808e7cf674c4b8ec585c48",
}

EXPORT_DIGESTS = {
    ("0,0", "csv"): "a2527b72ed7b7d987c8e4d44d0fa9e7d3fd3148295fad8b2f40677c13e302b77",
    ("0,0", "json"): "668be25a4aa1e4265b2b2ed3c61bc90843a7a1c5e7497647707df52da9879d00",
    ("1,1", "csv"): "45bcd3da235b2a6708d55fc2ce8bf57dfba4dcbebb9e6274d0992cf1e713ff61",
    ("1,1", "json"): "83a12a93f4eca18bbcfc0aec0e841c749eada2ebc14735a4c5ae9667e3093f13",
    ("3/2,1/2", "csv"): "c3f2c6a9fe8bd4904940795dec0dce23135b8b5206d83feac7dc207e63a3c064",
    ("3/2,1/2", "json"): "d10e99ba75a50f049ce7722346bc5ad9c7bfac72dbf825b0acc92176700a279d",
    ("7/2,3/2", "csv"): "19a0d7ed5c9c57c9b3048ca7eba346de48550c8dfbf47e74147fed98f2d0ef4f",
    ("7/2,3/2", "json"): "b2d67d8209ea82bd8d527ccc4b5cda70b77df1dce4d1f671a350f9a1e4f61ff9",
}

VERIFY_DIGESTS = {
    ("all", 2): "36dcc5935f71b393a66d7ff2be87f1092525d5da86e9d61150bffc7bc3c13da5",
    ("mixing", 4): "984a079fd4f697304a8457a71429f4b9ce04037cc891ad8c1739d8b4c31c77e6",
    ("orthogonality", 4): "015c390f7da8e40e215b0db7a2c65477b3a008720ccc251ad2e8950fb7be517d",
    ("su2", 4): "e6ff883d64f2b3ab2e34669ad0674fe9f3a7af603c7c2f243fcd03f2511e5316",
    ("symmetry", 2): "9487a62b0a4ea724c9250aefc211d52d5a23616f80da08099a3a910be9560bf7",
}

MATRIX_DIGESTS = {
    (0, 0): "d698e2fc48db71feb29eda4c960c29a344d258ddadba5d9441801affa1866910",
    (1, 0): "ad4f03c1df53f1cfdae1a344443fc0f7ce2db995fb4e6dabbb7ee0416abc97b7",
    (2, 2): "9f5e7d00144225b117f2d8a7e3bb710ba7c393e1deff52e14c135e25a0941c16",
    (3, 1): "7670d8063afb83306cdf21daa692a0dbbf8f70e79b8884d58654d2d38efee97f",
    (4, 4): "89f9d5257518eef0dc6e0c306e1737fdbeb109b7831e3cc668d4938ebe8157b8",
    (5, 1): "9d60d798733e5d8fd60176b830fe1902d23628398d76cbf99a7fa9044e3bea83",
}


def cli_digest(runs) -> str:
    """sha256 over (tag, exit code, stderr, stdout) of each (tag, argv)."""
    h = hashlib.sha256()
    for tag, argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for part in (tag, str(code), err.getvalue(), out.getvalue()):
            h.update(part.encode("utf-8") + b"\0")
    return h.hexdigest()


def table_digest(source: str, fmt: str) -> str:
    runs = []
    for channel in CHANNELS:
        argv = ["table", "--source", source, f"--channel={channel}",
                "--format", fmt]
        if fmt == "json":
            argv.append("--no-cache")
        runs.append((channel, argv))
    return cli_digest(runs)


def export_digest(label: str, fmt: str) -> str:
    return cli_digest([(command, [command, label, "--format", fmt,
                                  "--no-cache"])
                       for command in ("decompose", "branch")])


def verify_digest(suite: str, max_twice_j: int) -> str:
    return cli_digest([(suite, ["verify", suite, "--max-twice-j",
                                str(max_twice_j)])])


def matrix_digest(twice: tuple[int, int]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        coupling_matrix(IrrepLabel(*twice)).to_csv_rows())
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("source,fmt", sorted(TABLE_DIGESTS))
def test_table_export_is_byte_identical(source, fmt, monkeypatch):
    monkeypatch.delenv("SO5CG_CACHE", raising=False)
    assert table_digest(source, fmt) == TABLE_DIGESTS[(source, fmt)]


@pytest.mark.parametrize("label,fmt", sorted(EXPORT_DIGESTS))
def test_decompose_and_branch_export_is_byte_identical(label, fmt):
    assert export_digest(label, fmt) == EXPORT_DIGESTS[(label, fmt)]


@pytest.mark.parametrize("suite,max_twice_j", sorted(VERIFY_DIGESTS))
def test_verify_report_is_byte_identical(suite, max_twice_j):
    assert verify_digest(suite, max_twice_j) == VERIFY_DIGESTS[
        (suite, max_twice_j)]


@pytest.mark.parametrize("twice", sorted(MATRIX_DIGESTS))
def test_coupling_matrix_csv_is_byte_identical(twice):
    assert matrix_digest(twice) == MATRIX_DIGESTS[twice]


if __name__ == "__main__":
    for source, fmt in TABLE_DIGESTS:
        print(f'    ("{source}", "{fmt}"): "{table_digest(source, fmt)}",')
    for label, fmt in EXPORT_DIGESTS:
        print(f'    ("{label}", "{fmt}"): "{export_digest(label, fmt)}",')
    for suite, max_twice_j in VERIFY_DIGESTS:
        print(f'    ("{suite}", {max_twice_j}): '
              f'"{verify_digest(suite, max_twice_j)}",')
    for twice in MATRIX_DIGESTS:
        print(f'    {twice}: "{matrix_digest(twice)}",')
