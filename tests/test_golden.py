"""Byte-identical exports: sha256 digests of table and coupling-matrix output.

Each table digest covers every channel string of one source in one format:
for each channel, in the order of CHANNELS, the exit code, stderr and stdout
of ``so5cg table``. A digest changes whenever any exported byte, error
message or exit code does. To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and paste what it prints.
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
}

MATRIX_DIGESTS = {
    (0, 0): "d698e2fc48db71feb29eda4c960c29a344d258ddadba5d9441801affa1866910",
    (1, 0): "ad4f03c1df53f1cfdae1a344443fc0f7ce2db995fb4e6dabbb7ee0416abc97b7",
    (2, 2): "9f5e7d00144225b117f2d8a7e3bb710ba7c393e1deff52e14c135e25a0941c16",
    (3, 1): "7670d8063afb83306cdf21daa692a0dbbf8f70e79b8884d58654d2d38efee97f",
}


def table_digest(source: str, fmt: str) -> str:
    h = hashlib.sha256()
    for channel in CHANNELS:
        argv = ["table", "--source", source, f"--channel={channel}",
                "--format", fmt]
        if fmt == "json":
            argv.append("--no-cache")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for part in (channel, str(code), err.getvalue(), out.getvalue()):
            h.update(part.encode("utf-8") + b"\0")
    return h.hexdigest()


def matrix_digest(twice: tuple[int, int]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        coupling_matrix(IrrepLabel.of(*twice)).to_csv_rows())
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("source,fmt", sorted(TABLE_DIGESTS))
def test_table_export_is_byte_identical(source, fmt, monkeypatch):
    monkeypatch.delenv("SO5CG_CACHE", raising=False)
    assert table_digest(source, fmt) == TABLE_DIGESTS[(source, fmt)]


@pytest.mark.parametrize("twice", sorted(MATRIX_DIGESTS))
def test_coupling_matrix_csv_is_byte_identical(twice):
    assert matrix_digest(twice) == MATRIX_DIGESTS[twice]


if __name__ == "__main__":
    for source, fmt in TABLE_DIGESTS:
        print(f'    ("{source}", "{fmt}"): "{table_digest(source, fmt)}",')
    for twice in MATRIX_DIGESTS:
        print(f'    {twice}: "{matrix_digest(twice)}",')
