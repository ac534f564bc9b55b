"""Records expected.json: the table pool and the digests of every output.

    python3 perfbench/record.py

Run it only when an output is meant to change, and review the diff. It runs
every request the workloads can issue, exactly as the benchmark does, and
stores a 64-bit prefix of the SHA-256 of each output:

  table_pool: source -> its present channels plus "aux" (the inputs of
          table_sweep)
  table:  source -> channel -> [CSV digest, JSON digest]
  matrix: source -> digest of the coupling-matrix CSV
  cli:    request -> {"stdout": digest, "out": digest}
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from gate import digest  # noqa: E402


def record_source(source: str) -> tuple[str, dict]:
    from so5cg import IrrepLabel, channels_present
    from so5cg.cli import main

    channels = [str(c) for c in channels_present(IrrepLabel.parse(source))]
    out: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for channel in channels + ["aux"]:
            pair = []
            for fmt in ("csv", "json"):
                path = Path(tmp) / f"t.{fmt}"
                code = main(workloads.table_argv(source, channel, fmt)
                            + ["--no-cache", "--out", str(path)])
                if code != 0:
                    raise SystemExit(f"table {source} {channel}: exit {code}")
                pair.append(digest(path.read_bytes()))
            out[channel] = pair
    return source, out


def record_matrix(source: str) -> tuple[str, str]:
    from so5cg import IrrepLabel, column_gram_deviation, coupling_matrix

    matrix = coupling_matrix(IrrepLabel.parse(source))
    if column_gram_deviation(matrix) is not None:
        raise SystemExit(f"coupling matrix {source} is not orthonormal")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(matrix.to_csv_rows())
    return source, digest(buf.getvalue().encode("utf-8"))


def cli_requests() -> list[tuple[list[str], bool]]:
    out = []
    for source, channel in workloads.CLI_TABLE_PAIRS:
        for fmt in ("csv", "json"):
            for to_file in (False, True):
                out.append((workloads.table_argv(source, channel, fmt),
                            to_file))
    out += [(["eval", *args], False) for args in workloads.CLI_EVALS]
    for command in ("decompose", "branch"):
        for label in workloads.CLI_LABELS:
            for fmt in ("csv", "json"):
                out.append(([command, label, "--format", fmt], False))
    out += [(list(argv), False) for argv in workloads.CLI_VERIFY]
    return out


def record_cli(argv: list[str], to_file: bool) -> tuple[str, dict]:
    from so5cg.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["SO5CG_CACHE"] = tmp
        path = Path(tmp) / "out"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv + (["--out", str(path)] if to_file else []))
        if code != 0:
            raise SystemExit(f"{argv}: exit {code}")
        got = {"stdout": digest(buf.getvalue().encode("utf-8"))}
        if to_file:
            got["out"] = digest(path.read_bytes())
    return workloads.cli_key(argv, to_file), got


def main() -> int:
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        tables = dict(pool.imap_unordered(record_source,
                                          workloads.TABLE_DECK))
        matrices = dict(pool.map(record_matrix,
                                 sorted(set(workloads.GRAM_DECK))))
        cli = dict(pool.starmap(record_cli, cli_requests()))
    doc = {"table_pool": {k: list(tables[k]) for k in sorted(tables)},
           "table": {k: tables[k] for k in sorted(tables)},
           "matrix": matrices,
           "cli": {k: cli[k] for k in sorted(cli)}}
    (HERE / "expected.json").write_text(
        json.dumps(doc, indent=0, sort_keys=False) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
