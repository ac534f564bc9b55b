"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with its
unit, traced and untraced; that a corrupted stored digest is counted as a
failed request rather than crashing the run; that requests without a stored
digest fall back to the exact invariants and pass; and that the invariants
reject a tampered table. Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"table_sweep": {"deck": ("3,1",)},
        "coupling_gram": {"deck": ("1,0", "1,1")},
        "cli_session": {"pairs": workloads.CLI_TABLE_PAIRS[:1]}}
SEED = 1


def tiny(workload: str, trace: bool, expected: dict) -> dict:
    return run.run(workload, SEED, 0, trace, expected=expected,
                   min_requests=2, sizes=TINY[workload])


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expected = json.loads((HERE / "expected.json").read_text())

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = tiny(workload, bool(trace), expected)["result"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want[trace],
                  f"{workload} trace {trace}: metric names and units")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace}: outputs pass the gate")

    first_table = next(workloads.table_chunks(
        expected["table_pool"], SEED, TINY["table_sweep"]["deck"]))[0]
    first_cli = next(workloads.cli_chunks(
        SEED, TINY["cli_session"]["pairs"]))[0]
    corrupt = copy.deepcopy(expected)
    corrupt["table"][first_table["source"]][first_table["channel"]] = [
        "0" * 16, "0" * 16]
    corrupt["matrix"]["1,0"] = "0" * 16
    corrupt["cli"][workloads.cli_key(first_cli["argv"], first_cli["out"])] = {
        "stdout": "0" * 16}
    for workload in workloads.WORKLOADS:
        result = tiny(workload, False, corrupt)["result"]
        check(result["failed"] >= 1 and not result["correct"],
              f"{workload}: a corrupted digest counts as a failed request")

    bare = dict(expected, table={}, matrix={}, cli={})
    for workload in workloads.WORKLOADS:
        result = tiny(workload, False, bare)["result"]
        check(result["correct"],
              f"{workload}: without digests the exact invariants pass")

    product = gate.dot([(gate.parse_text("1/3*sqrt(3)"),
                         gate.parse_text("-1/2*sqrt(6)+1"))])
    check(product == {2: gate.Fraction(-1, 2), 3: gate.Fraction(1, 3)},
          "independent exact product")
    real = Path(run.ROOT / ".perfbench_tmp" / "selftest.csv")
    real.parent.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.ROOT / "src"))
    from so5cg.cli import main as cli_main
    cli_main(["table", "--source", "3,0", "--channel=+1,+1", "--no-cache",
              "--out", str(real)])
    data = real.read_bytes()
    real.unlink()
    check(gate.table_invariants("3,0", "+1,+1", data, "csv") is None,
          "invariants accept a real table")
    lines = data.decode().splitlines()
    for i, line in enumerate(lines[1:], 1):
        if line.split(",")[6] != "" and line.split(",")[8] != "0":
            lines[i] = line.rsplit(",", 1)[0] + ",7/3"
            break
    check(gate.table_invariants("3,0", "+1,+1",
                                ("\n".join(lines) + "\n").encode(), "csv")
          is not None, "invariants reject a tampered table")
    check(gate.table_invariants("3,0", "+1,+1",
                                ("\n".join(lines[:-1]) + "\n").encode(),
                                "csv") is not None,
          "invariants reject a table with a row missing")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
