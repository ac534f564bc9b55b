"""The committed benchmark trajectory: every BENCH_<PR>.json at the repo root
gives, for each workload and each end-to-end metric that BENCHMARK.json
declares, the parent's and the change's medians in the declared unit."""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRAJECTORY = sorted(ROOT.glob("BENCH_*.json"))


def _number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def test_the_trajectory_is_committed():
    assert TRAJECTORY, "no BENCH_<PR>.json at the repo root"
    for path in TRAJECTORY:
        assert path.stem.split("_", 1)[1].isdigit(), path.name


def test_every_file_has_both_medians_of_every_end_to_end_metric():
    for path in TRAJECTORY:
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["seeds"] and all(isinstance(s, int) for s in doc["seeds"])
        for workload in BENCHMARK["workloads"]:
            metrics = doc["workloads"][workload["name"]]["metrics"]
            for metric in BENCHMARK["end_to_end"]:
                where = f"{path.name}: {workload['name']} {metric['name']}"
                got = metrics[metric["name"]]
                assert got["unit"] == metric["unit"], where
                for side in ("parent", "change"):
                    stats = got[side]
                    assert all(_number(stats[k])
                               for k in ("median", "q1", "q3")), where
                    assert stats["q1"] <= stats["median"] <= stats["q3"], where
                    assert isinstance(stats["n"], int) and stats["n"] > 0, where
