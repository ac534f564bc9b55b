"""Layered benchmark of so5cg.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload (see workloads.py) against the so5cg library and
CLI in src/, one client in a closed loop, and checks every output (gate.py).
With --trace 0 it reports the end-to-end metrics, their times scaled to a
nominal host speed by fixed reference tasks (reference.py). With --trace 1
it runs the same requests twice, untraced and then with the tracing
wrappers installed (tracing.py), and reports per-layer metrics plus the
tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The line before it holds the run fingerprint and
details; the full result is also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from tracing import layer_metrics, merge  # noqa: E402

# p90 needs at least ten samples beyond it
MIN_REQUESTS = 100
# keeps a run under the 180 s limit when the machine is slow
HARD_STOP_S = 60.0
SETUP_SAMPLES = 7
SETUP_IMPORT = "import so5cg, so5cg.cli"
# BLAS threads for children (numpy in the oracle); at most nproc
BLAS_THREADS = 1
# a worker process pauses for a set-up sample after this many requests
PAUSE_EVERY = 20
# cli_session times the process reference after every this many requests
CLI_REFERENCE_EVERY = 4

WORK_UNITS = {"table_sweep": "table rows",
              "coupling_gram": "matrix nonzeros",
              "cli_session": "requests"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> Optional[str]:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """Digest of the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "so5cg").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def child_env(cache_dir: Optional[Path] = None) -> dict:
    env = dict(os.environ)
    env.pop("SO5CG_BACKEND", None)
    env.pop("SO5CG_CACHE", None)
    threads = str(min(BLAS_THREADS, nproc()))
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    if cache_dir is not None:
        env["SO5CG_CACHE"] = str(cache_dir)
    return env


def spawn(argv: list[str], env: dict, stdout: Optional[Path] = None,
          stderr: Optional[Path] = None,
          between=None) -> tuple[int, float, int]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in KiB).

    With between, the child's stdin and stdout are a pause channel: each
    line the child writes means it is paused, and it goes on once
    between() has returned and a line has been written back.
    """
    out = open(stdout, "wb") if stdout else subprocess.DEVNULL
    err = open(stderr, "wb") if stderr else subprocess.DEVNULL
    pipe = subprocess.PIPE if between is not None else None
    try:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdin=pipe, stdout=pipe or out,
                                stderr=err, env=env, cwd=ROOT)
        if between is not None:
            while proc.stdout.readline():
                between()
                try:
                    proc.stdin.write(b"\n")
                    proc.stdin.flush()
                except BrokenPipeError:
                    break
            proc.stdout.close()
            proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for fh in (out, err):
            if fh is not subprocess.DEVNULL:
                fh.close()
    return proc.returncode, seconds, usage.ru_maxrss


class SetupTimer:
    """Times a fresh interpreter importing so5cg and its CLI, and beside
    each sample the process reference task (reference.py).

    One sample is taken after each chunk and at each pause of a worker
    process (every PAUSE_EVERY requests), so the samples spread over the
    whole run rather than one moment of machine load. A run with fewer
    than SETUP_SAMPLES pauses takes the rest after it. The median is
    reported.
    """

    def __init__(self) -> None:
        self.argv = [sys.executable, "-c", SETUP_IMPORT]
        self.env = child_env()
        self.samples: list[float] = []
        self.references: list[float] = []
        code, _, _ = spawn(self.argv, self.env)  # writes bytecode; not timed
        if code != 0:
            raise RuntimeError("so5cg does not import")
        spawn(reference.PROCESS_ARGV, self.env)  # not timed

    def sample(self) -> None:
        self.samples.append(spawn(self.argv, self.env)[1])
        self.references.append(spawn(reference.PROCESS_ARGV, self.env)[1])

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return statistics.median(self.samples)


class Pass:
    """Requests, latencies and checks of one pass over the chunks."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # peak RSS of each process that ran requests
        self.rss_kib: list[int] = []
        # times of the workload's reference task (reference.py)
        self.references: list[float] = []
        self.summaries: list[dict] = []
        self.backend: Optional[str] = None
        self.table_requests = 0
        self.table_repeats = 0
        self.tables_seen: set[tuple[str, str]] = set()

    def record(self, latency: float, work: float,
               problem: Optional[str], what: str) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        if problem is None:
            self.work += work
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{what}: {problem}")


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float,
                 expected: dict, min_requests: int, tmp: Path,
                 sizes: Optional[dict] = None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.expected = expected
        self.gate = Gate(expected)
        self.min_requests = min_requests
        self.tmp = tmp
        self.sizes = sizes or {}
        self.spans_path = tmp / "spans.jsonl"
        self._dirs = 0

    def chunks(self) -> Iterator[list[dict]]:
        if self.workload == "table_sweep":
            return workloads.table_chunks(
                self.expected["table_pool"], self.seed,
                self.sizes.get("deck", workloads.TABLE_DECK))
        if self.workload == "coupling_gram":
            return workloads.gram_chunks(
                self.seed, self.sizes.get("deck", workloads.GRAM_DECK))
        return workloads.cli_chunks(
            self.seed, self.sizes.get("pairs", workloads.CLI_TABLE_PAIRS))

    def new_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.tmp / f"{name}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def run_pass(self, trace: bool, replay: Optional[list] = None,
                 between=None) -> tuple[Pass, list]:
        """Run chunks until the time is spent and enough requests are done,
        or exactly the replayed chunks; call between() after each chunk."""
        result = Pass()
        done = []
        cache_dir = self.new_dir("cache")
        start = perf_counter()
        for chunk in (replay if replay is not None else self.chunks()):
            if replay is None and workloads.time_is_up(
                    perf_counter() - start, result.attempted, self.seconds,
                    self.min_requests, HARD_STOP_S):
                break
            if self.workload == "cli_session":
                self.cli_chunk(chunk, trace, result, cache_dir)
            else:
                chunk = self.worker_chunk(chunk, trace, result,
                                          timed=replay is None,
                                          between=between)
            done.append(chunk)
            if between is not None:
                between()
        shutil.rmtree(cache_dir, ignore_errors=True)
        return result, done

    def worker_chunk(self, chunk: list[dict], trace: bool, result: Pass,
                     timed: bool, between=None) -> list[dict]:
        """Run a chunk in a worker process; returns the requests it ran."""
        work_dir = self.new_dir("chunk")
        spec = {"workload": self.workload, "requests": chunk,
                "out_dir": str(work_dir), "trace": trace,
                "spans_path": str(self.spans_path),
                "pause_every": PAUSE_EVERY if between is not None else None}
        if self.workload == "coupling_gram":
            deck = self.sizes.get("deck", workloads.GRAM_DECK)
            spec["warmup"] = sorted(set(deck))
            if timed:
                spec["stop"] = {"seconds": self.seconds,
                                "min_requests": self.min_requests,
                                "hard_stop": HARD_STOP_S,
                                "every": len(deck)}
        spec_path, result_path = work_dir / "spec.json", work_dir / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code, _, _ = spawn([sys.executable, str(HERE / "worker.py"),
                            str(spec_path), str(result_path)],
                           child_env(), stderr=work_dir / "stderr",
                           between=between)
        try:
            doc = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            doc = None
        if code != 0 or doc is None:
            tail = (work_dir / "stderr").read_text(errors="replace")[-300:]
            for req in chunk:
                result.record(0.0, 0, f"worker exit {code}: {tail}",
                              f"request {req['id']}")
            shutil.rmtree(work_dir, ignore_errors=True)
            return chunk
        result.rss_kib.append(doc["rss_kib"])
        result.references += doc["references"]
        result.backend = doc["backend"]
        if "trace" in doc:
            result.summaries.append(doc["trace"])
        by_id = {req["id"]: req for req in chunk}
        for r in doc["requests"]:
            req = by_id[r["id"]]
            if r["exit"] != 0:
                problem = r.get("error") or f"exit code {r['exit']}"
            elif self.workload == "table_sweep":
                out = Path(r["out"])
                data = out.read_bytes() if out.exists() else None
                problem = self.gate.table(req["source"], req["channel"],
                                          req["format"], data)
            else:
                problem = self.gate.matrix(req["source"], r["digest"],
                                           r["gram_is_none"])
            result.record(r["seconds"], r["work"], problem,
                          json.dumps({k: v for k, v in req.items()
                                      if k != "rows"}))
        shutil.rmtree(work_dir, ignore_errors=True)
        return chunk[:len(doc["requests"])]

    def cli_chunk(self, chunk: list[dict], trace: bool, result: Pass,
                  cache_dir: Path) -> None:
        env = child_env(cache_dir)
        for req in chunk:
            work_dir = self.new_dir("req")
            argv = list(req["argv"])
            out = work_dir / "out" if req["out"] else None
            if out is not None:
                argv += ["--out", str(out)]
            opts = []
            summary = work_dir / "trace.json"
            if trace:
                opts = ["--trace", str(summary), str(self.spans_path),
                        str(req["id"])]
            code, seconds, rss = spawn(
                [sys.executable, str(HERE / "launcher.py"), *opts, "--",
                 *argv], env, stdout=work_dir / "stdout")
            stdout = (work_dir / "stdout").read_bytes()
            out_data = out.read_bytes() if out and out.exists() else None
            problem = self.gate.cli(workloads.cli_key(req["argv"], req["out"]),
                                    req["argv"], code, stdout, out_data)
            result.record(seconds, 1, problem, " ".join(req["argv"]))
            result.rss_kib.append(rss)
            if not trace and req["id"] % CLI_REFERENCE_EVERY == 0:
                result.references.append(
                    spawn(reference.PROCESS_ARGV, env)[1])
            if trace and summary.exists():
                result.summaries.append(json.loads(summary.read_text()))
            if req["argv"][0] == "table":
                pair = (req["argv"][2], req["argv"][3])
                result.table_requests += 1
                result.table_repeats += pair in result.tables_seen
                result.tables_seen.add(pair)
            shutil.rmtree(work_dir, ignore_errors=True)


def end_to_end(p: Pass, setup_s: float, factor: float = 1.0,
               setup_factor: float = 1.0) -> dict:
    """The end-to-end metrics; times are multiplied by factor (setup_s by
    setup_factor) and rates divided by it."""
    lat = p.latencies
    return {
        "setup_s": (setup_s * setup_factor, "s"),
        "work_per_s": (p.work / sum(lat) / factor if sum(lat) else 0.0,
                       "work/s"),
        "request_p50_s": (statistics.median(lat) * factor, "s"),
        "request_p90_s": (factor * (statistics.quantiles(
            lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]),
            "s"),
        "peak_rss_mb": (statistics.median(p.rss_kib) / 1024
                        if p.rss_kib else 0.0, "MiB"),
        "success_ratio": ((p.attempted - p.failed) / p.attempted, "fraction"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        expected: Optional[dict] = None, min_requests: int = MIN_REQUESTS,
        sizes: Optional[dict] = None) -> dict:
    """Run one workload; returns the full result document."""
    if expected is None:
        expected = json.loads((HERE / "expected.json").read_text())
    if trace:
        # the traced pass replays the untraced one, so each gets half the
        # time; a traced run reports no percentiles, so no request minimum
        seconds, min_requests = seconds / 2, 1
    tmp = ROOT / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        runner = Runner(workload, seed, seconds, expected, min_requests, tmp,
                        sizes)
        setup = None if trace else SetupTimer()
        first, chunks = runner.run_pass(
            trace=False, between=setup.sample if setup else None)
        passes = [first]
        detail = {"requests": first.attempted,
                  "work": first.work, "work_unit": WORK_UNITS[workload]}
        if trace:
            second, _ = runner.run_pass(trace=True, replay=chunks)
            passes.append(second)
            metrics = layer_metrics(merge(second.summaries))
            untraced = sum(first.latencies)
            overhead = sum(second.latencies) / untraced - 1 if untraced else 0.0
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            detail["spans"] = sum(1 for _ in open(runner.spans_path)) \
                if runner.spans_path.exists() else 0
        else:
            # set-up and CLI processes are scaled by the process reference,
            # in-process workloads by the compute reference
            setup_s = setup.median()
            process = reference.scale(setup.references,
                                      reference.PROCESS_NOMINAL_S)
            factor = reference.scale(first.references,
                                     reference.PROCESS_NOMINAL_S
                                     if workload == "cli_session"
                                     else reference.COMPUTE_NOMINAL_S)
            metrics = end_to_end(first, setup_s, factor, process)
            detail["setup_samples"] = len(setup.samples)
            detail["host_scale"] = {"setup": process, "requests": factor}
            detail["unscaled"] = {name: value for name, (value, _)
                                  in end_to_end(first, setup_s).items()}
        if workload == "cli_session":
            detail["table_requests"] = first.table_requests
            detail["repeat_share"] = (first.table_repeats
                                      / max(first.table_requests, 1))
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        if runner.spans_path.exists():
            shutil.move(runner.spans_path, out_dir / f"spans-{stem}.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    doc = {
        "fingerprint": {
            "git_sha": git_sha(), "src_digest": src_digest(),
            "python": platform.python_version(),
            "backend": first.backend or kernel_backend(),
            "nproc": nproc(), "seed": seed,
            "blas_threads": min(BLAS_THREADS, nproc()),
        },
        "workload": workload, "trace": trace, "detail": detail,
        "failures": [f for p in passes for f in p.failures][:5],
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(doc, indent=1))
    return doc


def kernel_backend() -> str:
    code = "from so5cg._kernel import BACKEND; print(BACKEND)"
    return subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "so5cg" / "__init__.py").is_file():
        print(f"so5cg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: doc[k] for k in ("fingerprint", "workload", "trace",
                                          "detail", "failures")}))
    print(json.dumps(doc["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
