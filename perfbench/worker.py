"""One chunk of an in-process workload, run in a fresh process.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the workload name, the chunk's requests, the output directory
and whether to trace; for coupling_gram also the warm-up sources, run
untimed before tracing starts, and the stop rule, checked at deck
boundaries. Each request is timed alone; the benchmark's own bookkeeping
(rendering the matrix CSV for its digest) runs outside the timed region,
and so does the compute reference task (reference.py) after each request.
RESULT gets per-request latency, work and outputs, the peak RSS of the
process, plus the trace summary when tracing.

With pause_every set, the worker pauses after every pause_every requests:
it writes a line to stdout and waits for a line on stdin. Paused time
counts neither in a request's latency nor towards the stop rule.
"""

from __future__ import annotations

import csv
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
from gate import digest  # noqa: E402
from workloads import table_argv, time_is_up  # noqa: E402


def table_request(main, req: dict, out_dir: Path) -> dict:
    out = out_dir / f"{req['id']}.{req['format']}"
    argv = table_argv(req["source"], req["channel"], req["format"]) + [
        "--no-cache", "--out", str(out)]
    t0 = perf_counter()
    code = main(argv)
    seconds = perf_counter() - t0
    return {"id": req["id"], "seconds": seconds, "exit": code,
            "work": req["rows"], "out": str(out)}


def gram_request(api, req: dict, digested: set) -> dict:
    """One matrix and its Gram. The CSV digest is taken for the first
    matrix of each source in the process; later ones are rebuilt from the
    same memos and only checked by their Gram."""
    source = api.IrrepLabel.parse(req["source"])
    t0 = perf_counter()
    matrix = api.coupling_matrix(source)
    deviation = api.column_gram_deviation(matrix)
    seconds = perf_counter() - t0
    result = {"id": req["id"], "seconds": seconds, "exit": 0,
              "work": sum(len(col) for col in matrix.columns.values()),
              "gram_is_none": deviation is None, "digest": None}
    if req["source"] not in digested:
        digested.add(req["source"])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(matrix.to_csv_rows())
        result["digest"] = digest(buf.getvalue().encode("utf-8"))
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    import so5cg
    import so5cg.cli
    from so5cg._kernel import BACKEND

    for source in spec.get("warmup", ()):
        gram_request(so5cg, {"id": None, "source": source}, set())
    digested: set[str] = set()
    tracer = None
    if spec["trace"]:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer, with_oracle=False)
    out_dir = Path(spec["out_dir"])
    stop = spec.get("stop")
    pause_every = spec["pause_every"]
    start = perf_counter()
    paused = 0.0
    results = []
    references = []
    for req in spec["requests"]:
        if stop and len(results) % stop["every"] == 0 and time_is_up(
                perf_counter() - start - paused, len(results),
                stop["seconds"], stop["min_requests"], stop["hard_stop"]):
            break
        if pause_every and results and len(results) % pause_every == 0:
            t0 = perf_counter()
            sys.stdout.write("paused\n")
            sys.stdout.flush()
            sys.stdin.readline()
            paused += perf_counter() - t0
        if tracer is not None:
            tracer.request = req["id"]
        try:
            if spec["workload"] == "table_sweep":
                results.append(table_request(so5cg.cli.main, req, out_dir))
            else:
                results.append(gram_request(so5cg, req, digested))
        except Exception as exc:  # counted as a failed request
            results.append({"id": req["id"], "seconds": 0.0, "exit": -1,
                            "work": 0, "error": repr(exc)})
        t0 = perf_counter()
        reference.compute()
        references.append(perf_counter() - t0)
    doc = {"backend": BACKEND, "requests": results, "references": references,
           "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.request = None
        doc["trace"] = tracer.summary()
        tracer.write_spans(spec["spans_path"])
    Path(sys.argv[2]).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
