"""Runs one so5cg CLI invocation, as the installed `so5cg` script does.

    python3 perfbench/launcher.py -- ARGS...
    python3 perfbench/launcher.py --trace SUMMARY.json SPANS.jsonl REQUEST -- ARGS...

With --trace it first installs the tracing wrappers, then writes the trace
summary and the spans when the command returns.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    split = sys.argv.index("--")
    opts, argv = sys.argv[1:split], sys.argv[split + 1:]
    if not opts:
        from so5cg.cli import main as cli_main
        return cli_main(argv)

    from tracing import Tracer, install
    summary_path, spans_path, request = opts[1], opts[2], int(opts[3])
    tracer = Tracer()
    install(tracer, with_oracle=argv[:2] == ["verify", "oracle"])
    tracer.request = request
    import so5cg.cli
    try:
        return so5cg.cli.main(argv)
    finally:
        tracer.request = None
        Path(summary_path).write_text(json.dumps(tracer.summary()),
                                      encoding="utf-8")
        tracer.write_spans(spans_path)


if __name__ == "__main__":
    sys.exit(main())
