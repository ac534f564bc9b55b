"""Command line front end for coefficient queries and verification.

Exit codes: 0 success, 1 failed verification, 2 malformed key, 3 absent
channel, 4 I/O error, 5 request outside the supported domain. Labels use the
"a,b" syntax with half-integers written as fractions ("3/2"); JSON output
carries doubled integers for exactness.
All output is deterministic. Table, decompose and branch exports render
straight from the computed rows to CSV or JSON text, and that text is what
the disk cache stores, under the request and the format, so a cache hit
prints the bytes of the cold run.

Importing this module loads the table layer and the cache only. A full
`eval` (with --m/--part-m) imports `fullcg`, and `verify` the verification
layer, inside the command that runs them, so `table`, `decompose`, `branch`
and a reduced `eval` never load either.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import cache
from .errors import ChannelAbsent, MalformedKey, So5Error
from .exactnum import ZERO, SqrtSum
from .labels import (
    Channel,
    EntryShift,
    HalfInt,
    IrrepLabel,
    PARTS_14,
    So4Label,
    branching,
    decompose_with_14,
    dim,
)
from .reduced import (
    ReducedKey,
    aux_table_rows,
    check_source_block,
    reduced,
    reduced_aux,
    table_rows,
    valid_target,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_MALFORMED = 2
EXIT_ABSENT = 3
EXIT_IO = 4
EXIT_DOMAIN = 5

AUX = "aux"

# The names of verify.SUITES, written out so that building the parser does
# not import the verification layer; tests/test_layers.py checks they match.
SUITE_NAMES = ("orthogonality", "mixing", "symmetry", "su2", "oracle")


def _parse_channel(text: str):
    """Parse "+1,+1", "-1/2,+1/2", "0,0#1", "0,0#2", or "aux"."""
    s = text.strip()
    if s == AUX:
        return AUX
    copy = 1
    if "#" in s:
        s, _, copy_text = s.partition("#")
        if copy_text not in ("1", "2"):
            raise MalformedKey(f"channel copy must be 1 or 2, got {text!r}")
        copy = int(copy_text)
    parts = s.split(",")
    if len(parts) != 2:
        raise MalformedKey(f"expected 'dj1,dj2', got {text!r}")
    return Channel(HalfInt.parse(parts[0]).twice, HalfInt.parse(parts[1]).twice,
                   copy)


def _parse_pair(text: str, what: str) -> tuple[HalfInt, HalfInt]:
    parts = text.split(",")
    if len(parts) != 2:
        raise MalformedKey(f"expected '{what}' as 'a,b', got {text!r}")
    return HalfInt.parse(parts[0]), HalfInt.parse(parts[1])


def _channel_of(source: IrrepLabel, args):
    if args.channel is not None:
        # The channel string carries its own target shift and copy.
        if args.target is not None or args.copy is not None:
            raise MalformedKey("--channel cannot be combined with --target "
                               "or --copy; write the copy as '0,0#2'")
        return _parse_channel(args.channel)
    if args.target is None:
        raise MalformedKey("need either --target or --channel")
    target = IrrepLabel.parse(args.target)
    return Channel(target.tj1 - source.tj1, target.tj2 - source.tj2,
                   args.copy or 1)


def _parse_part(text: str) -> So4Label:
    part = So4Label.parse(text)
    if part not in PARTS_14:
        raise MalformedKey(f"not an SO(4) block of the 14-dim rep: {text!r}")
    return part


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_eval(args) -> int:
    source = IrrepLabel.parse(args.source)
    channel = _channel_of(source, args)
    source_so4 = So4Label.parse(args.source_so4)
    part = _parse_part(args.part)
    dj1, dj2 = _parse_pair(args.entry, "entry shift")
    entry = EntryShift(dj1.twice, dj2.twice, part)

    if any(v is not None for v in (args.m, args.part_m, args.target_m)):
        if channel is AUX:
            raise MalformedKey("the aux companion has no full coefficient; "
                               "drop --m, --part-m and --target-m")
        if args.m is None or args.part_m is None:
            raise MalformedKey("full evaluation needs both --m and --part-m")
        value = _eval_full(args, source, channel, source_so4, entry)
    elif channel is AUX:
        value = reduced_aux(ReducedKey(source, Channel(0, 0, 1),
                                       source_so4, entry))
    else:
        value = reduced(ReducedKey(source, channel, source_so4, entry))
    print(value)
    print(float(value))
    return EXIT_OK


def _eval_full(args, source: IrrepLabel, channel: Channel,
               source_so4: So4Label, entry: EntryShift) -> SqrtSum:
    from .fullcg import ColState, RowState, check_row, full

    # As on the reduced path, a key whose source block does not exist is
    # malformed before it is a zero or an absent channel.
    check_source_block(source, source_so4)
    target = valid_target(source, channel)
    m1, m2 = _parse_pair(args.m, "m1,m2")
    pm1, pm2 = _parse_pair(args.part_m, "pm1,pm2")
    if args.target_m is not None:
        tm1, tm2 = _parse_pair(args.target_m, "tm1,tm2")
    else:
        tm1, tm2 = m1 + pm1, m2 + pm2
    row = RowState(source_so4, m1, m2, entry.part, pm1, pm2)
    # An invalid product state is malformed before an entry that takes the
    # source block to a negative spin is 0.
    check_row(source, row)
    tj1, tj2 = source_so4.tj1 + entry.tdj1, source_so4.tj2 + entry.tdj2
    if tj1 < 0 or tj2 < 0:
        return ZERO
    return full(source, row,
                ColState(target, channel.copy, So4Label(tj1, tj2), tm1, tm2))


def _json_doc(kind: str, fields: dict) -> str:
    doc = {"schema": cache.SCHEMA, "kind": kind}
    doc.update(fields)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv(header: list, rows) -> str:
    """CSV text of header and rows, as csv.writer writes it: no cell of an
    export holds a comma, a quote or a line break, so none is quoted."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


# A table document as json.dumps(doc, sort_keys=True, indent=2) writes it,
# filled in from fixed templates: with indent set, json.dumps runs CPython's
# pure-Python encoder, which took most of a table export's time.
_TABLE_JSON = ('{\n  "channel": %s,\n  "kind": "table",\n  "rows": %s,\n'
               '  "schema": %s,\n  "source": %s\n}\n')
_ROW_JSON = """    {
      "entry": [
        %d,
        %d
      ],
      "part": [
        %d,
        %d
      ],
      "s": [
        %d,
        %d
      ],
      "t": %s,
      "value": {
        "terms": %s
      }
    }"""
_T_JSON = "[\n        %d,\n        %d\n      ]"
_TERM_JSON = """          {
            "den": "%d",
            "num": "%d",
            "rad": "%d"
          }"""


def _json_list(items: list[str], indent: str) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _table_json(source: IrrepLabel, channel_text: str, rows) -> str:
    """The table document of rows, each value as its (rad, num, den) terms
    in decimal strings."""
    items = [_ROW_JSON % (
        row.entry.tdj1, row.entry.tdj2, *row.entry.part.twice,
        *row.source_so4.twice,
        "null" if row.target_so4 is None else _T_JSON % row.target_so4.twice,
        _json_list([_TERM_JSON % (den, num, rad)
                    for rad, num, den in row.value.terms], " " * 8))
        for row in rows]
    return _TABLE_JSON % (json.dumps(channel_text), _json_list(items, "  "),
                          json.dumps(cache.SCHEMA), json.dumps(str(source)))


def _export(args, request: tuple, render) -> int:
    """Emit one exported document, from the cache or rendered and stored.

    The cache holds the rendered text under the request and the format, so
    a hit prints the bytes of the cold run; render(format) renders it. The
    key, which hashes the engine's sources, is computed only when the cache
    is on.
    """
    key = (None if args.no_cache or cache.cache_dir() is None
           else cache.cache_key(*request, args.format))
    text = None if key is None else cache.load(key)
    if text is None:
        text = render(args.format)
        if key is not None:
            cache.store(key, text)
    _emit(text, args.out)
    return EXIT_OK


_TABLE_HEADER = ["s_tj1", "s_tj2", "entry_tdj1", "entry_tdj2", "part_tj1",
                 "part_tj2", "t_tj1", "t_tj2", "value"]


def _table_text(source: IrrepLabel, channel, channel_text: str,
                fmt: str) -> str:
    rows = (aux_table_rows(source) if channel is AUX
            else table_rows(source, channel))
    if fmt == "json":
        return _table_json(source, channel_text, rows)
    return _csv(_TABLE_HEADER, (
        [*row.source_so4.twice, row.entry.tdj1, row.entry.tdj2,
         *row.entry.part.twice,
         *(row.target_so4.twice if row.target_so4 else ("", "")), row.value]
        for row in rows))


def cmd_table(args) -> int:
    source = IrrepLabel.parse(args.source)
    channel = _parse_channel(args.channel)
    channel_text = AUX if channel is AUX else str(channel)
    return _export(args, ("table", str(source), channel_text),
                   functools.partial(_table_text, source, channel,
                                     channel_text))


def _decompose_text(source: IrrepLabel, fmt: str) -> str:
    entries = [(entry.target, entry.multiplicity, dim(entry.target))
               for entry in decompose_with_14(source)]
    if fmt == "csv":
        return _csv(["target_tj1", "target_tj2", "multiplicity", "dim"],
                    ([*target.twice, mult, d] for target, mult, d in entries))
    return _json_doc("decomposition", {
        "source": str(source),
        "entries": [{"target": list(target.twice), "multiplicity": mult,
                     "dim": d} for target, mult, d in entries],
        "total_dim": sum(mult * d for _, mult, d in entries),
    })


def cmd_decompose(args) -> int:
    source = IrrepLabel.parse(args.label)
    return _export(args, ("decompose", str(source)),
                   functools.partial(_decompose_text, source))


def _branch_text(label: IrrepLabel, fmt: str) -> str:
    blocks = branching(label)
    if fmt == "csv":
        return _csv(["tj1", "tj2", "so3_dim"],
                    ([*s.twice, s.so3_dim] for s in blocks))
    return _json_doc("branching", {
        "label": str(label),
        "blocks": [{"so4": list(s.twice), "so3_dim": s.so3_dim}
                   for s in blocks],
        "dim": dim(label),
    })


def cmd_branch(args) -> int:
    label = IrrepLabel.parse(args.label)
    return _export(args, ("branch", str(label)),
                   functools.partial(_branch_text, label))


def cmd_verify(args) -> int:
    from .verify import run_suite

    source = IrrepLabel.parse(args.source) if args.source else None
    results = run_suite(args.suite, max_twice_j=args.max_twice_j,
                        tol=args.tol, source=source)
    passed = all(r.passed for r in results)
    _emit(_json_doc("verify_report", {
        "suite": args.suite,
        "max_twice_j": args.max_twice_j,
        "tol": args.tol,
        "checks": [r.to_json_dict() for r in results],
        "pass": passed,
    }), args.out)
    if not passed:
        first = next(r for r in results if not r.passed)
        print(f"FAIL {first.name}: {first.counterexample}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write to file instead of stdout")
    sub.add_argument("--no-cache", action="store_true",
                     help="skip the SO5CG_CACHE directory")


# argparse reads "--channel -1,-1" as two options, so the help shows the
# "=" form that negative shifts need.
_CHANNEL_HELP = ("channel shift, e.g. '+1,+1', '0,0#2', 'aux'; write a "
                 "negative one as --channel=-1,-1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The so5cg argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="so5cg",
        description="Exact Spin(5) coupling coefficients with the 14-dim rep.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate one coefficient")
    p_eval.add_argument("--source", required=True, help="source irrep 'j1,j2'")
    p_eval.add_argument("--target", default=None, help="target irrep 'j1,j2'")
    p_eval.add_argument("--channel", default=None, help=_CHANNEL_HELP)
    p_eval.add_argument("--copy", type=int, choices=(1, 2), default=None,
                        help="diagonal channel copy when using --target "
                             "(default 1)")
    p_eval.add_argument("--source-so4", required=True, dest="source_so4",
                        help="source SO(4) block 'j1,j2'")
    p_eval.add_argument("--entry", required=True,
                        help="entry shift 'dj1,dj2', e.g. '+1,+1'")
    p_eval.add_argument("--part", required=True,
                        help="SO(4) block of the 14-dim rep: '1,1', '1/2,1/2', '0,0'")
    p_eval.add_argument("--m", default=None,
                        help="source magnetic pair 'm1,m2' (full coefficient)")
    p_eval.add_argument("--part-m", default=None, dest="part_m",
                        help="14-dim magnetic pair 'pm1,pm2' (full coefficient)")
    p_eval.add_argument("--target-m", default=None, dest="target_m",
                        help="target magnetic pair; defaults to m + part-m")
    p_eval.set_defaults(fn=cmd_eval)

    p_table = subs.add_parser("table", help="export one channel's reduced table")
    p_table.add_argument("--source", required=True)
    p_table.add_argument("--channel", required=True, help=_CHANNEL_HELP)
    _add_output_flags(p_table)
    p_table.set_defaults(fn=cmd_table)

    p_dec = subs.add_parser("decompose",
                            help="decompose source x 14 into irreps")
    p_dec.add_argument("label", help="source irrep 'j1,j2'")
    _add_output_flags(p_dec)
    p_dec.set_defaults(fn=cmd_decompose)

    p_br = subs.add_parser("branch", help="SO(4) branching of one irrep")
    p_br.add_argument("label", help="irrep 'j1,j2'")
    _add_output_flags(p_br)
    p_br.set_defaults(fn=cmd_branch)

    p_ver = subs.add_parser("verify", help="run an invariant suite")
    p_ver.add_argument("suite", choices=(*SUITE_NAMES, "all"))
    p_ver.add_argument("--max-twice-j", type=int, default=8, dest="max_twice_j")
    p_ver.add_argument("--tol", type=float, default=1e-9)
    p_ver.add_argument("--source", default=None,
                       help="restrict the oracle suite to one source")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MalformedKey as exc:
        print(f"malformed key: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ChannelAbsent as exc:
        print(f"channel absent: {exc}", file=sys.stderr)
        return EXIT_ABSENT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except So5Error as exc:
        print(f"outside supported domain: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
