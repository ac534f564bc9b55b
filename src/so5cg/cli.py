"""Command line front end for coefficient queries and verification.

Exit codes: 0 success, 1 failed verification, 2 malformed key, 3 absent
channel, 4 I/O error, 5 request outside the supported domain. Labels use the
"a,b" syntax with half-integers written as fractions ("3/2"); JSON output
carries doubled integers for exactness.
All output is deterministic. Table, decompose and branch exports render
straight from the computed rows to CSV or JSON text, and that text is what
the disk cache stores, under the request and the format, so a cache hit
prints the bytes of the cold run. A table is rendered from the doubled-int
rows of so5cg.reduced's table walk as each row is evaluated; each entry's
fixed CSV cells and JSON row template are built once, at import, so no row
builds a label.

Importing this module loads the table layer and the cache only, and the
cache loads neither `hashlib` nor `json` until it is used: with the cache
off (SO5CG_CACHE unset or --no-cache), a CSV export or a reduced `eval`
loads neither, and `json` is imported by the two JSON renderers. A full
`eval` (with --m/--part-m) imports `fullcg`, and `verify` the verification
layer, inside the command that runs them, so `table`, `decompose`, `branch`
and a reduced `eval` never load either. No command but `verify oracle`,
whose numpy imports it, loads `dataclasses` or `inspect`.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from . import cache
from .errors import ChannelAbsent, MalformedKey, So5Error
from .exactnum import ZERO, SqrtSum
from .labels import (
    ENTRY_SHIFTS,
    Channel,
    EntryShift,
    HalfInt,
    IrrepLabel,
    So4Label,
    branching,
    check_block,
    decompose_with_14,
    dim,
    parse_int,
    parse_pair,
)
from .reduced import (
    ReducedKey,
    aux_table_walk,
    reduced,
    reduced_aux,
    table_walk,
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
        # Channel checks the copy's range; only its text is read here.
        s, _, copy_text = s.partition("#")
        try:
            copy = parse_int(copy_text)
        except ValueError as exc:
            raise MalformedKey(
                f"channel copy must be an integer, got {text!r}") from exc
    return Channel(*parse_pair(s, "'dj1,dj2'"), copy)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_eval(args) -> int:
    source = IrrepLabel.parse(args.source)
    channel = _parse_channel(args.channel)
    source_so4 = So4Label.parse(args.source_so4)
    part = So4Label.parse(args.part)
    # EntryShift refuses a part that is not a block of the 14-dim rep.
    entry = EntryShift(*parse_pair(args.entry, "'entry shift' as 'a,b'"),
                       part)

    if args.m is not None or args.part_m is not None:
        if channel is AUX:
            raise MalformedKey("the aux companion has no full coefficient; "
                               "drop --m and --part-m")
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
    check_block(source, source_so4, "source")
    target = valid_target(source, channel)
    m1, m2 = map(HalfInt, parse_pair(args.m, "'m1,m2' as 'a,b'"))
    pm1, pm2 = map(HalfInt, parse_pair(args.part_m, "'pm1,pm2' as 'a,b'"))
    row = RowState(source_so4, m1, m2, entry.part, pm1, pm2)
    # An invalid product state is malformed before an entry that takes the
    # source block to a negative spin is 0.
    check_row(source, row)
    tj1, tj2 = source_so4.tj1 + entry.tdj1, source_so4.tj2 + entry.tdj2
    if tj1 < 0 or tj2 < 0:
        return ZERO
    return full(source, row,
                ColState(target, channel.copy, So4Label(tj1, tj2),
                         m1 + pm1, m2 + pm2))


def _json_doc(kind: str, fields: dict) -> str:
    import json

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
_ROW_JSON_ENTRY = """    {
      "entry": [
        %d,
        %d
      ],
      "part": [
        %d,
        %d
      ],
"""
_ROW_JSON_REST = """      "s": [
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

# Each entry's JSON row template, by position in ENTRY_SHIFTS: its entry
# and part filled in, the source block, target block and terms left open.
_ENTRY_ROW_JSON = tuple(
    _ROW_JSON_ENTRY % (e.tdj1, e.tdj2, *e.part.twice) + _ROW_JSON_REST
    for e in ENTRY_SHIFTS)


def _json_list(items: list[str], indent: str) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _table_json(source: IrrepLabel, channel_text: str, rows) -> str:
    """The table document of the walk's rows, each value as its (rad, num,
    den) terms in decimal strings."""
    import json

    items = [_ENTRY_ROW_JSON[i] % (
        ts1, ts2, "null" if tt1 is None else _T_JSON % (tt1, tt2),
        _json_list([_TERM_JSON % (den, num, rad)
                    for rad, num, den in value.terms], " " * 8))
        for ts1, ts2, i, tt1, tt2, value in rows]
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


# Each entry's fixed CSV cells, by position in ENTRY_SHIFTS: the entry's
# shift and its part.
_ENTRY_CSV = tuple("%d,%d,%d,%d" % (e.tdj1, e.tdj2, *e.part.twice)
                   for e in ENTRY_SHIFTS)


def _table_text(source: IrrepLabel, channel, channel_text: str,
                fmt: str) -> str:
    """The table in fmt, rendered from the walk's rows as they are
    evaluated; an absent channel raises before any row."""
    rows = (aux_table_walk(source) if channel is AUX
            else table_walk(source, channel))
    if fmt == "json":
        return _table_json(source, channel_text, rows)
    return _table_csv(rows)


def _table_csv(rows) -> str:
    """The table as _csv writes it, one format per row."""
    cells = _ENTRY_CSV
    lines = [",".join(_TABLE_HEADER) + "\n"]
    append = lines.append
    for ts1, ts2, i, tt1, tt2, value in rows:
        if tt1 is None:
            append("%d,%d,%s,,,%s\n" % (ts1, ts2, cells[i], value))
        else:
            append("%d,%d,%s,%d,%d,%s\n" % (ts1, ts2, cells[i], tt1, tt2,
                                             value))
    return "".join(lines)


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
    if source is not None and args.suite not in ("oracle", "all"):
        # run_suite raises ValueError for it too, but so can a suite's own
        # arithmetic (numpy's LinAlgError), which is no bad argument.
        raise MalformedKey(f"--source restricts only the oracle and all "
                           f"suites, not {args.suite}")
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


def _non_negative(kind, name: str):
    """An argparse type: kind(text), which must be finite and >= 0. A
    negative --max-twice-j sweeps nothing and no deviation exceeds a NaN
    --tol, so either would pass every check."""
    def parse(text: str):
        value = kind(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be a finite number >= 0, got {text!r}")
        return value
    parse.__name__ = name  # argparse: "invalid int value: 'x'"
    return parse


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
    p_eval.add_argument("--channel", required=True, help=_CHANNEL_HELP)
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
    p_ver.add_argument("--max-twice-j", type=_non_negative(parse_int, "int"),
                       default=8, dest="max_twice_j")
    p_ver.add_argument("--tol", type=_non_negative(float, "float"), default=1e-9)
    p_ver.add_argument("--source", default=None,
                       help="restrict the oracle suite (also within all) "
                            "to one source")
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
