"""Command line front end for coefficient queries and verification.

Exit codes: 0 success, 1 failed verification, 2 malformed key, 3 absent
channel, 4 I/O error, 5 request outside the supported domain. Labels use the
"a,b" syntax with half-integers written as fractions ("3/2"); JSON output
carries doubled integers for exactness.
All output is deterministic, and cache hits render byte-identically to cold
computations because both paths render from the same canonical payload.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from typing import Optional

from . import cache
from .errors import ChannelAbsent, MalformedKey, So5Error
from .exactnum import ZERO, SqrtSum
from .fullcg import ColState, RowState, check_row, full
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
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_MALFORMED = 2
EXIT_ABSENT = 3
EXIT_IO = 4
EXIT_DOMAIN = 5

AUX = "aux"


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
        return _parse_channel(args.channel)
    if args.target is None:
        raise MalformedKey("need either --target or --channel")
    target = IrrepLabel.parse(args.target)
    return Channel(target.tj1 - source.tj1, target.tj2 - source.tj2, args.copy)


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
    target_so4 = source_so4.shifted(entry.tdj1, entry.tdj2)
    if target_so4 is None:
        return ZERO
    return full(source, row,
                ColState(target, channel.copy, target_so4, tm1, tm2))


def _json_doc(kind: str, fields: dict) -> str:
    doc = {"schema": cache.SCHEMA, "kind": kind}
    doc.update(fields)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
            "den": "%s",
            "num": "%s",
            "rad": "%s"
          }"""


def _json_list(items: list[str], indent: str) -> str:
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _table_json(payload: dict) -> str:
    """_json_doc("table", payload) for a canonical table payload, freshly
    built or a cache entry whose digest matched."""
    rows = [_ROW_JSON % (
        *row["entry"], *row["part"], *row["s"],
        "null" if row["t"] is None else _T_JSON % tuple(row["t"]),
        _json_list([_TERM_JSON % (term["den"], term["num"], term["rad"])
                    for term in row["value"]["terms"]], " " * 8))
        for row in payload["rows"]]
    return _TABLE_JSON % (json.dumps(payload["channel"]),
                          _json_list(rows, "  "), json.dumps(cache.SCHEMA),
                          json.dumps(payload["source"]))


def _export(args, request: tuple, json_text, build, header: list,
            csv_rows) -> int:
    """Emit one exported document, from the cache or built and stored.

    Both paths render from the same payload, so a hit prints the bytes of a
    cold run; json_text maps the payload to the JSON document and csv_rows
    to the rows under header.
    """
    key = cache.cache_key(*request)
    payload = None if args.no_cache else cache.load(key)
    if payload is None:
        payload = build()
        if not args.no_cache:
            cache.store(key, payload)
    if args.format == "json":
        text = json_text(payload)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(csv_rows(payload))
        text = buf.getvalue()
    _emit(text, args.out)
    return EXIT_OK


def _table_payload(source: IrrepLabel, channel, channel_text: str) -> dict:
    listed = (aux_table_rows(source) if channel is AUX
              else table_rows(source, channel))
    rows = [{
        "s": list(row.source_so4.twice),
        "entry": [row.entry.tdj1, row.entry.tdj2],
        "part": list(row.entry.part.twice),
        "t": list(row.target_so4.twice) if row.target_so4 else None,
        "value": row.value.to_json_dict(),
    } for row in listed]
    return {"source": str(source), "channel": channel_text, "rows": rows}


def _table_csv_rows(payload: dict):
    # The payload is canonical, freshly built or a cache entry whose digest
    # matched, so its terms are formatted as they stand.
    for row in payload["rows"]:
        t = row["t"] if row["t"] is not None else ["", ""]
        value = SqrtSum(tuple((int(term["rad"]), int(term["num"]),
                               int(term["den"]))
                              for term in row["value"]["terms"]))
        yield row["s"] + row["entry"] + row["part"] + t + [str(value)]


def cmd_table(args) -> int:
    source = IrrepLabel.parse(args.source)
    channel = _parse_channel(args.channel)
    channel_text = AUX if channel is AUX else str(channel)
    return _export(
        args, ("table", str(source), channel_text), _table_json,
        lambda: _table_payload(source, channel, channel_text),
        ["s_tj1", "s_tj2", "entry_tdj1", "entry_tdj2",
         "part_tj1", "part_tj2", "t_tj1", "t_tj2", "value"],
        _table_csv_rows)


def _decompose_payload(source: IrrepLabel) -> dict:
    entries = [{
        "target": list(entry.target.twice),
        "multiplicity": entry.multiplicity,
        "dim": dim(entry.target),
    } for entry in decompose_with_14(source)]
    return {
        "source": str(source),
        "entries": entries,
        "total_dim": sum(e["multiplicity"] * e["dim"] for e in entries),
    }


def cmd_decompose(args) -> int:
    source = IrrepLabel.parse(args.label)
    return _export(
        args, ("decompose", str(source)),
        functools.partial(_json_doc, "decomposition"),
        lambda: _decompose_payload(source),
        ["target_tj1", "target_tj2", "multiplicity", "dim"],
        lambda p: (e["target"] + [e["multiplicity"], e["dim"]]
                   for e in p["entries"]))


def _branch_payload(label: IrrepLabel) -> dict:
    blocks = [{"so4": list(s.twice), "so3_dim": s.so3_dim}
              for s in branching(label)]
    return {"label": str(label), "blocks": blocks, "dim": dim(label)}


def cmd_branch(args) -> int:
    label = IrrepLabel.parse(args.label)
    return _export(
        args, ("branch", str(label)),
        functools.partial(_json_doc, "branching"),
        lambda: _branch_payload(label),
        ["tj1", "tj2", "so3_dim"],
        lambda p: (b["so4"] + [b["so3_dim"]] for b in p["blocks"]))


def cmd_verify(args) -> int:
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
    p_eval.add_argument("--copy", type=int, choices=(1, 2), default=1,
                        help="diagonal channel copy when using --target")
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
    p_ver.add_argument("suite", choices=(*SUITES, "all"))
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
