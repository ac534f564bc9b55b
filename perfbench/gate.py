"""Correctness gate: stored digests first, exact invariants otherwise.

Every check returns None when the output is correct and a short reason when
it is not; a malformed output is a failed check, never a crash. The exact
arithmetic here is independent of so5cg: values are parsed from the exported
bytes into {radicand: Fraction} maps and multiplied with gcd reduction of
square-free radicands.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from collections import defaultdict
from fractions import Fraction
from math import gcd, isclose
from typing import Optional

from workloads import twice

_TERM = re.compile(r"([+-]?\d+)(?:/(\d+))?(?:\*sqrt\((\d+)\))?")

Exact = dict[int, Fraction]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def parse_text(text: str) -> Exact:
    """Parse the CLI's compact value form, e.g. "-1/2*sqrt(2)+1/3*sqrt(5)"."""
    if text == "0":
        return {}
    out: Exact = {}
    pos = 0
    for m in _TERM.finditer(text):
        if m.start() != pos:
            raise ValueError(f"bad value {text!r}")
        pos = m.end()
        rad = int(m.group(3) or 1)
        out[rad] = out.get(rad, Fraction(0)) + Fraction(
            int(m.group(1)), int(m.group(2) or 1))
    if pos != len(text):
        raise ValueError(f"bad value {text!r}")
    return out


def parse_terms(payload: dict) -> Exact:
    out: Exact = {}
    for t in payload["terms"]:
        rad = int(t["rad"])
        out[rad] = out.get(rad, Fraction(0)) + Fraction(int(t["num"]),
                                                        int(t["den"]))
    return out


def dot(pairs) -> Exact:
    """Exact sum of products of (u, v) values."""
    acc: dict[int, Fraction] = defaultdict(Fraction)
    for u, v in pairs:
        for r1, q1 in u.items():
            for r2, q2 in v.items():
                g = gcd(r1, r2)
                acc[(r1 // g) * (r2 // g)] += q1 * q2 * g
    return {r: q for r, q in acc.items() if q}


def as_float(value: Exact) -> float:
    return sum(float(q) * r ** 0.5 for r, q in value.items())


def dim(tj1: int, tj2: int) -> int:
    return (tj1 - tj2 + 1) * (tj1 + tj2 + 3) * (tj1 + 2) * (tj2 + 1) // 6


def table_rows(data: bytes, fmt: str) -> list[tuple]:
    """(t or None, value) per exported row."""
    text = data.decode("utf-8")
    rows = []
    if fmt == "json":
        for row in json.loads(text)["rows"]:
            t = tuple(row["t"]) if row["t"] is not None else None
            rows.append((t, parse_terms(row["value"])))
        return rows
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for rec in reader:
        t = (int(rec[6]), int(rec[7])) if rec[6] != "" else None
        rows.append((t, parse_text(rec[8])))
    return rows


def table_invariants(source: str, channel: str, data: bytes,
                     fmt: str) -> Optional[str]:
    """Shape, zero rows off the target, and exact norms per target block.

    A coupling channel's reduced vector at each target SO(4) block has norm
    exactly 1. The companion (aux) rows have the same norm at every block.
    """
    tj1, tj2 = twice(source)
    rows = table_rows(data, fmt)
    if len(rows) != (tj2 + 1) * (tj1 - tj2 + 1) * 14:
        return f"{len(rows)} rows"
    groups: dict[tuple, list] = defaultdict(list)
    for t, value in rows:
        if t is None:
            if value:
                return "nonzero value off the target branching"
        else:
            groups[t].append(value)
    norms = {t: dot((v, v) for v in values) for t, values in groups.items()}
    if channel == "aux":
        distinct = {tuple(sorted(n.items())) for n in norms.values()}
        if len(distinct) > 1:
            return "companion norms differ between blocks"
        return None
    for t, norm in sorted(norms.items()):
        if norm != {1: Fraction(1)}:
            return f"norm at t={t} is {norm}"
    return None


def cli_invariants(argv: list[str], stdout: bytes,
                   out: Optional[bytes]) -> Optional[str]:
    command = argv[0]
    text = stdout.decode("utf-8")
    if command == "table":
        fmt = argv[argv.index("--format") + 1]
        channel = argv[3].partition("=")[2]
        return table_invariants(argv[2], channel,
                                out if out is not None else stdout, fmt)
    if command == "eval":
        exact_line, float_line = text.splitlines()
        value = as_float(parse_text(exact_line))
        if abs(value) > 1 or not isclose(value, float(float_line),
                                         rel_tol=1e-12, abs_tol=1e-15):
            return f"eval printed {exact_line} and {float_line}"
        return None
    if command in ("decompose", "branch"):
        tj1, tj2 = twice(argv[1])
        fmt = argv[argv.index("--format") + 1]
        if fmt == "json":
            doc = json.loads(text)
            if command == "decompose":
                total = sum(e["multiplicity"] * e["dim"]
                            for e in doc["entries"])
            else:
                total = sum(b["so3_dim"] for b in doc["blocks"])
        else:
            recs = list(csv.reader(io.StringIO(text)))[1:]
            if command == "decompose":
                total = sum(int(r[2]) * int(r[3]) for r in recs)
            else:
                total = sum(int(r[2]) for r in recs)
        want = dim(tj1, tj2) * (14 if command == "decompose" else 1)
        return None if total == want else f"dimension {total} != {want}"
    return None


class Gate:
    """Checks outputs against the digests in expected.json."""

    def __init__(self, expected: dict):
        self.expected = expected

    def table(self, source: str, channel: str, fmt: str,
              data: Optional[bytes]) -> Optional[str]:
        try:
            if data is None:
                return "no output"
            want = self.expected["table"].get(source, {}).get(channel)
            if want is not None:
                got = digest(data)
                stored = want[0 if fmt == "csv" else 1]
                return None if got == stored else f"digest {got} != {stored}"
            return table_invariants(source, channel, data, fmt)
        except Exception as exc:  # a malformed output is a failure
            return f"unreadable table: {exc!r}"

    def matrix(self, source: str, csv_digest: Optional[str],
               gram_is_none: bool) -> Optional[str]:
        if not gram_is_none:
            return "column Gram differs from the identity"
        stored = self.expected["matrix"].get(source)
        if None not in (stored, csv_digest) and stored != csv_digest:
            return f"matrix digest {csv_digest} != {stored}"
        return None

    def cli(self, key: str, argv: list[str], code: int, stdout: bytes,
            out: Optional[bytes]) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            if argv[0] == "verify" and json.loads(stdout)["pass"] is not True:
                return "verify report does not pass"
            want = self.expected["cli"].get(key)
            if want is not None:
                got = {"stdout": digest(stdout)}
                if out is not None:
                    got["out"] = digest(out)
                return None if got == want else f"digests {got} != {want}"
            return cli_invariants(argv, stdout, out)
        except Exception as exc:  # a malformed output is a failure
            return f"unreadable output: {exc!r}"
