"""The compiled integer tables against the formulas as written.

Each row is re-evaluated here from its own strings and polynomial on
Fraction, with a parser of this file's own, and must give the same
SqrtSum, the same zero or the same FormulaDomainError as the integer
evaluator at the doubled spins.
"""

import itertools
import re
from fractions import Fraction

import pytest

from so5cg.errors import ChannelAbsent, FormulaDomainError
from so5cg.exactnum import ZERO, sqrt_rational
from so5cg.labels import ENTRY_SHIFTS, branching, iter_labels
from so5cg.tables import AUX_TABLE, DIAGONAL_TABLE, RAISING_TABLES

TABLES = {**{f"raising {shift}": table
             for shift, table in RAISING_TABLES.items()},
          "diagonal": DIAGONAL_TABLE, "aux": AUX_TABLE}

SOURCES = list(iter_labels(6))

# 7 values of each doubled variable, with the spins they stand for.
GRID = [(point, tuple(Fraction(t, 2) for t in point))
        for point in itertools.product(range(-3, 4), repeat=4)]

_FORMS: dict = {}


def form_value(text: str, env: dict) -> Fraction:
    """Value of one linear form such as "-j1+2j2+b1+3", on Fractions."""
    code = _FORMS.get(text)
    if code is None:
        expr = re.sub(r"(\d)([jb])", r"\1*\2", text.replace(" ", ""))
        code = _FORMS[text] = compile(expr, text, "eval")
    return Fraction(eval(code, {"__builtins__": {}}, env))


def forms(text: str) -> list[str]:
    return [p for p in text.split(";") if p.strip()]


def reference_row(row, entry, j1, j2, b1, b2, values: dict):
    """The row as written, on Fractions; the same message on a bad domain.

    values caches form values at this point across the rows of a table.
    """
    env = {"j1": j1, "j2": j2, "b1": b1, "b2": b2}

    def value(text):
        v = values.get(text)
        if v is None:
            v = values[text] = form_value(text, env)
        return v

    outer = row.sign * Fraction(row.scale)
    for f in forms(row.outer):
        outer *= value(f)
    if outer and row.poly is not None:
        outer *= row.poly.source(j1, j2, b1, b2)
    if not outer:
        return ZERO
    num, den = Fraction(row.srad).as_integer_ratio()
    negatives = 0
    for f in forms(row.num):
        v = value(f)
        if v == 0:
            return ZERO
        negatives += v < 0
        num *= v.numerator
        den *= v.denominator
    if negatives % 2:
        return FormulaDomainError(
            f"negative radicand for entry {entry} at "
            f"j=({j1},{j2}), b=({b1},{b2})")
    for f in forms(row.den):
        v = value(f)
        if v <= 0:
            return FormulaDomainError(
                f"denominator factor {f} = {v} for entry {entry} at "
                f"j=({j1},{j2}), b=({b1},{b2})")
        num *= v.denominator
        den *= v.numerator
    return outer * sqrt_rational(Fraction(num, den))


def reference_factor(source, b1, b2) -> Fraction:
    if isinstance(source, str):
        return form_value(source, {"j1": 0, "j2": 0, "b1": b1, "b2": b2})
    return Fraction(source(Fraction(0), Fraction(0), b1, b2))


def evaluated(fn, *args):
    try:
        return fn(*args)
    except (FormulaDomainError, ChannelAbsent) as exc:
        return exc


def same(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, Exception) and got == want


def compiled_polys():
    """Every polynomial written as a function; the linear forms are checked
    through the rows and normalizations below."""
    for name, table in TABLES.items():
        for f in table.norm_factors:
            if callable(f.source):
                yield f"{name} norm", f
        for key, row in table.rows.items():
            if row.poly is not None:
                yield f"{name} {key}", row.poly


@pytest.mark.parametrize("name,poly", list(compiled_polys()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_compiled_polynomial_equals_its_source(name, poly):
    # No polynomial exceeds degree 6 in any variable, so agreement on 7
    # values of each variable proves the two polynomials identical.
    assert all(max(term[1:]) <= 6 for term in poly.terms)
    scale = 2 ** poly.degree
    for point, spins in GRID:
        assert poly(*point) == poly.source(*spins) * scale, (name, point)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_rows_match_their_formulas(name):
    table = TABLES[name]
    for src in SOURCES:
        b1, b2 = Fraction(src.tj1, 2), Fraction(src.tj2, 2)
        for s in branching(src):
            j1, j2 = Fraction(s.tj1, 2), Fraction(s.tj2, 2)
            values: dict = {}
            for entry in ENTRY_SHIFTS:
                got = evaluated(table.bare_value, entry, *s.twice,
                                *src.twice)
                want = reference_row(table.rows[entry], entry, j1, j2, b1, b2,
                                     values)
                assert same(got, want), (name, str(src), str(s), str(entry),
                                         got, want)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_normalization_matches_its_formula(name):
    table = TABLES[name]
    for src in SOURCES:
        b1, b2 = Fraction(src.tj1, 2), Fraction(src.tj2, 2)
        got = table.factor_values(*src.twice)
        want = [reference_factor(f.source, b1, b2) for f in table.norm_factors]
        assert [Fraction(v, 2 ** f.degree) for f, v in
                zip(table.norm_factors, got)] == want, (name, str(src))
        bad = next((v for v in want if v <= 0), None)
        if bad is not None:
            expected = ChannelAbsent(
                f"channel with shift {table.shift} absent at source "
                f"({b1},{b2}): normalization factor {bad} <= 0")
        else:
            radicand = Fraction(table.norm_srad)
            for v in want:
                radicand /= v
            expected = Fraction(table.norm_scale) * sqrt_rational(radicand)
        got_norm = evaluated(table.normalization, *src.twice)
        assert same(got_norm, expected), (name, str(src), got_norm, expected)
