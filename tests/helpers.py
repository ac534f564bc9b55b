"""Helpers shared by several test modules.

- scaled_column and column_values convert a coupling-matrix column to and
  from SqrtSum values, so that a test can corrupt a column's values and
  hand the result back to the Gram checks.
- The norm certificate of a closed-form table: its rows expanded in the
  doubled variables with _formula._Expansion, from the table's compiled
  data (constants, linear forms, polynomials and normalization).
"""

import operator
from collections import Counter
from fractions import Fraction
from functools import reduce
from typing import Mapping, Optional

from so5cg._formula import _VARIABLES, _Expansion
from so5cg._kernel import scale_vector
from so5cg.exactnum import SqrtSum
from so5cg.fullcg import Column


def scaled_column(values: Mapping[int, SqrtSum]) -> Column:
    """The Column holding values, each a one-term SqrtSum or 0, over the
    lcm of their denominators (_kernel.scale_vector); a value of more terms
    raises ValueError."""
    den, scaled = scale_vector({i: value.terms for i, value in values.items()})
    column = Column(den)
    column.update(scaled)
    return column


def column_values(column: Column) -> dict[int, SqrtSum]:
    """A column's entries as SqrtSums, by row index."""
    return {i: column.value(i) for i in column}


NONE = _Expansion({})
ONE = _Expansion({(0, 0, 0, 0): 1})


def nonzero(value: _Expansion) -> dict:
    return {e: c for e, c in value.terms.items() if c}


def linear(lin, spins=_VARIABLES) -> _Expansion:
    """A compiled linear form at spins, expanded in the doubled variables."""
    return sum((c * v for c, v in zip(lin, (*spins, 1))), NONE)


def doubled(poly, spins=_VARIABLES) -> _Expansion:
    """A compiled polynomial at spins, expanded in the doubled variables."""
    if poly is None:
        return ONE
    tj1, tj2, tb1, tb2 = spins
    out = NONE
    for e1, e2, terms in poly.by_j:
        for c, e3, e4 in terms:
            out = out + c * tj1 ** e1 * tj2 ** e2 * tb1 ** e3 * tb2 ** e4
    return out


def square(const) -> Fraction:
    """The square of a compiled constant (rad, num, den)."""
    rad, num, den = const
    return Fraction(rad * num * num, den * den)


def overlap(table, other):
    """sum_e r_e(T - e) * s_e(T - e) over the rows r of table and s of
    other, which share each entry's numerator and denominator forms: the
    terms by entry, as polynomials in the doubled target block (T1, T2) and
    source label (B1, B2), multiplied through by the product of the
    distinct denominator forms, each at its largest multiplicity, and that
    product."""
    def at_block(lin, entry):
        # A row's form at the source block T - entry, as a form in T.
        c1, c2, c3, c4, c0 = lin
        return c1, c2, c3, c4, c0 - c1 * entry.tdj1 - c2 * entry.tdj2

    dens = {entry: Counter(at_block(c, entry) for c in row.den_lins)
            for entry, row in table.rows.items()}
    common = reduce(operator.or_, dens.values())
    parts = {}
    t1, t2, b1, b2 = _VARIABLES
    for entry, row in table.rows.items():
        pair = other.rows[entry]
        assert (pair.num_lins, pair.den_lins) == (row.num_lins, row.den_lins)
        (rad, num, den), (pair_rad, pair_num, pair_den) = row.const, pair.const
        assert rad == pair_rad
        spins = (t1 - entry.tdj1, t2 - entry.tdj2, b1, b2)
        part = doubled(row.poly, spins) * doubled(pair.poly, spins)
        for c in row.outer_lins + pair.outer_lins + row.num_lins:
            part = part * linear(at_block(c, entry))
        for c, k in (common - dens[entry]).items():
            part = part * linear(c) ** k
        parts[entry] = part * Fraction(rad * num * pair_num, den * pair_den)
    product = ONE
    for c, k in common.items():
        product = product * linear(c) ** k
    return parts, product


def norm_identity(table):
    """(parts, rhs) with sum(parts.values()) == rhs exactly when the sum
    over a target block of the table's squared normalized rows is 1, as an
    identity in the doubled spins; parts holds the terms by entry."""
    parts, rhs = overlap(table, table)
    # norm**2 = square(norm_const) / prod(factor values).
    rhs = rhs * (1 / square(table.norm_const))
    for f in table.norm_factors:
        rhs = rhs * doubled(f)
    return parts, rhs


def norm_certificate(table) -> Optional[dict]:
    """None when the table's norm identity holds, else its nonzero
    remainder as {exponents: coefficient}."""
    parts, rhs = norm_identity(table)
    return nonzero(sum(parts.values(), NONE) - rhs) or None
