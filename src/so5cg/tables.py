"""Closed-form coefficient tables for the fourteen coupling channels.

A coupling channel is a table of fourteen rows, one per (so4-shift, part)
entry.  A row evaluates, at source irrep spins (b1, b2) and source SO(4)
spins (j1, j2), to

    sign * scale * prod(outer) * poly * sqrt(srad * prod(num) / prod(den))

where ``outer``, ``num`` and ``den`` are integer-coefficient linear forms
in (j1, j2, b1, b2).  Each channel also carries an overall normalization

    norm_scale * sqrt(norm_srad / prod(norm_factors))

whose factors depend on (b1, b2) only; the channel is present in a given
source exactly when every normalization factor is positive.

Each fact is written once.  A row's denominator depends only on its entry,
so each entry's denominator is written once (_ENTRY_DEN) for every table.
Three tables are read whole off a partner table (_image), and each of the
other five writes in full only the five rows that no swap or reflection
reaches: (+1,+1), (+1,0) and (0,0) on part (1,1), (+1/2,+1/2), and (0,0) on
part (0,0), 25 rows in all.  Each of its other nine rows is read off a
partner row (_DERIVED).  A derived row is its partner with a change made
in the outer and numerator forms and in the polynomial; each numerator form
is then oriented to be positive at one interior point, doubled (tj1, tj2,
tb1, tb2) = (23, 17, 40, 18), and the row takes the denominator of its own
entry.

The j1<->j2 swap gives the four rows with tdj1 < tdj2, (0,+1), (-1,0),
(-1,+1) and (-1/2,+1/2), with the partner's sign times sigma:

    row[(dj2, dj1)](j2, j1; b) = sigma * row[(dj1, dj2)](j1, j2; b),

with sigma = -1 for the two half-shift channels (doubled shifts (1,1) and
(1,-1)) and +1 for the other raising channels, the diagonal channel and its
companion.  The SO(3) reflections R1: j1 -> -j1-1 and R2: j2 -> -j2-1 fix
j(j+1) and take the entry (dj1, dj2) to (-dj1, dj2) and (dj1, -dj2).  R2
gives (+1,-1), (0,-1) and (+1/2,-1/2) from (+1,+1), (0,+1) and (+1/2,+1/2),
and R1R2 gives (-1,-1) and (-1/2,-1/2) from (+1,+1) and (+1/2,+1/2).  A
reflected row is its partner's formula up to one constant sign, for which no
rule in the channel and the entry is known, so each table writes the sign
of each of its five reflected rows, as their derived text reads, and
nothing else of them.

The Weyl group of Spin(5), which labels.decompose_with_14 uses, acts on the
source label.  In the coordinates (x, y) = (b1+b2+3/2, b1-b2+1/2) about rho,
W1: y -> -y takes (b1, b2) to (b2-1/2, b1+1/2), and W2: x <-> y takes b2 to
-b2-1.  Each row of the channels (0,+1), (+1,-1) and (+1/2,-1/2) is the row
of the same entry of (+1,0), (+1,+1) and (+1/2,+1/2) at the changed source
label, by W1, W2 and W2, times one constant sign, and (0,+1) times sqrt(2).
W1 can leave an outer form with a half-integer constant, such as
j1+j2-b2+1/2; it is written doubled and its 1/2 taken into the row's scale.
For (+1/2,-1/2) the orientation negates one numerator form of each row, so
the row's radicand is minus the partner's at the changed label, and so is
the squared normalization.  So these three tables write their partner, the change, the
entries whose sign is -1 and their normalization, which stays written
because absence messages print its factors.  Every derived row keeps its
text, so each row can still be read and checked against its own strings.

The formulas are written below in the form a reader checks against the
paper: strings of linear forms and Python polynomials in the spins.  At
import each is compiled once (so5cg._formula) to integer data over the
doubled spins (tj1, tj2, tb1, tb2) = (2j1, 2j2, 2b1, 2b2), the arguments of
every evaluation here.  A linear form L becomes a coefficient vector whose
value is the int 2L, and a polynomial p of degree d becomes monomial data
whose value is the int 2**d * p.  With n_o outer, n_n numerator and n_d
denominator factors, a row is then

    C * prod(2L_outer) * (2**d * poly) * sqrt(prod(2L_num) / prod(2L_den))

on plain ints, where the one power-of-two correction is folded into the
row constant

    C = sign * scale * sqrt(srad * 2**(n_d - n_n)) / 2**(n_o + d).

Likewise the normalization is C_norm / sqrt(prod(2**d_i * factor_i)) with
C_norm = norm_scale * sqrt(norm_srad * 2**sum(d_i)).  The radicand is
assembled from the memoized square-free split of each small factor, so no
product is ever factored, and the coefficient is reduced once at the end.

An evaluator binds a row to its source spins (tb1, tb2) once (RowSpec.bind),
folding b1 and b2 into each linear form's constant and into the polynomial's
coefficients, and then evaluates it at each source block (tj1, tj2).  A row
value may carry a scale, a single term (rad, num, den) such as the channel
normalization: it is folded into the same radicand and the same final
reduction, so a normalized row is one canonical term built once.

All arithmetic is exact: values are SqrtSum instances and never floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from ._formula import IntPoly, Lin, Poly, _int_poly, _lins, _pieces
from ._kernel import sqrt_of_product
from .errors import ChannelAbsent, FormulaDomainError
from .exactnum import ZERO, SqrtSum, sqrt_rational
from .labels import (
    PART_00,
    PART_11,
    PART_HH,
    EntryShift,
    So4Label,
)

# A single term (rad, num, den) meaning num/den * sqrt(rad), rad square-free
# and den > 0, not necessarily reduced: the scale of a row value.
Scale = tuple[int, int, int]
UNIT: Scale = (1, 1, 1)

# A RowSpec bound to source spins (tb1, tb2) by RowSpec.bind: (spec, outer,
# poly, num, den), each linear form as (c_j1, c_j2, c_b1*tb1 + c_b2*tb2 +
# 2*c_0) and the polynomial, if any, as (coeff, e_j1, e_j2) terms.
BoundRow = tuple


@lru_cache(maxsize=None)
def _constant(sign: int, scale: str, srad: str, root_exp: int,
              halvings: int) -> tuple[int, int, int]:
    """sign * scale * sqrt(srad * 2**root_exp) / 2**halvings as (rad, num, den)."""
    root = sqrt_rational(Fraction(srad) * Fraction(2) ** root_exp)
    (rad, num, den), = root.terms
    q = Fraction(sign * num, den << halvings) * Fraction(scale)
    return rad, q.numerator, q.denominator


def compose(a: Scale, b: Scale) -> Scale:
    """The product of two scales, unreduced: sqrt(r1) * sqrt(r2) is
    g * sqrt((r1/g) * (r2/g)) with g = gcd(r1, r2), square-free again."""
    (r1, n1, d1), (r2, n2, d2) = a, b
    g = gcd(r1, r2)
    return (r1 // g) * (r2 // g), n1 * n2 * g, d1 * d2


def _root(const: tuple[int, int, int], outer: int, den: int,
          factors: Iterable[int], scale: Scale = UNIT) -> SqrtSum:
    """scale * const * outer * sqrt(prod(factors)) / den as one canonical
    term: the factors are split into the product's square-free radicand and
    the coefficient is reduced once."""
    rad, num, cden = compose(const, scale)
    root, rad = sqrt_of_product(factors, rad)
    num *= outer * root
    den *= cden
    g = gcd(num, den)
    return SqrtSum(((rad, num // g, den // g),))


def _half(twice: int, halvings: int = 1) -> Fraction:
    """An undoubled value for a message: twice / 2**halvings."""
    return Fraction(twice, 1 << halvings)


class RowSpec(NamedTuple):
    """One table row of a coupling channel.

    The formula is kept as written (sign, scale, srad and the strings of
    linear forms, poly with its source), or for a derived row as read off
    its partner;
    ``const``, ``outer_lins``, ``num_lins`` and ``den_lins`` are the same
    formula compiled.
    """

    key: EntryShift
    sign: int
    scale: str
    srad: str
    outer: str
    poly: Optional[IntPoly]
    num: str
    den: str
    const: tuple[int, int, int]
    outer_lins: tuple[Lin, ...]
    num_lins: tuple[Lin, ...]
    den_lins: tuple[Lin, ...]

    def bind(self, tb1: int, tb2: int) -> BoundRow:
        """The row at source spins (tb1, tb2): a function of (tj1, tj2)."""
        return (
            self,
            [(c1, c2, c3 * tb1 + c4 * tb2 + c0)
             for c1, c2, c3, c4, c0 in self.outer_lins],
            None if self.poly is None else self.poly.bind(tb1, tb2),
            [(c1, c2, c3 * tb1 + c4 * tb2 + c0)
             for c1, c2, c3, c4, c0 in self.num_lins],
            [(c1, c2, c3 * tb1 + c4 * tb2 + c0)
             for c1, c2, c3, c4, c0 in self.den_lins])


# The denominator of each entry's rows, as written: the same in every table.
_ENTRY_DEN: dict[tuple[int, int, So4Label], str] = {
    (2, 2, PART_11): "j1+1; 2j1+3; j2+1; 2j2+3",
    (-2, -2, PART_11): "j1; 2j1-1; j2; 2j2-1",
    (-2, 2, PART_11): "j1; 2j1-1; j2+1; 2j2+3",
    (2, -2, PART_11): "j1+1; 2j1+3; j2; 2j2-1",
    (2, 0, PART_11): "j1+1; 2j1+3; j2; j2+1",
    (-2, 0, PART_11): "j1; 2j1-1; j2; j2+1",
    (0, 2, PART_11): "j1; j1+1; j2+1; 2j2+3",
    (0, -2, PART_11): "j1; j1+1; j2; 2j2-1",
    (0, 0, PART_11): "j1; j1+1; j2; j2+1",
    (1, 1, PART_HH): "j1+1; j2+1",
    (-1, -1, PART_HH): "j1; j2",
    (1, -1, PART_HH): "j1+1; j2",
    (-1, 1, PART_HH): "j1; j2+1",
    (0, 0, PART_00): "",
}


def _row(tdj1: int, tdj2: int, part: So4Label, sign: int, scale: str,
         srad: str = "1", outer: str = "", poly: Optional[Poly] = None,
         num: str = "") -> RowSpec:
    den = _ENTRY_DEN[(tdj1, tdj2, part)]
    outer_lins, num_lins, den_lins = _lins(outer), _lins(num), _lins(den)
    compiled = None if poly is None else _int_poly(poly)
    const = _constant(
        sign, scale, srad, len(den_lins) - len(num_lins),
        len(outer_lins) + (0 if compiled is None else compiled.degree))
    return RowSpec(EntryShift(tdj1, tdj2, part), sign, scale, srad, outer,
                   compiled, num, den, const, outer_lins, num_lins, den_lins)


def _form(lin: Lin) -> str:
    """A compiled linear form as written: (1, -1, 1, -1, 2) is "j1-j2+b1-b2+1".

    Its constant is lin[4] / 2, so an odd lin[4] has no such text.
    """
    if lin[4] % 2:
        raise ValueError(f"linear form {lin} has a half-integer constant")
    form = ""
    for c, name in zip(lin, ("j1", "j2", "b1", "b2")):
        if c:
            form += (("-" if c < 0 else "+" if form else "")
                     + (str(abs(c)) if abs(c) != 1 else "") + name)
    return f"{form}{lin[4] // 2:+d}" if lin[4] else form


# The changes that read a row off its partner.  Within a table, changes of
# (j1, j2): the j1<->j2 swap, and the reflections j2 -> -j2-1 (R2) and
# (j1, j2) -> (-j1-1, -j2-1) (R1R2).  Between tables, changes of the source
# label (b1, b2): W1 takes (b1, b2) to (b2-1/2, b1+1/2) and W2 takes b2 to
# -b2-1.  Each is given as its map of a compiled linear form, whose value is
# c_j1*tj1 + c_j2*tj2 + c_b1*tb1 + c_b2*tb2 + c_0 at the doubled spins, and
# as its map of (j1, j2, b1, b2) for a polynomial.
_HALF = Fraction(1, 2)
_CHANGES = {
    "swap": (lambda c: (c[1], c[0], c[2], c[3], c[4]),
             lambda j1, j2, b1, b2: (j2, j1, b1, b2)),
    "R2": (lambda c: (c[0], -c[1], c[2], c[3], c[4] - 2 * c[1]),
           lambda j1, j2, b1, b2: (j1, -j2 - 1, b1, b2)),
    "R1R2": (lambda c: (-c[0], -c[1], c[2], c[3], c[4] - 2 * (c[0] + c[1])),
             lambda j1, j2, b1, b2: (-j1 - 1, -j2 - 1, b1, b2)),
    "W1": (lambda c: (c[0], c[1], c[3], c[2], c[4] - c[2] + c[3]),
           lambda j1, j2, b1, b2: (j1, j2, b2 - _HALF, b1 + _HALF)),
    "W2": (lambda c: (c[0], c[1], c[2], -c[3], c[4] - 2 * c[3]),
           lambda j1, j2, b1, b2: (j1, j2, b1, -b2 - 1)),
}

# Each of the nine rows a table does not write in full, read off its partner,
# in an order that builds every partner first: (entry, partner, change).
_DERIVED = tuple((EntryShift(*key), EntryShift(*partner), change)
                 for key, partner, change in (
    ((0, 2, PART_11), (2, 0, PART_11), "swap"),
    ((2, -2, PART_11), (2, 2, PART_11), "R2"),
    ((0, -2, PART_11), (0, 2, PART_11), "R2"),
    ((1, -1, PART_HH), (1, 1, PART_HH), "R2"),
    ((-2, -2, PART_11), (2, 2, PART_11), "R1R2"),
    ((-1, -1, PART_HH), (1, 1, PART_HH), "R1R2"),
    ((-2, 0, PART_11), (0, -2, PART_11), "swap"),
    ((-2, 2, PART_11), (2, -2, PART_11), "swap"),
    ((-1, 1, PART_HH), (1, -1, PART_HH), "swap"),
))

# The doubled (tj1, tj2, tb1, tb2) of an interior point, and 1: each derived
# numerator form is oriented to be positive there.
_INTERIOR = (23, 17, 40, 18, 1)


def _outer(lins: Iterable[Lin]) -> tuple[str, Fraction]:
    """Outer forms as written, and the factor taken out of them: a form with
    a half-integer constant is written doubled, so its 1/2 goes into the
    factor."""
    forms, factor = [], Fraction(1)
    for c in lins:
        if c[4] % 2:
            c, factor = tuple(2 * x for x in c), factor / 2
        forms.append(_form(c))
    return "; ".join(forms), factor


def _derive(row: RowSpec, key: EntryShift, change: str, sign: int,
            srad: str = "1") -> RowSpec:
    """The row of entry key read off its partner row: the change made in its
    outer and numerator forms and in its polynomial, each numerator form
    then oriented positive at _INTERIOR, the denominator of its own entry,
    the sign given, and the partner's srad times srad."""
    lin, spins = _CHANGES[change]
    source = None if row.poly is None else row.poly.source
    poly = None if source is None else (
        lambda *spin: source(*spins(*spin)))
    outer, factor = _outer(map(lin, row.outer_lins))
    num = [c if sum(map(mul, c, _INTERIOR)) > 0 else tuple(-x for x in c)
           for c in map(lin, row.num_lins)]
    return _row(key.tdj1, key.tdj2, key.part, sign,
                str(Fraction(row.scale) * factor),
                str(Fraction(row.srad) * Fraction(srad)), outer, poly,
                "; ".join(map(_form, num)))


class _Reflected(NamedTuple):
    """A row written by its sign only, its text read off its partner."""

    key: EntryShift
    sign: int


def _reflected(tdj1: int, tdj2: int, part: So4Label, sign: int) -> _Reflected:
    return _Reflected(EntryShift(tdj1, tdj2, part), sign)


class ChannelTable(NamedTuple):
    """One coupling channel: irrep-label shift, normalization, entry rows.

    ``norm_const`` is norm_scale * sqrt(norm_srad) with the power-of-two
    correction of the compiled ``norm_factors``.  Every method takes the
    doubled spins.
    """

    shift: tuple[int, int]
    norm_scale: str
    norm_srad: str
    norm_factors: tuple[IntPoly, ...]
    norm_const: tuple[int, int, int]
    rows: Mapping[EntryShift, RowSpec]

    def factor_values(self, tb1: int, tb2: int) -> tuple[int, ...]:
        # Normalization factors depend on (b1, b2) only, so each is its
        # polynomial bound at (tb1, tb2) and read at tj1 = tj2 = 0; the value
        # is 2**degree times the factor, so its sign is the factor's.
        return tuple(sum(c for c, e1, e2 in f.bind(tb1, tb2) if e1 == e2 == 0)
                     for f in self.norm_factors)

    def normalization(self, tb1: int, tb2: int) -> SqrtSum:
        values = self.factor_values(tb1, tb2)
        den = 1
        for f, v in zip(self.norm_factors, values):
            if v <= 0:
                raise ChannelAbsent(
                    f"channel with shift {self.shift} absent at source "
                    f"({_half(tb1)},{_half(tb2)}): normalization factor "
                    f"{_half(v, f.degree)} <= 0")
            den *= v
        return _root(self.norm_const, 1, den, values)

    def bare_value(self, entry: EntryShift, tj1: int, tj2: int,
                   tb1: int, tb2: int, scale: Scale = UNIT,
                   row: Optional[BoundRow] = None) -> SqrtSum:
        """Row value without the channel normalization, times scale.

        row is entry's row already bound to (tb1, tb2), as an evaluator
        keeps it; when None the row is looked up and bound here.
        """
        spec, outer_lins, poly, num_lins, den_lins = (
            self.rows[entry].bind(tb1, tb2) if row is None else row)
        outer = 1
        for c1, c2, c0 in outer_lins:
            outer *= c1 * tj1 + c2 * tj2 + c0
        if outer and poly is not None:
            value = 0
            for c, e1, e2 in poly:
                value += c * tj1 ** e1 * tj2 ** e2
            outer *= value
        if not outer:
            return ZERO
        factors = []
        append = factors.append
        negatives = 0
        for c1, c2, c0 in num_lins:
            v = c1 * tj1 + c2 * tj2 + c0
            if v > 0:
                append(v)
            elif v:
                negatives += 1
                append(-v)
            else:
                return ZERO
        # Valid entries may hit pairs of negative factors whose product is
        # positive; an odd count means the key lies outside the domain.
        if negatives % 2:
            raise FormulaDomainError(
                f"negative radicand for entry {entry} at "
                f"j=({_half(tj1)},{_half(tj2)}), b=({_half(tb1)},{_half(tb2)})")
        den = 1
        for i, (c1, c2, c0) in enumerate(den_lins):
            v = c1 * tj1 + c2 * tj2 + c0
            if v <= 0:
                raise FormulaDomainError(
                    f"denominator factor {_pieces(spec.den)[i]} = {_half(v)} "
                    f"for entry {entry} at j=({_half(tj1)},{_half(tj2)}), "
                    f"b=({_half(tb1)},{_half(tb2)})")
            den *= v
            append(v)
        return _root(spec.const, outer, den, factors, scale)


def _image(partner: ChannelTable, change: str,
           minus: tuple[tuple[int, int, So4Label], ...],
           srad: str = "1") -> dict[EntryShift, RowSpec]:
    """The 14 rows of a table read off a partner table by a change of the
    source label (W1 or W2), each row times the constant sqrt(srad).  The
    rows of the entries in minus take the sign -1, the others +1."""
    negative = {EntryShift(*key) for key in minus}
    return {key: _derive(row, key, change, -1 if key in negative else 1, srad)
            for key, row in partner.rows.items()}


def _channel(shift: tuple[int, int], norm_factors: Union[str, tuple[Poly, ...]],
             rows: Union[tuple[Union[RowSpec, _Reflected], ...],
                         dict[EntryShift, RowSpec]],
             norm_scale: str = "1", norm_srad: str = "1") -> ChannelTable:
    """A channel from its formulas; norm_factors is a string of linear
    forms or a tuple of polynomials.  rows are either all 14 rows, as
    _image reads them off a partner table, or the ten rows with
    tdj1 >= tdj2: five written in full and five reflected, given by their
    sign, the other four being swaps (_DERIVED)."""
    if isinstance(norm_factors, str):
        norm_factors = tuple(_pieces(norm_factors))
    compiled = tuple(_int_poly(f) for f in norm_factors)
    const = _constant(1, norm_scale, norm_srad,
                      sum(f.degree for f in compiled), 0)
    if isinstance(rows, dict):
        return ChannelTable(shift, norm_scale, norm_srad, compiled, const, rows)
    # The swap's sign: -1 for the half-shift channels, whose doubled shift
    # is odd.
    sigma = -1 if shift[0] % 2 else 1
    table = {r.key: r for r in rows if isinstance(r, RowSpec)}
    signs = {r.key: r.sign for r in rows if isinstance(r, _Reflected)}
    if (len(table) != 5 or table.keys() & {key for key, _, _ in _DERIVED}
            or signs.keys() != {key for key, _, change in _DERIVED
                                if change != "swap"}):
        raise ValueError("a channel table writes the 5 rows no swap or "
                         "reflection reaches and the signs of the 5 reflected")
    for key, partner, change in _DERIVED:
        row = table[partner]
        table[key] = _derive(
            row, key, change,
            sigma * row.sign if change == "swap" else signs[key])
    return ChannelTable(shift, norm_scale, norm_srad, compiled, const, table)


# ---------------------------------------------------------------------------
# Entry polynomials too large to inline.

def _shift_pp_swave_poly(j1, j2, b1, b2):
    return j1 * (j1 + 1) + j2 * (j2 + 1) - (b1 - b2) * (b1 - b2 + 1)


def _diag_quartic(b1, b2):
    """Common quartic in (b1, b2) shared by the diagonal-channel polynomials."""
    return (b1 ** 4 + 4 * b1 ** 3 + (-2 * b2 * b2 - 2 * b2 + 5) * b1 * b1
            + (-4 * b2 * b2 - 4 * b2 + 2) * b1
            + b2 ** 4 + 2 * b2 ** 3 - b2 * b2 - 2 * b2)


def _diag_norm_bracket(j1, j2, b1, b2):
    """Norm bracket of the diagonal channel; zero exactly when it is absent."""
    return (4 * b2 * b2 * (b2 + 1) ** 2
            + 11 * (8 * b1 * b1 + 16 * b1 + 5) * b2 * (b2 + 1)
            + b1 * (b1 + 2) * (2 * b1 - 1) * (2 * b1 + 5))


def _diag_core_poly(j1, j2, b1, b2):
    c2 = 10 * j2 * j2 + 10 * j2 + 2 * b1 * b1 + 2 * b2 * b2 + 4 * b1 + 2 * b2 + 1
    c1 = 2 * (5 * j2 * j2 + 5 * j2 + b1 * b1 + b2 * b2 + 2 * b1 + b2 + 1)
    c0 = (j2 ** 4 + b1 ** 4 + b2 ** 4 + 2 * j2 ** 3 + 4 * b1 ** 3 + 2 * b2 ** 3
          + 5 * b1 * b1 - 2 * b1 * b1 * b2 * b2 - 4 * b1 * b2 * b2 - b2 * b2
          + 2 * b1 - 2 * b1 * b1 * b2 - 4 * b1 * b2 - 2 * b2
          - 2 * j2 * (b1 * b1 + 2 * b1 + b2 * b2 + b2 + 1)
          - j2 * j2 * (2 * b1 * b1 + 4 * b1 + 2 * b2 * b2 + 2 * b2 + 1))
    return j1 ** 4 + 2 * j1 ** 3 - c2 * j1 * j1 - c1 * j1 + c0


def _diag_scalar_poly(j1, j2, b1, b2):
    return (5 * j1 * j1 + 5 * j1 + 5 * j2 * j2 + 5 * j2
            - 3 * (b1 * b1 + 2 * b1 + b2 * b2 + b2))


def _aux_core_poly(j1, j2, b1, b2):
    k = _diag_quartic(b1, b2)
    c4 = j2 * j2 + j2 + 2 * b1 * b1 + 2 * b2 * b2 + 4 * b1 + 2 * b2 - 1
    c3 = 2 * j2 * j2 + 2 * j2 + 4 * b1 * b1 + 4 * b2 * b2 + 8 * b1 + 4 * b2 + 3
    c2 = (-j2 ** 4 - 2 * j2 ** 3
          + (4 * b1 * b1 + 8 * b1 + 4 * b2 * b2 + 4 * b2 + 2) * j2 * j2
          + (4 * b1 * b1 + 8 * b1 + 4 * b2 * b2 + 4 * b2 + 3) * j2
          + b1 ** 4 + b2 ** 4 + 4 * b1 ** 3 + 2 * b2 ** 3 - 3 * b2 * b2 - 4 * b2
          + b1 * b1 * (-2 * b2 * b2 - 2 * b2 + 3)
          - 2 * b1 * (2 * b2 * b2 + 2 * b2 + 1) - 2)
    c1 = (-j2 ** 4 - 2 * j2 ** 3
          + (4 * b1 * b1 + 8 * b1 + 4 * b2 * b2 + 4 * b2 + 3) * j2 * j2
          + 4 * (b1 * b1 + 2 * b1 + b2 * b2 + b2 + 1) * j2 + k)
    c0 = j2 * (j2 + 1) * (
        j2 ** 4 + 2 * j2 ** 3
        - (2 * b1 * b1 + 4 * b1 + 2 * b2 * b2 + 2 * b2 + 1) * j2 * j2
        - 2 * (b1 * b1 + 2 * b1 + b2 * b2 + b2 + 1) * j2 + k)
    return (j1 ** 6 + 3 * j1 ** 5 - c4 * j1 ** 4 - c3 * j1 ** 3
            + c2 * j1 * j1 + c1 * j1 + c0)


def _aux_scalar_poly(j1, j2, b1, b2):
    spread = j1 * (j1 + 1) - j2 * (j2 + 1)
    return _diag_quartic(b1, b2) - 5 * spread * spread


# ---------------------------------------------------------------------------
# Raising channels, keyed by their doubled irrep-label shift.

RAISING_TABLES: dict[tuple[int, int], ChannelTable] = {}

RAISING_TABLES[(2, 2)] = _channel(
    shift=(2, 2),
    norm_factors=(
        "2b1+2; 2b1+3; b1+b2+2; b1+b2+3; 2b2+1; 2b2+2; 2b1+2b2+3; 2b1+2b2+5"),
    rows=(
        _row(2, 2, PART_11, +1, "1/4",
             num="j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2+1; j1+j2-b1+b2+2;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3;"
                 "j1+j2+b1+b2+3; j1+j2+b1+b2+4; j1+j2+b1+b2+5; j1+j2+b1+b2+6"),
        _reflected(-2, -2, PART_11, +1),
        _reflected(2, -2, PART_11, +1),
        _row(2, 0, PART_11, +1, "1/4",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1-j2+b1+b2+4;"
                 "-j1+j2+b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4; j1+j2+b1+b2+5"),
        _reflected(0, -2, PART_11, -1),
        _row(0, 0, PART_11, -1, "1/4", poly=_shift_pp_swave_poly,
             num="-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; j1-j2+b1+b2+3;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4"),
        _row(1, 1, PART_HH, +1, "1/2",
             num="j1+j2+b1-b2+2; j1+j2-b1+b2+1; -j1-j2+b1+b2+1; j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+3; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3;"
                 "j1+j2+b1+b2+4; j1+j2+b1+b2+5"),
        _reflected(-1, -1, PART_HH, -1),
        _reflected(1, -1, PART_HH, +1),
        _row(0, 0, PART_00, +1, "1/2", srad="5",
             num="-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; j1-j2+b1+b2+3;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4"),
    ),
)

RAISING_TABLES[(2, 0)] = _channel(
    shift=(2, 0),
    norm_factors=(
        "2b1+2; 2b1+3; 2b1-2b2+1; b1-b2+1; b2; b1+b2+2; 2b2+2; 2b1+2b2+3"),
    rows=(
        _row(2, 2, PART_11, -1, "1/4",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "j1+j2+b1-b2+4; j1+j2-b1+b2+1; -j1-j2+b1+b2; j1-j2+b1+b2+2;"
                 "-j1+j2+b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4; j1+j2+b1+b2+5"),
        _reflected(-2, -2, PART_11, +1),
        _reflected(2, -2, PART_11, +1),
        _row(2, 0, PART_11, +1, "1/4",
             poly=lambda j1, j2, b1, b2: (-j1 * j1 + (2 * b1 + 1) * j1
                                          + j2 * j2 - b1 * b1 + b2 * b2
                                          + j2 - b1 + b2),
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4"),
        _reflected(0, -2, PART_11, +1),
        _row(0, 0, PART_11, -1, "1/4",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1 + j2 * j2 + j2
                                          - b1 * b1 + b2 * b2
                                          - 3 * b1 + b2 - 2),
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3"),
        _row(1, 1, PART_HH, +1, "1/2", outer="j1+j2-b1",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4"),
        _reflected(-1, -1, PART_HH, +1),
        _reflected(1, -1, PART_HH, -1),
        _row(0, 0, PART_00, +1, "1/2", srad="5",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3"),
    ),
)

RAISING_TABLES[(0, 2)] = _channel(
    shift=(0, 2),
    norm_factors=(
        "2b1+1; 2b1+3; 2b1-2b2+1; b1-b2; b1+b2+2; 2b2+1; 2b2+2; 2b1+2b2+3"),
    rows=_image(RAISING_TABLES[(2, 0)], "W1", srad="2", minus=(
        (-2, -2, PART_11), (1, 1, PART_HH), (1, -1, PART_HH),
        (-1, 1, PART_HH), (-1, -1, PART_HH), (0, 0, PART_00))),
)

RAISING_TABLES[(2, -2)] = _channel(
    shift=(2, -2),
    norm_factors=(
        "2; 2b1+2; 2b1+3; 2b1-2b2+1; 2b1-2b2+3; b1-b2+1; b1-b2+2; b2; 2b2+1"),
    rows=_image(RAISING_TABLES[(2, 2)], "W2", minus=(
        (2, 0, PART_11), (0, 2, PART_11), (0, 0, PART_11), (0, -2, PART_11),
        (-2, 0, PART_11), (1, 1, PART_HH), (-1, -1, PART_HH))),
)

RAISING_TABLES[(1, 1)] = _channel(
    shift=(1, 1),
    norm_factors=(
        "2b1+2; b1-b2; b1-b2+1; b1+b2+1; b1+b2+2; b1+b2+3; 2b2+1; 2b1+2b2+3"),
    rows=(
        _row(2, 2, PART_11, -1, "1/2", srad="1/2", outer="j1-j2",
             num="j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2+1; j1+j2-b1+b2+2;"
                 "-j1-j2+b1+b2; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3;"
                 "j1+j2+b1+b2+4; j1+j2+b1+b2+5"),
        _reflected(-2, -2, PART_11, -1),
        _reflected(2, -2, PART_11, -1),
        _row(2, 0, PART_11, -1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j2 * (j2 + 1)
                                          + (j1 + 1) * (-j1 + b1 + b2 + 1)),
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4"),
        _reflected(0, -2, PART_11, -1),
        _row(0, 0, PART_11, +1, "1/2", srad="1/2", outer="j1-j2; j1+j2+1",
             poly=lambda j1, j2, b1, b2: (-j1 * j1 - j1 - j2 * j2 - j2
                                          + (b1 - b2) * (b1 - b2 + 1)),
             num="-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3"),
        _row(1, 1, PART_HH, +1, "1/2", srad="1/2",
             outer="j1-j2; 2j1+2j2-b1-b2+1",
             num="j1+j2+b1-b2+2; j1+j2-b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2;"
                 "j1+j2+b1+b2+3; j1+j2+b1+b2+4"),
        _reflected(-1, -1, PART_HH, -1),
        _reflected(1, -1, PART_HH, +1),
        _row(0, 0, PART_00, +1, "1", srad="5/2", outer="j1-j2; j1+j2+1",
             num="-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3"),
    ),
)

RAISING_TABLES[(1, -1)] = _channel(
    shift=(1, -1),
    norm_factors=(
        "2b1+2; 2b1-2b2+1; b1-b2; b1-b2+1; b1-b2+2; b1+b2+1; b1+b2+2; 2b2+1"),
    rows=_image(RAISING_TABLES[(1, 1)], "W2", minus=(
        (2, -2, PART_11), (0, 2, PART_11), (0, -2, PART_11), (-2, -2, PART_11),
        (1, 1, PART_HH), (-1, 1, PART_HH), (-1, -1, PART_HH))),
)

# ---------------------------------------------------------------------------
# Diagonal channel (first copy) and its un-normalized companion, from which
# the second copy is built by Gram-Schmidt.  The two tables share all their
# square-root parts, the numerators below of the rows written in full and
# each entry's denominator; only prefactors, signs and scales differ.

_DIAG_SQRT: dict[tuple[int, int, So4Label], str] = {
    (2, 2, PART_11): (
        "j1+j2-b1-b2; j1+j2-b1-b2+1; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
        "j1+j2-b1+b2+1; j1+j2-b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4"),
    (2, 0, PART_11): (
        "j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
        "-j1-j2+b1+b2; j1-j2+b1+b2+2; -j1+j2+b1+b2+1; j1+j2+b1+b2+3"),
    (0, 0, PART_11): "",
    (1, 1, PART_HH): (
        "j1+j2+b1-b2+2; j1+j2-b1+b2+1; -j1-j2+b1+b2; j1+j2+b1+b2+3"),
    (0, 0, PART_00): "",
}


def _diag_row(tdj1: int, tdj2: int, part: So4Label, sign: int, scale: str,
              srad: str = "1", outer: str = "", poly: Optional[Poly] = None) -> RowSpec:
    return _row(tdj1, tdj2, part, sign, scale, srad, outer, poly,
                _DIAG_SQRT[(tdj1, tdj2, part)])


DIAGONAL_TABLE = _channel(
    shift=(0, 0),
    norm_scale="2",
    norm_srad="5",
    norm_factors=(_diag_norm_bracket,),
    rows=(
        _diag_row(2, 2, PART_11, -1, "1/8"),
        _reflected(-2, -2, PART_11, -1),
        _reflected(2, -2, PART_11, -1),
        _diag_row(2, 0, PART_11, -1, "1/8"),
        _reflected(0, -2, PART_11, +1),
        _diag_row(0, 0, PART_11, -1, "1/8", poly=_diag_core_poly),
        _diag_row(1, 1, PART_HH, +1, "1/8", outer="2j1+2j2+3"),
        _reflected(-1, -1, PART_HH, -1),
        _reflected(1, -1, PART_HH, +1),
        _diag_row(0, 0, PART_00, -1, "1/10", srad="5", poly=_diag_scalar_poly),
    ),
)

AUX_TABLE = _channel(
    shift=(0, 0),
    norm_factors=(),
    rows=(
        _diag_row(2, 2, PART_11, +1, "1/4", outer="j1-j2; j1-j2"),
        _reflected(-2, -2, PART_11, +1),
        _reflected(2, -2, PART_11, +1),
        _diag_row(2, 0, PART_11, +1, "1/4",
                  poly=lambda j1, j2, b1, b2: ((j1 + 1) ** 2 - j2 * (j2 + 1))),
        _reflected(0, -2, PART_11, -1),
        _diag_row(0, 0, PART_11, -1, "1/4", poly=_aux_core_poly),
        _diag_row(1, 1, PART_HH, -1, "1/4", outer="j1-j2; j1-j2; 2j1+2j2+3"),
        _reflected(-1, -1, PART_HH, +1),
        _reflected(1, -1, PART_HH, -1),
        _diag_row(0, 0, PART_00, -1, "1/10", srad="5", poly=_aux_scalar_poly),
    ),
)


# ---------------------------------------------------------------------------
# Mixing data for the doubly-occurring diagonal target.

def mixing_x_rational(b1: Fraction, b2: Fraction) -> Fraction:
    """Overlap of the companion row set with copy 1, divided by the
    diagonal-channel normalization."""
    return (Fraction(-1, 10) * (b1 - b2) * (b1 - b2 + 1)
            * (b1 + b2 + 1) * (b1 + b2 + 2)
            * (4 * b1 * (b1 + 2) + 4 * b2 * (b2 + 1) - 5))


def mixing_h2(b1: Fraction, b2: Fraction) -> Fraction:
    """Squared norm of the companion row set."""
    bracket = (4 * b2 ** 4 + 8 * b2 ** 3
               - (8 * b1 * (b1 + 2) + 9) * b2 * b2
               - (8 * b1 * (b1 + 2) + 13) * b2
               + (b1 + 1) ** 2 * (4 * b1 * (b1 + 2) - 5))
    return (Fraction(1, 5) * (b1 - b2) * (b1 - b2 + 1)
            * (b1 + b2 + 1) * (b1 + b2 + 2) * bracket)
