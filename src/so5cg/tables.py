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

The formulas are written below in the form a reader checks against the
paper: strings of linear forms and Python polynomials in the spins.  At
import each is compiled once to integer data over the doubled spins
(tj1, tj2, tb1, tb2) = (2j1, 2j2, 2b1, 2b2), the arguments of every
evaluation here.  A linear form L becomes a coefficient vector whose value
is the int 2L, and a polynomial p of degree d becomes monomial data whose
value is the int 2**d * p.  With n_o outer, n_n numerator and n_d
denominator factors, a row is then

    C * prod(2L_outer) * (2**d * poly) * sqrt(prod(2L_num) / prod(2L_den))

on plain ints, where the one power-of-two correction is folded into the
row constant

    C = sign * scale * sqrt(srad * 2**(n_d - n_n)) / 2**(n_o + d).

Likewise the normalization is C_norm / sqrt(prod(2**d_i * factor_i)) with
C_norm = norm_scale * sqrt(norm_srad * 2**sum(d_i)).  The radicand is
assembled from the memoized square-free split of each small factor, so no
product is ever factored, and the coefficient is reduced once at the end.

All arithmetic is exact: values are SqrtSum instances and never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Mapping, Optional, Union

from ._kernel import sqrt_of_product
from .errors import ChannelAbsent, FormulaDomainError
from .exactnum import ZERO, SqrtSum, sqrt_rational
from .labels import PART_00, PART_11, PART_HH, EntryShift, So4Label

# A polynomial as written: a function of the four undoubled table variables
# (j1, j2, b1, b2), with integer coefficients.
Poly = Callable

# A linear form compiled to (c_j1, c_j2, c_b1, c_b2, 2*c_0): its dot product
# with (tj1, tj2, tb1, tb2, 1) is twice the form's value.
Lin = tuple[int, int, int, int, int]


@lru_cache(maxsize=None)
def _lin(expr: str) -> Lin:
    """Compile a linear form such as ``"-j1+j2+b1+b2+2"`` or ``"2j1+3"``."""
    s = expr.replace(" ", "")
    coeffs = {"j1": 0, "j2": 0, "b1": 0, "b2": 0, "": 0}
    i, n = 0, len(s)
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        j = i
        while j < n and s[j].isdigit():
            j += 1
        coef = int(s[i:j]) if j > i else 1
        if j + 1 < n and s[j] in "jb" and s[j + 1] in "12":
            coeffs[s[j:j + 2]] += sign * coef
            i = j + 2
        elif j > i:
            coeffs[""] += sign * coef
            i = j
        else:
            raise ValueError(f"bad linear form: {expr!r}")
    return (coeffs["j1"], coeffs["j2"], coeffs["b1"], coeffs["b2"],
            2 * coeffs[""])


def _pieces(exprs: str) -> list[str]:
    """The linear forms of a ';'-separated list, as written."""
    return [p for p in exprs.split(";") if p.strip()]


def _lins(exprs: str) -> tuple[Lin, ...]:
    return tuple(_lin(p) for p in _pieces(exprs))


class _Expansion:
    """A polynomial being expanded: exponents of (j1, j2, b1, b2) -> coefficient.

    Calling a formula on the four variables as instances of this class
    expands it once; the formula itself is never evaluated on numbers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int], int]):
        self.terms = terms

    @staticmethod
    def _of(value) -> dict:
        if isinstance(value, _Expansion):
            return value.terms
        if isinstance(value, int):
            return {(0, 0, 0, 0): value}
        return NotImplemented

    def __add__(self, other):
        terms = self._of(other)
        if terms is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
        return _Expansion(out)

    __radd__ = __add__

    def __neg__(self):
        return _Expansion({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = self._of(other)
        if terms is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int, int, int], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                out[e] = out.get(e, 0) + c1 * c2
        return _Expansion(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = _Expansion({(0, 0, 0, 0): 1})
        for _ in range(k):
            out = out * self
        return out


# Exponents of (j1, j2, b1, b2) in each entry of a compiled linear form.
_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))
_VARIABLES = tuple(_Expansion({e: 1}) for e in _UNITS[:4])


@dataclass(frozen=True)
class IntPoly:
    """A polynomial compiled over the doubled spins.

    ``source`` is the polynomial as written: a function of (j1, j2, b1, b2)
    or a linear-form string.  Its value at the doubled spins is the int
    2**degree * source(tj1/2, tj2/2, tb1/2, tb2/2).
    """

    source: Union[Poly, str]
    degree: int
    terms: tuple[tuple[int, int, int, int, int], ...]  # (coeff, exponents)

    def __call__(self, tj1: int, tj2: int, tb1: int, tb2: int) -> int:
        total = 0
        for c, e1, e2, e3, e4 in self.terms:
            total += c * tj1 ** e1 * tj2 ** e2 * tb1 ** e3 * tb2 ** e4
        return total


def _int_poly(source: Union[Poly, str]) -> IntPoly:
    if isinstance(source, str):
        # A compiled linear form already is the degree-1 data.
        return IntPoly(source, 1, tuple(
            (c, *e) for c, e in zip(_lin(source), _UNITS) if c))
    expanded = source(*_VARIABLES).terms
    degree = max((sum(e) for e, c in expanded.items() if c), default=0)
    # Each monomial of total degree k takes 2**(degree - k) from the
    # substitution j = tj/2 scaled by 2**degree.
    return IntPoly(source, degree, tuple(
        (c << (degree - sum(e)), *e) for e, c in expanded.items() if c))


@lru_cache(maxsize=None)
def _constant(sign: int, scale: str, srad: str, root_exp: int,
              halvings: int) -> tuple[int, int, int]:
    """sign * scale * sqrt(srad * 2**root_exp) / 2**halvings as (rad, num, den)."""
    root = sqrt_rational(Fraction(srad) * Fraction(2) ** root_exp)
    (rad, num, den), = root.terms
    q = Fraction(sign * num, den << halvings) * Fraction(scale)
    return rad, q.numerator, q.denominator


def _root(const: tuple[int, int, int], outer: int, den: int,
          factors: Iterable[int]) -> SqrtSum:
    """const * outer / den * sqrt(prod(factors)) for positive int factors,
    with the coefficient reduced once."""
    rad, num, cden = const
    root, rad = sqrt_of_product(factors, rad)
    num *= outer * root
    den *= cden
    g = gcd(num, den)
    return SqrtSum(((rad, num // g, den // g),))


def _half(twice: int, halvings: int = 1) -> Fraction:
    """An undoubled value for a message: twice / 2**halvings."""
    return Fraction(twice, 1 << halvings)


@dataclass(frozen=True)
class RowSpec:
    """One table row of a coupling channel.

    The formula is kept as written (sign, scale, srad and the strings of
    linear forms, poly with its source); ``const``, ``outer_lins``,
    ``num_lins`` and ``den_lins`` are the same formula compiled.
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


def _row(tdj1: int, tdj2: int, part: So4Label, sign: int, scale: str,
         srad: str = "1", outer: str = "", poly: Optional[Poly] = None,
         num: str = "", den: str = "") -> RowSpec:
    outer_lins, num_lins, den_lins = _lins(outer), _lins(num), _lins(den)
    compiled = None if poly is None else _int_poly(poly)
    const = _constant(
        sign, scale, srad, len(den_lins) - len(num_lins),
        len(outer_lins) + (0 if compiled is None else compiled.degree))
    return RowSpec(EntryShift(tdj1, tdj2, part), sign, scale, srad, outer,
                   compiled, num, den, const, outer_lins, num_lins, den_lins)


def _rows(*rows: RowSpec) -> Mapping[EntryShift, RowSpec]:
    table = {r.key: r for r in rows}
    if len(table) != 14:
        raise ValueError("channel table must have exactly 14 distinct rows")
    return table


@dataclass(frozen=True)
class ChannelTable:
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
        # Normalization factors depend on (b1, b2) only; each value is
        # 2**degree times the factor, so its sign is the factor's.
        return tuple(f(0, 0, tb1, tb2) for f in self.norm_factors)

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
                   tb1: int, tb2: int) -> SqrtSum:
        """Row value without the channel normalization."""
        row = self.rows[entry]
        outer = 1
        for c1, c2, c3, c4, c0 in row.outer_lins:
            outer *= c1 * tj1 + c2 * tj2 + c3 * tb1 + c4 * tb2 + c0
        if outer and row.poly is not None:
            outer *= row.poly(tj1, tj2, tb1, tb2)
        if not outer:
            return ZERO
        factors = []
        negatives = 0
        for c1, c2, c3, c4, c0 in row.num_lins:
            v = c1 * tj1 + c2 * tj2 + c3 * tb1 + c4 * tb2 + c0
            if v > 0:
                factors.append(v)
            elif v:
                negatives += 1
                factors.append(-v)
            else:
                return ZERO
        # Valid entries may hit pairs of negative factors whose product is
        # positive; an odd count means the key lies outside the domain.
        if negatives % 2:
            raise FormulaDomainError(
                f"negative radicand for entry {entry} at "
                f"j=({_half(tj1)},{_half(tj2)}), b=({_half(tb1)},{_half(tb2)})")
        den = 1
        for i, (c1, c2, c3, c4, c0) in enumerate(row.den_lins):
            v = c1 * tj1 + c2 * tj2 + c3 * tb1 + c4 * tb2 + c0
            if v <= 0:
                raise FormulaDomainError(
                    f"denominator factor {_pieces(row.den)[i]} = {_half(v)} "
                    f"for entry {entry} at j=({_half(tj1)},{_half(tj2)}), "
                    f"b=({_half(tb1)},{_half(tb2)})")
            den *= v
            factors.append(v)
        return _root(row.const, outer, den, factors)


def _channel(shift: tuple[int, int], norm_factors: Union[str, tuple[Poly, ...]],
             rows: Mapping[EntryShift, RowSpec], norm_scale: str = "1",
             norm_srad: str = "1") -> ChannelTable:
    """A channel from its formulas; norm_factors is a string of linear
    forms or a tuple of polynomials."""
    if isinstance(norm_factors, str):
        norm_factors = tuple(_pieces(norm_factors))
    compiled = tuple(_int_poly(f) for f in norm_factors)
    const = _constant(1, norm_scale, norm_srad,
                      sum(f.degree for f in compiled), 0)
    return ChannelTable(shift, norm_scale, norm_srad, compiled, const, rows)


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
    rows=_rows(
        _row(2, 2, PART_11, +1, "1/4",
             num="j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2+1; j1+j2-b1+b2+2;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3;"
                 "j1+j2+b1+b2+3; j1+j2+b1+b2+4; j1+j2+b1+b2+5; j1+j2+b1+b2+6",
             den="j1+1; 2j1+3; j2+1; 2j2+3"),
        _row(-2, -2, PART_11, +1, "1/4",
             num="j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; -j1-j2+b1+b2+3; -j1-j2+b1+b2+4;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2; 2j2-1"),
        _row(-2, 2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2-1; j1-j2+b1-b2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3;"
                 "-j1+j2+b1+b2+4; -j1+j2+b1+b2+5; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1; 2j1-1; j2+1; 2j2+3"),
        _row(2, -2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2-1; -j1+j2+b1-b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; j1-j2+b1+b2+3;"
                 "j1-j2+b1+b2+4; j1-j2+b1+b2+5; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; 2j1+3; j2; 2j2-1"),
        _row(2, 0, PART_11, +1, "1/4",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1-j2+b1+b2+4;"
                 "-j1+j2+b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4; j1+j2+b1+b2+5",
             den="j1+1; 2j1+3; j2; j2+1"),
        _row(-2, 0, PART_11, -1, "1/4",
             num="j1-j2+b1-b2; -j1+j2+b1-b2+1; j1+j2+b1-b2+1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; -j1-j2+b1+b2+3; j1-j2+b1+b2+2;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; -j1+j2+b1+b2+4; j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2; j2+1"),
        _row(0, 2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3;"
                 "-j1+j2+b1+b2+4; j1+j2+b1+b2+3; j1+j2+b1+b2+4; j1+j2+b1+b2+5",
             den="j1; j1+1; j2+1; 2j2+3"),
        _row(0, -2, PART_11, -1, "1/4",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; -j1-j2+b1+b2+3; j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+3; j1-j2+b1+b2+4; -j1+j2+b1+b2+2; j1+j2+b1+b2+3",
             den="j1; j1+1; j2; 2j2-1"),
        _row(0, 0, PART_11, -1, "1/4", poly=_shift_pp_swave_poly,
             num="-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; j1-j2+b1+b2+3;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1; j1+1; j2; j2+1"),
        _row(1, 1, PART_HH, +1, "1/2",
             num="j1+j2+b1-b2+2; j1+j2-b1+b2+1; -j1-j2+b1+b2+1; j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+3; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3;"
                 "j1+j2+b1+b2+4; j1+j2+b1+b2+5",
             den="j1+1; j2+1"),
        _row(-1, -1, PART_HH, -1, "1/2",
             num="j1+j2+b1-b2+1; j1+j2-b1+b2; -j1-j2+b1+b2+1; -j1-j2+b1+b2+2;"
                 "-j1-j2+b1+b2+3; j1-j2+b1+b2+2; j1-j2+b1+b2+3; -j1+j2+b1+b2+2;"
                 "-j1+j2+b1+b2+3; j1+j2+b1+b2+3",
             den="j1; j2"),
        _row(1, -1, PART_HH, +1, "1/2",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2; -j1-j2+b1+b2+1; -j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1-j2+b1+b2+4; -j1+j2+b1+b2+2;"
                 "j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; j2"),
        _row(-1, 1, PART_HH, +1, "1/2",
             num="j1-j2+b1-b2; -j1+j2+b1-b2+1; -j1-j2+b1+b2+1; -j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+2; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3; -j1+j2+b1+b2+4;"
                 "j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1; j2+1"),
        _row(0, 0, PART_00, +1, "1/2", srad="5",
             num="-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; j1-j2+b1+b2+3;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4"),
    ),
)

RAISING_TABLES[(2, 0)] = _channel(
    shift=(2, 0),
    norm_factors=(
        "2b1+2; 2b1+3; 2b1-2b2+1; b1-b2+1; b2; b1+b2+2; 2b2+2; 2b1+2b2+3"),
    rows=_rows(
        _row(2, 2, PART_11, -1, "1/4",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "j1+j2+b1-b2+4; j1+j2-b1+b2+1; -j1-j2+b1+b2; j1-j2+b1+b2+2;"
                 "-j1+j2+b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4; j1+j2+b1+b2+5",
             den="j1+1; 2j1+3; j2+1; 2j2+3"),
        _row(-2, -2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+1; j1+j2-b1+b2-2;"
                 "j1+j2-b1+b2-1; j1+j2-b1+b2; -j1-j2+b1+b2+1; -j1-j2+b1+b2+2;"
                 "-j1-j2+b1+b2+3; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+2",
             den="j1; 2j1-1; j2; 2j2-1"),
        _row(-2, 2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2; -j1+j2+b1-b2+3;"
                 "j1+j2+b1-b2+2; j1+j2-b1+b2; -j1-j2+b1+b2+1; j1-j2+b1+b2+1;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; -j1+j2+b1+b2+4; j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2+1; 2j2+3"),
        _row(2, -2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1-j2+b1-b2+3; -j1+j2+b1-b2;"
                 "j1+j2+b1-b2+2; j1+j2-b1+b2; -j1-j2+b1+b2+1; j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+3; j1-j2+b1+b2+4; -j1+j2+b1+b2+1; j1+j2+b1+b2+3",
             den="j1+1; 2j1+3; j2; 2j2-1"),
        _row(2, 0, PART_11, +1, "1/4",
             poly=lambda j1, j2, b1, b2: (-j1 * j1 + (2 * b1 + 1) * j1
                                          + j2 * j2 - b1 * b1 + b2 * b2
                                          + j2 - b1 + b2),
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; 2j1+3; j2; j2+1"),
        _row(-2, 0, PART_11, -1, "1/4",
             poly=lambda j1, j2, b1, b2: (2 * j2 * b2
                                          + (j1 - j2 + b1 - b2 + 1)
                                          * (j1 + j2 + b1 + b2 + 2)),
             num="-j1+j2+b1-b2+1; -j1+j2+b1-b2+2; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2; j2+1"),
        _row(0, 2, PART_11, +1, "1/4",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1 - j2 * j2
                                          - b1 * b1 + b2 * b2 - b1
                                          + j2 * (2 * b1 + 1) + b2),
             num="-j1+j2+b1-b2+1; -j1+j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1; j1+1; j2+1; 2j2+3"),
        _row(0, -2, PART_11, +1, "1/4",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1 - j2 * j2
                                          - b1 * b1 + b2 * b2 - 3 * b1
                                          - j2 * (2 * b1 + 3) + b2 - 2),
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; j1-j2+b1+b2+3",
             den="j1; j1+1; j2; 2j2-1"),
        _row(0, 0, PART_11, -1, "1/4",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1 + j2 * j2 + j2
                                          - b1 * b1 + b2 * b2
                                          - 3 * b1 + b2 - 2),
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3",
             den="j1; j1+1; j2; j2+1"),
        _row(1, 1, PART_HH, +1, "1/2", outer="j1+j2-b1",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; j2+1"),
        _row(-1, -1, PART_HH, -1, "1/2", outer="j1+j2+b1+2",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; -j1+j2+b1+b2+2",
             den="j1; j2"),
        _row(1, -1, PART_HH, +1, "1/2", outer="-j1+j2+b1+1",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1+j2+b1+b2+3",
             den="j1+1; j2"),
        _row(-1, 1, PART_HH, +1, "1/2", outer="j1-j2+b1+1",
             num="-j1+j2+b1-b2+1; -j1+j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3",
             den="j1; j2+1"),
        _row(0, 0, PART_00, +1, "1/2", srad="5",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3"),
    ),
)

RAISING_TABLES[(0, 2)] = _channel(
    shift=(0, 2),
    norm_factors=(
        "2b1+1; 2b1+3; 2b1-2b2+1; b1-b2; b1+b2+2; 2b2+1; 2b2+2; 2b1+2b2+3"),
    rows=_rows(
        _row(2, 2, PART_11, +1, "1/2", srad="1/2",
             num="j1-j2+b1-b2; -j1+j2+b1-b2; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
                 "j1+j2-b1+b2+2; j1+j2-b1+b2+3; -j1-j2+b1+b2; j1-j2+b1+b2+2;"
                 "-j1+j2+b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4; j1+j2+b1+b2+5",
             den="j1+1; 2j1+3; j2+1; 2j2+3"),
        _row(-2, -2, PART_11, -1, "1/2", srad="1/2",
             num="j1-j2+b1-b2; -j1+j2+b1-b2; j1+j2+b1-b2-1; j1+j2+b1-b2;"
                 "j1+j2+b1-b2+1; j1+j2-b1+b2; -j1-j2+b1+b2+1; -j1-j2+b1+b2+2;"
                 "-j1-j2+b1+b2+3; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+2",
             den="j1; 2j1-1; j2; 2j2-1"),
        _row(-2, 2, PART_11, +1, "1/2", srad="1/2",
             num="j1-j2+b1-b2-2; j1-j2+b1-b2-1; j1-j2+b1-b2; -j1+j2+b1-b2+1;"
                 "j1+j2+b1-b2+1; j1+j2-b1+b2+1; -j1-j2+b1+b2+1; j1-j2+b1+b2+1;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; -j1+j2+b1+b2+4; j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2+1; 2j2+3"),
        _row(2, -2, PART_11, +1, "1/2", srad="1/2",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2-2; -j1+j2+b1-b2-1; -j1+j2+b1-b2;"
                 "j1+j2+b1-b2+1; j1+j2-b1+b2+1; -j1-j2+b1+b2+1; j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+3; j1-j2+b1+b2+4; -j1+j2+b1+b2+1; j1+j2+b1+b2+3",
             den="j1+1; 2j1+3; j2; 2j2-1"),
        _row(2, 0, PART_11, +1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (-j1 * j1 + 2 * b2 * j1 + j2 * j2
                                          + b1 * b1 - b2 * b2 + j2
                                          + 2 * b1 + 1),
             num="j1-j2-b1+b2; j1-j2-b1+b2+1; j1+j2-b1+b2+1; j1+j2-b1+b2+2;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; 2j1+3; j2; j2+1"),
        _row(-2, 0, PART_11, -1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + 2 * (b2 + 1) * j1
                                          - j2 * j2 - b1 * b1 + b2 * b2
                                          - j2 - 2 * b1 + 2 * b2),
             num="j1-j2+b1-b2-1; j1-j2+b1-b2; j1+j2+b1-b2; j1+j2+b1-b2+1;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2; j2+1"),
        _row(0, 2, PART_11, +1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1 - j2 * j2
                                          + b1 * b1 - b2 * b2 + 2 * b1
                                          + 2 * j2 * b2 + 1),
             num="j1-j2+b1-b2-1; j1-j2+b1-b2; j1+j2-b1+b2+1; j1+j2-b1+b2+2;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1; j1+1; j2+1; 2j2+3"),
        _row(0, -2, PART_11, +1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1 - j2 * j2
                                          + b1 * b1 - b2 * b2 + 2 * b1
                                          - 2 * b2 - 2 * j2 * (b2 + 1)),
             num="-j1+j2+b1-b2-1; -j1+j2+b1-b2; j1+j2+b1-b2; j1+j2+b1-b2+1;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; j1-j2+b1+b2+3",
             den="j1; j1+1; j2; 2j2-1"),
        _row(0, 0, PART_11, +1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1 + j2 * j2 + j2
                                          + b1 * b1 - b2 * b2
                                          + 2 * b1 - 2 * b2),
             num="j1-j2+b1-b2; -j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2+1;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3",
             den="j1; j1+1; j2; j2+1"),
        _row(1, 1, PART_HH, -1, "1/2", srad="1/2", outer="2j1+2j2-2b2+1",
             num="j1-j2+b1-b2; -j1+j2+b1-b2; j1+j2-b1+b2+1; j1+j2-b1+b2+2;"
                 "j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; j2+1"),
        _row(-1, -1, PART_HH, +1, "1/2", srad="1/2", outer="2j1+2j2+2b2+3",
             num="j1-j2+b1-b2; -j1+j2+b1-b2; j1+j2+b1-b2; j1+j2+b1-b2+1;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; -j1+j2+b1+b2+2",
             den="j1; j2"),
        _row(1, -1, PART_HH, +1, "1/2", srad="1/2", outer="-2j1+2j2+2b2+1",
             num="-j1+j2+b1-b2-1; -j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2+1;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1+j2+b1+b2+3",
             den="j1+1; j2"),
        _row(-1, 1, PART_HH, +1, "1/2", srad="1/2", outer="2j1-2j2+2b2+1",
             num="j1-j2+b1-b2-1; j1-j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2+1;"
                 "-j1-j2+b1+b2+1; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3",
             den="j1; j2+1"),
        _row(0, 0, PART_00, -1, "1", srad="5/2",
             num="j1-j2+b1-b2; -j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2+1;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3"),
    ),
)

RAISING_TABLES[(2, -2)] = _channel(
    shift=(2, -2),
    norm_factors=(
        "2; 2b1+2; 2b1+3; 2b1-2b2+1; 2b1-2b2+3; b1-b2+1; b1-b2+2; b2; 2b2+1"),
    rows=_rows(
        _row(2, 2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2+b1-b2+4; j1+j2+b1-b2+5;"
                 "-j1-j2+b1+b2-1; -j1-j2+b1+b2; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; 2j1+3; j2+1; 2j2+3"),
        _row(-2, -2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
                 "j1+j2-b1+b2-3; j1+j2-b1+b2-2; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1+j2+b1+b2+1; j1+j2+b1+b2+2",
             den="j1; 2j1-1; j2; 2j2-1"),
        _row(-2, 2, PART_11, +1, "1/4",
             num="-j1+j2+b1-b2+1; -j1+j2+b1-b2+2; -j1+j2+b1-b2+3; -j1+j2+b1-b2+4;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "j1-j2+b1+b2; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2+1; 2j2+3"),
        _row(2, -2, PART_11, +1, "1/4",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1-j2+b1-b2+3; j1-j2+b1-b2+4;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; -j1+j2+b1+b2; -j1+j2+b1+b2+1",
             den="j1+1; 2j1+3; j2; 2j2-1"),
        _row(2, 0, PART_11, -1, "1/4",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1-j2+b1-b2+3; -j1+j2+b1-b2+1;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2+b1-b2+4; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2; j1-j2+b1+b2+2; -j1+j2+b1+b2+1; j1+j2+b1+b2+3",
             den="j1+1; 2j1+3; j2; j2+1"),
        _row(-2, 0, PART_11, -1, "1/4",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2; -j1+j2+b1-b2+3;"
                 "j1+j2+b1-b2+2; j1+j2-b1+b2-2; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; j1+j2+b1+b2+2",
             den="j1; 2j1-1; j2; j2+1"),
        _row(0, 2, PART_11, -1, "1/4",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2; -j1+j2+b1-b2+3;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2+b1-b2+4; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; j1+j2+b1+b2+3",
             den="j1; j1+1; j2+1; 2j2+3"),
        _row(0, -2, PART_11, -1, "1/4",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1-j2+b1-b2+3; -j1+j2+b1-b2+1;"
                 "j1+j2+b1-b2+2; j1+j2-b1+b2-2; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+1; j1+j2+b1+b2+2",
             den="j1; j1+1; j2; 2j2-1"),
        _row(0, 0, PART_11, +1, "1/4",
             poly=lambda j1, j2, b1, b2: (2 * j1 * j2
                                          + (-j1 - j2 + b1 + b2 + 1)
                                          * (j1 + j2 + b1 + b2 + 2)),
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2-1; j1+j2-b1+b2",
             den="j1; j1+1; j2; j2+1"),
        _row(1, 1, PART_HH, -1, "1/2",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2+b1-b2+4; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2; j1+j2+b1+b2+3",
             den="j1+1; j2+1"),
        _row(-1, -1, PART_HH, -1, "1/2",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
                 "j1+j2+b1-b2+2; j1+j2-b1+b2-2; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1+j2+b1+b2+2",
             den="j1; j2"),
        _row(1, -1, PART_HH, +1, "1/2",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1-j2+b1-b2+3; -j1+j2+b1-b2+1;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "j1-j2+b1+b2+2; -j1+j2+b1+b2+1",
             den="j1+1; j2"),
        _row(-1, 1, PART_HH, +1, "1/2",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2; -j1+j2+b1-b2+3;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "j1-j2+b1+b2+1; -j1+j2+b1+b2+2",
             den="j1; j2+1"),
        _row(0, 0, PART_00, +1, "1/2", srad="5",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
                 "j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2-1; j1+j2-b1+b2"),
    ),
)

RAISING_TABLES[(1, 1)] = _channel(
    shift=(1, 1),
    norm_factors=(
        "2b1+2; b1-b2; b1-b2+1; b1+b2+1; b1+b2+2; b1+b2+3; 2b2+1; 2b1+2b2+3"),
    rows=_rows(
        _row(2, 2, PART_11, -1, "1/2", srad="1/2", outer="j1-j2",
             num="j1+j2+b1-b2+2; j1+j2+b1-b2+3; j1+j2-b1+b2+1; j1+j2-b1+b2+2;"
                 "-j1-j2+b1+b2; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3;"
                 "j1+j2+b1+b2+4; j1+j2+b1+b2+5",
             den="j1+1; 2j1+3; j2+1; 2j2+3"),
        _row(-2, -2, PART_11, +1, "1/2", srad="1/2", outer="j1-j2",
             num="j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; -j1-j2+b1+b2+3; j1-j2+b1+b2+2;"
                 "-j1+j2+b1+b2+2; j1+j2+b1+b2+2",
             den="j1; 2j1-1; j2; 2j2-1"),
        _row(-2, 2, PART_11, +1, "1/2", srad="1/2", outer="j1+j2+1",
             num="j1-j2+b1-b2-1; j1-j2+b1-b2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3;"
                 "-j1+j2+b1+b2+4; j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2+1; 2j2+3"),
        _row(2, -2, PART_11, -1, "1/2", srad="1/2", outer="j1+j2+1",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2-1; -j1+j2+b1-b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1-j2+b1+b2+4;"
                 "-j1+j2+b1+b2+1; j1+j2+b1+b2+3",
             den="j1+1; 2j1+3; j2; 2j2-1"),
        _row(2, 0, PART_11, -1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j2 * (j2 + 1)
                                          + (j1 + 1) * (-j1 + b1 + b2 + 1)),
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
                 "j1-j2+b1+b2+2; j1-j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; 2j1+3; j2; j2+1"),
        _row(-2, 0, PART_11, -1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + (b1 + b2 + 2) * j1
                                          - j2 * (j2 + 1)),
             num="j1-j2+b1-b2; -j1+j2+b1-b2+1; j1+j2+b1-b2+1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2; j2+1"),
        _row(0, 2, PART_11, +1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * (j1 + 1)
                                          + (j2 + 1) * (-j2 + b1 + b2 + 1)),
             num="j1-j2+b1-b2; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1; j1+1; j2+1; 2j2+3"),
        _row(0, -2, PART_11, -1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1
                                          - j2 * (j2 + b1 + b2 + 2)),
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1-j2+b1+b2+2; j1-j2+b1+b2+3",
             den="j1; j1+1; j2; 2j2-1"),
        _row(0, 0, PART_11, +1, "1/2", srad="1/2", outer="j1-j2; j1+j2+1",
             poly=lambda j1, j2, b1, b2: (-j1 * j1 - j1 - j2 * j2 - j2
                                          + (b1 - b2) * (b1 - b2 + 1)),
             num="-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3",
             den="j1; j1+1; j2; j2+1"),
        _row(1, 1, PART_HH, +1, "1/2", srad="1/2",
             outer="j1-j2; 2j1+2j2-b1-b2+1",
             num="j1+j2+b1-b2+2; j1+j2-b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2;"
                 "j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; j2+1"),
        _row(-1, -1, PART_HH, -1, "1/2", srad="1/2",
             outer="j1-j2; 2j1+2j2+b1+b2+3",
             num="j1+j2+b1-b2+1; j1+j2-b1+b2; -j1-j2+b1+b2+1; -j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+2; -j1+j2+b1+b2+2",
             den="j1; j2"),
        _row(1, -1, PART_HH, -1, "1/2", srad="1/2",
             outer="j1+j2+1; -2j1+2j2+b1+b2+1",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2; -j1-j2+b1+b2+1; j1-j2+b1+b2+2;"
                 "j1-j2+b1+b2+3; j1+j2+b1+b2+3",
             den="j1+1; j2"),
        _row(-1, 1, PART_HH, +1, "1/2", srad="1/2",
             outer="j1+j2+1; 2j1-2j2+b1+b2+1",
             num="j1-j2+b1-b2; -j1+j2+b1-b2+1; -j1-j2+b1+b2+1; -j1+j2+b1+b2+2;"
                 "-j1+j2+b1+b2+3; j1+j2+b1+b2+3",
             den="j1; j2+1"),
        _row(0, 0, PART_00, +1, "1", srad="5/2", outer="j1-j2; j1+j2+1",
             num="-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+2; j1+j2+b1+b2+3"),
    ),
)

RAISING_TABLES[(1, -1)] = _channel(
    shift=(1, -1),
    norm_factors=(
        "2b1+2; 2b1-2b2+1; b1-b2; b1-b2+1; b1-b2+2; b1+b2+1; b1+b2+2; 2b2+1"),
    rows=_rows(
        _row(2, 2, PART_11, +1, "1/2", srad="1/2", outer="j1-j2",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "j1+j2+b1-b2+4; j1+j2-b1+b2+1; -j1-j2+b1+b2-1; -j1-j2+b1+b2;"
                 "j1+j2+b1+b2+3; j1+j2+b1+b2+4",
             den="j1+1; 2j1+3; j2+1; 2j2+3"),
        _row(-2, -2, PART_11, +1, "1/2", srad="1/2", outer="j1-j2",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+1; j1+j2-b1+b2-2;"
                 "j1+j2-b1+b2-1; j1+j2-b1+b2; -j1-j2+b1+b2+1; -j1-j2+b1+b2+2;"
                 "j1+j2+b1+b2+1; j1+j2+b1+b2+2",
             den="j1; 2j1-1; j2; 2j2-1"),
        _row(-2, 2, PART_11, +1, "1/2", srad="1/2", outer="j1+j2+1",
             num="j1-j2+b1-b2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2; -j1+j2+b1-b2+3;"
                 "j1+j2+b1-b2+2; j1+j2-b1+b2; j1-j2+b1+b2; j1-j2+b1+b2+1;"
                 "-j1+j2+b1+b2+2; -j1+j2+b1+b2+3",
             den="j1; 2j1-1; j2+1; 2j2+3"),
        _row(2, -2, PART_11, -1, "1/2", srad="1/2", outer="j1+j2+1",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1-j2+b1-b2+3; -j1+j2+b1-b2;"
                 "j1+j2+b1-b2+2; j1+j2-b1+b2; j1-j2+b1+b2+2; j1-j2+b1+b2+3;"
                 "-j1+j2+b1+b2; -j1+j2+b1+b2+1",
             den="j1+1; 2j1+3; j2; 2j2-1"),
        _row(2, 0, PART_11, +1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j2 * (j2 + 1)
                                          - (j1 + 1) * (j1 - b1 + b2)),
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "-j1-j2+b1+b2; j1-j2+b1+b2+2; -j1+j2+b1+b2+1; j1+j2+b1+b2+3",
             den="j1+1; 2j1+3; j2; j2+1"),
        _row(-2, 0, PART_11, -1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + (b1 - b2 + 1) * j1
                                          - j2 * (j2 + 1)),
             num="-j1+j2+b1-b2+1; -j1+j2+b1-b2+2; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; j1+j2+b1+b2+2",
             den="j1; 2j1-1; j2; j2+1"),
        _row(0, 2, PART_11, -1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1
                                          - (j2 + 1) * (j2 - b1 + b2)),
             num="-j1+j2+b1-b2+1; -j1+j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "-j1-j2+b1+b2; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; j1+j2+b1+b2+3",
             den="j1; j1+1; j2+1; 2j2+3"),
        _row(0, -2, PART_11, -1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: (j1 * j1 + j1
                                          - j2 * (j2 + b1 - b2 + 1)),
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+1; j1+j2+b1+b2+2",
             den="j1; j1+1; j2; 2j2-1"),
        _row(0, 0, PART_11, +1, "1/2", srad="1/2",
             poly=lambda j1, j2, b1, b2: ((j1 * j1 + j1 - j2 * (j2 + 1))
                                          * (-j1 * j1 - j1 - j2 * j2 - j2
                                             + (b1 + b2 + 1) * (b1 + b2 + 2))),
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2",
             den="j1; j1+1; j2; j2+1"),
        _row(1, 1, PART_HH, -1, "1/2", srad="1/2",
             outer="j1-j2; 2j1+2j2-b1+b2+2",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
                 "-j1-j2+b1+b2; j1+j2+b1+b2+3",
             den="j1+1; j2+1"),
        _row(-1, -1, PART_HH, -1, "1/2", srad="1/2",
             outer="j1-j2; 2j1+2j2+b1-b2+2",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2-b1+b2-1; j1+j2-b1+b2;"
                 "-j1-j2+b1+b2+1; j1+j2+b1+b2+2",
             den="j1; j2"),
        _row(1, -1, PART_HH, +1, "1/2", srad="1/2",
             outer="j1+j2+1; 2j1-2j2-b1+b2",
             num="j1-j2+b1-b2+1; j1-j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2-b1+b2;"
                 "j1-j2+b1+b2+2; -j1+j2+b1+b2+1",
             den="j1+1; j2"),
        _row(-1, 1, PART_HH, +1, "1/2", srad="1/2",
             outer="j1+j2+1; 2j1-2j2+b1-b2",
             num="-j1+j2+b1-b2+1; -j1+j2+b1-b2+2; j1+j2+b1-b2+2; j1+j2-b1+b2;"
                 "j1-j2+b1+b2+1; -j1+j2+b1+b2+2",
             den="j1; j2+1"),
        _row(0, 0, PART_00, +1, "1", srad="5/2", outer="j1-j2; j1+j2+1",
             num="j1-j2+b1-b2+1; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2"),
    ),
)

# ---------------------------------------------------------------------------
# Diagonal channel (first copy) and its un-normalized companion, from which
# the second copy is built by Gram-Schmidt.  The two tables share all their
# square-root parts; only prefactors, signs and scales differ.

_DIAG_SQRT: dict[tuple[int, int, So4Label], tuple[str, str]] = {
    (2, 2, PART_11): (
        "j1+j2-b1-b2; j1+j2-b1-b2+1; j1+j2+b1-b2+2; j1+j2+b1-b2+3;"
        "j1+j2-b1+b2+1; j1+j2-b1+b2+2; j1+j2+b1+b2+3; j1+j2+b1+b2+4",
        "j1+1; 2j1+3; j2+1; 2j2+3"),
    (-2, -2, PART_11): (
        "j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2-1; j1+j2-b1+b2;"
        "-j1-j2+b1+b2+1; -j1-j2+b1+b2+2; j1+j2+b1+b2+1; j1+j2+b1+b2+2",
        "j1; 2j1-1; j2; 2j2-1"),
    (-2, 2, PART_11): (
        "j1-j2+b1-b2-1; j1-j2+b1-b2; -j1+j2+b1-b2+1; -j1+j2+b1-b2+2;"
        "j1-j2+b1+b2; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; -j1+j2+b1+b2+3",
        "j1; 2j1-1; j2+1; 2j2+3"),
    (2, -2, PART_11): (
        "j1-j2+b1-b2+1; j1-j2+b1-b2+2; -j1+j2+b1-b2-1; -j1+j2+b1-b2;"
        "j1-j2+b1+b2+2; j1-j2+b1+b2+3; -j1+j2+b1+b2; -j1+j2+b1+b2+1",
        "j1+1; 2j1+3; j2; 2j2-1"),
    (2, 0, PART_11): (
        "j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
        "-j1-j2+b1+b2; j1-j2+b1+b2+2; -j1+j2+b1+b2+1; j1+j2+b1+b2+3",
        "j1+1; 2j1+3; j2; j2+1"),
    (-2, 0, PART_11): (
        "j1-j2+b1-b2; -j1+j2+b1-b2+1; j1+j2+b1-b2+1; j1+j2-b1+b2;"
        "-j1-j2+b1+b2+1; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; j1+j2+b1+b2+2",
        "j1; 2j1-1; j2; j2+1"),
    (0, 2, PART_11): (
        "j1-j2+b1-b2; -j1+j2+b1-b2+1; j1+j2+b1-b2+2; j1+j2-b1+b2+1;"
        "-j1-j2+b1+b2; j1-j2+b1+b2+1; -j1+j2+b1+b2+2; j1+j2+b1+b2+3",
        "j1; j1+1; j2+1; 2j2+3"),
    (0, -2, PART_11): (
        "j1-j2+b1-b2+1; -j1+j2+b1-b2; j1+j2+b1-b2+1; j1+j2-b1+b2;"
        "-j1-j2+b1+b2+1; j1-j2+b1+b2+2; -j1+j2+b1+b2+1; j1+j2+b1+b2+2",
        "j1; j1+1; j2; 2j2-1"),
    (0, 0, PART_11): ("", "j1; j1+1; j2; j2+1"),
    (1, 1, PART_HH): (
        "j1+j2+b1-b2+2; j1+j2-b1+b2+1; -j1-j2+b1+b2; j1+j2+b1+b2+3",
        "j1+1; j2+1"),
    (-1, -1, PART_HH): (
        "j1+j2+b1-b2+1; j1+j2-b1+b2; -j1-j2+b1+b2+1; j1+j2+b1+b2+2",
        "j1; j2"),
    (1, -1, PART_HH): (
        "j1-j2+b1-b2+1; -j1+j2+b1-b2; j1-j2+b1+b2+2; -j1+j2+b1+b2+1",
        "j1+1; j2"),
    (-1, 1, PART_HH): (
        "j1-j2+b1-b2; -j1+j2+b1-b2+1; j1-j2+b1+b2+1; -j1+j2+b1+b2+2",
        "j1; j2+1"),
    (0, 0, PART_00): ("", ""),
}


def _diag_row(tdj1: int, tdj2: int, part: So4Label, sign: int, scale: str,
              srad: str = "1", outer: str = "", poly: Optional[Poly] = None) -> RowSpec:
    num, den = _DIAG_SQRT[(tdj1, tdj2, part)]
    return _row(tdj1, tdj2, part, sign, scale, srad, outer, poly, num, den)


DIAGONAL_TABLE = _channel(
    shift=(0, 0),
    norm_scale="2",
    norm_srad="5",
    norm_factors=(_diag_norm_bracket,),
    rows=_rows(
        _diag_row(2, 2, PART_11, -1, "1/8"),
        _diag_row(-2, -2, PART_11, -1, "1/8"),
        _diag_row(-2, 2, PART_11, -1, "1/8"),
        _diag_row(2, -2, PART_11, -1, "1/8"),
        _diag_row(2, 0, PART_11, -1, "1/8"),
        _diag_row(-2, 0, PART_11, +1, "1/8"),
        _diag_row(0, 2, PART_11, -1, "1/8"),
        _diag_row(0, -2, PART_11, +1, "1/8"),
        _diag_row(0, 0, PART_11, -1, "1/8", poly=_diag_core_poly),
        _diag_row(1, 1, PART_HH, +1, "1/8", outer="2j1+2j2+3"),
        _diag_row(-1, -1, PART_HH, +1, "1/8", outer="2j1+2j2+1"),
        _diag_row(1, -1, PART_HH, +1, "1/8", outer="2j1-2j2+1"),
        _diag_row(-1, 1, PART_HH, -1, "1/8", outer="2j1-2j2-1"),
        _diag_row(0, 0, PART_00, -1, "1/10", srad="5", poly=_diag_scalar_poly),
    ),
)

AUX_TABLE = _channel(
    shift=(0, 0),
    norm_factors=(),
    rows=_rows(
        _diag_row(2, 2, PART_11, +1, "1/4", outer="j1-j2; j1-j2"),
        _diag_row(-2, -2, PART_11, +1, "1/4", outer="j1-j2; j1-j2"),
        _diag_row(-2, 2, PART_11, +1, "1/4", outer="j1+j2+1; j1+j2+1"),
        _diag_row(2, -2, PART_11, +1, "1/4", outer="j1+j2+1; j1+j2+1"),
        _diag_row(2, 0, PART_11, +1, "1/4",
                  poly=lambda j1, j2, b1, b2: ((j1 + 1) ** 2 - j2 * (j2 + 1))),
        _diag_row(-2, 0, PART_11, +1, "1/4",
                  poly=lambda j1, j2, b1, b2: (-j1 * j1 + j2 * j2 + j2)),
        _diag_row(0, 2, PART_11, +1, "1/4",
                  poly=lambda j1, j2, b1, b2: ((j2 + 1) ** 2 - j1 * (j1 + 1))),
        _diag_row(0, -2, PART_11, +1, "1/4",
                  poly=lambda j1, j2, b1, b2: (j1 * j1 + j1 - j2 * j2)),
        _diag_row(0, 0, PART_11, -1, "1/4", poly=_aux_core_poly),
        _diag_row(1, 1, PART_HH, -1, "1/4", outer="j1-j2; j1-j2; 2j1+2j2+3"),
        _diag_row(-1, -1, PART_HH, -1, "1/4", outer="j1-j2; j1-j2; 2j1+2j2+1"),
        _diag_row(1, -1, PART_HH, +1, "1/4",
                  outer="j1+j2+1; j1+j2+1; -2j1+2j2-1"),
        _diag_row(-1, 1, PART_HH, +1, "1/4",
                  outer="2j1-2j2-1; j1+j2+1; j1+j2+1"),
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
