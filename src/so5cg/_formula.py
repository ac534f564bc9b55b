"""Compiling the written table formulas to integer data.

A table formula is written as a string of linear forms such as
``"-j1+j2+b1+b2+2"`` or as a Python polynomial in the four table variables
(j1, j2, b1, b2).  Each is compiled once, at import, to integer data over the
doubled spins (tj1, tj2, tb1, tb2) = (2j1, 2j2, 2b1, 2b2): a linear form L to
a coefficient vector whose value is the int 2L, a polynomial p of degree d to
monomial data whose value is the int 2**d * p.  so5cg.tables builds its rows
from these.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Union

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
    Constants are ints, or Fractions where a formula shifts a variable by a
    half.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int, int, int], int]):
        self.terms = terms

    @staticmethod
    def _of(value) -> dict:
        if isinstance(value, _Expansion):
            return value.terms
        if isinstance(value, (int, Fraction)):
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


class IntPoly(NamedTuple):
    """A polynomial compiled over the doubled spins.

    ``source`` is the polynomial as written: a function of (j1, j2, b1, b2)
    or a linear-form string.  Its value at the doubled spins is the int
    2**degree * source(tj1/2, tj2/2, tb1/2, tb2/2).  ``by_j`` holds its
    terms grouped by their exponents of (j1, j2), as
    (e_j1, e_j2, ((coeff, e_b1, e_b2), ...)); bind() folds in (tb1, tb2).
    """

    source: Union[Poly, str]
    degree: int
    by_j: tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...]

    def bind(self, tb1: int, tb2: int) -> list[tuple[int, int, int]]:
        """The polynomial at fixed (tb1, tb2) as (coeff, e_j1, e_j2) terms."""
        out = []
        for e1, e2, terms in self.by_j:
            c = 0
            for k, e3, e4 in terms:
                c += k * tb1 ** e3 * tb2 ** e4
            if c:
                out.append((c, e1, e2))
        return out


def _int_poly(source: Union[Poly, str]) -> IntPoly:
    if isinstance(source, str):
        # A compiled linear form already is the degree-1 data.
        degree, terms = 1, tuple(
            (c, *e) for c, e in zip(_lin(source), _UNITS) if c)
    else:
        expanded = source(*_VARIABLES).terms
        degree = max((sum(e) for e, c in expanded.items() if c), default=0)
        # Each monomial of total degree k takes 2**(degree - k) from the
        # substitution j = tj/2 scaled by 2**degree; a half shift in the
        # formula must still leave an int.
        terms = []
        for e, c in expanded.items():
            if c:
                c *= 1 << (degree - sum(e))
                if c.denominator != 1:
                    raise ValueError(f"not an int on the doubled spins: {c}")
                terms.append((int(c), *e))
    groups: dict[tuple[int, int], list] = {}
    for c, e1, e2, e3, e4 in terms:
        groups.setdefault((e1, e2), []).append((c, e3, e4))
    return IntPoly(source, degree, tuple(
        (e1, e2, tuple(group)) for (e1, e2), group in groups.items()))
