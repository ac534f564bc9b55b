"""Exact SU(2) Clebsch-Gordan coefficients.

Closed single-sum form with factorials over exact rationals, in the
standard real phase convention (highest-stretched coefficient positive).
All spins enter as doubled integers so half-integer cases stay exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import MalformedKey
from .exactnum import ZERO, SqrtSum, sqrt_rational


def _check_pair(tj: int, tm: int, what: str) -> None:
    if tj < 0:
        raise MalformedKey(f"{what}: negative spin {Fraction(tj, 2)}")
    if abs(tm) > tj:
        raise MalformedKey(f"{what}: |m| exceeds j ({Fraction(tm, 2)} vs {Fraction(tj, 2)})")
    if (tj - tm) % 2 != 0:
        raise MalformedKey(f"{what}: m not in the j ladder ({Fraction(tm, 2)} vs {Fraction(tj, 2)})")


@lru_cache(maxsize=1 << 18)
def su2_cg(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> SqrtSum:
    """<j1 m1 j2 m2 | J M> exactly; arguments are doubled values.

    Raises MalformedKey when a (j, m) pair is invalid (|m| > j or mixed
    integrality); selection-rule violations (m1 + m2 != M, broken triangle)
    are legitimate zeros, not errors.
    """
    for v in (tj1, tm1, tj2, tm2, tJ, tM):
        if not isinstance(v, int):
            raise MalformedKey(f"doubled arguments must be ints, got {v!r}")
    _check_pair(tj1, tm1, "first factor")
    _check_pair(tj2, tm2, "second factor")
    _check_pair(tJ, tM, "total")
    if tm1 + tm2 != tM:
        return ZERO
    if not (abs(tj1 - tj2) <= tJ <= tj1 + tj2):
        return ZERO
    if (tj1 + tj2 + tJ) % 2 != 0:
        return ZERO

    def f(twice: int) -> int:
        # All surviving factorial arguments are even doubled values.
        if twice % 2 or twice < 0:
            raise AssertionError(f"factorial of doubled value {twice}")
        return factorial(twice // 2)

    norm = Fraction(
        (tJ + 1)
        * f(tj1 + tj2 - tJ)
        * f(tj1 - tj2 + tJ)
        * f(-tj1 + tj2 + tJ)
        * f(tJ + tM)
        * f(tJ - tM)
        * f(tj1 - tm1)
        * f(tj1 + tm1)
        * f(tj2 - tm2)
        * f(tj2 + tm2),
        f(tj1 + tj2 + tJ + 2),
    )
    k_min = max(0, -(tJ - tj2 + tm1) // 2, -(tJ - tj1 - tm2) // 2)
    k_max = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        tk = 2 * k
        den = (
            factorial(k)
            * f(tj1 + tj2 - tJ - tk)
            * f(tj1 - tm1 - tk)
            * f(tj2 + tm2 - tk)
            * f(tJ - tj2 + tm1 + tk)
            * f(tJ - tj1 - tm2 + tk)
        )
        total += Fraction(-1 if k % 2 else 1, den)
    return sqrt_rational(norm) * total

