"""Exact SU(2) Clebsch-Gordan coefficients.

Racah's closed single-sum form on plain ints, in the standard real phase
convention (highest-stretched coefficient positive): the sum over one
common denominator, the square root of the factorials as one product.
All spins enter as doubled integers so half-integer cases stay exact.
"""

from __future__ import annotations

from math import factorial, gcd, lcm

from ._kernel import sqrt_of_product
from .errors import MalformedKey
from .exactnum import ZERO, SqrtSum
from .labels import HalfInt, _check_twice


def _check_pair(tj: int, tm: int, what: str) -> None:
    if tj < 0:
        raise MalformedKey(f"{what}: negative spin {HalfInt(tj)}")
    if abs(tm) > tj:
        raise MalformedKey(f"{what}: |m| exceeds j ({HalfInt(tm)} vs {HalfInt(tj)})")
    if (tj - tm) % 2 != 0:
        raise MalformedKey(f"{what}: m not in the j ladder ({HalfInt(tm)} vs {HalfInt(tj)})")


def su2_cg(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> SqrtSum:
    """<j1 m1 j2 m2 | J M> exactly; arguments are doubled values.

    Raises MalformedKey when an argument is not an int (labels' one check,
    which refuses a bool too) or a (j, m) pair is invalid (|m| > j or mixed
    integrality); selection-rule violations (m1 + m2 != M, broken triangle)
    are legitimate zeros, not errors.
    """
    _check_twice(tj1, tm1, tj2, tm2, tJ, tM)
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

    # sqrt(norm) for norm = (2J + 1) * (nine factorials) / top, taken as
    # sqrt(norm * top**2) / top.
    top = f(tj1 + tj2 + tJ + 2)
    outer, rad = sqrt_of_product((
        tJ + 1,
        f(tj1 + tj2 - tJ),
        f(tj1 - tj2 + tJ),
        f(-tj1 + tj2 + tJ),
        f(tJ + tM),
        f(tJ - tM),
        f(tj1 - tm1),
        f(tj1 + tm1),
        f(tj2 - tm2),
        f(tj2 + tm2),
        top,
    ))
    k_min = max(0, -(tJ - tj2 + tm1) // 2, -(tJ - tj1 - tm2) // 2)
    k_max = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    dens = []
    for k in range(k_min, k_max + 1):
        tk = 2 * k
        dens.append(
            factorial(k)
            * f(tj1 + tj2 - tJ - tk)
            * f(tj1 - tm1 - tk)
            * f(tj2 + tm2 - tk)
            * f(tJ - tj2 + tm1 + tk)
            * f(tJ - tj1 - tm2 + tk)
        )
    # The sum of (-1)**k / dens[k] over their least common multiple.
    common = lcm(*dens)
    total = sum(common // d if k % 2 == 0 else -(common // d)
                for k, d in enumerate(dens, k_min))
    if not total:
        return ZERO
    num = outer * total
    den = top * common
    g = gcd(num, den)
    return SqrtSum(((rad, num // g, den // g),))
