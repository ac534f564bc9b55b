"""Term-list arithmetic kernel behind SqrtSum.

  * a "term list" is a tuple of (rad, num, den) int triples meaning
    sum_i (num_i/den_i)*sqrt(rad_i), with rad square-free and strictly
    increasing across the tuple, num != 0, den > 0, gcd(num, den) == 1.
  * all functions take and return canonical term lists.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

# Read by the benchmark fingerprint (perfbench).
BACKEND = "pure"


@lru_cache(maxsize=1 << 16)
def squarefree_split(n: int) -> tuple[int, int]:
    """Split n > 0 as outer**2 * rad with rad square-free; return (outer, rad)."""
    outer = 1
    rad = 1
    m = n
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    outer <<= e >> 1
    if e & 1:
        rad = 2
    p = 3
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            outer *= p ** (e >> 1)
            if e & 1:
                rad *= p
        p += 2
    if m > 1:
        r = isqrt(m)
        if r * r == m:
            outer *= r
        else:
            rad *= m
    return outer, rad


def sqrt_of_product(factors, rad: int = 1) -> tuple[int, int]:
    """(outer, rad') with sqrt(rad * prod(factors)) = outer * sqrt(rad'),
    rad square-free; each positive int factor is split on its own."""
    outer = 1
    for v in factors:
        o, r = squarefree_split(v)
        g = gcd(rad, r)
        outer *= o * g
        rad = (rad // g) * (r // g)
    return outer, rad


def _canonical(acc: dict[int, tuple[int, int]]) -> tuple[tuple[int, int, int], ...]:
    out = []
    for rad in sorted(acc):
        num, den = acc[rad]
        if num == 0:
            continue
        g = gcd(num, den)
        out.append((rad, num // g, den // g))
    return tuple(out)


def add_terms(a, b):
    """Exact sum of two canonical term lists."""
    acc = {rad: (num, den) for rad, num, den in a}
    for rad, num, den in b:
        if rad in acc:
            n0, d0 = acc[rad]
            acc[rad] = (n0 * den + num * d0, d0 * den)
        else:
            acc[rad] = (num, den)
    return _canonical(acc)


def mul_terms(a, b):
    """Exact product of two canonical term lists.

    sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)) for g = gcd(r1, r2); the
    reduced product of two square-free numbers is square-free, so no
    factorization is needed here.
    """
    acc: dict[int, tuple[int, int]] = {}
    for r1, n1, d1 in a:
        for r2, n2, d2 in b:
            g = gcd(r1, r2)
            rad = (r1 // g) * (r2 // g)
            num = n1 * n2 * g
            den = d1 * d2
            if rad in acc:
                n0, d0 = acc[rad]
                acc[rad] = (n0 * den + num * d0, d0 * den)
            else:
                acc[rad] = (num, den)
    return _canonical(acc)


def dot_terms(pairs):
    """Exact sum of the products of (a, b) term-list pairs.

    Equal to folding add_terms over mul_terms(a, b), but every product goes
    straight into one accumulator: per radicand the numerators share the
    least common multiple of the denominators seen so far, and the sum is
    canonicalized once.
    """
    acc: dict[int, tuple[int, int]] = {}
    for a, b in pairs:
        for r1, n1, d1 in a:
            for r2, n2, d2 in b:
                if r1 == r2:
                    rad = 1
                    num = n1 * n2 * r1
                else:
                    g = gcd(r1, r2)
                    rad = (r1 // g) * (r2 // g)
                    num = n1 * n2 * g
                den = d1 * d2
                old = acc.get(rad)
                if old is None:
                    acc[rad] = (num, den)
                    continue
                n0, d0 = old
                if d0 == den:
                    acc[rad] = (n0 + num, den)
                else:
                    g = gcd(d0, den)
                    acc[rad] = (n0 * (den // g) + num * (d0 // g),
                                d0 // g * den)
    return _canonical(acc)


def scale_terms(t, num: int, den: int):
    """Multiply a canonical term list by the rational num/den."""
    if num == 0:
        return ()
    out = []
    for rad, n, d in t:
        nn = n * num
        dd = d * den
        g = gcd(nn, dd)
        nn //= g
        dd //= g
        if dd < 0:
            nn, dd = -nn, -dd
        out.append((rad, nn, dd))
    return tuple(out)


def neg_terms(t):
    """Negate a canonical term list."""
    return tuple((rad, -num, den) for rad, num, den in t)
