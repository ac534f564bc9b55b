"""Term-list arithmetic kernel behind SqrtSum.

  * a "term list" is a tuple of (rad, num, den) int triples meaning
    sum_i (num_i/den_i)*sqrt(rad_i), with rad square-free and strictly
    increasing across the tuple, num != 0, den > 0, gcd(num, den) == 1.
  * all functions take and return canonical term lists, except the dot
    product kernel, which works on scaled vectors: a sparse vector of term
    lists is brought once to integer numerators over one common
    denominator (scale_vector), and the products of two scaled vectors are
    summed on plain ints keyed by the product of their radicands
    (dot_scaled); over() turns that sum back into a term list.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm

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
    if len(a) == 1 and len(b) == 1:
        (r1, n1, d1), = a
        (r2, n2, d2), = b
        g = gcd(r1, r2)
        rad = (r1 // g) * (r2 // g)
        num = n1 * n2 * g
        den = d1 * d2
        g = gcd(num, den)
        return ((rad, num // g, den // g),)
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


def scale_vector(vector):
    """A sparse vector of term lists, keyed by anything hashable, as
    (den, layers): den is the least common multiple of every term's
    denominator, and layers[k] maps each key whose term list has a term k
    to (rad, num * den // d) of that term. A vector of single terms, as
    every coupling-matrix column is, has one layer."""
    den = 1
    for terms in vector.values():
        for _, _, d in terms:
            if den % d:
                den = lcm(den, d)
    layers: list[dict] = []
    for key, terms in vector.items():
        for k, (rad, num, d) in enumerate(terms):
            if k == len(layers):
                layers.append({})
            layers[k][key] = (rad, num * (den // d))
    return den, layers


def dot_scaled(a, b) -> dict[int, int]:
    """Exact dot product of two scaled vectors' layers over their shared
    keys, as {rad: numerator} over the product of their denominators, with
    no zero numerator.

    Products are summed keyed by r1*r2. For square-free r1, r2 that is
    g**2 * rad with g = gcd(r1, r2) and rad square-free, so the key alone
    fixes g and rad; one witness r1 per key recovers them with one gcd when
    the sums are folded, and no product is ever factored.
    """
    acc: dict[int, int] = {}
    witness: dict[int, int] = {}
    for x in a:
        for y in b:
            small, big = (x, y) if len(x) <= len(y) else (y, x)
            for key, (r1, n1) in small.items():
                if key in big:
                    r2, n2 = big[key]
                    k = r1 * r2
                    if k in acc:
                        acc[k] += n1 * n2
                    else:
                        acc[k] = n1 * n2
                        witness[k] = r1
    out: dict[int, int] = {}
    for k, total in acc.items():
        if total:
            r1 = witness[k]
            g = gcd(r1, k // r1)
            rad = k // (g * g)
            out[rad] = out.get(rad, 0) + total * g
    # Sums under distinct keys can still cancel on one radicand:
    # sqrt(6)*sqrt(10) and sqrt(15)*1 both land on sqrt(15).
    return out if all(out.values()) else {
        rad: num for rad, num in out.items() if num}


def over(acc: dict[int, int], den: int):
    """The canonical term list of sum_rad (acc[rad]/den)*sqrt(rad)."""
    return _canonical({rad: (num, den) for rad, num in acc.items()})


def dot_terms(u, v):
    """Exact dot product of two sparse vectors of term lists (mappings from
    any hashable key to a term list) over their shared keys.

    Equal to folding add_terms over mul_terms(u[key], v[key]); each vector
    is scaled once and the products are summed on ints (dot_scaled).
    """
    du, lu = scale_vector(u)
    dv, lv = scale_vector(v)
    return over(dot_scaled(lu, lv), du * dv)


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
