"""Term-list arithmetic kernel behind SqrtSum.

  * a "term list" is a tuple of (rad, num, den) int triples meaning
    sum_i (num_i/den_i)*sqrt(rad_i), with rad square-free and strictly
    increasing across the tuple, num != 0, den > 0, gcd(num, den) == 1.
  * all functions take and return canonical term lists, except the inner
    product kernel, which works on scaled vectors: (den, {key: (rad,
    num)}), each nonzero entry (num/den)*sqrt(rad) over one common
    denominator. Every entry of a vector whose inner products are taken is
    a single term; scale_vector brings a sparse vector of term lists to
    that form and refuses any other entry (one_term), and a coupling-matrix
    column is assembled in it (fullcg.Column). The products of one scaled
    vector with each of several others are summed on plain ints under
    their square-free radicands (product_sums), and over() turns a sum
    back into a term list.
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


def one_term(terms, what: str) -> tuple[int, int, int]:
    """The one (rad, num, den) of a single-term value's term list; a value
    of more terms raises ValueError rather than being cut short."""
    if len(terms) != 1:
        raise ValueError(f"{what} is not a single term: {terms}")
    return terms[0]


def scale_vector(vector) -> tuple[int, dict]:
    """A sparse vector of term lists, keyed by anything hashable, as (den,
    scaled): den is the least common multiple of its entries'
    denominators, and scaled maps the key of each nonzero entry (rad, num,
    d) to (rad, num * den // d). An entry of more than one term raises
    ValueError (one_term)."""
    terms = {key: one_term(t, "an entry") for key, t in vector.items() if t}
    den = 1
    for _, _, d in terms.values():
        if den % d:
            den = lcm(den, d)
    return den, {key: (rad, num * (den // d))
                 for key, (rad, num, d) in terms.items()}


def product_sums(a, others) -> list[dict[int, int]]:
    """For each scaled vector b in others, the products of a's and b's
    entries over their shared keys, summed on ints keyed by square-free
    radicands: sqrt(r1)*sqrt(r2) = g*sqrt((r1/g)*(r2/g)) for g = gcd(r1,
    r2), as in mul_terms. A sum may be 0; the inner product is 0 exactly
    when every sum is."""
    out = []
    for b in others:
        acc: dict[int, int] = {}
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        get = big.get
        for key, (r1, n1) in small.items():
            entry = get(key)
            if entry is not None:
                r2, n2 = entry
                g = gcd(r1, r2)
                k = (r1 // g) * (r2 // g)
                acc[k] = acc.get(k, 0) + n1 * n2 * g
        out.append(acc)
    return out


def over(acc: dict[int, int], den: int):
    """The term list of sum_rad (acc[rad]/den)*sqrt(rad), zero sums dropped."""
    return _canonical({rad: (num, den) for rad, num in acc.items()})


def neg_terms(t):
    """Negate a canonical term list."""
    return tuple((rad, -num, den) for rad, num, den in t)
