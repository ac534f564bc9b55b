"""Exact algebraic-number ring: canonical form, ring laws, serialization."""

from fractions import Fraction
from math import gcd, isclose

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from so5cg._kernel import (
    add_terms,
    mul_terms,
    neg_terms,
    over,
    product_sums,
    scale_vector,
    sqrt_of_product,
    squarefree_split,
)
from so5cg.errors import NegativeRadicand
from so5cg.exactnum import ONE, ZERO, SqrtSum, sqrt_product, sqrt_rational
from so5cg.reduced import dot
from so5cg.su2 import su2_cg

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12)
nonneg_rationals = st.fractions(
    min_value=0, max_value=400, max_denominator=24)
small_radicands = st.integers(min_value=1, max_value=60)


def sqrtsums(draw):
    terms = draw(st.lists(st.tuples(small_radicands, rationals),
                          min_size=0, max_size=4))
    total = ZERO
    for rad, coeff in terms:
        total = total + SqrtSum.from_rational(coeff) * sqrt_rational(rad)
    return total


sqrtsum_values = st.composite(sqrtsums)()


def test_sqrt_rational_examples():
    assert sqrt_rational(0) == ZERO
    assert sqrt_rational(Fraction(9, 4)) == SqrtSum.from_rational(Fraction(3, 2))
    assert str(sqrt_rational(Fraction(1, 1080))) == "1/180*sqrt(30)"


def test_sqrt_rational_negative_refused():
    with pytest.raises(NegativeRadicand):
        sqrt_rational(Fraction(-1, 3))


def test_mul_merges_radicands():
    root2 = sqrt_rational(2)
    assert root2 * root2 == SqrtSum.from_rational(2)
    lhs = SqrtSum.from_rational(Fraction(1, 2)) * sqrt_rational(6)
    rhs = SqrtSum.from_rational(Fraction(1, 3)) * sqrt_rational(10)
    assert lhs * rhs == SqrtSum.from_rational(Fraction(1, 3)) * sqrt_rational(15)


def test_add_cancels_to_empty_map():
    root2 = sqrt_rational(2)
    zero = root2 + (-root2)
    assert zero == ZERO
    assert zero.is_zero()
    assert not zero


def test_float_values():
    assert float(ZERO) == 0.0
    assert float(ONE) == 1.0
    assert abs(float(sqrt_rational(Fraction(1, 1080))) - 0.03042903097) < 1e-11


def test_float_of_a_radicand_past_the_float_range():
    # A coefficient of modest size whose radicand has 1,882 bits: the term
    # is folded into one Fraction before its square root is taken.
    value = su2_cg(1000, -400, 1000, 200, 1000, -200)
    (rad, num, den), = value.terms
    assert rad.bit_length() == 1882
    got = float(value)
    assert 0 < got < 1
    assert isclose(got * got, Fraction(num * num * rad, den * den),
                   rel_tol=1e-14)
    assert float(-value) == -got


def test_single_term_division():
    v = SqrtSum.from_rational(Fraction(3, 4)) * sqrt_rational(5)
    assert v / v == ONE
    assert (ONE / v) * v == ONE


def test_rational_operands_take_the_one_product_path():
    # An int or a Fraction is a one-term value with radicand 1: times and
    # over it equal the same operation with that SqrtSum.
    v = SqrtSum.from_rational(Fraction(-5, 6)) * sqrt_rational(10)
    for q in (-3, Fraction(-4, 9), Fraction(7, 2), 1):
        r = SqrtSum.from_rational(q)
        assert v * q == v * r == q * v
        assert v / q == v / r
    assert (v * -3).terms == ((10, 5, 2),)
    assert (v / Fraction(-5, 6)).terms == ((10, 1, 1),)
    assert v * Fraction(-6, 5) == sqrt_rational(10)
    # A multi-term value times a rational scales every term.
    w = ONE + sqrt_rational(2) - sqrt_rational(Fraction(3, 4))
    assert w.terms == ((1, 1, 1), (2, 1, 1), (3, -1, 2))
    assert (w * Fraction(-2, 3)).terms == (
        (1, -2, 3), (2, -2, 3), (3, 1, 3))
    assert (w / -2).terms == ((1, -1, 2), (2, -1, 2), (3, 1, 4))
    for zero in (0, Fraction(0), ZERO):
        assert (w * zero).is_zero()
        assert (zero * w).is_zero()


def test_division_refuses_zero_multi_term_and_foreign_operands():
    w = ONE + sqrt_rational(2)
    for zero in (0, Fraction(0), ZERO):
        with pytest.raises(ZeroDivisionError):
            w / zero
    with pytest.raises(ValueError, match="single-term"):
        ONE / w
    with pytest.raises(TypeError):
        w * 1.5
    with pytest.raises(TypeError):
        1.5 * w
    with pytest.raises(TypeError):
        w / 2.0


def test_as_fraction_requires_rational():
    assert (sqrt_rational(2) * sqrt_rational(2)).as_fraction() == 2
    with pytest.raises(ValueError):
        sqrt_rational(2).as_fraction()


def test_sqrt_product_matches_factorwise():
    assert sqrt_product([2, 3, 6]) == SqrtSum.from_rational(6)
    assert sqrt_product([Fraction(1, 2), 8]) == SqrtSum.from_rational(2)


@given(st.lists(st.integers(min_value=1, max_value=5000), max_size=6),
       st.sampled_from([1, 2, 3, 6, 10, 30]))
def test_sqrt_of_product_splits_the_whole_product(factors, rad):
    product = rad
    for v in factors:
        product *= v
    assert sqrt_of_product(factors, rad) == squarefree_split(product)


@given(nonneg_rationals)
def test_sqrt_squares_back(q):
    root = sqrt_rational(q)
    assert (root * root).as_fraction() == q


@given(sqrtsum_values, sqrtsum_values, sqrtsum_values)
@settings(max_examples=60)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(sqrtsum_values)
def test_additive_inverse_is_structural_zero(a):
    assert (a + (-a)) == ZERO
    assert (a + (-a)).to_json_dict() == {"terms": []}


@given(sqrtsum_values)
def test_json_round_trip(a):
    payload = a.to_json_dict()
    assert SqrtSum.from_json_dict(payload) == a
    rads = [int(t["rad"]) for t in payload["terms"]]
    assert rads == sorted(rads)


@given(sqrtsum_values)
@settings(max_examples=40)
def test_float_tracks_terms(a):
    import math
    expected = sum(
        int(t["num"]) / int(t["den"]) * math.sqrt(int(t["rad"]))
        for t in a.to_json_dict()["terms"])
    assert abs(float(a) - expected) < 1e-9 * (1 + abs(expected))


# Square-free radicands: 6, 10 and 15 share prime factors pairwise, 2, 3
# and 7 are coprime, and 1 is the rational part.
SQUAREFREE = (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 105)


def term_lists(draw):
    """A canonical (rad, num, den) term list drawn directly, possibly empty."""
    rads = draw(st.lists(st.sampled_from(SQUAREFREE), unique=True,
                         max_size=4))
    terms = []
    for rad in sorted(rads):
        num = draw(st.integers(-10**6, 10**6).filter(bool))
        den = draw(st.integers(1, 10**4))
        g = gcd(num, den)
        terms.append((rad, num // g, den // g))
    return tuple(terms)


term_list_values = st.composite(term_lists)()


def single_terms(draw):
    rad = draw(st.sampled_from(SQUAREFREE))
    num = draw(st.integers(-10**6, 10**6).filter(bool))
    den = draw(st.integers(1, 10**4))
    g = gcd(num, den)
    return ((rad, num // g, den // g),)


single_term_values = st.composite(single_terms)()
# The entries of a vector whose inner products are taken: one term, or 0.
entries = st.one_of(st.just(()), single_term_values)


def scaled_dot(u, v):
    """The inner product of two vectors of term lists, through the scaled
    kernel: the sums of products and their common denominator."""
    (du, su), (dv, sv) = scale_vector(u), scale_vector(v)
    return product_sums(su, (sv,))[0], du * dv


@given(st.lists(st.tuples(entries, entries), max_size=8),
       st.lists(entries, max_size=3), st.lists(entries, max_size=3))
# r1 == r2 with mixed denominators, products cancelling to empty across
# pairs, and sqrt(6)*sqrt(10) = 2*sqrt(15) cancelling against -2*sqrt(15).
@example([((), ((1, 1, 1),))], [], [])
@example([(((2, 1, 3),), ((2, 3, 1),)), (((1, -2, 1),), ((1, 1, 1),))],
         [], [])
@example([(((6, 1, 1),), ((10, 1, 1),)), (((15, -2, 1),), ((1, 1, 1),))],
         [((1, 5, 7),)], [((3, 1, 2),)])
@settings(max_examples=150)
def test_product_sums_are_keyed_by_squarefree_radicands(pairs, only_u,
                                                        only_v):
    # Keys 0.. are shared; keys only one vector holds add nothing.
    u = {i: a for i, (a, _) in enumerate(pairs)}
    v = {i: b for i, (_, b) in enumerate(pairs)}
    u.update({-1 - i: a for i, a in enumerate(only_u)})
    v.update({("v", i): b for i, b in enumerate(only_v)})
    expected = ()
    for a, b in pairs:
        expected = add_terms(expected, mul_terms(a, b))
    for x, y in ((u, v), (v, u)):
        # Each sum is under its square-free radicand as it is formed, so
        # the Gram check reads a pair as 0 exactly when every sum is 0.
        acc, den = scaled_dot(x, y)
        assert all(squarefree_split(key)[0] == 1 for key in acc)
        assert any(acc.values()) == bool(expected)
        assert over(acc, den) == expected
        assert dot({key: SqrtSum(t) for key, t in x.items()},
                   {key: SqrtSum(t) for key, t in y.items()}
                   ).terms == expected


def test_dot_of_no_pairs_is_empty():
    assert over(*scaled_dot({}, {})) == ()
    assert over(*scaled_dot({0: ((2, 1, 3),)}, {1: ((2, 1, 3),)})) == ()


def test_an_entry_of_more_terms_is_refused():
    # Every inner product is taken on single terms: a two-term entry raises
    # rather than being cut short, whichever vector holds it.
    two = ((2, 1, 3), (3, -1, 2))
    with pytest.raises(ValueError, match="not a single term"):
        scale_vector({0: two, 1: ((6, 1, 4),)})
    with pytest.raises(ValueError, match="not a single term"):
        dot({0: SqrtSum(((6, 1, 4),))}, {0: SqrtSum(two)})


@given(single_term_values, single_term_values, term_list_values)
@example(((6, 2, 3),), ((6, 3, 4),), ())
@example(((6, 1, 1),), ((10, -1, 1),), ((15, 1, 2),))
def test_single_term_product_is_the_general_product(a, b, c):
    # The 1x1 path against the product rule on Fractions, with the square
    # root split by factoring ...
    (r1, n1, d1), = a
    (r2, n2, d2), = b
    outer, rad = squarefree_split(r1 * r2)
    q = Fraction(n1 * n2 * outer, d1 * d2)
    assert mul_terms(a, b) == ((rad, q.numerator, q.denominator),)
    # ... and against the general path, which a product with a longer term
    # list takes: (b + c)*a - c*a.
    longer = add_terms(b, c)
    if len(longer) > 1:
        assert add_terms(mul_terms(a, longer),
                         neg_terms(mul_terms(a, c))) == mul_terms(a, b)
