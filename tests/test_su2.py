"""SO(3) layer: tabulated values, phases, exact orthogonality relations."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from so5cg.errors import MalformedKey
from so5cg.exactnum import ONE, ZERO, sqrt_rational
from so5cg.su2 import su2_cg

twice_js = st.integers(min_value=0, max_value=6)


def test_scalar_coupling_is_identity():
    for tj in range(0, 7):
        for tm in range(-tj, tj + 1, 2):
            assert su2_cg(tj, tm, 0, 0, tj, tm) == ONE


def test_singlet_values():
    half = sqrt_rational(Fraction(1, 2))
    assert su2_cg(1, 1, 1, -1, 0, 0) == half
    assert su2_cg(1, -1, 1, 1, 0, 0) == -half
    assert su2_cg(2, 2, 2, -2, 0, 0) == sqrt_rational(Fraction(1, 3))


def test_condon_shortley_positive():
    # highest-weight stretched component is positive for every (j1, j2, J)
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                value = su2_cg(tj1, tj1, tj2, tJ - tj1, tJ, tJ)
                assert float(value) > 0


def test_selection_rules_return_zero():
    assert su2_cg(2, 0, 2, 0, 2, 2) == ZERO  # M != m1+m2
    assert su2_cg(2, 2, 2, 2, 6, 4) == ZERO  # J above the triangle range
    assert su2_cg(0, 0, 0, 0, 2, 0) == ZERO


def test_malformed_keys_refused():
    with pytest.raises(MalformedKey):
        su2_cg(2, 3, 2, -1, 2, 2)  # m1 parity off
    with pytest.raises(MalformedKey):
        su2_cg(2, 4, 2, -2, 2, 2)  # |m1| > j1
    with pytest.raises(MalformedKey):
        su2_cg(-2, 0, 2, 0, 2, 0)


@pytest.mark.parametrize("args,message", [
    ((-1, 1, 2, 0, 1, 1), "first factor: negative spin -1/2"),
    ((2, 4, 2, -2, 2, 2), "first factor: |m| exceeds j (2 vs 1)"),
    ((3, 2, 1, 1, 2, 2), "first factor: m not in the j ladder (1 vs 3/2)"),
    ((2, 0, 1, -3, 3, -3), "second factor: |m| exceeds j (-3/2 vs 1/2)"),
    ((2, 0, 2, 0, -4, 0), "total: negative spin -2")])
def test_malformed_key_messages_write_spins_as_half_integers(args, message):
    with pytest.raises(MalformedKey) as caught:
        su2_cg(*args)
    assert str(caught.value) == message


@pytest.mark.parametrize("args", [
    (True, True, 0, 0, 1, 1), (2, 0, 2, 0, 2, False), (2.0, 0, 2, 0, 2, 0),
    (2, 0, 2, 0, Fraction(2), 0)])
def test_non_int_doubled_arguments_refused(args):
    # The one doubled-int check of labels: a bool or a float is refused
    # before it can pass for a spin.
    with pytest.raises(MalformedKey, match="int doubled value"):
        su2_cg(*args)


@given(twice_js, twice_js)
def test_swap_symmetry(tj1, tj2):
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tM = tm1 + tm2
                if abs(tM) > tJ:
                    continue
                lhs = su2_cg(tj1, tm1, tj2, tm2, tJ, tM)
                rhs = su2_cg(tj2, tm2, tj1, tm1, tJ, tM)
                phase = (tj1 + tj2 - tJ) // 2
                assert lhs == (rhs if phase % 2 == 0 else -rhs)


@given(twice_js, twice_js, st.data())
def test_orthogonality_random_column_pair(tj1, tj2, data):
    tJs = list(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
    ja = data.draw(st.sampled_from(tJs))
    jb = data.draw(st.sampled_from(tJs))
    tM = data.draw(st.integers(min_value=-min(ja, jb) // 2,
                               max_value=min(ja, jb) // 2)) * 2 + (ja % 2)
    if abs(tM) > min(ja, jb):
        tM = ja % 2
    acc = ZERO
    for tm1 in range(-tj1, tj1 + 1, 2):
        tm2 = tM - tm1
        if abs(tm2) > tj2:
            continue
        acc = acc + su2_cg(tj1, tm1, tj2, tm2, ja, tM) * su2_cg(
            tj1, tm1, tj2, tm2, jb, tM)
    assert acc == (ONE if ja == jb else ZERO)


def reference_cg(tj1, tm1, tj2, tm2, tJ, tM):
    """Racah's formula on Fractions, the form su2_cg took before it moved
    to plain ints; valid doubled arguments with m1 + m2 = M only."""
    if not abs(tj1 - tj2) <= tJ <= tj1 + tj2 or (tj1 + tj2 + tJ) % 2:
        return ZERO

    def f(twice):
        assert twice % 2 == 0 and twice >= 0
        return factorial(twice // 2)

    norm = Fraction(
        (tJ + 1) * f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(-tj1 + tj2 + tJ)
        * f(tJ + tM) * f(tJ - tM) * f(tj1 - tm1) * f(tj1 + tm1)
        * f(tj2 - tm2) * f(tj2 + tm2),
        f(tj1 + tj2 + tJ + 2))
    k_min = max(0, -(tJ - tj2 + tm1) // 2, -(tJ - tj1 - tm2) // 2)
    k_max = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        tk = 2 * k
        den = (factorial(k) * f(tj1 + tj2 - tJ - tk) * f(tj1 - tm1 - tk)
               * f(tj2 + tm2 - tk) * f(tJ - tj2 + tm1 + tk)
               * f(tJ - tj1 - tm2 + tk))
        total += Fraction(-1 if k % 2 else 1, den)
    return sqrt_rational(norm) * total


def test_every_coefficient_up_to_2j_8_matches_the_fraction_formula():
    count = 0
    for tj1 in range(9):
        for tj2 in range(9):
            for tJ in range(abs(tj1 - tj2), min(tj1 + tj2, 8) + 1, 2):
                for tm1 in range(-tj1, tj1 + 1, 2):
                    for tm2 in range(-tj2, tj2 + 1, 2):
                        tM = tm1 + tm2
                        if abs(tM) > tJ:
                            continue
                        args = (tj1, tm1, tj2, tm2, tJ, tM)
                        assert su2_cg(*args) == reference_cg(*args), args
                        count += 1
    assert count == 4451
