"""The compiled integer tables against the formulas as written.

Each row is re-evaluated here from its own strings and polynomial on
Fraction, with a parser of this file's own, and must give the same
SqrtSum, the same zero or the same FormulaDomainError as the integer
evaluator at the doubled spins.
"""

import hashlib
import itertools
import operator
import re
from fractions import Fraction

import pytest
from helpers import (
    NONE,
    ONE,
    doubled,
    linear,
    nonzero,
    norm_identity,
    overlap,
    square,
)

from so5cg._formula import _UNITS, _VARIABLES, _int_poly
from so5cg.errors import ChannelAbsent, FormulaDomainError
from so5cg.exactnum import ZERO, sqrt_rational
from so5cg.labels import ENTRY_SHIFTS, EntryShift, branching, iter_labels
from so5cg.tables import (
    AUX_TABLE,
    DIAGONAL_TABLE,
    RAISING_TABLES,
    _form,
    mixing_h2,
    mixing_x_rational,
)

TABLES = {**{f"raising {shift}": table
             for shift, table in RAISING_TABLES.items()},
          "diagonal": DIAGONAL_TABLE, "aux": AUX_TABLE}

SOURCES = list(iter_labels(6))

# 7 values of each doubled variable, with the spins they stand for.
GRID = [(point, tuple(Fraction(t, 2) for t in point))
        for point in itertools.product(range(-3, 4), repeat=4)]

_FORMS: dict = {}


def form_value(text: str, env: dict) -> Fraction:
    """Value of one linear form such as "-j1+2j2+b1+3", on Fractions."""
    code = _FORMS.get(text)
    if code is None:
        expr = re.sub(r"(\d)([jb])", r"\1*\2", text.replace(" ", ""))
        code = _FORMS[text] = compile(expr, text, "eval")
    return Fraction(eval(code, {"__builtins__": {}}, env))


def forms(text: str) -> list[str]:
    return [p for p in text.split(";") if p.strip()]


def reference_row(row, entry, j1, j2, b1, b2, values: dict):
    """The row as written, on Fractions; the same message on a bad domain.

    values caches form values at this point across the rows of a table.
    """
    env = {"j1": j1, "j2": j2, "b1": b1, "b2": b2}

    def value(text):
        v = values.get(text)
        if v is None:
            v = values[text] = form_value(text, env)
        return v

    outer = row.sign * Fraction(row.scale)
    for f in forms(row.outer):
        outer *= value(f)
    if outer and row.poly is not None:
        outer *= row.poly.source(j1, j2, b1, b2)
    if not outer:
        return ZERO
    num, den = Fraction(row.srad).as_integer_ratio()
    negatives = 0
    for f in forms(row.num):
        v = value(f)
        if v == 0:
            return ZERO
        negatives += v < 0
        num *= v.numerator
        den *= v.denominator
    if negatives % 2:
        return FormulaDomainError(
            f"negative radicand for entry {entry} at "
            f"j=({j1},{j2}), b=({b1},{b2})")
    for f in forms(row.den):
        v = value(f)
        if v <= 0:
            return FormulaDomainError(
                f"denominator factor {f} = {v} for entry {entry} at "
                f"j=({j1},{j2}), b=({b1},{b2})")
        num *= v.denominator
        den *= v.numerator
    return outer * sqrt_rational(Fraction(num, den))


def reference_factor(source, b1, b2) -> Fraction:
    if isinstance(source, str):
        return form_value(source, {"j1": 0, "j2": 0, "b1": b1, "b2": b2})
    return Fraction(source(Fraction(0), Fraction(0), b1, b2))


def evaluated(fn, *args):
    try:
        return fn(*args)
    except (FormulaDomainError, ChannelAbsent) as exc:
        return exc


def same(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return not isinstance(got, Exception) and got == want


def compiled_polys():
    """Every polynomial written as a function; the linear forms are checked
    through the rows and normalizations below."""
    for name, table in TABLES.items():
        for f in table.norm_factors:
            if callable(f.source):
                yield f"{name} norm", f
        for key, row in table.rows.items():
            if row.poly is not None:
                yield f"{name} {key}", row.poly


@pytest.mark.parametrize("name,poly", list(compiled_polys()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_compiled_polynomial_equals_its_source(name, poly):
    # No polynomial exceeds degree 6 in any variable, so agreement on 7
    # values of each variable proves the two polynomials identical.
    assert all(max(e1, e2, e3, e4) <= 6 for e1, e2, terms in poly.by_j
               for _, e3, e4 in terms)
    scale = 2 ** poly.degree
    for (tj1, tj2, tb1, tb2), spins in GRID:
        value = sum(c * tj1 ** e1 * tj2 ** e2
                    for c, e1, e2 in poly.bind(tb1, tb2))
        assert value == poly.source(*spins) * scale, (name, spins)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_rows_match_their_formulas(name):
    table = TABLES[name]
    for src in SOURCES:
        b1, b2 = Fraction(src.tj1, 2), Fraction(src.tj2, 2)
        for s in branching(src):
            j1, j2 = Fraction(s.tj1, 2), Fraction(s.tj2, 2)
            values: dict = {}
            for entry in ENTRY_SHIFTS:
                got = evaluated(table.bare_value, entry, *s.twice,
                                *src.twice)
                want = reference_row(table.rows[entry], entry, j1, j2, b1, b2,
                                     values)
                assert same(got, want), (name, str(src), str(s), str(entry),
                                         got, want)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_normalization_matches_its_formula(name):
    table = TABLES[name]
    for src in SOURCES:
        b1, b2 = Fraction(src.tj1, 2), Fraction(src.tj2, 2)
        got = table.factor_values(*src.twice)
        want = [reference_factor(f.source, b1, b2) for f in table.norm_factors]
        assert [Fraction(v, 2 ** f.degree) for f, v in
                zip(table.norm_factors, got)] == want, (name, str(src))
        bad = next((v for v in want if v <= 0), None)
        if bad is not None:
            expected = ChannelAbsent(
                f"channel with shift {table.shift} absent at source "
                f"({b1},{b2}): normalization factor {bad} <= 0")
        else:
            radicand = Fraction(table.norm_srad)
            for v in want:
                radicand /= v
            expected = Fraction(table.norm_scale) * sqrt_rational(radicand)
        got_norm = evaluated(table.normalization, *src.twice)
        assert same(got_norm, expected), (name, str(src), got_norm, expected)


# Doubled source spins (tb1, tb2) to bind rows to, and the (tj1, tj2) grid at
# which each bound row is evaluated, negative values included.
BIND_POINTS = [(tb1, tb2) for tb1 in (-1, 2) for tb2 in (-2, 1, 3)]
BLOCK_GRID = list(itertools.product(range(-3, 4), repeat=2))


@pytest.mark.parametrize("name", sorted(TABLES))
def test_bound_rows_with_a_scale_match_their_formulas(name):
    # The evaluators' call: each row bound once to the source spins, then
    # evaluated with a scale folded in, must be the row as written times
    # the scale, or raise the same FormulaDomainError.
    table = TABLES[name]
    scale, factor = (6, -3, 7), Fraction(-3, 7) * sqrt_rational(6)
    errors = 0
    for tb1, tb2 in BIND_POINTS:
        b1, b2 = Fraction(tb1, 2), Fraction(tb2, 2)
        for entry in ENTRY_SHIFTS:
            row = table.rows[entry].bind(tb1, tb2)
            values: dict = {}
            for tj1, tj2 in BLOCK_GRID:
                j1, j2 = Fraction(tj1, 2), Fraction(tj2, 2)
                values.clear()
                got = evaluated(table.bare_value, entry, tj1, tj2, tb1, tb2,
                                scale, row)
                want = reference_row(table.rows[entry], entry, j1, j2, b1, b2,
                                     values)
                if isinstance(want, Exception):
                    errors += 1
                else:
                    want = want * factor
                assert same(got, want), (name, str(entry), tj1, tj2, tb1, tb2,
                                         got, want)
    assert errors


# Every block of every source with 2j1 <= 8, as (tj1, tj2, tb1, tb2).
SOURCE_BLOCKS = [(*s.twice, *src.twice) for src in iter_labels(8)
                 for s in branching(src)]

# sha256 over every row of every table at the bound-row points and at
# SOURCE_BLOCKS: each value, or each FormulaDomainError message.
ROW_VALUES_DIGEST = (
    "6984840700d968d49071f51af826dd8418c6ae71241be4d748720a3290724c2c")


def test_row_values_digest():
    # The exported digests of test_golden.py never reach a row outside its
    # domain; this pins those errors too, row by row, beside the values.
    points = [(tj1, tj2, tb1, tb2) for tb1, tb2 in BIND_POINTS
              for tj1, tj2 in BLOCK_GRID] + SOURCE_BLOCKS
    digest = hashlib.sha256()
    for name in sorted(TABLES):
        bare = TABLES[name].bare_value
        for entry in ENTRY_SHIFTS:
            for point in points:
                got = evaluated(bare, entry, *point)
                digest.update(f"{name} {entry} {point} {got!r}\n".encode())
    assert digest.hexdigest() == ROW_VALUES_DIGEST


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_row_is_its_swap_partner_times_sigma(name):
    # The j1<->j2 swap: entry (tdj2, tdj1) at block (tj2, tj1) is sigma
    # times entry (tdj1, tdj2) at (tj1, tj2), or both are out of domain.
    # sigma is -1 for the two half-shift channels and +1 for the rest.
    table = TABLES[name]
    sigma = -1 if table.shift[0] % 2 else 1
    for entry in ENTRY_SHIFTS:
        swap = EntryShift(entry.tdj2, entry.tdj1, entry.part)
        for tj1, tj2, tb1, tb2 in SOURCE_BLOCKS:
            value = evaluated(table.bare_value, entry, tj1, tj2, tb1, tb2)
            got = evaluated(table.bare_value, swap, tj2, tj1, tb1, tb2)
            if isinstance(value, Exception):
                assert type(got) is type(value), (name, str(entry), tj1, tj2,
                                                  tb1, tb2, got)
            else:
                assert got == sigma * value, (name, str(entry), tj1, tj2,
                                              tb1, tb2, got, value)


# The reflections j -> -j-1 of one SO(3) spin, which fix j(j+1): each maps a
# compiled linear form (c_j1, c_j2, c_b1, c_b2, c_0), whose value at the
# doubled spins is c_j1*tj1 + ... + c_0, and the spins (j1, j2) of a
# polynomial, and takes the entry (dj1, dj2) to (-dj1, dj2) or (dj1, -dj2).
REFLECTIONS = {
    "R1": (lambda c: (-c[0], c[1], c[2], c[3], c[4] - 2 * c[0]),
           lambda j1, j2: (-j1 - 1, j2),
           lambda e: EntryShift(-e.tdj1, e.tdj2, e.part)),
    "R2": (lambda c: (c[0], -c[1], c[2], c[3], c[4] - 2 * c[1]),
           lambda j1, j2: (j1, -j2 - 1),
           lambda e: EntryShift(e.tdj1, -e.tdj2, e.part)),
}

# The doubled (tj1, tj2, tb1, tb2), and 1, of the interior point at which a
# derived numerator form is oriented positive.
INTERIOR = (23, 17, 40, 18, 1)


def flips(forms, partner_forms):
    """How many of forms are negated in partner_forms, as multisets; None
    when they differ otherwise."""
    left, count = list(partner_forms), 0
    for c in forms:
        if c in left:
            left.remove(c)
        elif tuple(-x for x in c) in left:
            left.remove(tuple(-x for x in c))
            count += 1
        else:
            return None
    return None if left else count


def expanded(poly, spins=lambda j1, j2: (j1, j2)):
    if poly is None:
        return {(0, 0, 0, 0): 1}
    j1, j2, b1, b2 = _VARIABLES
    return {e: c for e, c in poly.source(*spins(j1, j2), b1, b2).terms.items()
            if c}


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("reflection", sorted(REFLECTIONS))
def test_every_row_is_its_reflection_partner_up_to_one_sign(name, reflection):
    # Each of the 14 rows, written, swapped or reflected, is its partner's
    # formula with j -> -j-1 substituted: the same scale and srad, the same
    # outer, numerator and denominator forms up to sign, with an even number
    # of negations in the radicand, and the same polynomial up to sign. So
    # the pair differs by one constant sign, +1 for a row the reflection
    # takes to itself. Orienting the substituted numerator forms positive at
    # INTERIOR, the rule by which the tables derive rows, gives the
    # partner's numerator up to an even number of negations, which changes
    # no value and no domain error.
    lin, spins, image = REFLECTIONS[reflection]
    table = TABLES[name]
    for entry in ENTRY_SHIFTS:
        row, partner = table.rows[entry], table.rows[image(entry)]
        where = (name, reflection, str(entry))
        assert (row.scale, row.srad) == (partner.scale, partner.srad), where
        outer = flips([lin(c) for c in row.outer_lins], partner.outer_lins)
        num = [lin(c) for c in row.num_lins]
        radicand = (flips(num, partner.num_lins),
                    flips([lin(c) for c in row.den_lins], partner.den_lins))
        assert None not in (outer, *radicand), where
        # The radicand prod(num) / prod(den) itself keeps its sign.
        assert sum(radicand) % 2 == 0, where
        oriented = [c if sum(map(operator.mul, c, INTERIOR)) > 0
                    else tuple(-x for x in c) for c in num]
        assert flips(oriented, partner.num_lins) % 2 == 0, where
        poly, want = expanded(row.poly, spins), expanded(partner.poly)
        assert poly in (want, {e: -c for e, c in want.items()}), where
        sign = (row.sign * partner.sign * (-1) ** outer
                * (1 if poly == want else -1))
        if partner.key == entry:
            assert sign == 1, where


def test_form_refuses_a_half_integer_constant():
    # b1 + 1/2 compiles to (0, 0, 1, 0, 1); it has no text with an integer
    # constant, and must not come back from _form as b1 or b1 - 1.
    assert _form((0, 0, 1, 0, 2)) == "b1+1"
    assert _form((0, 0, 1, 0, -2)) == "b1-1"
    for lin in ((0, 0, 1, 0, 1), (0, 0, 1, 0, -1), (2, 0, 0, -2, 3)):
        with pytest.raises(ValueError, match="half-integer constant"):
            _form(lin)


def test_a_polynomial_must_be_an_int_on_the_doubled_spins():
    # b1 + 1/2 is (tb1 + 1) / 2: an int polynomial over the doubled spins.
    # b1/3 is not, and is refused rather than truncated.
    assert _int_poly(lambda j1, j2, b1, b2: b1 + Fraction(1, 2)).by_j == (
        (0, 0, ((1, 1, 0), (1, 0, 0))),)
    with pytest.raises(ValueError, match="not an int"):
        _int_poly(lambda j1, j2, b1, b2: b1 * Fraction(1, 3))


# The Weyl reflections of the source label about rho, on the doubled spins
# (tj1, tj2, tb1, tb2): in the coordinates (b1+b2+3/2, b1-b2+1/2) of
# labels.decompose_with_14, W1 negates the second and W2 swaps the two.
WEYL = {
    "W1": lambda tj1, tj2, tb1, tb2: (tj1, tj2, tb2 - 1, tb1 + 1),
    "W2": lambda tj1, tj2, tb1, tb2: (tj1, tj2, tb1, -tb2 - 2),
}


def image(lin, change):
    """A compiled linear form with the source label changed, compiled."""
    terms = linear(lin, WEYL[change](*_VARIABLES)).terms
    return tuple(terms.get(unit, 0) for unit in _UNITS)


def weyl_ratio(row, partner, change):
    """row against partner's row with the source label changed: the flips
    of its outer and of its numerator forms, the sign of its polynomial and
    the square of its constant over the partner's.

    Each form of the image must be one of the row's up to sign, the
    polynomial the same up to sign and the denominator the same. An outer
    form of the image with a half-integer constant is compared doubled, so
    the row's constant carries its 1/2.
    """
    outer, halves = [], 0
    for c in (image(c, change) for c in partner.outer_lins):
        if c[4] % 2:
            c, halves = tuple(2 * x for x in c), halves + 1
        outer.append(c)
    forms = (flips(row.outer_lins, outer),
             flips(row.num_lins, [image(c, change) for c in partner.num_lins]))
    assert None not in forms and row.den_lins == partner.den_lins
    poly = nonzero(doubled(row.poly))
    want = nonzero(doubled(partner.poly, WEYL[change](*_VARIABLES)))
    assert poly in (want, {e: -c for e, c in want.items()})
    return (*forms, 1 if poly == want else -1,
            square(row.const) * 4 ** halves / square(partner.const))


def normalization_ratio(table, partner, change) -> Fraction:
    """The table's signed squared normalization over the partner's with
    the source label changed, which must be a constant."""
    # norm**2 = square(norm_const) / prod(factor values), so the ratio is
    # square(table) * prod(partner factors changed) / (square(partner) *
    # prod(table factors)).
    left = square(table.norm_const) * ONE
    for f in partner.norm_factors:
        left = left * doubled(f, WEYL[change](*_VARIABLES))
    right = square(partner.norm_const) * ONE
    for f in table.norm_factors:
        right = right * doubled(f)
    left, right = nonzero(left), nonzero(right)
    assert left.keys() == right.keys()
    ratios = {Fraction(left[e]) / right[e] for e in left}
    assert len(ratios) == 1
    return ratios.pop()


# Each table read off a partner table by a Weyl reflection: the partner, the
# reflection, the square of the rows' constant over the partner's, the
# parity of the numerator flips and the normalizations' ratio.
WEYL_IMAGES = {
    (0, 2): ((2, 0), "W1", 2, 0, Fraction(1, 2)),
    (2, -2): ((2, 2), "W2", 1, 0, 1),
    (1, -1): ((1, 1), "W2", 1, 1, -1),
}


@pytest.mark.parametrize("shift", list(WEYL_IMAGES), ids=str)
def test_every_row_is_its_weyl_partner_up_to_one_sign(shift):
    # Each row of the table is its partner's row of the same entry at the
    # changed source label times one constant sign, and sqrt(2) for (0,2):
    # the same forms up to sign and the same polynomial up to sign. For
    # (1,-1) an odd number of numerator forms is negated, so each squared
    # row is minus its partner's as a signed square, and so is the squared
    # normalization; the product of the two is the partner's.
    partner, change, root, parity, norm = WEYL_IMAGES[shift]
    table, partner = RAISING_TABLES[shift], RAISING_TABLES[partner]
    for entry in ENTRY_SHIFTS:
        _, num, _, ratio = weyl_ratio(table.rows[entry], partner.rows[entry],
                                      change)
        assert (num % 2, ratio) == (parity, root), (shift, str(entry))
    assert normalization_ratio(table, partner, change) == norm


# The Weyl reflections that take a table written in full to itself.
SELF_IMAGES = [("raising (2, 2)", "W1"), ("raising (1, 1)", "W1"),
               ("diagonal", "W1"), ("aux", "W1"),
               ("raising (2, 0)", "W2"), ("diagonal", "W2"), ("aux", "W2")]


@pytest.mark.parametrize("name,change", SELF_IMAGES)
def test_written_tables_are_their_own_weyl_images(name, change):
    # Each row is itself at the changed source label, with sign +1: its
    # forms up to an even number of negations in the radicand, and outer
    # negations matched by the polynomial's sign. With the tables read off
    # these by W1 and W2 and the rows read off by the swap and reflections,
    # every row of every table then rests on the 25 written rows and these
    # identities.
    table = TABLES[name]
    for entry in ENTRY_SHIFTS:
        row = table.rows[entry]
        outer, num, poly, ratio = weyl_ratio(row, row, change)
        assert (num % 2, (-1) ** outer * poly, ratio) == (0, 1, 1), (
            name, change, str(entry))
    assert normalization_ratio(table, table, change) == 1


# Every table whose rows are normalized to one at each target block.
NORMALIZED = [f"raising {shift}" for shift in RAISING_TABLES] + ["diagonal"]


@pytest.mark.parametrize("name", NORMALIZED)
def test_norm_certificate(name):
    # The sum over a target block of the squared normalized rows is 1, as
    # an identity in the doubled spins: it holds at every spin, for the
    # formulas the evaluator runs, written or derived.
    table = TABLES[name]
    parts, rhs = norm_identity(table)
    total = sum(parts.values(), NONE)
    assert nonzero(total - rhs) == {}
    # Negative control: any one row times sqrt(2) breaks it.
    for entry, part in parts.items():
        assert nonzero(total + part - rhs), (name, str(entry))


def test_mixing_identities_certificate():
    # The companion's overlap with the bare diagonal rows is mixing_x and
    # its squared norm mixing_h2, as identities in the doubled spins.
    b1, b2 = (v * Fraction(1, 2) for v in _VARIABLES[2:])
    for other, want in ((DIAGONAL_TABLE, mixing_x_rational(b1, b2)),
                        (AUX_TABLE, mixing_h2(b1, b2))):
        parts, product = overlap(AUX_TABLE, other)
        assert nonzero(sum(parts.values(), NONE) - product * want) == {}


def test_copy_two_is_one_term_at_every_spin():
    # Copy 2 is (aux - x*copy1) / sqrt(norm2). At each entry the diagonal
    # row and its companion share their numerator and denominator forms,
    # srad and the radicand of their constant, so the two bare rows have
    # one radicand at every spin. The normalization is one term whose
    # square is rational, so x*copy1 keeps that radicand, and copy 2 is a
    # single term wherever it is present: the premise of the exact inner
    # products, which take single terms only.
    assert DIAGONAL_TABLE.rows.keys() == AUX_TABLE.rows.keys()
    assert len(AUX_TABLE.rows) == 14
    for entry, row in DIAGONAL_TABLE.rows.items():
        pair = AUX_TABLE.rows[entry]
        assert ((pair.num_lins, pair.den_lins, pair.srad, pair.const[0])
                == (row.num_lins, row.den_lins, row.srad, row.const[0])), entry
    present = 0
    for source in iter_labels(24):
        try:
            norm = DIAGONAL_TABLE.normalization(*source.twice)
        except ChannelAbsent:
            continue
        present += 1
        assert len(norm.terms) == 1 and (norm * norm).is_rational(), source
    assert present > 300
