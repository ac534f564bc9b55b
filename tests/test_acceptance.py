"""Acceptance gate: one test per binding criterion, pinned bounds included.

Each test records a single PASS/FAIL line (see conftest) and then asserts,
so the terminal summary always carries one line per criterion.
"""

import time
from fractions import Fraction

from so5cg.exactnum import ONE, ZERO, sqrt_rational
from so5cg.fullcg import column_gram_deviation, coupling_matrix, row_gram_deviation
from so5cg.labels import (
    FOURTEEN,
    IrrepLabel,
    PART_00,
    PART_11,
    PART_HH,
    So4Label,
    decompose_with_14,
    dim,
    iter_labels,
    multiplicity_of,
)
from so5cg.su2 import su2_cg
from so5cg import verify

FULL_SOURCES = tuple(IrrepLabel(*t) for t in
                     [(0, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 1), (4, 2)])


def test_criterion_1_reduced_unitarity_exact(criterion):
    start = time.monotonic()
    bad = verify.reduced_unitarity(5)
    elapsed = time.monotonic() - start
    passed = bad is None and elapsed < 60.0
    criterion(1, passed,
              f"reduced Gram = identity exactly for 2*j1 <= 5 "
              f"({elapsed:.1f}s < 60s)" + ("" if bad is None else f"; {bad}"))
    assert bad is None, bad
    assert elapsed < 60.0


def test_criterion_2_full_matrix_unitarity_exact(criterion):
    start = time.monotonic()
    bad = verify.full_orthogonality(FULL_SOURCES)
    elapsed = time.monotonic() - start
    passed = bad is None and elapsed < 300.0
    criterion(2, passed,
              f"columns exactly orthonormal and matrices square for "
              f"{len(FULL_SOURCES)} sources up to (2,1) "
              f"({elapsed:.1f}s < 300s)" + ("" if bad is None else f"; {bad}"))
    assert bad is None, bad
    assert elapsed < 300.0


def test_criterion_3_mixing_identities_exact(criterion):
    start = time.monotonic()
    bad = verify.mixing_identities(5)
    elapsed = time.monotonic() - start
    passed = bad is None and elapsed < 30.0
    criterion(3, passed,
              f"<aux,copy1> = X and <aux,aux> = H^2 exactly for 2*j1 <= 5 "
              f"({elapsed:.1f}s < 30s)" + ("" if bad is None else f"; {bad}"))
    assert bad is None, bad
    assert elapsed < 30.0


def test_criterion_4_symmetry_involution_and_example(criterion):
    bad = verify.symmetry_involution(4)
    example = verify._symmetry_example()
    passed = bad is None and example is None
    criterion(4, passed,
              "double transposition = identity for 2*j1 <= 4; "
              "lowering example squares 9/14 + 4/14 + 1/14 = 1"
              + ("" if passed else f"; {bad or example}"))
    assert bad is None, bad
    assert example is None, example


def test_criterion_5_trivial_source_signed_permutation(criterion):
    matrix = coupling_matrix(IrrepLabel(0, 0))
    entries = list(matrix.iter_entries())
    ok_shape = matrix.shape == (14, 14) and len(entries) == 14
    ok_values = all(str(v) in ("1", "-1") for _, _, v in entries)
    ok_perm = (len({i for i, _, _ in entries}) == 14
               and len({j for _, j, _ in entries}) == 14)
    ok_orth = (column_gram_deviation(matrix) is None
               and row_gram_deviation(matrix) is None)
    passed = ok_shape and ok_values and ok_perm and ok_orth
    criterion(5, passed,
              "coupling_matrix((0,0)) is an exactly orthogonal signed "
              "permutation with entries +-1")
    assert passed


def test_criterion_6_oracle_equivalence(criterion):
    from so5cg.oracle import compare, numeric_decompose

    start = time.monotonic()
    mismatch = None
    for src in iter_labels(8):
        if dim(src) > 35:
            continue
        nd = numeric_decompose(src)
        exact = {e.target: e.multiplicity for e in decompose_with_14(src)}
        if nd.content() != exact:
            mismatch = f"{src}: {nd.content()} != {exact}"
            break

    worst_moduli = 0.0
    for twice in ((1, 0), (1, 1), (2, 0)):
        report = compare(IrrepLabel(*twice), tol=1e-9)
        worst_moduli = max(worst_moduli,
                           max(b.max_abs_dev for b in report.blocks))

    # smallest source with a second copy present (dim 81 exceeds the cap)
    copy2_report = compare(IrrepLabel(3, 1), tol=1e-9, projector_tol=1e-8)
    proj_dev = max(b.projector_dev for b in copy2_report.blocks
                   if b.copy_count == 2)
    elapsed = time.monotonic() - start

    passed = (mismatch is None and worst_moduli <= 1e-9
              and proj_dev <= 1e-8 and elapsed < 600.0)
    criterion(6, passed,
              f"numeric decomposition matches for all dim <= 35; moduli dev "
              f"{worst_moduli:.2e} <= 1e-9; copy-2 projector dev "
              f"{proj_dev:.2e} <= 1e-8 ({elapsed:.1f}s < 600s)"
              + ("" if mismatch is None else f"; {mismatch}"))
    assert mismatch is None, mismatch
    assert worst_moduli <= 1e-9
    assert proj_dev <= 1e-8
    assert elapsed < 600.0


def test_criterion_7_so3_layer(criterion):
    bad = verify.su2_orthogonality(6)
    half = sqrt_rational(Fraction(1, 2))
    anchors = (su2_cg(4, 2, 0, 0, 4, 2) == ONE
               and su2_cg(1, 1, 1, -1, 0, 0) == half
               and su2_cg(1, -1, 1, 1, 0, 0) == -half
               and su2_cg(2, 2, 2, -2, 0, 0) == sqrt_rational(Fraction(1, 3)))
    passed = bad is None and anchors
    criterion(7, passed,
              "su2_cg exactly orthogonal and complete for j <= 3; "
              "tabulated values 1, +-1/sqrt(2), 1/sqrt(3) reproduced"
              + ("" if bad is None else f"; {bad}"))
    assert bad is None, bad
    assert anchors


def test_criterion_8_presence_logic(criterion):
    bad = verify.presence_agreement(6)
    entries = decompose_with_14(FOURTEEN)
    audit = (len(entries) == 6
             and sum(e.multiplicity * dim(e.target) for e in entries) == 196
             and multiplicity_of(FOURTEEN, IrrepLabel(3, 3)) == 0
             and multiplicity_of(FOURTEEN, IrrepLabel(3, 1)) == 0)
    passed = bad is None and audit
    criterion(8, passed,
              "channel presence = zero-factor = Racah-Speiser for 2*j1 <= 6; "
              "(1,1) x 14 has 6 irreps, 196 dims, no (3/2,3/2) or (3/2,1/2)"
              + ("" if bad is None else f"; {bad}"))
    assert bad is None, bad
    assert audit
