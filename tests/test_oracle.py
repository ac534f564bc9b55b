"""Numeric cross-check layer: Clifford algebra, irrep builder, comparison."""

import numpy as np
import pytest

from so5cg.errors import DimensionCap
from so5cg.labels import (
    FOURTEEN,
    PART_11,
    IrrepLabel,
    branching,
    decompose_with_14,
    dim,
)
from so5cg.oracle import (
    PROJECTOR_TOL,
    build_irrep,
    casimir_value,
    compare,
    gamma5,
    numeric_decompose,
)


def test_gamma_clifford_relations():
    gammas = gamma5()
    assert len(gammas) == 5
    eye = np.eye(4)
    for a, ga in enumerate(gammas):
        for b, gb in enumerate(gammas):
            anti = ga @ gb + gb @ ga
            want = 2 * eye if a == b else np.zeros((4, 4))
            assert np.max(np.abs(anti - want)) == 0.0


def test_gamma_entries_are_exact_units():
    for g in gamma5():
        vals = set(np.round(g.flatten(), 12))
        assert vals <= {0, 1, -1, 1j, -1j}


def test_build_irrep_dimensions_and_casimir():
    # Casimir at the oracle's unit scale: l1(l1+3) + l2(l2+1)
    for twice, value in (((1, 0), 2.5), ((1, 1), 4.0), ((2, 0), 6.0),
                         ((2, 2), 10.0), ((2, 1), 7.5), ((3, 1), 12.0)):
        label = IrrepLabel(*twice)
        rep = build_irrep(label)
        assert rep.size == dim(label)
        c = rep.casimir()
        assert np.max(np.abs(c - value * np.eye(rep.size))) < 1e-9
        assert casimir_value(label) == value


def test_build_irrep_respects_cap():
    with pytest.raises(DimensionCap):
        build_irrep(IrrepLabel(4, 2))


def test_basis_tags_match_branching():
    rep = build_irrep(FOURTEEN)
    tagged_blocks = {(t[0], t[1]) for t in rep.basis}
    assert tagged_blocks == {s.twice for s in branching(FOURTEEN)}


def test_numeric_decompose_trivial():
    nd = numeric_decompose(IrrepLabel(0, 0))
    assert nd.content() == {FOURTEEN: 1}


def test_numeric_decompose_1_0_has_multiplicity_one():
    # the (1,0) block appears once; the raw weight count overstates it
    nd = numeric_decompose(IrrepLabel(2, 0))
    exact = {e.target: e.multiplicity for e in decompose_with_14(IrrepLabel(2, 0))}
    assert nd.content() == exact
    assert exact[IrrepLabel(2, 0)] == 1


def test_numeric_decompose_1_1_six_blocks():
    nd = numeric_decompose(FOURTEEN)
    assert sum(nd.content().values()) == 6
    assert sum(m * dim(t) for t, m in nd.content().items()) == 196


def test_compare_trivial_source_is_exact_to_roundoff():
    report = compare(IrrepLabel(0, 0))
    assert report.passed
    assert all(b.max_abs_dev < 1e-12 for b in report.blocks)


def test_compare_half_half_passes_gates():
    report = compare(IrrepLabel(1, 1), tol=1e-9)
    assert report.passed


def test_compare_copy2_projector():
    report = compare(IrrepLabel(3, 1), tol=1e-9)
    assert report.passed
    doubled = [b for b in report.blocks if b.copy_count == 2]
    assert len(doubled) == 1
    assert doubled[0].projector_dev <= 1e-8


def test_compare_catches_a_sign_flip_that_keeps_every_table_unitary(
        monkeypatch):
    # Negating the (+1,+1) and (-1,-1) rows of part (1,1) in every table
    # leaves the tables wrong but unitary: under this flip reduced_unitarity
    # and mixing_identities up to 2j1 = 6, symmetry_involution up to 4 and
    # full_orthogonality up to 4 all pass. Moduli do not show signs either;
    # only the oracle's projector comparison sees it, so that path must not
    # be weakened while no exact check covers signs.
    from so5cg.tables import ChannelTable

    bare = ChannelTable.bare_value

    def flipped(self, entry, *args, **kwargs):
        value = bare(self, entry, *args, **kwargs)
        if entry.part == PART_11 and (entry.tdj1, entry.tdj2) in ((2, 2),
                                                                  (-2, -2)):
            return -value
        return value

    monkeypatch.setattr(ChannelTable, "bare_value", flipped)
    report = compare(IrrepLabel(2, 1))
    assert not report.passed
    assert max(b.projector_dev for b in report.blocks) > PROJECTOR_TOL
    assert all(b.max_abs_dev <= 1e-9 for b in report.blocks)
