"""Label algebra: dimensions, branching, channels, decomposition."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from so5cg.errors import MalformedKey
from so5cg.labels import (
    ALL_CHANNELS,
    ENTRY_SHIFTS,
    FOURTEEN,
    Channel,
    EntryShift,
    HalfInt,
    IrrepLabel,
    PART_00,
    PART_11,
    So4Label,
    branching,
    channel_present,
    channels_present,
    decompose_with_14,
    dim,
    in_branching,
    iter_labels,
    m_values,
    multiplicity_of,
    reach,
    target_of,
)

labels = st.builds(
    lambda tj1, extra: IrrepLabel(tj1 + extra, tj1),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)


def test_halfint_parse_and_str():
    assert HalfInt.parse("3/2").twice == 3
    assert HalfInt.parse("-1").twice == -2
    assert HalfInt.parse("+1/2").twice == 1
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(4)) == "2"
    with pytest.raises(MalformedKey):
        HalfInt.parse("1/3")


def test_label_validation():
    with pytest.raises(MalformedKey):
        IrrepLabel(1, 2)
    with pytest.raises(MalformedKey):
        IrrepLabel.parse("0,-1")
    with pytest.raises(MalformedKey):
        So4Label(-1, 0)


def test_dim_examples():
    assert dim(FOURTEEN) == 14
    assert dim(IrrepLabel(0, 0)) == 1
    assert dim(IrrepLabel(1, 1)) == 5
    assert dim(IrrepLabel(2, 0)) == 10
    assert dim(IrrepLabel(1, 0)) == 4
    assert dim(IrrepLabel(3, 1)) == 35
    assert dim(IrrepLabel(4, 2)) == 81


def test_branching_examples():
    assert branching(FOURTEEN) == (
        So4Label(0, 0), So4Label(1, 1), So4Label(2, 2))
    assert branching(IrrepLabel(0, 0)) == (So4Label(0, 0),)
    assert branching(IrrepLabel(1, 0)) == (
        So4Label(0, 1), So4Label(1, 0))
    # adjoint: the two su(2) triplets plus the (1/2,1/2) coset block
    assert branching(IrrepLabel(2, 0)) == (
        So4Label(0, 2), So4Label(1, 1), So4Label(2, 0))
    assert branching(IrrepLabel(4, 0)) == (
        So4Label(0, 4), So4Label(1, 3), So4Label(2, 2),
        So4Label(3, 1), So4Label(4, 0))


@given(labels)
def test_branching_dimension_audit(label):
    assert sum(s.so3_dim for s in branching(label)) == dim(label)


@given(labels, st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=10))
def test_in_branching_matches_membership(label, a, b):
    so4 = So4Label(a, b)
    assert in_branching(label, so4) == (so4 in branching(label))


@given(labels, st.integers(min_value=0, max_value=10),
       st.integers(min_value=0, max_value=10),
       st.integers(min_value=-2, max_value=2),
       st.integers(min_value=-2, max_value=2))
def test_reach_is_the_shifted_block_inside_the_branching(label, a, b, d1, d2):
    block = So4Label(a, b)
    if a + d1 < 0 or b + d2 < 0:
        assert reach(label, block, d1, d2) is None
        return
    shifted = So4Label(a + d1, b + d2)
    want = shifted if shifted in branching(label) else None
    assert reach(label, block, d1, d2) == want


def test_decompose_examples():
    from so5cg.labels import DecompEntry
    assert decompose_with_14(IrrepLabel(0, 0)) == (DecompEntry(FOURTEEN, 1),)
    six = decompose_with_14(FOURTEEN)
    assert [(e.target.twice, e.multiplicity) for e in six] == [
        ((0, 0), 1), ((2, 0), 1), ((2, 2), 1),
        ((4, 0), 1), ((4, 2), 1), ((4, 4), 1)]
    assert sum(e.multiplicity * dim(e.target) for e in six) == 196


def test_decompose_generic_2_1():
    # (2,1) x 14: the (1,2) shift leaves no valid label and the (3/2,3/2)
    # target cancels in the reflection tally, so 11 targets and 12 channels.
    entries = decompose_with_14(IrrepLabel(4, 2))
    assert len(entries) == 11
    assert sum(e.multiplicity for e in entries) == 12
    assert multiplicity_of(IrrepLabel(4, 2), IrrepLabel(4, 2)) == 2
    assert multiplicity_of(IrrepLabel(4, 2), IrrepLabel(3, 3)) == 0
    assert sum(e.multiplicity * dim(e.target) for e in entries) == 14 * 81


def test_decompose_1_0_multiplicity_one():
    # the reflection tally cancels one of the two raw (1,0) weights
    entries = decompose_with_14(IrrepLabel(2, 0))
    content = {e.target.twice: e.multiplicity for e in entries}
    assert content == {(4, 2): 1, (3, 1): 1, (2, 2): 1, (2, 0): 1}
    assert sum(e.multiplicity * dim(e.target) for e in entries) == 140


@given(labels)
def test_decompose_dimension_audit(label):
    total = sum(e.multiplicity * dim(e.target)
                for e in decompose_with_14(label))
    assert total == 14 * dim(label)


def test_channel_presence_examples():
    assert not channel_present(FOURTEEN, Channel(1, 1))
    assert channel_present(IrrepLabel(0, 0), Channel(2, 2))
    assert channels_present(IrrepLabel(0, 0)) == (Channel(2, 2),)
    assert not channel_present(FOURTEEN, Channel(0, 0, 2))
    assert channel_present(IrrepLabel(3, 1), Channel(0, 0, 2))


def test_channel_validation():
    with pytest.raises(MalformedKey):
        Channel(2, 4)
    with pytest.raises(MalformedKey):
        Channel(2, 2, 2)
    assert Channel(0, 0, 2).copy == 2
    assert str(Channel(1, -1)) == "+1/2,-1/2"
    assert str(Channel(0, 0, 2)) == "0,0#2"
    assert len(ALL_CHANNELS) == 14


def test_entry_shifts():
    assert len(ENTRY_SHIFTS) == 14
    with pytest.raises(MalformedKey):
        EntryShift(2, 2, PART_00)
    with pytest.raises(MalformedKey):
        EntryShift(1, 1, PART_11)


def test_target_of_guards():
    assert target_of(IrrepLabel(0, 0), Channel(-2, 0)) is None
    assert target_of(IrrepLabel(2, 2), Channel(-1, 1)) is None
    assert target_of(IrrepLabel(2, 2), Channel(2, 0)) == IrrepLabel(4, 2)


def test_m_values():
    assert [m.twice for m in m_values(HalfInt(3))] == [-3, -1, 1, 3]


def test_iter_labels_count():
    assert len(list(iter_labels(6))) == 28
