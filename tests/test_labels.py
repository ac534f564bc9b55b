"""Label algebra: dimensions, branching, channels, decomposition."""

import copy
import pickle

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
from so5cg.su2 import su2_cg

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


@pytest.mark.parametrize("text", ["1_0", "1_0/2", "3/0_2", "\u0663",
                                  "\u0661/2", "1/\u0662", "\uff13"])
def test_halfint_parse_takes_ascii_digits_only(text):
    # int() alone reads "1_0" as 10 and Arabic-Indic or full-width digits
    # as their values; a label spelled so is malformed.
    with pytest.raises(MalformedKey, match="cannot parse half-integer"):
        HalfInt.parse(text)


def test_irrep_label_parse_takes_ascii_digits_only():
    # Before the check this read as the label (3,5).
    with pytest.raises(MalformedKey,
                       match=r"cannot parse half-integer '\u0663'"):
        IrrepLabel.parse("\u0663,1_0/2")


def test_halfint_adds_only_halfints():
    assert HalfInt(1) + HalfInt(3) == HalfInt(4)
    with pytest.raises(TypeError):
        HalfInt(1) + 1
    with pytest.raises(TypeError):
        1 + HalfInt(1)


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


# Every label type: a value, an equal one built apart, a different one, and
# the value's str, which the CLI prints and the disk cache keys on.
LABEL_VALUES = [
    (HalfInt(3), HalfInt.parse("3/2"), HalfInt(-1), "3/2"),
    (So4Label(1, 3), So4Label.parse("1/2,3/2"), So4Label(2, 0), "1/2,3/2"),
    (IrrepLabel(3, 1), IrrepLabel.parse("3/2,1/2"), IrrepLabel(2, 2),
     "3/2,1/2"),
    (Channel(1, -1), Channel(1, -1, 1), Channel(0, 0, 2), "+1/2,-1/2"),
    (ENTRY_SHIFTS[9], EntryShift(1, 1, So4Label(1, 1)), ENTRY_SHIFTS[13],
     "(+1/2,+1/2;1/2,1/2)"),
]


def test_labels_equal_only_their_own_type():
    assert So4Label(2, 2) != IrrepLabel(2, 2)
    assert IrrepLabel(2, 2) != So4Label(2, 2)
    assert So4Label(2, 2) != (2, 2)
    assert (2, 2) != So4Label(2, 2)
    assert Channel(2, 2) != (2, 2, 1)
    assert HalfInt(3) != 3 and HalfInt(3) != (3,)
    assert EntryShift(0, 0, PART_00) != (0, 0, PART_00)
    assert So4Label(2, 2) == PART_11 and FOURTEEN == IrrepLabel(2, 2)
    assert {So4Label(2, 2): 1}.get(IrrepLabel(2, 2)) is None


@pytest.mark.parametrize("a, same, b, text", LABEL_VALUES,
                         ids=[type(v[0]).__name__ for v in LABEL_VALUES])
def test_equal_labels_hash_equal(a, same, b, text):
    assert same == a and same is not a and hash(same) == hash(a)
    assert a != b and not a == b


def test_label_hashes_are_field_tuple_hashes():
    # Dict and set orders over labels follow from these hashes.
    assert hash(So4Label(1, 3)) == hash((1, 3))
    assert hash(HalfInt(3)) == hash((3,))
    assert hash(Channel(0, 0, 2)) == hash((0, 0, 2))
    assert hash(ENTRY_SHIFTS[13]) == hash((0, 0, PART_00))


def test_sorted_orders_labels_by_their_doubled_fields():
    assert sorted([HalfInt(1), HalfInt(-3), HalfInt(0)]) == [
        HalfInt(-3), HalfInt(0), HalfInt(1)]
    assert sorted([IrrepLabel(4, 2), IrrepLabel(2, 2), IrrepLabel(4, 0),
                   IrrepLabel(3, 1)]) == [
        IrrepLabel(2, 2), IrrepLabel(3, 1), IrrepLabel(4, 0), IrrepLabel(4, 2)]
    assert branching(IrrepLabel(2, 0)) == (
        So4Label(0, 2), So4Label(1, 1), So4Label(2, 0))
    assert So4Label(1, 3) <= So4Label(1, 3) < So4Label(2, 0)
    assert IrrepLabel(4, 2) >= IrrepLabel(4, 0) > IrrepLabel(3, 1)
    with pytest.raises(TypeError):
        So4Label(1, 1) < IrrepLabel(2, 2)  # noqa: B015
    with pytest.raises(TypeError):
        HalfInt(1) < 2  # noqa: B015


@pytest.mark.parametrize("a, same, b, text", LABEL_VALUES,
                         ids=[type(v[0]).__name__ for v in LABEL_VALUES])
def test_labels_are_immutable(a, same, b, text):
    name = "twice" if isinstance(a, HalfInt) else (
        "tj1" if isinstance(a, (So4Label, IrrepLabel)) else "tdj1")
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, 0)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert getattr(a, name) == before


@pytest.mark.parametrize("a, same, b, text", LABEL_VALUES,
                         ids=[type(v[0]).__name__ for v in LABEL_VALUES])
def test_label_text_and_copies(a, same, b, text):
    assert str(a) == text
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a),
                  copy.deepcopy(a)):
        assert clone == a and type(clone) is type(a) and str(clone) == text


def test_label_repr_and_str():
    assert repr(So4Label(2, 2)) == "So4Label(tj1=2, tj2=2)"
    assert repr(IrrepLabel(3, 1)) == "IrrepLabel(tj1=3, tj2=1)"
    assert repr(HalfInt(3)) == "HalfInt(twice=3)"
    assert repr(Channel(0, 0, 2)) == "Channel(tdj1=0, tdj2=0, copy=2)"
    assert repr(ENTRY_SHIFTS[0]) == (
        "EntryShift(tdj1=2, tdj2=2, part=So4Label(tj1=2, tj2=2))")
    assert [str(e) for e in ENTRY_SHIFTS] == [
        "(+1,+1;1,1)", "(+1,0;1,1)", "(+1,-1;1,1)", "(0,+1;1,1)",
        "(0,0;1,1)", "(0,-1;1,1)", "(-1,+1;1,1)", "(-1,0;1,1)",
        "(-1,-1;1,1)", "(+1/2,+1/2;1/2,1/2)", "(+1/2,-1/2;1/2,1/2)",
        "(-1/2,+1/2;1/2,1/2)", "(-1/2,-1/2;1/2,1/2)", "(0,0;0,0)"]
    assert [str(c) for c in ALL_CHANNELS] == [
        "+1,+1", "+1,0", "0,+1", "+1,-1", "+1/2,+1/2", "+1/2,-1/2",
        "0,0#1", "0,0#2", "-1,-1", "-1,0", "0,-1", "-1,+1", "-1/2,-1/2",
        "-1/2,+1/2"]


@pytest.mark.parametrize("build, message", [
    (lambda: HalfInt(1.5), "HalfInt needs an int doubled value, got 1.5"),
    (lambda: HalfInt("1"), "HalfInt needs an int doubled value, got '1'"),
    (lambda: So4Label(-1, 0), "SO(4) label needs nonnegative spins, got -1/2,0"),
    (lambda: So4Label(1, 1.0), "HalfInt needs an int doubled value, got 1.0"),
    (lambda: IrrepLabel(1, 2), "irrep label needs j1 >= j2 >= 0, got (1/2,1)"),
    (lambda: IrrepLabel(0, -2), "irrep label needs j1 >= j2 >= 0, got (0,-1)"),
    (lambda: Channel(2, 4), "not a coupling shift: (1,2)"),
    (lambda: Channel(2, 2, 2), "copy 2 exists only for the (0,0) shift"),
    (lambda: Channel(0, 0, 3), "copy must be 1 or 2, got 3"),
    (lambda: Channel(0.0, 0), "HalfInt needs an int doubled value, got 0.0"),
    (lambda: EntryShift(2, 2, PART_00), "shift 1 too large for part 0,0"),
    (lambda: EntryShift(1, 1, PART_11),
     "shift 1/2 has wrong parity for part 1,1"),
    (lambda: EntryShift(4, 0, PART_11), "shift 2 too large for part 1,1"),
    (lambda: EntryShift(0, 0, So4Label(1, 0)), "not a 14-part: 1/2,0"),
    (lambda: EntryShift(0, 0, IrrepLabel(2, 2)), "not a 14-part: 1,1"),
    # A bool is an int to isinstance, and copy is a doubled-int field too.
    pytest.param(lambda: HalfInt(True),
                 "HalfInt needs an int doubled value, got True",
                 id="bool-halfint"),
    pytest.param(lambda: Channel(0, 0, 1.0),
                 "HalfInt needs an int doubled value, got 1.0",
                 id="float-copy"),
    pytest.param(lambda: Channel(0, 0, True),
                 "HalfInt needs an int doubled value, got True",
                 id="bool-copy"),
    pytest.param(lambda: su2_cg(True, True, 0, 0, 1, 1),
                 "HalfInt needs an int doubled value, got True",
                 id="bool-su2"),
])
def test_label_validation_messages(build, message):
    with pytest.raises(MalformedKey) as info:
        build()
    assert str(info.value) == message
