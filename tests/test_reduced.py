"""Reduced coupling layer: normalizations, tables, mixing, symmetry."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from so5cg.errors import ChannelAbsent, MalformedKey
from so5cg.exactnum import ONE, ZERO, SqrtSum, sqrt_rational
from so5cg.labels import (
    ALL_CHANNELS,
    ENTRY_SHIFTS,
    Channel,
    EntryShift,
    IrrepLabel,
    PART_00,
    PART_11,
    PART_HH,
    So4Label,
    branching,
    channel_present,
    iter_labels,
    target_of,
)
from so5cg.reduced import (
    ReducedKey,
    aux_table_rows,
    aux_vector,
    channel_present_by_normalization,
    dot,
    mixing,
    normalization,
    reduced,
    reduced_aux,
    reduced_copy2,
    reduced_vector,
    symmetry_extend,
    table_rows,
)

A = Channel(2, 2)
B = Channel(2, 0)
E = Channel(1, 1)
G1 = Channel(0, 0, 1)
G2 = Channel(0, 0, 2)

small_labels = st.sampled_from(list(iter_labels(5)))


def test_normalization_anchors():
    assert str(normalization(A, IrrepLabel(0, 0))) == "1/180*sqrt(30)"
    assert str(normalization(E, IrrepLabel(1, 0))) == "2/315*sqrt(210)"
    # 4*1*4 + 11*29*2 + 1*3*1*7 = 675 under the diagonal bracket
    assert str(normalization(G1, IrrepLabel(2, 2))) == "2/45*sqrt(15)"


def test_normalization_absent_channels():
    with pytest.raises(ChannelAbsent):
        normalization(B, IrrepLabel(2, 0))  # factor j2 = 0
    with pytest.raises(ChannelAbsent):
        normalization(E, IrrepLabel(2, 2))  # factor j1 - j2 = 0
    with pytest.raises(ChannelAbsent):
        normalization(Channel(2, -2), IrrepLabel(2, 0))  # target j2 < 0
    with pytest.raises(MalformedKey):
        normalization(Channel(-2, 0), IrrepLabel(4, 2))


def test_reduced_trivial_source_values():
    key = ReducedKey(IrrepLabel(0, 0), A, So4Label(0, 0),
                     EntryShift(2, 2, PART_11))
    assert reduced(key) == ONE
    key = ReducedKey(IrrepLabel(0, 0), A, So4Label(0, 0),
                     EntryShift(0, 0, PART_00))
    assert reduced(key) == ONE


def test_reduced_guarded_zero():
    # source (1,0), channel (+1,+1): shifted targets outside branching((2,1))
    src = IrrepLabel(2, 0)
    for block, entry in ((So4Label(1, 1), EntryShift(-1, -1, PART_HH)),
                         (So4Label(2, 0), EntryShift(2, 0, PART_11))):
        assert reduced(ReducedKey(src, A, block, entry)) == ZERO
    # (+1,0) is absent at (1,0): its entries that reach no block raise too.
    for entry in (EntryShift(2, 2, PART_11), EntryShift(1, -1, PART_HH)):
        with pytest.raises(ChannelAbsent):
            reduced(ReducedKey(src, B, So4Label(1, 1), entry))


def test_reduced_block_validation():
    key = ReducedKey(IrrepLabel(2, 0), B, So4Label(2, 2),
                     EntryShift(0, 0, PART_00))
    with pytest.raises(MalformedKey):
        reduced(key)


def test_absent_channel_raises_for_every_key():
    # A zero always means a zero: every key of an absent channel raises
    # ChannelAbsent, also one whose entry reaches no block of the target.
    absent = 0
    for src in iter_labels(4):
        for ch in ALL_CHANNELS:
            if target_of(src, ch) is None or channel_present(src, ch):
                continue
            entry_points = [reduced]
            if ch.copy == 2:
                entry_points.append(reduced_copy2)
            if not ch.is_diagonal:
                entry_points.append(symmetry_extend)
            for s in branching(src):
                for entry in ENTRY_SHIFTS:
                    for evaluate in entry_points:
                        with pytest.raises(ChannelAbsent):
                            evaluate(ReducedKey(src, ch, s, entry))
                    absent += 1
    assert absent > 0


def test_vectors_reject_a_block_outside_the_target():
    # A target block outside the target's branching is malformed, as a
    # source block outside the source's is for a single key.
    src = IrrepLabel(3, 1)
    with pytest.raises(MalformedKey, match="not a block of target 5/2,1/2"):
        reduced_vector(src, Channel(2, 0), So4Label(6, 6))
    with pytest.raises(MalformedKey, match="not a block of target 3/2,1/2"):
        aux_vector(src, So4Label(0, 0))
    with pytest.raises(MalformedKey, match="not a block of target 3/2,1/2"):
        reduced_vector(src, G2, So4Label(4, 4))


def test_mixing_values():
    m = mixing(IrrepLabel(2, 0))
    assert str(m.x) == "-4/5*sqrt(105)"
    assert m.h2 == Fraction(336, 5)
    assert m.norm2 == 0
    m = mixing(IrrepLabel(2, 1))
    assert m.h2 == Fraction(105, 32)
    assert m.norm2 == 0
    m = mixing(IrrepLabel(2, 2))
    assert m.x == ZERO
    assert m.h2 == 0
    m = mixing(IrrepLabel(3, 1))
    assert (m.x * m.x).as_fraction() == Fraction(34656, 395)
    assert m.h2 == Fraction(1464, 5)
    assert m.norm2 == Fraction(16200, 79)
    m = mixing(IrrepLabel(4, 2))
    assert str(m.x) == "-4*sqrt(14)"
    assert m.h2 == 840
    assert m.norm2 == 616


def test_copy2_absent_for_1_1():
    key = ReducedKey(IrrepLabel(2, 2), G2, So4Label(2, 2),
                     EntryShift(0, 0, PART_00))
    with pytest.raises(ChannelAbsent):
        reduced(key)


def test_copy2_unitarity_smallest_source():
    src = IrrepLabel(3, 1)
    for t in branching(src):
        c1 = reduced_vector(src, G1, t)
        c2 = reduced_vector(src, G2, t)
        if not c2:
            continue
        assert dot(c2, c2) == ONE
        assert dot(c1, c2) == ZERO


def test_aux_examples():
    # final companion row at j1 = j2 = 1 on source (1,1): H^2 = 0 forces 0
    key = ReducedKey(IrrepLabel(2, 2), G1, So4Label(2, 2),
                     EntryShift(0, 0, PART_00))
    assert reduced_aux(key) == ZERO
    # prefactor (j1 - j2)^2 kills the (+1,+1) companion entry at j1 = j2
    key = ReducedKey(IrrepLabel(3, 1), G1, So4Label(1, 1),
                     EntryShift(2, 2, PART_11))
    assert reduced_aux(key) == ZERO
    # shifting j2 = 0 down leaves the branching, as for reduced()
    key = ReducedKey(IrrepLabel(3, 1), G1, So4Label(2, 0),
                     EntryShift(1, -1, PART_HH))
    assert reduced_aux(key) == ZERO


def test_aux_rejects_a_non_diagonal_channel_and_a_foreign_block():
    entry = EntryShift(0, 0, PART_00)
    with pytest.raises(MalformedKey):
        reduced_aux(ReducedKey(IrrepLabel(3, 1), A, So4Label(2, 0),
                               entry))
    with pytest.raises(MalformedKey):
        reduced_aux(ReducedKey(IrrepLabel(3, 1), G1, So4Label(6, 6),
                               entry))


def test_mixing_identities_per_target_block():
    src = IrrepLabel(4, 2)
    mix = mixing(src)
    for t in branching(src):
        aux = aux_vector(src, t)
        c1 = reduced_vector(src, G1, t)
        assert dot(aux, c1) == mix.x
        assert dot(aux, aux) == SqrtSum.from_rational(mix.h2)


def lowering_from_1_1(block: So4Label) -> ReducedKey:
    # (1,1) -> (0,0): the one entry of each source block that reaches (0,0)
    return ReducedKey(IrrepLabel(2, 2), Channel(-2, -2), block,
                      EntryShift(-block.tj1, -block.tj2, block))


def test_symmetry_lowering_example():
    value = symmetry_extend(lowering_from_1_1(PART_11))
    assert value == sqrt_rational(Fraction(9, 14))
    squares = ZERO
    for part in (PART_11, PART_HH, PART_00):
        v = symmetry_extend(lowering_from_1_1(part))
        squares = squares + v * v
    assert squares == ONE


def test_symmetry_rejects_a_diagonal_key():
    # A diagonal key has no transpose; labels that no single channel shift
    # relates cannot be written as a key at all.
    with pytest.raises(MalformedKey):
        symmetry_extend(ReducedKey(IrrepLabel(2, 0), G1, So4Label(0, 0),
                                   EntryShift(0, 0, PART_00)))
    with pytest.raises(MalformedKey):
        Channel(-4, 0)


def test_lowering_channel_through_reduced():
    # reduced() dispatches lowering keys through the symmetry relation
    key = ReducedKey(IrrepLabel(2, 2), Channel(-2, -2),
                     So4Label(2, 2), EntryShift(-2, -2, PART_11))
    assert reduced(key) == sqrt_rational(Fraction(9, 14))


@given(small_labels)
@settings(max_examples=25, deadline=None)
def test_symmetry_involution(src):
    for ch in (A, B, E):
        if not channel_present(src, ch):
            continue
        for row in table_rows(src, ch):
            key = ReducedKey(src, ch, row.source_so4, row.entry)
            assert symmetry_extend(key) == row.value


@given(small_labels)
@settings(max_examples=25, deadline=None)
def test_presence_agreement(src):
    from so5cg.labels import ALL_CHANNELS, multiplicity_of
    for ch in ALL_CHANNELS:
        tgt = target_of(src, ch)
        by_mult = tgt is not None and multiplicity_of(src, tgt) >= ch.copy
        assert channel_present_by_normalization(src, ch) == by_mult


def test_table_rows_shape_and_order():
    rows = table_rows(IrrepLabel(0, 0), A)
    assert len(rows) == 14
    values = sorted(str(r.value) for r in rows)
    assert values == ["0"] * 11 + ["1"] * 3
    keys = [(r.source_so4.twice, (r.entry.tdj1, r.entry.tdj2,
                                  r.entry.part.tj1)) for r in rows]
    assert keys == sorted(keys)
    with pytest.raises(ChannelAbsent):
        table_rows(IrrepLabel(0, 0), Channel(-2, -2))


def test_aux_table_rows_match_direct_evaluation():
    src = IrrepLabel(3, 1)
    rows = aux_table_rows(src)
    assert len(rows) == 14 * len(branching(src))
    for row in rows[:20]:
        if row.target_so4 is None:
            continue
        key = ReducedKey(src, G1, row.source_so4, row.entry)
        assert reduced_aux(key) == row.value


@given(small_labels)
@settings(max_examples=15, deadline=None)
def test_reduced_unitarity_sampled(src):
    from so5cg.labels import channels_present
    chans = channels_present(src)
    targets = {}
    for ch in chans:
        tgt = target_of(src, ch)
        for t in branching(tgt):
            v = reduced_vector(src, ch, t)
            if v:
                targets.setdefault(t, []).append(v)
    for t, vecs in targets.items():
        for i, u in enumerate(vecs):
            for j, w in enumerate(vecs):
                assert dot(u, w) == (ONE if i == j else ZERO)


def test_table_export_normalizes_each_channel_once(monkeypatch):
    # Rows take the channel normalization from the normalization() memo,
    # so a cold export builds it once, not once per evaluated row.
    from so5cg.labels import channels_present
    from so5cg.tables import ChannelTable
    calls = []
    build = ChannelTable.normalization

    def counted(self, b1, b2):
        calls.append((self.shift, b1, b2))
        return build(self, b1, b2)

    monkeypatch.setattr(ChannelTable, "normalization", counted)
    src = IrrepLabel(7, 3)
    for ch in channels_present(src):
        normalization.cache_clear()
        mixing.cache_clear()
        calls.clear()
        table_rows(src, ch)
        assert len(calls) <= 1, (ch, calls)


large_labels = st.sampled_from(list(iter_labels(40)))


@given(large_labels, st.data())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_reduced_unitarity_sampled_large_spins(src, data):
    # Every present channel whose target has the block t, at 2j1 <= 40.
    from so5cg.labels import channels_present, in_branching
    chans = channels_present(src)
    blocks = sorted({t for ch in chans for t in branching(target_of(src, ch))},
                    key=lambda t: t.twice)
    t = data.draw(st.sampled_from(blocks))
    vecs = [reduced_vector(src, ch, t) for ch in chans
            if in_branching(target_of(src, ch), t)]
    for i, u in enumerate(vecs):
        for j, w in enumerate(vecs):
            assert dot(u, w) == (ONE if i == j else ZERO), (str(src), str(t))


@given(large_labels.filter(lambda src: channel_present_by_normalization(src, G1)),
       st.data())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_mixing_identities_sampled_large_spins(src, data):
    t = data.draw(st.sampled_from(branching(src)))
    mix = mixing(src)
    aux = aux_vector(src, t)
    assert dot(aux, reduced_vector(src, G1, t)) == mix.x, (str(src), str(t))
    assert dot(aux, aux) == mix.h2, (str(src), str(t))


def test_table_export_evaluates_only_rows_that_reach_a_block(monkeypatch):
    # A row whose entry takes its source block outside the target's
    # branching is 0 by definition: it is exported, but never evaluated.
    # Rows are counted where they are evaluated, at the table's bare row.
    from so5cg.tables import ChannelTable
    evaluated = []
    bare = ChannelTable.bare_value

    def counted(self, entry, *spins):
        evaluated.append(entry)
        return bare(self, entry, *spins)

    monkeypatch.setattr(ChannelTable, "bare_value", counted)
    source = IrrepLabel(7, 3)
    rows = table_rows(source, Channel(2, 0))
    reaching = [row for row in rows if row.target_so4 is not None]
    assert 0 < len(reaching) < len(rows)
    assert all(row.value == ZERO for row in rows if row.target_so4 is None)
    assert evaluated == [row.entry for row in reaching]


@given(st.sampled_from(list(iter_labels(24))), st.data())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_table_rows_equal_single_key_evaluation(src, data):
    # A table is evaluated in one pass; each row must still be the value of
    # its own key and the (s, part) component of the reduced vector at its
    # target block. Lowering rows are also checked against the
    # transposition relation written out with a Fraction ratio.
    from so5cg.labels import channels_present, dim
    kind = data.draw(st.sampled_from(
        ("is_raising", "is_diagonal", "is_lowering", "aux")), label="kind")
    channel = "aux" if kind == "aux" else data.draw(st.sampled_from(
        [c for c in channels_present(src) if getattr(c, kind)]),
        label="channel")
    if channel == "aux":
        for row in aux_table_rows(src):
            assert row.value == reduced_aux(
                ReducedKey(src, G1, row.source_so4, row.entry)), str(row)
            if row.target_so4 is not None:
                assert row.value == aux_vector(src, row.target_so4)[
                    (row.source_so4, row.entry.part)], str(row)
        return
    target = target_of(src, channel)
    (d1, d2), mirror = channel.shift, Channel(*(-d for d in channel.shift))
    for row in table_rows(src, channel):
        key = ReducedKey(src, channel, row.source_so4, row.entry)
        assert row.value == reduced(key), (str(channel), str(row))
        if row.target_so4 is not None:
            assert row.value == reduced_vector(src, channel, row.target_so4)[
                (row.source_so4, row.entry.part)], (str(channel), str(row))
        if channel.is_lowering and row.target_so4 is not None:
            s, t, e = row.source_so4, row.target_so4, row.entry
            phase = (d1 - d2 + e.tdj1 + e.tdj2 + e.part.tj1
                     + e.part.tj2) // 2
            ratio = Fraction(dim(target) * s.so3_dim, dim(src) * t.so3_dim)
            flipped = EntryShift(-e.tdj1, -e.tdj2, e.part)
            transposed = reduced(ReducedKey(target, mirror, t, flipped))
            sign = -1 if phase % 2 else 1
            assert row.value == sign * sqrt_rational(ratio) * transposed, (
                str(channel), str(row))
