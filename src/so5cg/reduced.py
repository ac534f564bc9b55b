"""Exact reduced coupling coefficients in the SO(3) x SO(3) basis.

Evaluates the channel tables with their normalizations, builds the second
copy of the diagonal channel by Gram-Schmidt against the first, extends the
six lowering channels through the transposition symmetry, and exposes the
per-(target-SO(4)) reduced vectors on which unitarity is checked.

The layer runs on doubled ints. A channel's evaluator value(ts1, ts2, i,
tt1, tt2) gives the row at position i of ENTRY_SHIFTS that takes source
block (ts1, ts2) to target block (tt1, tt2). One walk (table_walk,
aux_table_walk) yields a table's rows in export order as (ts1, ts2, i,
tt1, tt2, value), testing each row against the target with the block rule
on ints (labels._contains); the CLI renders those tuples as they come.
Likewise _vector gives a target block's components keyed by (ts1, ts2,
tp), the source block and the 14-part's spin, which fullcg and verify
read. Labels are built only at the edge: table_rows, aux_table_rows,
reduced_vector and aux_vector build them from the same walks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from ._kernel import over, product_sums, scale_vector, sqrt_of_product
from .errors import ChannelAbsent, MalformedKey
from .exactnum import ZERO, SqrtSum, sqrt_rational
from .labels import (
    ENTRY_POSITION,
    ENTRY_SHIFTS,
    ENTRY_TWICE,
    Channel,
    EntryShift,
    IrrepLabel,
    So4Label,
    _contains,
    branching,
    check_block,
    dim,
    reach,
    target_of,
)
from .tables import (
    AUX_TABLE,
    DIAGONAL_TABLE,
    RAISING_TABLES,
    UNIT,
    BoundRow,
    ChannelTable,
    Scale,
    compose,
    mixing_h2,
    mixing_x_rational,
)


class ReducedKey(NamedTuple):
    """Addresses one table entry of one coupling channel."""

    source: IrrepLabel
    channel: Channel
    source_so4: So4Label
    entry: EntryShift


class MixingData(NamedTuple):
    """Overlap data of the companion row set with the first diagonal copy.

    x is a single-radical value (the overlap itself); h2 and norm2 = h2 - x^2
    are exact rationals.  norm2 > 0 exactly when the second copy is present.
    """

    x: SqrtSum
    h2: Fraction
    norm2: Fraction


def valid_target(source: IrrepLabel, channel: Channel) -> IrrepLabel:
    """The irrep the channel shift reaches; ChannelAbsent if none is valid."""
    target = target_of(source, channel)
    if target is None:
        raise ChannelAbsent(
            f"channel {channel} leaves no valid target for source {source}")
    return target


def _table_of(channel: Channel) -> ChannelTable:
    if channel.is_raising:
        return RAISING_TABLES[channel.shift]
    if channel.is_diagonal:
        return DIAGONAL_TABLE
    raise MalformedKey(f"no direct table for channel {channel}")


@lru_cache(maxsize=None)
def normalization(family: Channel, source: IrrepLabel) -> SqrtSum:
    """The overall channel normalization; ChannelAbsent if any factor <= 0."""
    if family.is_lowering:
        raise MalformedKey(
            f"channel {family} is symmetry-generated and carries no "
            f"normalization of its own")
    valid_target(source, family)
    return _table_of(family).normalization(*source.twice)


@lru_cache(maxsize=None)
def mixing(source: IrrepLabel) -> MixingData:
    """Exact mixing data for the doubly-occurring diagonal target."""
    b1, b2 = Fraction(source.tj1, 2), Fraction(source.tj2, 2)
    x_rat = mixing_x_rational(b1, b2)
    h2 = mixing_h2(b1, b2)
    if x_rat == 0:
        # The rational factor of x vanishes before the diagonal normalization
        # (which may diverge here) is ever needed.
        x, x2 = ZERO, Fraction(0)
    else:
        x = x_rat * normalization(Channel(0, 0, 1), source)
        x2 = (x * x).as_fraction()
    norm2 = h2 - x2
    if norm2 < 0:
        raise AssertionError(f"negative copy-2 norm at source {source}")
    return MixingData(x=x, h2=h2, norm2=norm2)


def _direct(table: ChannelTable, norm: Optional[SqrtSum], source: IrrepLabel):
    """value(ts1, ts2, i, tt1, tt2, scale) of a row read straight off a
    table: the row at position i of ENTRY_SHIFTS at source block (ts1,
    ts2), times the channel normalization norm (None for the un-normalized
    companion) and times scale, if given, in one ChannelTable.bare_value,
    looked up here. A row is bound to the source spins the first time it is
    evaluated, and kept in the evaluator."""
    bare, rows, (tb1, tb2) = table.bare_value, table.rows, source.twice
    own = UNIT if norm is None else norm.terms[0]
    bound: list[Optional[BoundRow]] = [None] * len(ENTRY_SHIFTS)

    def value(ts1, ts2, i, tt1, tt2, scale=None):
        row = bound[i]
        if row is None:
            row = bound[i] = rows[ENTRY_SHIFTS[i]].bind(tb1, tb2)
        return bare(ENTRY_SHIFTS[i], ts1, ts2, tb1, tb2,
                    own if scale is None else compose(own, scale), row)
    return value


def _transposition(dims: tuple[int, int], shift: tuple[int, int],
                   ts1: int, ts2: int, i: int, tt1: int, tt2: int) -> Scale:
    """sign * sqrt(dim ratio), as a scale, by which the transposed key's
    value becomes the value of the row at position i taking source block
    (ts1, ts2) to target block (tt1, tt2) in the channel of shift;
    dims = (dim(source), dim(target)).
    """
    (d1, d2), entry = shift, ENTRY_SHIFTS[i]
    part = entry.part
    # d1 - d2, e1 + e2 and the part's doubled spins sum to even numbers.
    phase = (d1 - d2 + entry.tdj1 + entry.tdj2 + part.tj1 + part.tj2) // 2
    # sqrt(num/den) = sqrt(num*den)/den, the blocks' SO(3) x SO(3)
    # dimensions from their doubled spins
    num = dims[1] * (ts1 + 1) * (ts2 + 1)
    den = dims[0] * (tt1 + 1) * (tt2 + 1)
    outer, rad = sqrt_of_product((num, den))
    return rad, -outer if phase % 2 else outer, den


# Position of each entry's transpose: shift negated, part kept.
_FLIPPED = tuple(ENTRY_POSITION[(-d1, -d2, tp)] for d1, d2, tp in ENTRY_TWICE)


def _transposed(source: IrrepLabel, channel: Channel):
    """value(ts1, ts2, i, tt1, tt2, scale) of a raising or lowering row,
    read off the row of the transposed channel of the target: blocks
    swapped, entry negated, and the transposition composed into the
    mirrored row's scale."""
    target = valid_target(source, channel)
    (d1, d2), dims = channel.shift, (dim(source), dim(target))
    mirrored = _row_values(target, Channel(-d1, -d2))

    def value(ts1, ts2, i, tt1, tt2, scale=None):
        own = _transposition(dims, (d1, d2), ts1, ts2, i, tt1, tt2)
        return mirrored(tt1, tt2, _FLIPPED[i], ts1, ts2,
                        own if scale is None else compose(own, scale))
    return value


def _second_copy(source: IrrepLabel):
    """value(ts1, ts2, i, tt1, tt2) of the second diagonal copy, (aux -
    x*copy1) / sqrt(norm2); ChannelAbsent when norm2 = 0."""
    mix = mixing(source)
    if mix.norm2 == 0:
        raise ChannelAbsent(
            f"second diagonal copy absent for source {source}")
    copy1 = _row_values(source, Channel(0, 0, 1))
    aux = _direct(AUX_TABLE, None, source)
    x, scale = mix.x, sqrt_rational(1 / mix.norm2)

    def value(ts1, ts2, i, tt1, tt2):
        # Copy 1 first, so a row outside the formulas' domain raises there.
        first = copy1(ts1, ts2, i, tt1, tt2)
        return (aux(ts1, ts2, i, tt1, tt2) - x * first) * scale
    return value


def _row_values(source: IrrepLabel, channel: Channel):
    """value(ts1, ts2, i, tt1, tt2) of the rows of one channel table that
    take source block (ts1, ts2) to block (tt1, tt2) of the target, i the
    row's position in ENTRY_SHIFTS: the one evaluator of single keys,
    reduced vectors and tables. What depends on the channel only (its
    normalization, the mixing data, the mirrored channel) is taken here,
    once, and an absent channel raises ChannelAbsent here."""
    if channel.is_lowering:
        return _transposed(source, channel)
    if channel.copy == 2:
        return _second_copy(source)
    return _direct(_table_of(channel), normalization(channel, source), source)


def _evaluate(key: ReducedKey, values) -> SqrtSum:
    """The single-key path: check the source block, set up the evaluator
    values(source, channel) (so an absent channel raises for every key),
    then evaluate the entry, or return 0 when it reaches no target block."""
    s = key.source_so4
    check_block(key.source, s, "source")
    target = valid_target(key.source, key.channel)
    value = values(key.source, key.channel)
    e = key.entry
    t = reach(target, s, e.tdj1, e.tdj2)
    return (ZERO if t is None else value(
        s.tj1, s.tj2, ENTRY_POSITION[(e.tdj1, e.tdj2, e.part.tj1)],
        t.tj1, t.tj2))


def reduced(key: ReducedKey) -> SqrtSum:
    """Exact reduced coefficient for one table entry.

    Returns 0 without evaluating when the shifted target SO(4) label falls
    outside the target irrep's branching.
    """
    return _evaluate(key, _row_values)


def reduced_aux(key: ReducedKey) -> SqrtSum:
    """Value of one companion (un-normalized, diagonal-shift) table row."""
    if not key.channel.is_diagonal:
        raise MalformedKey("companion rows exist only for the (0,0) shift")
    return _evaluate(key, lambda source, _: _direct(AUX_TABLE, None, source))


def reduced_copy2(key: ReducedKey) -> SqrtSum:
    """Second copy of the diagonal channel: (aux - x*copy1)/sqrt(norm2),
    0 off the branching like both of its parts."""
    if not key.channel.is_diagonal:
        raise MalformedKey(f"channel {key.channel} has no second copy")
    return _evaluate(key, lambda source, _: _second_copy(source))


def symmetry_extend(key: ReducedKey) -> SqrtSum:
    """Reduced coefficient of a raising or lowering key, read off its
    transpose: target -> source, channel and entry negated, blocks swapped.

    The value equals a sign times the square root of a dimension ratio times
    the transposed key's value, 0 when the entry reaches no target block.
    Applying it twice is the identity.
    """
    if key.channel.is_diagonal:
        raise MalformedKey(f"diagonal channel {key.channel} has no transpose")
    return _evaluate(key, _transposed)


def channel_present_by_normalization(source: IrrepLabel, channel: Channel) -> bool:
    """Presence decided by the formulas alone: whether _row_values sets up,
    which takes a valid target and positive normalization factors (norm2 >
    0 for the second copy, the transposed channel's for a lowering one)."""
    try:
        _row_values(source, channel)
    except ChannelAbsent:
        return False
    return True


ReducedVector = dict[tuple[So4Label, So4Label], SqrtSum]
# A target block's components on doubled ints: (ts1, ts2, tp), the source
# block and the 14-part's spin, to the value.
Components = dict[tuple[int, int, int], SqrtSum]


def _vector(value, source: IrrepLabel, tt1: int, tt2: int) -> Components:
    """value at every component coupling into target block (tt1, tt2)
    whose source block exists, in the order of ENTRY_SHIFTS."""
    lt1, lt2 = source.tj1, source.tj2
    out: Components = {}
    for i, (d1, d2, tp) in enumerate(ENTRY_TWICE):
        ts1, ts2 = tt1 - d1, tt2 - d2
        if _contains(lt1, lt2, ts1, ts2):
            out[(ts1, ts2, tp)] = value(ts1, ts2, i, tt1, tt2)
    return out


def _labelled_vector(components: Components) -> ReducedVector:
    """The components keyed by (source_so4, part) labels."""
    return {(So4Label(ts1, ts2), So4Label(tp, tp)): value
            for (ts1, ts2, tp), value in components.items()}


def reduced_vector(source: IrrepLabel, channel: Channel,
                   target_so4: So4Label) -> ReducedVector:
    """All (source_so4, part) components coupling into one target SO(4) label.

    The channel must be present and target_so4 a block of its target;
    entries whose source block does not exist are simply missing from the
    mapping.
    """
    check_block(valid_target(source, channel), target_so4, "target")
    return _labelled_vector(_vector(_row_values(source, channel), source,
                                    target_so4.tj1, target_so4.tj2))


def aux_vector(source: IrrepLabel, target_so4: So4Label) -> ReducedVector:
    """Companion-row analogue of reduced_vector for the diagonal shift."""
    check_block(source, target_so4, "target")
    return _labelled_vector(_vector(_direct(AUX_TABLE, None, source), source,
                                    target_so4.tj1, target_so4.tj2))


def dot(u: dict, v: dict) -> SqrtSum:
    """Exact inner product over the shared components of two vectors, keyed
    by labels or by ints alike, each entry a single term or 0: both are
    scaled and their products summed on ints under square-free radicands
    (_kernel.product_sums); an entry of more terms raises ValueError."""
    du, su = scale_vector({key: value.terms for key, value in u.items()})
    dv, sv = scale_vector({key: value.terms for key, value in v.items()})
    return SqrtSum(over(product_sums(su, (sv,))[0], du * dv))


class ReducedRow(NamedTuple):
    """One export row of a per-channel table."""

    source_so4: So4Label
    entry: EntryShift
    target_so4: Optional[So4Label]
    value: SqrtSum


# A table row on doubled ints: (ts1, ts2, i, tt1, tt2, value), i the
# entry's position in ENTRY_SHIFTS; tt1 and tt2 are None, and the value 0,
# when the row reaches no block of the target.
IntRow = tuple

# (position, doubled shifts) of each entry, in the lexicographic order of
# the entries: the order of a table's rows within one source block.
_TABLE_ORDER = tuple((i, d1, d2)
                     for (d1, d2, _), i in sorted(ENTRY_POSITION.items()))


def _walk(value, source: IrrepLabel, target: IrrepLabel) -> Iterator[IntRow]:
    """Every (source block, entry) row, in lexicographic order, evaluated
    by value(ts1, ts2, i, tt1, tt2) as it is yielded; a row that reaches no
    block of target is 0, unevaluated."""
    lt1, lt2 = target.tj1, target.tj2
    for s in branching(source):
        ts1, ts2 = s.tj1, s.tj2
        for i, d1, d2 in _TABLE_ORDER:
            tt1, tt2 = ts1 + d1, ts2 + d2
            if _contains(lt1, lt2, tt1, tt2):
                yield ts1, ts2, i, tt1, tt2, value(ts1, ts2, i, tt1, tt2)
            else:
                yield ts1, ts2, i, None, None, ZERO


def table_walk(source: IrrepLabel, channel: Channel) -> Iterator[IntRow]:
    """The rows of one channel's table on doubled ints, in export order,
    each evaluated as it is yielded. The channel is set up here, so an
    absent one raises ChannelAbsent before any row."""
    target = valid_target(source, channel)
    return _walk(_row_values(source, channel), source, target)


def aux_table_walk(source: IrrepLabel) -> Iterator[IntRow]:
    """The rows of the un-normalized diagonal companion, as table_walk."""
    return _walk(_direct(AUX_TABLE, None, source), source, source)


def _labelled(rows: Iterator[IntRow]) -> tuple[ReducedRow, ...]:
    return tuple(
        ReducedRow(So4Label(ts1, ts2), ENTRY_SHIFTS[i],
                   None if tt1 is None else So4Label(tt1, tt2), value)
        for ts1, ts2, i, tt1, tt2, value in rows)


def table_rows(source: IrrepLabel, channel: Channel) -> tuple[ReducedRow, ...]:
    """Every (source block, entry) row of one channel, in lexicographic order.

    Guarded entries appear with value 0 so the table shape is uniform.
    """
    return _labelled(table_walk(source, channel))


def aux_table_rows(source: IrrepLabel) -> tuple[ReducedRow, ...]:
    """Rows of the un-normalized diagonal companion, same shape as table_rows."""
    return _labelled(aux_table_walk(source))
