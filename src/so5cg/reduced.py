"""Exact reduced coupling coefficients in the SO(3) x SO(3) basis.

Evaluates the channel tables with their normalizations, builds the second
copy of the diagonal channel by Gram-Schmidt against the first, extends the
six lowering channels through the transposition symmetry, and exposes the
per-(target-SO(4)) reduced vectors on which unitarity is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional

from ._kernel import dot_terms, sqrt_of_product
from .errors import ChannelAbsent, MalformedKey
from .exactnum import ZERO, SqrtSum, sqrt_rational
from .labels import (
    ENTRY_BY_TWICE,
    ENTRY_SHIFTS,
    Channel,
    EntryShift,
    IrrepLabel,
    So4Label,
    branching,
    dim,
    in_branching,
    reach,
    target_of,
)
from .tables import (
    AUX_TABLE,
    DIAGONAL_TABLE,
    RAISING_TABLES,
    ChannelTable,
    mixing_h2,
    mixing_x_rational,
)


@dataclass(frozen=True)
class ReducedKey:
    """Addresses one table entry of one coupling channel."""

    source: IrrepLabel
    channel: Channel
    source_so4: So4Label
    entry: EntryShift


@dataclass(frozen=True)
class MixingData:
    """Overlap data of the companion row set with the first diagonal copy.

    x is a single-radical value (the overlap itself); h2 and norm2 = h2 - x^2
    are exact rationals.  norm2 > 0 exactly when the second copy is present.
    """

    x: SqrtSum
    h2: Fraction
    norm2: Fraction


def check_source_block(source: IrrepLabel, source_so4: So4Label) -> None:
    if not in_branching(source, source_so4):
        raise MalformedKey(
            f"SO(4) label {source_so4} is not a block of source {source}")


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
    """value(s, entry, t) of a row read straight off a table: the bare row at
    source block s, times the channel normalization norm (None for the
    un-normalized companion)."""
    bare, (tb1, tb2) = table.bare_value, source.twice
    if norm is None:
        return lambda s, entry, t: bare(entry, *s.twice, tb1, tb2)
    return lambda s, entry, t: norm * bare(entry, *s.twice, tb1, tb2)


def _transposition(dims: tuple[int, int], shift: tuple[int, int],
                   entry: EntryShift, s: So4Label, t: So4Label) -> SqrtSum:
    """sign * sqrt(dim ratio) by which the transposed key's value becomes the
    value of the key (shift, entry, s -> t); dims = (dim(source), dim(target)).
    """
    (d1, d2), part = shift, entry.part
    # d1 - d2, e1 + e2 and the part's doubled spins sum to even numbers.
    phase = (d1 - d2 + entry.tdj1 + entry.tdj2 + part.tj1 + part.tj2) // 2
    # sqrt(num/den) = sqrt(num*den)/den
    num, den = dims[1] * s.so3_dim, dims[0] * t.so3_dim
    outer, rad = sqrt_of_product((num, den))
    g = gcd(outer, den)
    return SqrtSum(((rad, (-1 if phase % 2 else 1) * outer // g, den // g),))


def _transposed(source: IrrepLabel, channel: Channel):
    """value(s, entry, t) of a raising or lowering row, read off the row of
    the transposed channel of the target: blocks swapped, entry negated."""
    target = valid_target(source, channel)
    (d1, d2), dims = channel.shift, (dim(source), dim(target))
    mirrored = _row_values(target, Channel(-d1, -d2))

    def value(s, entry, t):
        flipped = ENTRY_BY_TWICE[(-entry.tdj1, -entry.tdj2, entry.part.tj1)]
        return (_transposition(dims, (d1, d2), entry, s, t)
                * mirrored(t, flipped, s))
    return value


def _second_copy(source: IrrepLabel):
    """value(s, entry, t) of the second diagonal copy, (aux - x*copy1) /
    sqrt(norm2); ChannelAbsent when norm2 = 0."""
    mix = mixing(source)
    if mix.norm2 == 0:
        raise ChannelAbsent(
            f"second diagonal copy absent for source {source}")
    copy1 = _row_values(source, Channel(0, 0, 1))
    aux = _direct(AUX_TABLE, None, source)
    x, scale = mix.x, sqrt_rational(1 / mix.norm2)

    def value(s, entry, t):
        # Copy 1 first, so a row outside the formulas' domain raises there.
        first = copy1(s, entry, t)
        return (aux(s, entry, t) - x * first) * scale
    return value


def _row_values(source: IrrepLabel, channel: Channel):
    """value(s, entry, t) of the rows of one channel table that take source
    block s to block t of the target: the one evaluator of single keys,
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
    check_source_block(key.source, key.source_so4)
    target = valid_target(key.source, key.channel)
    value = values(key.source, key.channel)
    t = reach(target, key.source_so4, key.entry.tdj1, key.entry.tdj2)
    return ZERO if t is None else value(key.source_so4, key.entry, t)


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
    """Presence decided by the formulas alone: a valid target plus strictly
    positive normalization factors (norm2 > 0 for the second copy)."""
    target = target_of(source, channel)
    if target is None:
        return False
    if channel.is_lowering:
        # Lowering presence mirrors the raising presence of the transposed pair.
        shift = channel.shift
        return channel_present_by_normalization(
            target, Channel(-shift[0], -shift[1]))
    if channel.copy == 2:
        return mixing(source).norm2 > 0
    return all(v > 0 for v in _table_of(channel).factor_values(*source.twice))


ReducedVector = dict[tuple[So4Label, So4Label], SqrtSum]


def _check_target_block(target: IrrepLabel, target_so4: So4Label) -> None:
    if not in_branching(target, target_so4):
        raise MalformedKey(
            f"SO(4) label {target_so4} is not a block of target {target}")


def _vector(value, source: IrrepLabel, target_so4: So4Label) -> ReducedVector:
    """value(s, entry, target_so4) at every (source_so4, part) component
    coupling into one target SO(4) label whose source block exists."""
    out: ReducedVector = {}
    for entry in ENTRY_SHIFTS:
        s = reach(source, target_so4, -entry.tdj1, -entry.tdj2)
        if s is not None:
            out[(s, entry.part)] = value(s, entry, target_so4)
    return out


def reduced_vector(source: IrrepLabel, channel: Channel,
                   target_so4: So4Label) -> ReducedVector:
    """All (source_so4, part) components coupling into one target SO(4) label.

    The channel must be present and target_so4 a block of its target;
    entries whose source block does not exist are simply missing from the
    mapping.
    """
    _check_target_block(valid_target(source, channel), target_so4)
    return _vector(_row_values(source, channel), source, target_so4)


def aux_vector(source: IrrepLabel, target_so4: So4Label) -> ReducedVector:
    """Companion-row analogue of reduced_vector for the diagonal shift."""
    _check_target_block(source, target_so4)
    return _vector(_direct(AUX_TABLE, None, source), source, target_so4)


def dot(u: ReducedVector, v: ReducedVector) -> SqrtSum:
    """Exact inner product over the shared (source_so4, part) components."""
    return SqrtSum(dot_terms((value.terms, v[key].terms)
                             for key, value in u.items() if key in v))


@dataclass(frozen=True)
class ReducedRow:
    """One export row of a per-channel table."""

    source_so4: So4Label
    entry: EntryShift
    target_so4: Optional[So4Label]
    value: SqrtSum


_TABLE_ENTRIES = tuple(sorted(
    ENTRY_SHIFTS, key=lambda e: (e.tdj1, e.tdj2, e.part.tj1)))


def _table(value, source: IrrepLabel,
           target: IrrepLabel) -> tuple[ReducedRow, ...]:
    """Every (source block, entry) row, in lexicographic order, evaluated
    by value(s, entry, t); a row that reaches no block of target is 0 with
    target block None, unevaluated."""
    rows = []
    for s in branching(source):
        for entry in _TABLE_ENTRIES:
            t = reach(target, s, entry.tdj1, entry.tdj2)
            rows.append(ReducedRow(s, entry, t,
                                   ZERO if t is None else value(s, entry, t)))
    return tuple(rows)


def table_rows(source: IrrepLabel, channel: Channel) -> tuple[ReducedRow, ...]:
    """Every (source block, entry) row of one channel, in lexicographic order.

    Guarded entries appear with value 0 so the table shape is uniform.
    """
    target = valid_target(source, channel)
    return _table(_row_values(source, channel), source, target)


def aux_table_rows(source: IrrepLabel) -> tuple[ReducedRow, ...]:
    """Rows of the un-normalized diagonal companion, same shape as table_rows."""
    return _table(_direct(AUX_TABLE, None, source), source, source)
