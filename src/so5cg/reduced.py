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
from typing import Optional

from ._kernel import dot_terms
from .errors import ChannelAbsent, MalformedKey
from .exactnum import ZERO, SqrtSum, sqrt_rational
from .labels import (
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


def _check_source_block(source: IrrepLabel, source_so4: So4Label) -> None:
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
    b1, b2 = source.j1.as_fraction(), source.j2.as_fraction()
    x_rat = mixing_x_rational(b1, b2)
    h2 = mixing_h2(b1, b2)
    if x_rat == 0:
        # The rational factor of x vanishes before the diagonal normalization
        # (which may diverge here) is ever needed.
        x, x2 = ZERO, Fraction(0)
    else:
        x = x_rat * normalization(Channel.of(0, 0, 1), source)
        x2 = (x * x).as_fraction()
    norm2 = h2 - x2
    if norm2 < 0:
        raise AssertionError(f"negative copy-2 norm at source {source}")
    return MixingData(x=x, h2=h2, norm2=norm2)


@lru_cache(maxsize=None)
def reduced(key: ReducedKey) -> SqrtSum:
    """Exact reduced coefficient for one table entry.

    Returns 0 without evaluating when the shifted target SO(4) label falls
    outside the target irrep's branching.
    """
    channel = key.channel
    if channel.is_lowering:
        return symmetry_extend(key)
    _check_source_block(key.source, key.source_so4)
    if channel.copy == 2:
        return reduced_copy2(key)
    target = valid_target(key.source, channel)
    if reach(target, key.source_so4, key.entry.dj1.twice,
             key.entry.dj2.twice) is None:
        return ZERO
    norm = normalization(channel, key.source)
    return norm * _table_of(channel).bare_value(
        key.entry, *key.source_so4.twice, *key.source.twice)


def reduced_aux(key: ReducedKey) -> SqrtSum:
    """Value of one companion (un-normalized, diagonal-shift) table row."""
    if not key.channel.is_diagonal:
        raise MalformedKey("companion rows exist only for the (0,0) shift")
    _check_source_block(key.source, key.source_so4)
    if reach(key.source, key.source_so4, key.entry.dj1.twice,
             key.entry.dj2.twice) is None:
        return ZERO
    return AUX_TABLE.bare_value(key.entry, *key.source_so4.twice,
                                *key.source.twice)


def reduced_copy2(key: ReducedKey) -> SqrtSum:
    """Second copy of the diagonal channel: (aux - x*copy1)/sqrt(norm2),
    0 off the branching like both of its parts."""
    if not key.channel.is_diagonal:
        raise MalformedKey(f"channel {key.channel} has no second copy")
    _check_source_block(key.source, key.source_so4)
    mix = mixing(key.source)
    if mix.norm2 == 0:
        raise ChannelAbsent(
            f"second diagonal copy absent for source {key.source}")
    copy1 = reduced(ReducedKey(key.source, Channel.of(0, 0, 1),
                               key.source_so4, key.entry))
    return (reduced_aux(key) - mix.x * copy1) * sqrt_rational(1 / mix.norm2)


def symmetry_extend(key: ReducedKey) -> SqrtSum:
    """Reduced coefficient of a raising or lowering key, read off its
    transpose: target -> source, channel and entry negated, blocks swapped.

    The value equals a sign times the square root of a dimension ratio times
    the transposed key's value, 0 when the entry reaches no target block.
    Applying it twice is the identity.
    """
    channel, entry = key.channel, key.entry
    if channel.is_diagonal:
        raise MalformedKey(f"diagonal channel {channel} has no transpose")
    _check_source_block(key.source, key.source_so4)
    target = valid_target(key.source, channel)
    target_so4 = reach(target, key.source_so4, entry.dj1.twice,
                       entry.dj2.twice)
    if target_so4 is None:
        return ZERO
    (d1, d2), e1, e2 = channel.shift, entry.dj1.twice, entry.dj2.twice
    # d1 - d2, e1 + e2 and the part's doubled spins sum to even numbers.
    phase = (d1 - d2 + e1 + e2 + entry.part.j1.twice
             + entry.part.j2.twice) // 2
    ratio = Fraction(dim(target) * key.source_so4.so3_dim,
                     dim(key.source) * target_so4.so3_dim)
    mirrored = reduced(ReducedKey(target, Channel.of(-d1, -d2), target_so4,
                                  EntryShift.of(-e1, -e2, entry.part)))
    sign = -1 if phase % 2 else 1
    return sign * sqrt_rational(ratio) * mirrored


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
            target, Channel.of(-shift[0], -shift[1]))
    if channel.copy == 2:
        return mixing(source).norm2 > 0
    return all(v > 0 for v in _table_of(channel).factor_values(*source.twice))


ReducedVector = dict[tuple[So4Label, So4Label], SqrtSum]


def _vector(evaluate, source: IrrepLabel, channel: Channel,
            target_so4: So4Label) -> ReducedVector:
    """evaluate() at every (source_so4, part) component coupling into one
    target SO(4) label whose source block exists."""
    out: ReducedVector = {}
    for entry in ENTRY_SHIFTS:
        s = reach(source, target_so4, -entry.dj1.twice, -entry.dj2.twice)
        if s is not None:
            out[(s, entry.part)] = evaluate(
                ReducedKey(source, channel, s, entry))
    return out


def reduced_vector(source: IrrepLabel, channel: Channel,
                   target_so4: So4Label) -> ReducedVector:
    """All (source_so4, part) components coupling into one target SO(4) label.

    The channel must be present; entries whose source block does not exist
    are simply missing from the mapping.
    """
    return _vector(reduced, source, channel, target_so4)


def aux_vector(source: IrrepLabel, target_so4: So4Label) -> ReducedVector:
    """Companion-row analogue of reduced_vector for the diagonal shift."""
    return _vector(reduced_aux, source, Channel.of(0, 0), target_so4)


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
    ENTRY_SHIFTS, key=lambda e: (e.dj1.twice, e.dj2.twice, e.part.j1.twice)))


def _table(evaluate, source: IrrepLabel, channel: Channel,
           target: IrrepLabel) -> tuple[ReducedRow, ...]:
    """Every (source block, entry) row, in lexicographic order; a row that
    reaches no block of target is 0 with target block None, unevaluated."""
    rows = []
    for s in branching(source):
        for entry in _TABLE_ENTRIES:
            t = reach(target, s, entry.dj1.twice, entry.dj2.twice)
            value = ZERO if t is None else evaluate(
                ReducedKey(source, channel, s, entry))
            rows.append(ReducedRow(s, entry, t, value))
    return tuple(rows)


def table_rows(source: IrrepLabel, channel: Channel) -> tuple[ReducedRow, ...]:
    """Every (source block, entry) row of one channel, in lexicographic order.

    Guarded entries appear with value 0 so the table shape is uniform.
    """
    return _table(reduced, source, channel, valid_target(source, channel))


def aux_table_rows(source: IrrepLabel) -> tuple[ReducedRow, ...]:
    """Rows of the un-normalized diagonal companion, same shape as table_rows."""
    return _table(reduced_aux, source, Channel.of(0, 0, 1), source)
