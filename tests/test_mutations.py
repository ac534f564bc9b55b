"""Which check catches which error class: one catalogue of table mutations.

Each mutation negates some rows of the closed-form tables by patching
ChannelTable.bare_value, the one per-row evaluation: every direct, copy-2,
companion and transposed (lowering) value goes through it, so a flip of a
raising row also flips the lowering rows read off it. Wong's errors are the
model: wrong signs in printed rows.

- A coordinated flip negates one entry, or one entry and its mirror, in
  every table at once. The tables stay unitary, so no exact check sees it;
  the numeric oracle must. The one exception flips the (0,0) part, which
  only changes the phase of the 14's (0,0) block: a convention, which every
  check must pass.
- A single-row flip negates one row of one table. Every one of them breaks
  the reduced Gram identity.

A check that stops catching its class fails this file.
"""

from typing import Callable, NamedTuple

import pytest

from so5cg import verify
from so5cg.labels import (
    ENTRY_SHIFTS,
    PART_00,
    PART_11,
    PART_HH,
    Channel,
    EntryShift,
    IrrepLabel,
    channels_present,
)
from so5cg.oracle import compare
from so5cg.reduced import aux_table_rows, table_rows
from so5cg.tables import AUX_TABLE, DIAGONAL_TABLE, RAISING_TABLES, ChannelTable

# The source the oracle compares at: (1,1/2), dimension 35, twelve channels.
ORACLE_SOURCE = IrrepLabel(2, 1)
# The bound of the exact Gram sweep that every single-row flip must fail.
UNITARITY_BOUND = 4


class Mutation(NamedTuple):
    """Rows to negate: flips(table, entry) is True for each of them."""

    name: str
    flips: Callable[[ChannelTable, EntryShift], bool]


def _entries(*keys: tuple[int, int, object]) -> Mutation:
    """A coordinated flip: the entries (tdj1, tdj2, part) in every table."""
    wanted = {EntryShift(*key) for key in keys}
    name = " ".join(str(e) for e in sorted(wanted, key=str))
    return Mutation(name, lambda table, entry: entry in wanted)


# The seven coordinated flips that keep every table unitary but are wrong.
WRONG_BUT_UNITARY = (
    _entries((0, 0, PART_11)),
    _entries((2, 2, PART_11), (-2, -2, PART_11)),
    _entries((2, -2, PART_11), (-2, 2, PART_11)),
    _entries((2, 0, PART_11), (-2, 0, PART_11)),
    _entries((0, 2, PART_11), (0, -2, PART_11)),
    _entries((1, 1, PART_HH), (-1, -1, PART_HH)),
    _entries((1, -1, PART_HH), (-1, 1, PART_HH)),
)
# The one coordinated flip that is a phase convention.
CONVENTION = _entries((0, 0, PART_00))

# Every table read straight off by bare_value, by name.
TABLES = {**{f"raising {shift}": table
             for shift, table in RAISING_TABLES.items()},
          "diagonal": DIAGONAL_TABLE, "aux": AUX_TABLE}


def _apply(monkeypatch, mutation: Mutation) -> None:
    bare = ChannelTable.bare_value

    def mutated(self, entry, *args):
        value = bare(self, entry, *args)
        return -value if mutation.flips(self, entry) else value

    monkeypatch.setattr(ChannelTable, "bare_value", mutated)


@pytest.mark.parametrize("mutation", WRONG_BUT_UNITARY,
                         ids=[m.name for m in WRONG_BUT_UNITARY])
def test_wrong_but_unitary_flips_fail_the_oracle(monkeypatch, mutation):
    _apply(monkeypatch, mutation)
    # The flip is in the class no exact Gram check can see...
    assert verify.reduced_unitarity(UNITARITY_BOUND) is None
    # ...and the numeric oracle sees it.
    assert not compare(ORACLE_SOURCE).passed


def test_the_convention_flip_passes_every_check(monkeypatch):
    _apply(monkeypatch, CONVENTION)
    assert compare(ORACLE_SOURCE).passed
    assert verify.reduced_unitarity(UNITARITY_BOUND) is None


@pytest.mark.parametrize("name", list(TABLES))
def test_every_single_row_flip_fails_reduced_unitarity(monkeypatch, name):
    # All 14 rows of the table, one at a time: 112 flips over the 6
    # raising tables, the diagonal table and the companion.
    table = TABLES[name]
    escaped = []
    for row in ENTRY_SHIFTS:
        with monkeypatch.context() as patch:
            _apply(patch, Mutation(
                str(row), lambda t, e, row=row: t is table and e == row))
            if verify.reduced_unitarity(UNITARITY_BOUND) is None:
                escaped.append(str(row))
    assert escaped == []


def test_every_table_value_goes_through_bare_value(monkeypatch):
    # Negating every row of every table negates every exported value of
    # every channel: direct, transposed, second copy and companion. A value
    # that bypassed bare_value would escape every mutation above.
    source = IrrepLabel(3, 1)
    channels = channels_present(source)
    assert Channel(0, 0, 2) in channels
    assert any(c.is_lowering for c in channels)
    clean = {c: table_rows(source, c) for c in channels}
    clean_aux = aux_table_rows(source)
    _apply(monkeypatch, Mutation("all rows", lambda table, entry: True))
    for channel, rows in clean.items():
        assert [r.value for r in table_rows(source, channel)] == [
            -r.value for r in rows], channel
    assert [r.value for r in aux_table_rows(source)] == [
        -r.value for r in clean_aux]
