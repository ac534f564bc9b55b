"""Which check catches which error class: one catalogue of table mutations.

Each mutation changes some rows of the closed-form tables by patching
ChannelTable.bare_value, the one per-row evaluation: every direct, copy-2,
companion and transposed (lowering) value goes through it, so a change to a
raising row also changes the lowering rows read off it. Wong's errors are
the model: wrong signs and wrong factors in printed rows.

- A coordinated flip negates one entry, or one entry and its mirror, in
  every table at once. The tables stay unitary, so no exact check sees it;
  the numeric oracle must. The one exception flips the (0,0) part, which
  only changes the phase of the 14's (0,0) block: a convention, which every
  check must pass.
- A single-row flip negates one row of one table. Every one of them breaks
  the reduced Gram identity.
- A factor error rewrites one row's text, as written or as derived: b1 and
  b2 swapped in one linear form, one form's constant off by one, or the row
  scaled by sqrt(2). Each names the checks that fail it; the one the tier-1
  bound misses is pinned as that gap, with the bound that catches it. The
  norm certificate, an identity in the doubled spins, fails every rewrite
  of a normalized table at once.

A check that stops catching its class fails this file.
"""

import json
from typing import Callable, NamedTuple

import pytest
from helpers import norm_certificate

from so5cg import cli, verify
from so5cg._formula import _lins, _pieces
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
from so5cg.tables import (
    AUX_TABLE,
    DIAGONAL_TABLE,
    RAISING_TABLES,
    UNIT,
    ChannelTable,
    RowSpec,
    compose,
)

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


class FactorError(NamedTuple):
    """One row rewritten, the checks that must fail on it, and the
    checks pinned to pass it: a gap, named so that closing it shows."""

    name: str
    table: ChannelTable
    entry: EntryShift
    rewrite: Callable[[RowSpec], RowSpec]
    caught_by: tuple[str, ...]
    missed_by: tuple[str, ...] = ()


def _in_form(field: str, text: str, new: str) -> Callable[[RowSpec], RowSpec]:
    """Replace the linear form text among the row's outer, num or den forms."""
    def rewrite(spec: RowSpec) -> RowSpec:
        forms = _pieces(getattr(spec, field))
        forms[[f.strip() for f in forms].index(text)] = new
        written = ";".join(forms)
        return spec._replace(**{field: written,
                                f"{field}_lins": _lins(written)})
    return rewrite


def _times_sqrt2(spec: RowSpec) -> RowSpec:
    return spec._replace(const=compose(spec.const, (2, 1, 1)))


# Each check takes the table as evaluated and returns a counterexample, or
# None when it passes. The sweeps read the table through bare_value; the
# norm certificate reads its compiled rows.
CHECKS = {
    "reduced_unitarity(4)":
        lambda table: verify.reduced_unitarity(UNITARITY_BOUND),
    "reduced_unitarity(6)": lambda table: verify.reduced_unitarity(6),
    "mixing_identities(4)":
        lambda table: verify.mixing_identities(UNITARITY_BOUND),
    "compare((1,1/2))": lambda table: (None if compare(ORACLE_SOURCE).passed
                                       else "oracle mismatch"),
    "norm_certificate": norm_certificate,
}

FACTOR_ERRORS = (
    FactorError("b1<->b2 in one numerator form", RAISING_TABLES[(2, 2)],
                EntryShift(2, 2, PART_11),
                _in_form("num", "j1+j2+b1-b2+2", "j1+j2-b1+b2+2"),
                ("reduced_unitarity(4)", "norm_certificate")),
    FactorError("numerator constant off by one", DIAGONAL_TABLE,
                EntryShift(1, 1, PART_HH),
                _in_form("num", "j1+j2+b1-b2+2", "j1+j2+b1-b2+3"),
                ("mixing_identities(4)", "norm_certificate")),
    # The companion is not normalized to one: no norm certificate. Copy 2
    # = (aux - x*copy1)/sqrt(norm2) becomes two terms at source (3/2,1/2),
    # which the Gram refuses: a failed check, not a traceback.
    FactorError("row times sqrt(2)", AUX_TABLE, EntryShift(2, 0, PART_11),
                _times_sqrt2, ("reduced_unitarity(4)",
                               "mixing_identities(4)")),
    # Up to 2j1 = 4 this row is nonzero only at source (2,2), where b1 = b2
    # and the swap changes nothing; source (5/2,2) shows it. The row is read
    # off raising (2,2)'s (-1,-1) row by W2: b2 -> -b2-1, that one off its
    # (+1,+1) row by R1R2, and the rewrite is made in its derived text. The
    # norm certificate holds at every spin, so it sees the row at b1 != b2.
    FactorError("b1<->b2 in a row nonzero only at b1 = b2 up to 2j1 = 4",
                RAISING_TABLES[(2, -2)], EntryShift(-2, -2, PART_11),
                _in_form("num", "j1-j2+b1-b2+1", "j1-j2-b1+b2+1"),
                ("reduced_unitarity(6)", "norm_certificate"),
                missed_by=("reduced_unitarity(4)", "compare((1,1/2))")),
)


def _substitute(monkeypatch, table: ChannelTable, spec: RowSpec) -> None:
    """Evaluate spec in place of table's row of spec.key."""
    bare = ChannelTable.bare_value

    def mutated(self, entry, tj1, tj2, tb1, tb2, scale=UNIT, row=None):
        if self is table and entry == spec.key:
            row = spec.bind(tb1, tb2)
        return bare(self, entry, tj1, tj2, tb1, tb2, scale, row)

    monkeypatch.setattr(ChannelTable, "bare_value", mutated)


@pytest.mark.parametrize("error", FACTOR_ERRORS,
                         ids=[e.name for e in FACTOR_ERRORS])
def test_factor_errors_fail_their_check(monkeypatch, error):
    table = error.table
    for check in error.caught_by:
        assert CHECKS[check](table) is None, check
    spec = error.rewrite(table.rows[error.entry])
    bad = table._replace(rows={**table.rows, error.entry: spec})
    _substitute(monkeypatch, table, spec)
    for check in error.caught_by:
        assert CHECKS[check](bad) is not None, check
    for check in error.missed_by:
        assert CHECKS[check](bad) is None, check


def test_a_refused_two_term_value_fails_verify_orthogonality(monkeypatch,
                                                              capsys):
    # Both orthogonality checks reach copy 2 at source (3/2,1/2) with the
    # companion's row times sqrt(2); each reports the refused two-term
    # value as that source's counterexample, and the command exits 1.
    error, = (e for e in FACTOR_ERRORS if e.name == "row times sqrt(2)")
    _substitute(monkeypatch, error.table,
                error.rewrite(error.table.rows[error.entry]))
    assert cli.main(["verify", "orthogonality", "--max-twice-j", "4"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [check["name"] for check in checks] == [
        "reduced_unitarity <= 4", "full_orthogonality <= 4"]
    # The row Gram, which no suite runs, reports it the same way.
    counterexamples = [check["counterexample"] for check in checks
                       if not check["pass"]]
    counterexamples.append(verify.full_row_orthogonality((IrrepLabel(3, 1),)))
    assert len(counterexamples) == 3
    for counterexample in counterexamples:
        assert counterexample.startswith("source 3/2,1/2: ")
        assert "not a single term" in counterexample


def test_reduced_unitarity_names_the_refused_row(monkeypatch):
    # The refused value is named by its channel, target block t and
    # component (2s1, 2s2, 2p): copy 2 into t = (1,1) from source block
    # (0,1) through the 14-part (1,1), the component the companion's
    # rewritten (+1,0) row feeds.
    error, = (e for e in FACTOR_ERRORS if e.name == "row times sqrt(2)")
    _substitute(monkeypatch, error.table,
                error.rewrite(error.table.rows[error.entry]))
    assert verify.reduced_unitarity(UNITARITY_BOUND) == (
        "source 3/2,1/2: channel 0,0#2, t 1,1, (2s1, 2s2, 2p) = (0, 2, 2): "
        "not a single term: ((237, -38, 3555), (474, -1, 90))")
