"""Full coupling coefficients and per-source coupling matrices.

A full coefficient is a reduced coefficient times two SU(2) coupling
factors, one per SO(3) slot.  The coupling matrix of a source irrep
collects every full coefficient into a square change of basis from the
product states (source x 14-dim) to the coupled states, on which
orthonormality is asserted exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Hashable, Iterator, Mapping, Optional, Sequence

from ._kernel import dot_scaled, mul_terms, over, scale_vector
from .errors import MalformedKey
from .exactnum import ZERO, SqrtSum
from .labels import (
    ENTRY_BY_TWICE,
    FOURTEEN,
    PARTS_14,
    SHIFTS_14,
    HalfInt,
    Channel,
    IrrepLabel,
    So4Label,
    branching,
    decompose_with_14,
    dim,
    in_branching,
    m_values,
)
from .reduced import (
    ReducedKey,
    check_source_block,
    reduced,
    reduced_vector,
)
from .su2 import su2_cg


@dataclass(frozen=True)
class RowState:
    """One product-basis state: a source state paired with a 14-dim state."""

    source_so4: So4Label
    m1: HalfInt
    m2: HalfInt
    part: So4Label
    pm1: HalfInt
    pm2: HalfInt

    def sort_key(self) -> tuple[int, ...]:
        return (self.source_so4.tj1, self.source_so4.tj2,
                self.m1.twice, self.m2.twice,
                self.part.tj1, self.part.tj2,
                self.pm1.twice, self.pm2.twice)

    def __str__(self) -> str:
        return (f"{self.source_so4};{self.m1},{self.m2}|"
                f"{self.part};{self.pm1},{self.pm2}")


@dataclass(frozen=True)
class ColState:
    """One coupled state: target irrep, copy, target SO(4) block, magnetics."""

    target: IrrepLabel
    copy: int
    target_so4: So4Label
    mt1: HalfInt
    mt2: HalfInt

    def sort_key(self) -> tuple[int, ...]:
        return (self.target.tj1, self.target.tj2, self.copy,
                self.target_so4.tj1, self.target_so4.tj2,
                self.mt1.twice, self.mt2.twice)

    def __str__(self) -> str:
        return f"{self.target}#{self.copy};{self.target_so4};{self.mt1},{self.mt2}"


def _check_magnetic(tj: int, m: HalfInt, what: str) -> None:
    if abs(m.twice) > tj or (m.twice - tj) % 2 != 0:
        raise MalformedKey(
            f"magnetic label {m} invalid for {what} spin {HalfInt(tj)}")


def check_row(source: IrrepLabel, row: RowState) -> None:
    """MalformedKey unless row is a product state of source: its part a
    14-dim block, its source block in the branching, its magnetic labels
    valid for both blocks."""
    s, p = row.source_so4, row.part
    if p not in PARTS_14:
        raise MalformedKey(f"part must be a 14-dim block, got {p}")
    check_source_block(source, s)
    _check_magnetic(s.tj1, row.m1, "source")
    _check_magnetic(s.tj2, row.m2, "source")
    _check_magnetic(p.tj1, row.pm1, "part")
    _check_magnetic(p.tj2, row.pm2, "part")


def full(source: IrrepLabel, row: RowState, col: ColState) -> SqrtSum:
    """Exact full coefficient, the entry of coupling_matrix(source) at
    (row, col): reduced value times two SU(2) factors."""
    s, p, t = row.source_so4, row.part, col.target_so4
    check_row(source, row)
    _check_magnetic(t.tj1, col.mt1, "target")
    _check_magnetic(t.tj2, col.mt2, "target")
    if (col.mt1.twice != row.m1.twice + row.pm1.twice
            or col.mt2.twice != row.m2.twice + row.pm2.twice):
        return ZERO
    entry = ENTRY_BY_TWICE.get((t.tj1 - s.tj1, t.tj2 - s.tj2, p.tj1))
    if entry is None:
        return ZERO
    shift = (col.target.tj1 - source.tj1, col.target.tj2 - source.tj2)
    if shift not in SHIFTS_14:
        return ZERO
    channel = Channel(*shift, col.copy)
    if channel.copy == 1 and not in_branching(col.target, t):
        # Copy 1 keeps its order here: a block outside the target's
        # branching is 0 before the channel's absence is decided, whereas
        # reduced() decides absence first.
        return ZERO
    r = reduced(ReducedKey(source, channel, s, entry))
    if not r:
        return ZERO
    cg1 = su2_cg(s.tj1, row.m1.twice, p.tj1, row.pm1.twice,
                 t.tj1, col.mt1.twice)
    cg2 = su2_cg(s.tj2, row.m2.twice, p.tj2, row.pm2.twice,
                 t.tj2, col.mt2.twice)
    return r * cg1 * cg2


Column = dict[int, SqrtSum]


def _su2_factors(ts: int, tp: int, tt: int) -> list[tuple[int, int, int, tuple]]:
    """Every nonzero <s m, p pm | t mt> of one SO(3) slot, pm = mt - m, as
    (2mt, i, j, terms), where i and j count m and pm up from -s and -p;
    spins are doubled throughout."""
    out = []
    for tmt in range(-tt, tt + 1, 2):
        for tm in range(-ts, ts + 1, 2):
            tpm = tmt - tm
            if abs(tpm) <= tp:
                cg = su2_cg(ts, tm, tp, tpm, tt, tmt)
                if cg:
                    out.append((tmt, (tm + ts) // 2, (tpm + tp) // 2,
                                cg.terms))
    return out


def _block_starts(label: IrrepLabel, size: int) -> dict[tuple[int, int], int]:
    """Index of the first state of each SO(4) block of label, keyed by its
    doubled spins, when the blocks follow in branching order and block
    (j1, j2) holds size * (2j1 + 1) * (2j2 + 1) states."""
    starts = {}
    first = 0
    for block in branching(label):
        starts[block.twice] = first
        first += size * (block.tj1 + 1) * (block.tj2 + 1)
    return starts


# Where each 14-part's states start among the 14 product states that share
# one source state, in product_rows order.
_PART_STARTS = _block_starts(FOURTEEN, 1)


def _block_columns(components, t: So4Label, bases: dict[tuple[int, int], int],
                   factors: dict[tuple[int, int, int], list]
                   ) -> dict[int, dict[int, Column]]:
    """The columns of every coupled state of target block t, keyed by their
    doubled magnetic labels, 2mt1 then 2mt2; each column maps a row index to
    its nonzero value.

    components holds the block's nonzero reduced values as (2s1, 2s2, 2p1,
    2p2, terms); each entry is r * cg1 * cg2 on term lists. bases maps each
    source block to the index of its first row, and factors memoizes
    _su2_factors.
    """
    tt1, tt2 = t.twice
    columns = {tmt1: {tmt2: {} for tmt2 in range(-tt2, tt2 + 1, 2)}
               for tmt1 in range(-tt1, tt1 + 1, 2)}
    for ts1, ts2, tp1, tp2, r in components:
        left = factors.get((ts1, tp1, tt1))
        if left is None:
            left = factors[(ts1, tp1, tt1)] = _su2_factors(ts1, tp1, tt1)
        right = factors.get((ts2, tp2, tt2))
        if right is None:
            right = factors[(ts2, tp2, tt2)] = _su2_factors(ts2, tp2, tt2)
        # Row of (s; m1, m2 | p; pm1, pm2): the start of block s, 14 rows
        # per (m1, m2) state, then the start of part p and (pm1, pm2) in it.
        base = bases[(ts1, ts2)] + _PART_STARTS[(tp1, tp2)]
        for tmt1, i1, j1, cg1 in left:
            rc1 = mul_terms(r, cg1)
            first = base + i1 * (ts2 + 1) * 14 + j1 * (tp2 + 1)
            by_mt2 = columns[tmt1]
            for tmt2, i2, j2, cg2 in right:
                by_mt2[tmt2][first + i2 * 14 + j2] = SqrtSum(
                    mul_terms(rc1, cg2))
    return columns


@dataclass(frozen=True)
class CouplingMatrix:
    """The full change of basis for one source irrep, stored column-sparse.

    Each column maps a row index into ``rows`` to its nonzero value.
    """

    source: IrrepLabel
    rows: tuple[RowState, ...]
    cols: tuple[ColState, ...]
    columns: dict[ColState, Column]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def iter_entries(self) -> Iterator[tuple[int, int, SqrtSum]]:
        """Nonzero entries as (row index, col index, value), row-major."""
        triplets = []
        for j, col in enumerate(self.cols):
            for i, value in self.columns[col].items():
                triplets.append((i, j, value))
        triplets.sort(key=lambda t: (t[0], t[1]))
        yield from triplets

    def to_csv_rows(self) -> Iterator[list[str]]:
        header = ["s_tj1", "s_tj2", "tm1", "tm2", "p_tj1", "p_tj2",
                  "tpm1", "tpm2", "target_tj1", "target_tj2", "copy",
                  "t_tj1", "t_tj2", "tmt1", "tmt2", "value"]
        yield header
        for i, j, v in self.iter_entries():
            yield [str(x) for x in (self.rows[i].sort_key()
                                    + self.cols[j].sort_key())] + [format(v)]


def _states(block: So4Label) -> list[tuple[HalfInt, HalfInt]]:
    """The (m1, m2) magnetic labels of one SO(4) block, in increasing order."""
    m2s = m_values(HalfInt(block.tj2))
    return [(m1, m2) for m1 in m_values(HalfInt(block.tj1)) for m2 in m2s]


def product_rows(source: IrrepLabel) -> tuple[RowState, ...]:
    """Every product-basis state, in lexicographic order."""
    parts = [(p, pm1, pm2) for p in branching(FOURTEEN)
             for pm1, pm2 in _states(p)]
    return tuple(RowState(s, m1, m2, p, pm1, pm2)
                 for s in branching(source) for m1, m2 in _states(s)
                 for p, pm1, pm2 in parts)


def coupled_cols(source: IrrepLabel) -> tuple[ColState, ...]:
    """Every coupled state over all present channels, in lexicographic order."""
    return tuple(ColState(block.target, copy, t, mt1, mt2)
                 for block in decompose_with_14(source)
                 for copy in range(1, block.multiplicity + 1)
                 for t in branching(block.target)
                 for mt1, mt2 in _states(t))


def coupling_matrix(source: IrrepLabel) -> CouplingMatrix:
    """Assemble the full coupling matrix; always square by the dimension audit.

    The reduced vector is evaluated once per (target, copy, target block);
    its columns then differ only in their magnetic labels.
    """
    rows = product_rows(source)
    cols = coupled_cols(source)
    if len(cols) != 14 * dim(source) or len(rows) != len(cols):
        raise AssertionError(
            f"dimension audit failed for {source}: {len(rows)} rows, "
            f"{len(cols)} columns, 14 * dim = {14 * dim(source)}")
    bases = _block_starts(source, 14)
    factors: dict[tuple[int, int, int], list] = {}
    columns: dict[ColState, Column] = {}
    for (target, copy, t), block in groupby(
            cols, key=lambda col: (col.target, col.copy, col.target_so4)):
        channel = Channel(target.tj1 - source.tj1, target.tj2 - source.tj2,
                          copy)
        components = [(*s.twice, *p.twice, r.terms)
                      for (s, p), r in reduced_vector(source, channel,
                                                      t).items() if r]
        vectors = _block_columns(components, t, bases, factors)
        for col in block:
            columns[col] = vectors[col.mt1.twice][col.mt2.twice]
    return CouplingMatrix(source, rows, cols, columns)


def gram_deviation(labels: Sequence, vectors: Sequence[Mapping],
                   sector: Callable[..., Hashable]):
    """First (label, label, value) where the exact Gram of the vectors
    differs from identity, or None.

    Each vector maps component keys to SqrtSums. Vectors in different
    sectors share no components, so only same-sector pairs (a, b), a <= b,
    are examined, sector by sector. A sector's vectors are scaled once, to
    integer numerators over a common denominator D (_kernel.scale_vector);
    each Gram entry is then summed on ints (_kernel.dot_scaled) and compared
    with D_a * D_b on the diagonal and 0 off it. Only a deviation is turned
    back into a SqrtSum.
    """
    sectors: dict[Hashable, list[int]] = {}
    for k, label in enumerate(labels):
        sectors.setdefault(sector(label), []).append(k)
    for _, group in sorted(sectors.items()):
        scaled = [scale_vector({i: value.terms
                                for i, value in vectors[k].items()})
                  for k in group]
        for a, (da, la) in enumerate(scaled):
            for b in range(a, len(group)):
                db, lb = scaled[b]
                acc = dot_scaled(la, lb)
                if acc != ({1: da * db} if a == b else {}):
                    return (labels[group[a]], labels[group[b]],
                            SqrtSum(over(acc, da * db)))
    return None


def transpose(columns: Sequence[Column], size: int) -> list[Column]:
    """The size rows of a column-sparse matrix, keyed by column index."""
    rows: list[Column] = [{} for _ in range(size)]
    for j, column in enumerate(columns):
        for i, value in column.items():
            rows[i][j] = value
    return rows


def column_gram_deviation(matrix: CouplingMatrix
                          ) -> Optional[tuple[ColState, ColState, SqrtSum]]:
    """First (col, col, value) where the exact Gram differs from identity.

    Columns are grouped by total magnetic charge; None means exact
    orthonormality.
    """
    return gram_deviation(matrix.cols,
                          [matrix.columns[col] for col in matrix.cols],
                          lambda col: (col.mt1.twice, col.mt2.twice))


def row_gram_deviation(matrix: CouplingMatrix
                       ) -> Optional[tuple[RowState, RowState, SqrtSum]]:
    """Row-side analogue of column_gram_deviation (completeness check)."""
    columns = [matrix.columns[col] for col in matrix.cols]
    return gram_deviation(matrix.rows, transpose(columns, len(matrix.rows)),
                          lambda row: (row.m1.twice + row.pm1.twice,
                                       row.m2.twice + row.pm2.twice))
