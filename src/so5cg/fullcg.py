"""Full coupling coefficients and per-source coupling matrices.

A full coefficient is a reduced coefficient times two SU(2) coupling
factors, one per SO(3) slot.  The coupling matrix of a source irrep
collects every full coefficient into a square change of basis from the
product states (source x 14-dim) to the coupled states, on which
orthonormality is asserted exactly.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import gcd, lcm
from typing import (Callable, Hashable, Iterator, Mapping, NamedTuple, Optional,
                    Sequence)

from ._kernel import one_term, over, product_sums, scale_vector
from .errors import MalformedKey
from .exactnum import ZERO, SqrtSum
from .labels import (
    ENTRY_POSITION,
    ENTRY_SHIFTS,
    FOURTEEN,
    SHIFTS_14,
    HalfInt,
    Channel,
    IrrepLabel,
    So4Label,
    branching,
    check_block,
    check_part,
    decompose_with_14,
    dim,
    in_branching,
    m_values,
)
from .reduced import (
    ReducedKey,
    _row_values,
    _vector,
    reduced,
)
from .su2 import su2_cg


class RowState(NamedTuple):
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

    @property
    def sector(self) -> tuple[int, int]:
        """The magnetic sector (2m1 + 2pm1, 2m2 + 2pm2)."""
        return (self.m1.twice + self.pm1.twice, self.m2.twice + self.pm2.twice)

    def __str__(self) -> str:
        return (f"{self.source_so4};{self.m1},{self.m2}|"
                f"{self.part};{self.pm1},{self.pm2}")


class ColState(NamedTuple):
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

    @property
    def sector(self) -> tuple[int, int]:
        """The magnetic sector (2mt1, 2mt2)."""
        return (self.mt1.twice, self.mt2.twice)

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
    check_part(p)
    check_block(source, s, "source")
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
    if col.sector != row.sector:
        return ZERO
    i = ENTRY_POSITION.get((t.tj1 - s.tj1, t.tj2 - s.tj2, p.tj1))
    if i is None:
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
    r = reduced(ReducedKey(source, channel, s, ENTRY_SHIFTS[i]))
    if not r:
        return ZERO
    cg1 = su2_cg(s.tj1, row.m1.twice, p.tj1, row.pm1.twice,
                 t.tj1, col.mt1.twice)
    cg2 = su2_cg(s.tj2, row.m2.twice, p.tj2, row.pm2.twice,
                 t.tj2, col.mt2.twice)
    return r * cg1 * cg2


class Column(dict):
    """One coupled state's column, scaled: each nonzero entry
    (num/den)*sqrt(rad) maps its row index to (rad, num), over the one
    positive int denominator den of the column. rad is square-free and num
    a nonzero int; num/den need not be in lowest terms."""

    __slots__ = ("den",)

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def value(self, i: int) -> SqrtSum:
        """The entry at row index i as a SqrtSum."""
        rad, num = self[i]
        g = gcd(num, self.den)
        return SqrtSum(((rad, num // g, self.den // g),))


# At most six slots per source spin: the bound holds all for 2j1 < 680.
@lru_cache(maxsize=4096)
def _su2_factors(ts: int, tp: int, tt: int) -> tuple[tuple, ...]:
    """Every nonzero <s m, p pm | t mt> = (num/den)*sqrt(rad) of one SO(3)
    slot, pm = mt - m, as (2mt, i, j, rad, num, den), where i and j count m
    and pm up from -s and -p; spins are doubled throughout."""
    out = []
    for tmt in range(-tt, tt + 1, 2):
        for tm in range(-ts, ts + 1, 2):
            tpm = tmt - tm
            if abs(tpm) <= tp:
                cg = su2_cg(ts, tm, tp, tpm, tt, tmt)
                if cg:
                    out.append((tmt, (tm + ts) // 2, (tpm + tp) // 2,
                                *one_term(cg.terms, "an SU(2) factor")))
    return tuple(out)


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


def _block_columns(components, t: So4Label, bases: dict[tuple[int, int], int]
                   ) -> dict[int, dict[int, Column]]:
    """The columns of every coupled state of target block t, keyed by their
    doubled magnetic labels, 2mt1 then 2mt2.

    components holds the block's nonzero reduced values as (2s1, 2s2, 2p,
    (rad, num, den)), the source block and the 14-part's spin (both of its
    spins are p) doubled. Each entry is r * cg1 * cg2, multiplied on ints
    over one denominator for the whole block: the product of the lcms of
    the reduced values' denominators and of the left and right SU(2)
    factors' denominators. Each column is then divided down to its least
    denominator. bases maps each source block to the index of its first
    row.
    """
    tt1, tt2 = t.twice
    slots = []
    den_r = den1 = den2 = 1
    for ts1, ts2, tp, r in components:
        left, right = _su2_factors(ts1, tp, tt1), _su2_factors(ts2, tp, tt2)
        den_r = lcm(den_r, r[2])
        den1 = lcm(den1, *(f[5] for f in left))
        den2 = lcm(den2, *(f[5] for f in right))
        slots.append((ts1, ts2, tp, r, left, right))
    den = den_r * den1 * den2
    columns = {tmt1: {tmt2: Column(den) for tmt2 in range(-tt2, tt2 + 1, 2)}
               for tmt1 in range(-tt1, tt1 + 1, 2)}
    for ts1, ts2, tp, (rad, num, d), left, right in slots:
        num *= den_r // d
        right = [(tmt2, i2 * 14 + j2, r2, n2 * (den2 // d2))
                 for tmt2, i2, j2, r2, n2, d2 in right]
        # Row of (s; m1, m2 | p; pm1, pm2): the start of block s, 14 rows
        # per (m1, m2) state, then the start of part p and (pm1, pm2) in it.
        base = bases[(ts1, ts2)] + _PART_STARTS[(tp, tp)]
        for tmt1, i1, j1, r1, n1, d1 in left:
            g = gcd(rad, r1)
            rad1 = (rad // g) * (r1 // g)
            num1 = num * n1 * (den1 // d1) * g
            first = base + i1 * (ts2 + 1) * 14 + j1 * (tp + 1)
            by_mt2 = columns[tmt1]
            for tmt2, offset, r2, n2 in right:
                g = gcd(rad1, r2)
                by_mt2[tmt2][first + offset] = ((rad1 // g) * (r2 // g),
                                                num1 * n2 * g)
    # Each column over its least denominator: the Gram's products stay
    # small ints.
    for by_mt2 in columns.values():
        for column in by_mt2.values():
            g = gcd(den, *(num for _, num in column.values()))
            if g > 1:
                column.den = den // g
                for i, (rad, num) in column.items():
                    column[i] = (rad, num // g)
    return columns


class CouplingMatrix(NamedTuple):
    """The full change of basis for one source irrep, stored column-sparse.

    Each column is a Column: its row indices into ``rows``, each with the
    scaled entry of that row. ``columns`` is keyed by ``cols`` in order, so
    its values are the columns by index (ordered_columns).
    """

    source: IrrepLabel
    rows: tuple[RowState, ...]
    cols: tuple[ColState, ...]
    columns: dict[ColState, Column]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.cols))

    def ordered_columns(self) -> list[Column]:
        """The columns by index; ValueError unless keyed by cols in order."""
        if list(self.columns) != list(self.cols):
            raise ValueError("the columns are not keyed by cols in order")
        return list(self.columns.values())

    def iter_entries(self) -> Iterator[tuple[int, int, SqrtSum]]:
        """Nonzero entries as (row index, col index, value), row-major; each
        value is built as it is yielded."""
        columns = self.ordered_columns()
        n = len(columns)
        # (i, j) sorted as the one int i * n + j, with 0 <= j < n.
        for k in sorted(i * n + j for j, column in enumerate(columns)
                        for i in column):
            i, j = divmod(k, n)
            yield i, j, columns[j].value(i)

    def to_csv_rows(self) -> Iterator[list[str]]:
        header = ["s_tj1", "s_tj2", "tm1", "tm2", "p_tj1", "p_tj2",
                  "tpm1", "tpm2", "target_tj1", "target_tj2", "copy",
                  "t_tj1", "t_tj2", "tmt1", "tmt2", "value"]
        yield header
        for i, j, v in self.iter_entries():
            yield [str(x) for x in (self.rows[i].sort_key()
                                    + self.cols[j].sort_key())] + [format(v)]


@lru_cache(maxsize=4096)
def _states(block: So4Label) -> tuple[tuple[HalfInt, HalfInt], ...]:
    """The (m1, m2) magnetic labels of one SO(4) block, in increasing order."""
    m2s = m_values(HalfInt(block.tj2))
    return tuple((m1, m2) for m1 in m_values(HalfInt(block.tj1)) for m2 in m2s)


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

    One evaluator per (target, copy) gives each target block's reduced
    vector once; its columns then differ only in their magnetic labels.
    """
    rows = product_rows(source)
    cols = coupled_cols(source)
    if len(cols) != 14 * dim(source) or len(rows) != len(cols):
        raise AssertionError(
            f"dimension audit failed for {source}: {len(rows)} rows, "
            f"{len(cols)} columns, 14 * dim = {14 * dim(source)}")
    bases = _block_starts(source, 14)
    columns: dict[ColState, Column] = {}
    for (target, copy), channel_cols in groupby(
            cols, key=lambda col: (col.target, col.copy)):
        value = _row_values(source, Channel(target.tj1 - source.tj1,
                                            target.tj2 - source.tj2, copy))
        for t, block in groupby(channel_cols, key=lambda col: col.target_so4):
            components = [(*key, one_term(r.terms, "a reduced value"))
                          for key, r
                          in _vector(value, source, t.tj1, t.tj2).items()
                          if r]
            vectors = _block_columns(components, t, bases)
            for col in block:
                columns[col] = vectors[col.mt1.twice][col.mt2.twice]
    return CouplingMatrix(source, rows, cols, columns)


def _first_deviation(labels: Sequence, scaled: Callable[[int], tuple],
                     sector: Callable[..., Hashable]):
    """First (label, label, value) where the exact Gram of the scaled
    vectors differs from identity, or None.

    scaled(k) is vector k as (D, {key: (rad, num)}): each entry
    (num/D)*sqrt(rad) a single term over one common denominator D, as
    _kernel.scale_vector gives. Vectors in different sectors share no
    components, so only same-sector pairs (a, b), a <= b, are examined,
    sector by sector, in row-major order. A norm is rational, sum(n*n*r)
    over D_a**2, and is compared with D_a**2 on ints. Off the diagonal,
    row a's products are summed on ints keyed by their square-free
    radicands in one call (_kernel.product_sums), so a pair is exactly 0
    when every sum is 0. Only a deviation is turned back into a SqrtSum.
    """
    sectors: dict[Hashable, list[int]] = {}
    for k, label in enumerate(labels):
        sectors.setdefault(sector(label), []).append(k)
    for _, group in sorted(sectors.items()):
        dens, vectors = zip(*[scaled(k) for k in group])
        for a, va in enumerate(vectors):
            da = dens[a]
            norm = sum([n * n * r for r, n in va.values()])
            if norm != da * da:
                return (labels[group[a]], labels[group[a]],
                        SqrtSum(over({1: norm}, da * da)))
            for b, acc in enumerate(product_sums(va, vectors[a + 1:]), a + 1):
                if any(acc.values()):
                    return (labels[group[a]], labels[group[b]],
                            SqrtSum(over(acc, da * dens[b])))
    return None


class RefusedEntry(ValueError):
    """An entry of more than one term, which an inner product refuses."""

    def __init__(self, label, key, terms):
        super().__init__(f"{label}, entry {key}: not a single term: {terms}")
        self.label, self.key, self.terms = label, key, terms


def gram_deviation(labels: Sequence, vectors: Sequence[Mapping],
                   sector: Callable[..., Hashable]):
    """First (label, label, value) where the exact Gram of the vectors
    differs from identity, or None. Each vector maps component keys to
    SqrtSums, each a single term or 0, and is scaled once when its sector
    is reached (_kernel.scale_vector); the Grams are then taken as for
    coupling matrix columns (_first_deviation). An entry of more terms
    raises RefusedEntry naming the vector's label and the entry's key."""
    def scaled(k):
        vector = {i: value.terms for i, value in vectors[k].items()}
        try:
            return scale_vector(vector)
        except ValueError:
            key = next(i for i, terms in vector.items() if len(terms) > 1)
            raise RefusedEntry(labels[k], key, vector[key]) from None
    return _first_deviation(labels, scaled, sector)


class EntryOutsideMatrix(ValueError):
    """A column of a matrix holds an entry at a row index outside it."""

    def __init__(self, column, index: int, size: int):
        super().__init__(f"column {column} has an entry at row index "
                         f"{index}, outside the {size} rows")
        self.column, self.index, self.size = column, index, size


def transpose(columns: Sequence[Mapping], size: int) -> list[dict]:
    """The size rows of a column-sparse matrix, keyed by column index.

    An entry at a row index outside range(size) raises EntryOutsideMatrix
    with the column's index: neither one past the end nor a negative one is
    filed under a row.
    """
    rows: list[dict] = [{} for _ in range(size)]
    for j, column in enumerate(columns):
        for i, value in column.items():
            if not 0 <= i < size:
                raise EntryOutsideMatrix(j, i, size)
            rows[i][j] = value
    return rows


def column_gram_deviation(matrix: CouplingMatrix
                          ) -> Optional[tuple[ColState, ColState, SqrtSum]]:
    """First (col, col, value) where the exact Gram differs from identity.

    Columns are grouped by magnetic sector and read as they are assembled
    (CouplingMatrix.ordered_columns), each over its denominator. None means
    exact orthonormality when every entry of a column sits in a row of the
    column's sector, which verify.full_orthogonality audits first.
    """
    columns = matrix.ordered_columns()
    return _first_deviation(matrix.cols,
                            lambda k: (columns[k].den, columns[k]),
                            lambda col: col.sector)


def row_gram_deviation(matrix: CouplingMatrix
                       ) -> Optional[tuple[RowState, RowState, SqrtSum]]:
    """Row-side analogue of column_gram_deviation (completeness check).

    Each row is scaled on ints (_kernel.scale_vector) from its columns'
    (rad, num, den). A column entry outside the matrix's rows raises
    EntryOutsideMatrix naming the column's ColState and the row index.
    """
    columns = matrix.ordered_columns()
    try:
        rows = transpose(columns, len(matrix.rows))
    except EntryOutsideMatrix as exc:
        raise EntryOutsideMatrix(matrix.cols[exc.column], exc.index,
                                 exc.size) from None
    return _first_deviation(
        matrix.rows,
        lambda i: scale_vector({j: ((rad, num, columns[j].den),)
                                for j, (rad, num) in rows[i].items()}),
        lambda row: row.sector)
