"""Full coefficients and per-source coupling matrices."""

import gc
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import column_values, scaled_column

from so5cg import verify
from so5cg.errors import MalformedKey
from so5cg.exactnum import ONE, ZERO, SqrtSum, sqrt_rational
from so5cg.fullcg import (
    ColState,
    CouplingMatrix,
    EntryOutsideMatrix,
    RefusedEntry,
    RowState,
    _states,
    check_row,
    column_gram_deviation,
    coupled_cols,
    coupling_matrix,
    full,
    gram_deviation,
    product_rows,
    row_gram_deviation,
    transpose,
)
from so5cg.labels import (
    Channel,
    HalfInt,
    IrrepLabel,
    PART_11,
    PART_HH,
    So4Label,
    dim,
    iter_labels,
)
from so5cg.oracle import DEFAULT_CAP

H = HalfInt


TRIVIAL = IrrepLabel(0, 0)


def trivial_row(tdm1: int, tdm2: int) -> RowState:
    return RowState(So4Label(0, 0), H(0), H(0), PART_11, H(tdm1), H(tdm2))


def fourteen_col(tdm1: int, tdm2: int) -> ColState:
    return ColState(IrrepLabel(2, 2), 1, So4Label(2, 2), H(tdm1), H(tdm2))


def test_trivial_source_embeds_each_14_state():
    for tdm1, tdm2 in ((2, 2), (0, -2), (-2, 2)):
        assert full(TRIVIAL, trivial_row(tdm1, tdm2),
                    fourteen_col(tdm1, tdm2)) == ONE


def test_m_conservation_zero():
    assert full(TRIVIAL, trivial_row(2, 2), fourteen_col(2, 0)) == ZERO


def test_magnetic_validation():
    with pytest.raises(MalformedKey):
        full(TRIVIAL, trivial_row(2, 2), fourteen_col(4, 0))


@pytest.mark.parametrize("part", [So4Label(1, 0), So4Label(4, 4)],
                         ids=["1/2,0", "2,2"])
def test_row_part_is_checked_by_the_labels_14_part_rule(part):
    # check_row and EntryShift share labels.check_part: one message.
    row = RowState(So4Label(0, 0), H(0), H(0), part, H(0), H(0))
    with pytest.raises(MalformedKey) as exc:
        check_row(TRIVIAL, row)
    assert str(exc.value) == f"not a 14-part: {part}"


def test_source_block_is_checked_before_any_zero():
    # (1,1) is no block of the trivial source: the key is malformed even
    # where m-conservation alone would make it 0.
    row = RowState(So4Label(2, 2), H(0), H(0), PART_11, H(2), H(2))
    with pytest.raises(MalformedKey, match="not a block of source 0,0"):
        full(TRIVIAL, row, ColState(IrrepLabel(2, 2), 1, So4Label(4, 4),
                                    H(0), H(0)))


def test_full_factorizes_reduced_times_su2():
    from so5cg.reduced import ReducedKey, reduced
    from so5cg.labels import EntryShift
    from so5cg.su2 import su2_cg
    src = IrrepLabel(1, 0)
    row = RowState(So4Label(1, 0), H(1), H(0), PART_HH, H(1), H(1))
    col = ColState(IrrepLabel(2, 1), 1, So4Label(2, 1), H(2), H(1))
    r = reduced(ReducedKey(src, Channel(1, 1), So4Label(1, 0),
                           EntryShift(1, 1, PART_HH)))
    expected = r * su2_cg(1, 1, 1, 1, 2, 2) * su2_cg(0, 0, 1, 1, 1, 1)
    assert full(src, row, col) == expected
    assert expected == sqrt_rational(Fraction(1, 7))


@pytest.mark.parametrize("twice", [(1, 0), (2, 2), (3, 1), (2, 1)])
def test_full_is_the_coupling_matrix_entry(twice):
    # (3/2,1/2) has a second diagonal copy and every lowering channel; the
    # blocks of (1,1/2) differ in size and in j1 - j2, so the row index
    # strides are checked too.
    src = IrrepLabel(*twice)
    matrix = coupling_matrix(src)
    sectors = {}
    for i, row in enumerate(matrix.rows):
        sectors.setdefault((row.m1.twice + row.pm1.twice,
                            row.m2.twice + row.pm2.twice), []).append(i)
    for col in matrix.cols:
        column = matrix.columns[col]
        for i in sectors[(col.mt1.twice, col.mt2.twice)]:
            want = column.value(i) if i in column else 0
            assert full(src, matrix.rows[i], col) == want, (
                matrix.rows[i], col)


def test_trivial_coupling_matrix_is_signed_permutation():
    matrix = coupling_matrix(IrrepLabel(0, 0))
    assert matrix.shape == (14, 14)
    nonzero = list(matrix.iter_entries())
    assert len(nonzero) == 14
    assert {str(v) for _, _, v in nonzero} <= {"1", "-1"}
    rows = {i for i, _, _ in nonzero}
    cols = {j for _, j, _ in nonzero}
    assert len(rows) == 14 and len(cols) == 14
    assert column_gram_deviation(matrix) is None
    assert row_gram_deviation(matrix) is None


def test_coupling_matrix_1_1_block_structure():
    matrix = coupling_matrix(IrrepLabel(2, 2))
    assert matrix.shape == (196, 196)
    targets = {c.target.twice for c in matrix.cols}
    assert targets == {(0, 0), (2, 0), (2, 2), (4, 0), (4, 2), (4, 4)}
    assert column_gram_deviation(matrix) is None


def test_coupling_matrix_half_0_exact_unitary_both_ways():
    matrix = coupling_matrix(IrrepLabel(1, 0))
    assert matrix.shape == (56, 56)
    assert column_gram_deviation(matrix) is None
    assert row_gram_deviation(matrix) is None


def test_dimension_audit():
    for twice in ((0, 0), (1, 1), (2, 0), (3, 1)):
        src = IrrepLabel(*twice)
        matrix = coupling_matrix(src)
        assert matrix.shape == (14 * dim(src), 14 * dim(src))


def test_matrix_export_shapes():
    matrix = coupling_matrix(IrrepLabel(1, 0))
    csv_rows = list(matrix.to_csv_rows())
    assert csv_rows[0][-1] == "value"
    assert len(csv_rows) == 1 + sum(1 for _ in matrix.iter_entries())


def test_row_order_is_lexicographic():
    # product_rows and coupled_cols build their states in sort_key order,
    # copy 2 at (3/2,1/2) and side 770 at (2,2) included, and
    # coupling_matrix keys its columns by cols in that order, as the Gram
    # and iter_entries read them by index.
    for source in iter_labels(4):
        keys = [r.sort_key() for r in product_rows(source)]
        assert keys == sorted(keys), source
        ckeys = [c.sort_key() for c in coupled_cols(source)]
        assert ckeys == sorted(ckeys), source
        matrix = coupling_matrix(source)
        assert list(matrix.columns) == list(matrix.cols), source


def test_gram_deviation_reports_labels_and_exact_value():
    matrix = coupling_matrix(IrrepLabel(1, 0))
    col = max(matrix.cols, key=lambda c: len(matrix.columns[c]))
    column = column_values(matrix.columns[col])
    columns = dict(matrix.columns)
    columns[col] = scaled_column({i: 2 * v for i, v in column.items()})
    doubled = CouplingMatrix(matrix.source, matrix.rows, matrix.cols, columns)
    # Doubling one column leaves every pair orthogonal and its norm 4.
    assert column_gram_deviation(doubled) == (col, col, 4)
    # Row-side, the rows of that column gain 3 * v_i * v_j; the first one
    # examined is the column's lowest row index, paired with itself.
    i = min(column)
    row = matrix.rows[i]
    v2 = column[i] * column[i]
    assert v2 != 1
    assert isinstance(row, RowState)
    assert row_gram_deviation(doubled) == (row, row, 1 + 3 * v2)


def test_a_column_with_a_wrong_norm_is_reported_on_the_diagonal():
    # The first column of a sector is examined against itself before any
    # pair; a column's entries are single terms, so its norm is the
    # rational closed form.
    matrix = coupling_matrix(IrrepLabel(1, 0))
    firsts = {}
    for col in matrix.cols:
        firsts.setdefault(col.sector, col)
    col = max(firsts.values(), key=lambda c: len(matrix.columns[c]))
    column = column_values(matrix.columns[col])
    assert len(column) > 1
    i = min(column)
    v = column[i]
    column[i] = v * Fraction(3, 2)
    columns = dict(matrix.columns)
    columns[col] = scaled_column(column)
    bad = CouplingMatrix(matrix.source, matrix.rows, matrix.cols, columns)
    norm = 1 + Fraction(5, 4) * v * v
    assert norm.is_rational() and norm != 1
    assert column_gram_deviation(bad) == (col, col, norm)


def cancelling_pair(sign):
    """Two unit vectors whose products sqrt(6)*sqrt(10) = 2*sqrt(15) and
    sqrt(15)*1 come from different radicands and land on one: they cancel
    when sign is -1."""
    a = {0: sqrt_rational(Fraction(6, 25)), 1: sqrt_rational(Fraction(15, 25)),
         2: ONE * Fraction(2, 5)}
    b = {0: sqrt_rational(Fraction(10, 25)), 1: ONE * Fraction(2 * sign, 5),
         3: sqrt_rational(Fraction(11, 25))}
    return a, b


def test_a_pair_that_cancels_across_radicands_is_orthogonal():
    assert gram_deviation("ab", cancelling_pair(-1), lambda label: 0) is None
    assert gram_deviation("ab", cancelling_pair(1), lambda label: 0) == (
        "a", "b", sqrt_rational(Fraction(16 * 15, 625)))


def test_gram_deviation_names_a_refused_entry():
    # An entry of two terms is refused, named by its vector's label and its
    # component key, not cut short to one term.
    two = SqrtSum(((2, 1, 3), (3, -1, 2)))
    with pytest.raises(RefusedEntry) as caught:
        gram_deviation("ab", [{0: ONE}, {0: ZERO, (1, 2): two}],
                       lambda label: 0)
    assert (caught.value.label, caught.value.key) == ("b", (1, 2))
    assert caught.value.terms == two.terms
    assert str(caught.value) == (
        "b, entry (1, 2): not a single term: ((2, 1, 3), (3, -1, 2))")


def test_columns_out_of_order_are_refused(monkeypatch):
    # Reading a reordered dict by index would pair each column with
    # another's label; every reader refuses it instead, and the full
    # orthogonality check reports it as the source's fault.
    src = IrrepLabel(2, 0)
    matrix = coupling_matrix(src)
    reordered = matrix._replace(
        columns=dict(reversed(list(matrix.columns.items()))))
    for read in (column_gram_deviation, row_gram_deviation,
                 lambda m: list(m.iter_entries())):
        with pytest.raises(ValueError, match="not keyed by cols in order"):
            read(reordered)
    monkeypatch.setattr(verify, "coupling_matrix", lambda source: reordered)
    assert verify.full_orthogonality((src,)) == (
        "source 1,0: the columns are not keyed by cols in order")


def test_magnetic_states_are_built_once_per_block():
    block = So4Label(3, 1)
    states = _states(block)
    assert isinstance(states, tuple) and len(states) == 8
    assert _states(So4Label(3, 1)) is states


@pytest.mark.parametrize("twice", [(5, 1), (5, 3), (5, 5)])
def test_exact_orthonormality_above_the_oracle_cap(twice):
    # The numeric oracle stops at dimension 64; the exact column and row
    # Gram checks carry orthonormality past it.
    src = IrrepLabel(*twice)
    assert dim(src) > DEFAULT_CAP
    matrix = coupling_matrix(src)
    assert column_gram_deviation(matrix) is None
    assert row_gram_deviation(matrix) is None


def reference_gram(labels, vectors, sector):
    """gram_deviation on SqrtSum ring operations: each same-sector pair
    (a, b), a <= b, summed product by product, sectors in sorted order."""
    sectors = {}
    for k, label in enumerate(labels):
        sectors.setdefault(sector(label), []).append(k)
    for _, group in sorted(sectors.items()):
        for a, ka in enumerate(group):
            for kb in group[a:]:
                va, vb = vectors[ka], vectors[kb]
                value = ZERO
                for i, x in va.items():
                    if i in vb:
                        value = value + x * vb[i]
                if value != (ONE if ka == kb else ZERO):
                    return labels[ka], labels[kb], value
    return None


def corrupted(matrix, how):
    """The matrix's columns as SqrtSum maps, in column order, with one entry
    of its middle column changed."""
    columns = [column_values(matrix.columns[col]) for col in matrix.cols]
    column = columns[len(columns) // 2]
    i = sorted(column)[len(column) // 2]
    v = column[i]
    if how == "sign flip":
        column[i] = -v
    elif how == "dropped entry":
        del column[i]
    elif how == "scaled entry":
        column[i] = v * Fraction(3, 2)
    else:
        column[i] = v + sqrt_rational(2 if v.terms[0][0] != 2 else 3) / 7
        assert len(column[i].terms) == 2
    return columns


def col_sector(col):
    return (col.mt1.twice, col.mt2.twice)


def row_sector(row):
    return (row.m1.twice + row.pm1.twice, row.m2.twice + row.pm2.twice)


@pytest.mark.parametrize("source", ["1,0", "3/2,1/2", "2,2"])
def test_gram_deviations_match_a_sqrtsum_reference(source):
    matrix = coupling_matrix(IrrepLabel.parse(source))
    for how in ("sign flip", "dropped entry", "scaled entry", "two-term"):
        columns = corrupted(matrix, how)
        rows = transpose(columns, len(matrix.rows))
        col_ref = reference_gram(matrix.cols, columns, col_sector)
        row_ref = reference_gram(matrix.rows, rows, row_sector)
        assert col_ref is not None and row_ref is not None, how
        if how == "two-term":
            # Every exact inner product is taken on single terms: no column
            # holds the entry, and the Gram refuses it rather than cutting
            # it short.
            with pytest.raises(ValueError, match="not a single term"):
                scaled_column(columns[len(columns) // 2])
            with pytest.raises(ValueError, match="not a single term"):
                gram_deviation(matrix.cols, columns, col_sector)
            with pytest.raises(ValueError, match="not a single term"):
                gram_deviation(matrix.rows, rows, row_sector)
            continue
        assert gram_deviation(matrix.cols, columns, col_sector) == col_ref
        assert gram_deviation(matrix.rows, rows, row_sector) == row_ref
        bad = matrix._replace(columns={col: scaled_column(column) for
                                       col, column in zip(matrix.cols,
                                                          columns)})
        assert column_gram_deviation(bad) == col_ref, how
        assert row_gram_deviation(bad) == row_ref, how


@pytest.mark.parametrize("index", [2, -1])
def test_transpose_rejects_a_row_index_outside_the_matrix(index):
    # Two rows: index 2 is one past the end, and index -1 must not be
    # filed under the last row.
    columns = [{0: ONE}, {1: ONE, index: ONE}]
    with pytest.raises(EntryOutsideMatrix) as caught:
        transpose(columns, 2)
    assert (caught.value.column, caught.value.index, caught.value.size) == (
        1, index, 2)
    assert transpose(columns[:1], 2) == [{0: ONE}, {}]


def test_su2_slot_factors_sit_in_a_bounded_memo():
    # One memo of the SU(2) factors of each slot, shared by every matrix;
    # its keys are slots, not sources, so it is bounded. It is the only
    # SU(2) memo: su2_cg itself is not memoized.
    from so5cg.fullcg import _su2_factors
    from so5cg.su2 import su2_cg
    assert not hasattr(su2_cg, "cache_info")
    assert _su2_factors.cache_info().maxsize is not None
    coupling_matrix(IrrepLabel(1, 0))
    assert _su2_factors.cache_info().currsize > 0


TWO_TERMS = """
import sys
from so5cg import fullcg
from so5cg.exactnum import ONE, sqrt_rational
from so5cg.labels import IrrepLabel
two = ONE + sqrt_rational(2)
vector, su2_cg = fullcg._vector, fullcg.su2_cg
if sys.argv[1] == "reduced":
    fullcg._vector = lambda *args: {k: two for k in vector(*args)}
else:
    fullcg.su2_cg = lambda *args: two if su2_cg(*args) else su2_cg(*args)
try:
    fullcg.coupling_matrix(IrrepLabel(1, 0))
except ValueError as exc:
    print(__debug__, exc)
"""


@pytest.mark.parametrize("what", ["reduced", "su2"])
def test_a_two_term_factor_is_refused_under_python_O(what):
    # Columns hold single terms. A two-term reduced value or SU(2) factor
    # stops assembly with an explicit raise, which -O does not strip.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", TWO_TERMS, what],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    name = "a reduced value" if what == "reduced" else "an SU(2) factor"
    assert proc.stdout.startswith(f"False {name} is not a single term: ")


def test_a_coupling_matrix_holds_at_most_180_bytes_per_nonzero():
    # Side 770, all memos hot: what is traced is the matrix itself, its
    # row and column labels included.
    source = IrrepLabel(4, 4)
    coupling_matrix(source)
    gc.collect()
    tracemalloc.start()
    try:
        matrix = coupling_matrix(source)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nonzeros = sum(len(column) for column in matrix.columns.values())
    assert nonzeros == 8377
    assert held <= 180 * nonzeros, held / nonzeros
