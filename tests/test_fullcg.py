"""Full coefficients and per-source coupling matrices."""

from fractions import Fraction

import pytest

from so5cg.errors import MalformedKey
from so5cg.exactnum import ONE, ZERO, sqrt_rational
from so5cg.fullcg import (
    ColState,
    CouplingMatrix,
    RowState,
    column_gram_deviation,
    coupled_cols,
    coupling_matrix,
    full,
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
            assert full(src, matrix.rows[i], col) == column.get(i, 0), (
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
    # copy 2 at (3/2,1/2) and side 770 at (2,2) included.
    for source in iter_labels(4):
        keys = [r.sort_key() for r in product_rows(source)]
        assert keys == sorted(keys), source
        ckeys = [c.sort_key() for c in coupled_cols(source)]
        assert ckeys == sorted(ckeys), source


def test_gram_deviation_reports_labels_and_exact_value():
    matrix = coupling_matrix(IrrepLabel(1, 0))
    col = max(matrix.cols, key=lambda c: len(matrix.columns[c]))
    column = matrix.columns[col]
    columns = dict(matrix.columns)
    columns[col] = {i: 2 * v for i, v in column.items()}
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
    """The matrix with one entry of its middle column changed."""
    col = matrix.cols[len(matrix.cols) // 2]
    column = dict(matrix.columns[col])
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
    columns = dict(matrix.columns)
    columns[col] = column
    return CouplingMatrix(matrix.source, matrix.rows, matrix.cols, columns)


@pytest.mark.parametrize("source", ["1,0", "3/2,1/2", "2,2"])
def test_gram_deviations_match_a_sqrtsum_reference(source):
    matrix = coupling_matrix(IrrepLabel.parse(source))
    for how in ("sign flip", "dropped entry", "scaled entry", "two-term"):
        bad = corrupted(matrix, how)
        columns = [bad.columns[col] for col in bad.cols]
        col_ref = reference_gram(bad.cols, columns,
                                 lambda col: (col.mt1.twice, col.mt2.twice))
        row_ref = reference_gram(bad.rows,
                                 transpose(columns, len(bad.rows)),
                                 lambda row: (row.m1.twice + row.pm1.twice,
                                              row.m2.twice + row.pm2.twice))
        assert col_ref is not None and row_ref is not None, how
        assert column_gram_deviation(bad) == col_ref, how
        assert row_gram_deviation(bad) == row_ref, how
