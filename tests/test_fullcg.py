"""Full coefficients and per-source coupling matrices."""

import json
from fractions import Fraction

import pytest

from so5cg.errors import MalformedKey
from so5cg.exactnum import ONE, ZERO, sqrt_rational
from so5cg.fullcg import (
    CouplingMatrix,
    FullKey,
    RowState,
    column_gram_deviation,
    coupling_matrix,
    full,
    row_gram_deviation,
)
from so5cg.labels import (
    Channel,
    HalfInt,
    IrrepLabel,
    PART_11,
    PART_HH,
    So4Label,
    dim,
)
from so5cg.oracle import DEFAULT_CAP

H = HalfInt


def key_trivial(tdm1: int, tdm2: int) -> FullKey:
    return FullKey(
        target=IrrepLabel.of(2, 2), target_so4=So4Label.of(2, 2),
        tm1=H(tdm1), tm2=H(tdm2), copy=1,
        source=IrrepLabel.of(0, 0), source_so4=So4Label.of(0, 0),
        m1=H(0), m2=H(0), part=PART_11, pm1=H(tdm1), pm2=H(tdm2))


def test_trivial_source_embeds_each_14_state():
    assert full(key_trivial(2, 2)) == ONE
    assert full(key_trivial(0, -2)) == ONE
    assert full(key_trivial(-2, 2)) == ONE


def test_m_conservation_zero():
    key = FullKey(
        target=IrrepLabel.of(2, 2), target_so4=So4Label.of(2, 2),
        tm1=H(2), tm2=H(0), copy=1,
        source=IrrepLabel.of(0, 0), source_so4=So4Label.of(0, 0),
        m1=H(0), m2=H(0), part=PART_11, pm1=H(2), pm2=H(2))
    assert full(key) == ZERO


def test_magnetic_validation():
    with pytest.raises(MalformedKey):
        full(FullKey(
            target=IrrepLabel.of(2, 2), target_so4=So4Label.of(2, 2),
            tm1=H(4), tm2=H(0), copy=1,
            source=IrrepLabel.of(0, 0), source_so4=So4Label.of(0, 0),
            m1=H(0), m2=H(0), part=PART_11, pm1=H(2), pm2=H(2)))


def test_full_factorizes_reduced_times_su2():
    from so5cg.reduced import ReducedKey, reduced
    from so5cg.labels import EntryShift
    from so5cg.su2 import su2_cg
    key = FullKey(
        target=IrrepLabel.of(2, 1), target_so4=So4Label.of(2, 1),
        tm1=H(2), tm2=H(1), copy=1,
        source=IrrepLabel.of(1, 0), source_so4=So4Label.of(1, 0),
        m1=H(1), m2=H(0), part=PART_HH, pm1=H(1), pm2=H(1))
    r = reduced(ReducedKey(IrrepLabel.of(1, 0), Channel.of(1, 1),
                           So4Label.of(1, 0), EntryShift.of(1, 1, PART_HH)))
    expected = r * su2_cg(1, 1, 1, 1, 2, 2) * su2_cg(0, 0, 1, 1, 1, 1)
    assert full(key) == expected
    assert expected == sqrt_rational(Fraction(1, 7))


def test_trivial_coupling_matrix_is_signed_permutation():
    matrix = coupling_matrix(IrrepLabel.of(0, 0))
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
    matrix = coupling_matrix(IrrepLabel.of(2, 2))
    assert matrix.shape == (196, 196)
    targets = {c.target.twice for c in matrix.cols}
    assert targets == {(0, 0), (2, 0), (2, 2), (4, 0), (4, 2), (4, 4)}
    assert column_gram_deviation(matrix) is None


def test_coupling_matrix_half_0_exact_unitary_both_ways():
    matrix = coupling_matrix(IrrepLabel.of(1, 0))
    assert matrix.shape == (56, 56)
    assert column_gram_deviation(matrix) is None
    assert row_gram_deviation(matrix) is None


def test_dimension_audit():
    for twice in ((0, 0), (1, 1), (2, 0), (3, 1)):
        src = IrrepLabel.of(*twice)
        matrix = coupling_matrix(src)
        assert matrix.shape == (14 * dim(src), 14 * dim(src))


def test_matrix_export_shapes():
    matrix = coupling_matrix(IrrepLabel.of(1, 0))
    doc = matrix.to_json_dict()
    assert doc["schema"] == "so5cg/1"
    assert doc["shape"] == [56, 56]
    assert len(doc["rows"]) == 56 and len(doc["cols"]) == 56
    json.dumps(doc)  # must be serializable as-is
    csv_rows = list(matrix.to_csv_rows())
    assert csv_rows[0][-1] == "value"
    assert len(csv_rows) == 1 + sum(1 for _ in matrix.iter_entries())


def test_row_order_is_lexicographic():
    matrix = coupling_matrix(IrrepLabel.of(1, 0))
    keys = [r.sort_key() for r in matrix.rows]
    assert keys == sorted(keys)
    ckeys = [c.sort_key() for c in matrix.cols]
    assert ckeys == sorted(ckeys)


def test_gram_deviation_reports_labels_and_exact_value():
    matrix = coupling_matrix(IrrepLabel.of(1, 0))
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
    src = IrrepLabel.of(*twice)
    assert dim(src) > DEFAULT_CAP
    matrix = coupling_matrix(src)
    assert column_gram_deviation(matrix) is None
    assert row_gram_deviation(matrix) is None
