"""Suite runner plumbing and the cheap invariant sweeps."""

from collections import Counter

import pytest
from helpers import column_values, scaled_column

from so5cg.exactnum import ONE
from so5cg.fullcg import (
    EntryOutsideMatrix,
    column_gram_deviation,
    coupling_matrix,
    row_gram_deviation,
)
from so5cg.labels import (
    Channel,
    IrrepLabel,
    So4Label,
    channels_present,
    iter_labels,
)
from so5cg.tables import RowSpec
from so5cg import verify


def test_run_suite_names_and_passes():
    results = verify.run_suite("mixing", max_twice_j=4)
    assert [r.passed for r in results] == [True] * len(results)
    names = [r.name for r in results]
    assert any("mixing_identities" in n for n in names)
    assert any("guarded_zero" in n for n in names)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify.run_suite("nonsense")


@pytest.mark.parametrize("suite", ["mixing", "all"])
def test_negative_bound_rejected_before_any_check(suite, monkeypatch):
    # A negative bound sweeps nothing, so every check would pass.
    monkeypatch.setattr(verify, "SUITES", {})
    with pytest.raises(ValueError, match="max_twice_j must be >= 0, got -3"):
        verify.run_suite(suite, -3)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_tolerance_rejected_unless_finite_and_non_negative(tol, monkeypatch):
    # No deviation exceeds a NaN tol, so every comparison would pass.
    monkeypatch.setattr(verify, "SUITES", {})
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        verify.run_suite("oracle", 0, tol)


def test_zero_bound_and_zero_tolerance_still_run():
    results = verify.run_suite("su2", 0, 0.0)
    assert [(r.name, r.passed) for r in results] == [
        ("su2_orthogonality <= 0", True)]


def test_check_result_json_shape():
    results = verify.run_suite("symmetry", max_twice_j=2)
    for r in results:
        doc = r.to_json_dict()
        assert set(doc) <= {"name", "pass", "counterexample"}
        assert doc["pass"] is True


def test_oracle_suite_single_source():
    results = verify.run_suite("oracle", source=IrrepLabel(1, 0))
    assert len(results) == 1
    assert results[0].passed


@pytest.mark.parametrize("suite", ["orthogonality", "mixing", "symmetry",
                                   "su2"])
def test_source_rejected_by_a_suite_that_ignores_it(suite, monkeypatch):
    # Only the oracle sweeps by source; any other suite would sweep every
    # source up to the bound and pass, as if the one given had been checked.
    monkeypatch.setattr(verify, "SUITES", {})
    with pytest.raises(ValueError, match=f"not {suite}$"):
        verify.run_suite(suite, 2, source=IrrepLabel(2, 0))


@pytest.mark.parametrize("suite,bound,checks", [
    ("symmetry", 6, ["symmetry_involution <= 6", "symmetry_example"]),
    ("mixing", 8, ["mixing_identities <= 8", "presence_agreement <= 8",
                   "normalization_positivity <= 8", "guarded_zero <= 8"]),
], ids=["symmetry", "mixing"])
def test_sweeps_reach_the_bound_asked_for(suite, bound, checks):
    results = verify.run_suite(suite, bound)
    assert [(r.name, r.passed) for r in results] == [(c, True) for c in checks]


def test_guarded_zero_sweep():
    assert verify.guarded_zero_consistency(4) is None


def test_normalization_positivity_sweep():
    assert verify.normalization_positivity(6) is None


def test_guarded_zero_reports_a_nonzero_guarded_cell(monkeypatch):
    class EveryCellIsOne:
        def bare_value(self, entry, j1, j2, b1, b2):
            return ONE

    monkeypatch.setattr(verify, "_table_of", lambda channel: EveryCellIsOne())
    bad = verify.guarded_zero_consistency(2)
    assert bad is not None
    assert bad.endswith("guarded cell evaluates to 1")


def test_su2_orthogonality_reports_a_doubled_coefficient(monkeypatch):
    original = verify.su2_cg

    def doubled(*key):
        value = original(*key)
        return 2 * value if key == (1, 1, 1, -1, 0, 0) else value

    monkeypatch.setattr(verify, "su2_cg", doubled)
    assert verify.su2_orthogonality(2) == (
        "j1 1/2 j2 1/2 M 0/2: <J 0/2|J 0/2> = 5/2")


def test_reduced_unitarity_reports_a_scaled_component(monkeypatch):
    # Tripling the first component of one copy-2 vector breaks its overlap
    # with an earlier channel before its own norm; the expected text was
    # recorded from the pairwise loop that the Gram routine replaced. The
    # channel's evaluator, which takes doubled ints, triples the first value
    # it gives at the block.
    original = verify._row_values
    faulty = (IrrepLabel(3, 1), Channel(0, 0, 2))
    block = So4Label(3, 1).twice

    def scaled(source, channel):
        value = original(source, channel)
        if (source, channel) != faulty:
            return value
        tripled = []

        def first_tripled(ts1, ts2, i, tt1, tt2):
            v = value(ts1, ts2, i, tt1, tt2)
            if (tt1, tt2) != block or tripled:
                return v
            tripled.append((ts1, ts2, i))
            return 3 * v
        return first_tripled

    monkeypatch.setattr(verify, "_row_values", scaled)
    assert verify.reduced_unitarity(3) == (
        "source 3/2,1/2, t 3/2,1/2, channels +1,+1 x 0,0#2: "
        "gram 136/31995*sqrt(395) != 0")


def test_bulk_passes_bind_each_row_at_most_once_per_channel(monkeypatch):
    # A bulk pass sets up one evaluator per (source, channel) and reads
    # every block from it; an evaluator binds each of the 14 table rows to
    # the source spins at most once per table it reads, and a second
    # diagonal copy reads two (copy 1 and the companion).
    binds = []
    original = RowSpec.bind

    def counting(row, tb1, tb2):
        binds.append(row)
        return original(row, tb1, tb2)

    monkeypatch.setattr(RowSpec, "bind", counting)
    source = IrrepLabel(6, 4)
    coupling_matrix(source)
    assert len(channels_present(source)) == 12
    assert len(binds) <= 14 * 2 * 12
    binds.clear()
    assert verify.reduced_unitarity(6) is None
    channels = sum(len(channels_present(src)) for src in iter_labels(6))
    assert channels == 222
    assert len(binds) <= 14 * 2 * channels


def _corrupted(source, edit):
    """coupling_matrix(source) with edit(columns, col) applied to its
    columns as SqrtSum maps, col looking a column up by its text."""
    matrix = coupling_matrix(source)
    columns = {col: column_values(column)
               for col, column in matrix.columns.items()}
    by_text = {str(col): col for col in matrix.cols}
    edit(columns, by_text.__getitem__)
    return matrix._replace(columns={col: scaled_column(values)
                                    for col, values in columns.items()})


def test_full_orthogonality_reports_an_entry_in_another_sector(monkeypatch):
    # The trivial source's matrix is a signed permutation. Moving the entry
    # of a column of sector (0,0) into the row that a column of sector
    # (-1,-1) uses keeps every column a unit vector, and columns of
    # different sectors are never paired in the column Gram; only the
    # support audit (or the row Gram) sees the fault.
    source = IrrepLabel(0, 0)

    def move(columns, col):
        moved = col("1,1#1;0,0;0,0")
        (row, _), = columns[col("1,1#1;1/2,1/2;-1/2,-1/2")].items()
        (_, value), = columns[moved].items()
        columns[moved] = {row: value}

    bad = _corrupted(source, move)
    monkeypatch.setattr(verify, "coupling_matrix", lambda src: bad)
    assert verify.full_orthogonality((source,)) == (
        "source 0,0: column 1,1#1;0,0;0,0 has an entry in row "
        "0,0;0,0|1/2,1/2;-1/2,-1/2")
    assert verify.full_row_orthogonality((source,)) == (
        "source 0,0: rows <0,0;0,0|1/2,1/2;-1/2,-1/2|"
        "0,0;0,0|1/2,1/2;-1/2,-1/2> = 2")


def test_full_orthogonality_reports_an_entry_outside_the_matrix(monkeypatch):
    # Row 14 does not exist in the 14 x 14 matrix of the trivial source; the
    # column is still a unit vector, so only the support audit sees it.
    source = IrrepLabel(0, 0)

    def move(columns, col):
        moved = col("1,1#1;0,0;0,0")
        (_, value), = columns[moved].items()
        columns[moved] = {14: value}

    bad = _corrupted(source, move)
    monkeypatch.setattr(verify, "coupling_matrix", lambda src: bad)
    assert verify.full_orthogonality((source,)) == (
        "source 0,0: column 1,1#1;0,0;0,0 has an entry in row index 14")


@pytest.mark.parametrize("index", [14, -1])
def test_row_orthogonality_reports_an_entry_outside_the_matrix(index,
                                                               monkeypatch):
    # Neither row 14 past the end of the 14 x 14 matrix of the trivial
    # source nor row -1 exists: the row Gram must name the column and the
    # index, not fail on row 14 or file row -1 under the last row.
    source = IrrepLabel(0, 0)

    def move(columns, col):
        moved = col("1,1#1;0,0;0,0")
        (_, value), = columns[moved].items()
        columns[moved] = {index: value}

    bad = _corrupted(source, move)
    monkeypatch.setattr(verify, "coupling_matrix", lambda src: bad)
    assert verify.full_row_orthogonality((source,)) == (
        f"source 0,0: column 1,1#1;0,0;0,0 has an entry at row index "
        f"{index}, outside the 14 rows")
    with pytest.raises(EntryOutsideMatrix) as caught:
        row_gram_deviation(bad)
    assert (str(caught.value.column), caught.value.index) == (
        "1,1#1;0,0;0,0", index)
    assert verify.full_orthogonality((source,)) == (
        f"source 0,0: column 1,1#1;0,0;0,0 has an entry in row index {index}")


def test_full_orthogonality_reports_a_scaled_entry(monkeypatch):
    # Tripling the entry v = sqrt(42)/7 in row 1 of one column adds 2*v*w
    # to its overlap with the earlier column of its sector that holds
    # w = -sqrt(7)/7 in that row: 2*(sqrt(42)/7)*(-sqrt(7)/7) = -2/7*sqrt(6).
    source = IrrepLabel(1, 0)

    def triple(columns, col):
        column = columns[col("3/2,1#1;1/2,1;-1/2,-1")]
        column[1] = 3 * column[1]

    bad = _corrupted(source, triple)
    monkeypatch.setattr(verify, "coupling_matrix", lambda src: bad)
    assert verify.full_orthogonality((source,)) == (
        "source 1/2,0: <1,1/2#1;1/2,1;-1/2,-1|3/2,1#1;1/2,1;-1/2,-1> = "
        "-2/7*sqrt(6)")


def test_orthogonality_suite_builds_each_matrix_once(monkeypatch):
    built, grams = Counter(), Counter()

    def counting(source):
        built[source] += 1
        return coupling_matrix(source)

    def counting_gram(matrix):
        grams[matrix.source] += 1
        return column_gram_deviation(matrix)

    monkeypatch.setattr(verify, "coupling_matrix", counting)
    monkeypatch.setattr(verify, "column_gram_deviation", counting_gram)
    results = verify.run_suite("orthogonality", 4)
    assert all(r.passed for r in results)
    assert built == grams == Counter(iter_labels(4))
    assert len(built) == 15


def test_orthogonality_suite_checks_every_source_up_to_six(monkeypatch):
    # Recording stand-ins: no matrix is built and no vector evaluated.
    handed = []
    monkeypatch.setattr(verify, "full_orthogonality",
                        lambda sources: handed.append(sources))
    monkeypatch.setattr(verify, "full_row_orthogonality",
                        lambda sources: handed.append(("rows", sources)))
    monkeypatch.setattr(verify, "reduced_unitarity", lambda bound: None)
    results = verify.suite_orthogonality(6)
    assert [r.name for r in results] == [
        "reduced_unitarity <= 6", "full_orthogonality <= 6"]
    assert handed == [tuple(iter_labels(6))]
    assert len(handed[0]) == 28
