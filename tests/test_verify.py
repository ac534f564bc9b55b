"""Suite runner plumbing and the cheap invariant sweeps."""

import pytest

from so5cg.exactnum import ONE
from so5cg.labels import IrrepLabel
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


def test_check_result_json_shape():
    results = verify.run_suite("symmetry", max_twice_j=2)
    for r in results:
        doc = r.to_json_dict()
        assert set(doc) <= {"name", "pass", "counterexample"}
        assert doc["pass"] is True


def test_oracle_suite_single_source():
    results = verify.run_suite("oracle", source=IrrepLabel.of(1, 0))
    assert len(results) == 1
    assert results[0].passed


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
