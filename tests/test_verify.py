"""Suite runner plumbing and the cheap invariant sweeps."""

import pytest

from so5cg.exactnum import ONE
from so5cg.labels import Channel, IrrepLabel, So4Label
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
    results = verify.run_suite("oracle", source=IrrepLabel(1, 0))
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
    # recorded from the pairwise loop that the Gram routine replaced.
    original = verify.reduced_vector
    faulty = (IrrepLabel(3, 1), Channel(0, 0, 2), So4Label(3, 1))

    def scaled(source, channel, target_so4):
        vector = dict(original(source, channel, target_so4))
        if (source, channel, target_so4) == faulty:
            key = next(iter(vector))
            vector[key] = 3 * vector[key]
        return vector

    monkeypatch.setattr(verify, "reduced_vector", scaled)
    assert verify.reduced_unitarity(3) == (
        "source 3/2,1/2, t 3/2,1/2, channels +1,+1 x 0,0#2: "
        "gram 136/31995*sqrt(395) != 0")
