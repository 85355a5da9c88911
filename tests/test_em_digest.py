import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "em_digest.py"
_SPEC = importlib.util.spec_from_file_location("em_digest", _PATH)
em_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(em_digest)


def _fit(scale=1.0, lls=(-3.0, -2.0), iterations=2, rescues=0):
    return {
        "weights": np.array([0.25, 0.75]),
        "means": np.array([[4.0, -2.0], [1.0, 0.0]]) * scale,
        "variances": np.array([[1.0, 2.0], [0.5, 0.5]]),
        "log_likelihoods": np.asarray(lls),
        "iterations": iterations,
        "converged": True,
        "rescues": rescues,
    }


def test_relative_difference_is_scaled_by_the_largest_entry_and_reads_the_common_prefix():
    assert em_digest.relative_difference(np.array([4.0, 1e-20]), np.array([4.0, 2e-20])) == 1e-20 / 4.0
    assert em_digest.relative_difference(np.array([2.0, -8.0]), np.array([2.0, -6.0])) == 2.0 / 8.0
    assert em_digest.relative_difference(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0])) == 0.0
    assert em_digest.relative_difference(np.zeros(3), np.zeros(3)) == 0.0


def test_compare_identical_group_prints_identical():
    fits = {"a": _fit(), "b": {"error": "DegenerateInput: slide b: re-seeding failed 3 times in a row"}}
    row = em_digest.compare(fits, dict(fits))
    assert (row["fits"], row["fitted"], row["identical"], row["failures"]) == (2, 1, 1, 1)
    assert row["failures_match"] and all(row["counts_match"].values())
    assert em_digest.format_row("g", row).splitlines()[1] == "  identical"


def test_compare_reports_the_largest_difference_and_each_mismatch():
    parent = {"a": _fit(), "b": _fit(), "c": {"error": "DegenerateInput: x"}}
    change = {
        "a": _fit(scale=1.0 + 2**-50),
        "b": _fit(lls=(-3.0, -2.0, -1.9), iterations=3, rescues=1),
        "c": {"error": "DegenerateInput: y"},
    }
    row = em_digest.compare(parent, change)
    assert row["identical"] == 0 and row["fitted"] == 2
    largest = 4.0 * (1.0 + 2**-50)  # the largest mean, on the change side
    assert row["max_rel"]["means"] == (largest - 4.0) / largest and row["max_rel"]["weights"] == 0.0
    assert row["max_rel"]["log_likelihoods"] == 0.0  # the common prefix agrees
    assert row["counts_match"] == {"iterations": False, "converged": True, "rescues": False}
    assert not row["failures_match"]
    text = em_digest.format_row("g", row)
    assert "0 of 2 byte-identical" in text and "means 8.88e-16" in text
    assert "iterations DIFFER, converged match, rescues DIFFER; failures and messages DIFFER" in text


def test_compare_flags_a_failure_on_one_side_only():
    row = em_digest.compare({"a": _fit()}, {"a": {"error": "DegenerateInput: x"}})
    assert row["fitted"] == 0 and not row["failures_match"] and row["failures"] == 0
