"""The mutation runner of tests/mutants.py, on a trivial and a stale mutant."""

import mutants


def test_runner_reports_caught_and_stale_mutants():
    """A mutant whose named test fails on the mutated copy is caught; one
    whose snippet no longer occurs is stale, and runs no test."""
    narrow_band = mutants.Mutant(
        "practical band narrowed", "metrics.py",
        "OBJ_BAND = (0.5, 1.0)", "OBJ_BAND = (0.5, 0.6)",
        ("tests/test_metrics.py::test_metric_report_band_flag",),
    )
    gone = mutants.Mutant(
        "a snippet that no module holds", "metrics.py",
        "OBJ_BAND = (0.5, 1.5)", "OBJ_BAND = (0.5, 0.6)",
        ("tests/test_metrics.py::test_metric_report_band_flag",),
    )
    assert mutants.run(narrow_band) == "caught"
    assert mutants.run(gone) == "stale"
