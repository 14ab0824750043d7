"""Self-diagnostic suite behavior, including the negative control."""

from tetherpick import checks
from tetherpick.checks import run_checks
from tetherpick.optimizer import total_cost


def test_default_checks_all_pass():
    results = run_checks(seed=0)
    assert [r.name for r in results] == [
        "catenary residuals",
        "corridor ordering",
        "hinge continuity",
        "spline interpolation",
        "objective gradients",
    ]
    assert all(r.passed for r in results)


def test_minimal_sample_count_still_runs():
    results = run_checks(seed=3, kappa=2)
    assert all(r.passed for r in results)


def test_perturbed_gradient_trips_the_check(monkeypatch):
    # corrupt the analytic gradient by 2 percent; the finite-difference
    # comparison must notice
    def skewed_total_cost(waypoints, duration, scenario):
        breakdown, grad_q, grad_t, worst = total_cost(waypoints, duration,
                                                      scenario)
        return breakdown, grad_q * 1.02, grad_t, worst

    monkeypatch.setattr(checks, "total_cost", skewed_total_cost)
    results = run_checks(seed=0)
    by_name = {r.name: r for r in results}
    assert not by_name["objective gradients"].passed
    # the other checks are untouched by the skew
    assert by_name["catenary residuals"].passed
    assert by_name["spline interpolation"].passed


def test_details_report_the_measured_worst_case():
    for result in run_checks(seed=1):
        assert "worst" in result.detail
        assert "tol" in result.detail
