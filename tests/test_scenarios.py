"""Named scenarios, thresholds and sweeps."""

from dataclasses import replace

import numpy as np
import pytest

import gendyne.scenarios as scenarios
from gendyne import (
    ConvergenceError,
    ScenarioSpec,
    UnstableSystemError,
    run_scenario,
    sweep,
    threshold_coupling,
    threshold_efficiency,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec("unknown", 1.0)
    with pytest.raises(ValueError):
        ScenarioSpec("parametric", 1.0)  # chi missing
    with pytest.raises(ValueError):
        ScenarioSpec("free_single", 1.0, chi=0.3)
    with pytest.raises(ValueError):
        ScenarioSpec("free_single", (1.0, 2.0))
    with pytest.raises(ValueError):
        ScenarioSpec("free_unequal_baths", 1.0)
    with pytest.raises(ValueError):
        ScenarioSpec("free_unequal_baths", (2.0, 1.0), "homodyne")
    with pytest.raises(ValueError):
        ScenarioSpec("free_single", -1.0)
    with pytest.raises(ValueError):
        ScenarioSpec("free_single", 1.0, eta=1.5)


def test_overcritical_coupling_fails_the_stability_gate():
    with pytest.raises(UnstableSystemError, match="stability"):
        run_scenario(ScenarioSpec("parametric", 1.0, chi=0.6))


def test_free_single_optimal_report():
    report = run_scenario(ScenarioSpec("free_single", 1.0, "optimal"))
    assert report.squeezing_bound == pytest.approx(1.0 / 3.0)
    assert report.achieved_min_eigenvalue == pytest.approx(1.0 / 3.0, abs=1e-8)
    assert report.pure
    assert report.tightness_squeezing
    assert report.closed_loop_residual <= 1e-8


def test_parametric_homodyne_report():
    report = run_scenario(ScenarioSpec("parametric", 1.0, "homodyne", chi=0.3))
    # (1+2N)(1-2chi) = 1.2 > 1: no entanglement from homodyne here
    assert report.achieved_log_negativity == 0.0
    assert report.threshold_chi == pytest.approx(1.0 / 3.0)

    report2 = run_scenario(ScenarioSpec("parametric", 1.0, "homodyne", chi=0.45))
    assert report2.achieved_log_negativity == pytest.approx(
        -np.log2(3.0 * 0.1), abs=1e-8
    )


def test_unequal_baths_report():
    report = run_scenario(ScenarioSpec("free_unequal_baths", (2.0, 1.0), "optimal"))
    assert report.achieved_log_negativity == pytest.approx(np.log2(3.0), abs=1e-8)
    assert report.entanglement_bound == pytest.approx(np.log2(5.0))
    assert report.tightness_entanglement is False
    assert report.pure


def test_report_bounds_vs_achieved_consistency():
    for spec in (
        ScenarioSpec("free_two_mode", 2.0, "optimal"),
        ScenarioSpec("free_two_mode", 2.0, "homodyne"),
        ScenarioSpec("parametric", 1.0, "optimal", chi=0.3),
        ScenarioSpec("free_two_mode", 1.0, "optimal", eta=0.9),
        ScenarioSpec("free_single", 5.0, "none"),
    ):
        report = run_scenario(spec)
        assert report.achieved_min_eigenvalue >= report.squeezing_bound - 1e-8
        if report.entanglement_bound is not None:
            assert report.achieved_log_negativity <= report.entanglement_bound + 1e-8
        if (
            report.tightness_entanglement
            and spec.eta == 1.0
            and spec.strategy == "optimal"
        ):
            assert report.achieved_log_negativity == pytest.approx(
                report.entanglement_bound, abs=1e-6
            )
            assert report.pure


@pytest.mark.parametrize("field", ["n_th", "chi", "eta", "phi"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_values(field, value):
    kwargs = {"kind": "parametric", "n_th": 1.0, "chi": 0.2, field: value}
    with pytest.raises(ValueError, match="finite"):
        ScenarioSpec(**kwargs)


@pytest.mark.parametrize("bound", ["squeezing_bound", "entanglement_bound"])
def test_report_that_beats_its_bound_is_an_error(monkeypatch, bound):
    # the optimal free two-mode loop sits exactly on both bounds; tighten
    # one of them slightly and the report must refuse to beat it
    original = getattr(scenarios, bound)
    shift = (lambda b: b * (1.0 + 1e-6)) if bound == "squeezing_bound" else (lambda b: b - 1e-6)
    monkeypatch.setattr(scenarios, bound, lambda dd: shift(original(dd)))
    with pytest.raises(ConvergenceError, match="beats"):
        run_scenario(ScenarioSpec("free_two_mode", 1.0))


def test_threshold_efficiency_closed_form():
    assert threshold_efficiency(ScenarioSpec("free_two_mode", 1.0)) == pytest.approx(0.75)
    assert threshold_efficiency(ScenarioSpec("free_two_mode", 5.0)) == pytest.approx(11.0 / 12.0)
    with pytest.raises(ValueError):
        threshold_efficiency(ScenarioSpec("free_single", 1.0))
    with pytest.raises(ValueError):
        threshold_efficiency(ScenarioSpec("free_two_mode", 1.0, "homodyne"))


def test_threshold_efficiency_parametric():
    spec = ScenarioSpec("parametric", 1.0, "optimal", chi=0.3)
    assert threshold_efficiency(spec) == pytest.approx(0.80, abs=0.01)


def bisected_threshold(spec, xtol=1e-6):
    """Reference: plain bisection on the sign of the reported log-negativity."""

    def entangled(eta):
        nu = run_scenario(replace(spec, eta=eta)).achieved_pt_nu
        return -np.log2(nu) > 1e-12

    if not entangled(0.5):
        if not entangled(1.0):
            return None
        lo, hi = 0.5, 1.0
    elif entangled(0.0):
        return 0.0
    else:
        lo, hi = 0.0, 0.5
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if entangled(mid) else (mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize(
    "spec",
    [ScenarioSpec("parametric", n, chi=chi) for n in (0.5, 1.0, 3.0, 8.0) for chi in (0.15, 0.3, 0.45)]
    + [
        ScenarioSpec("free_unequal_baths", pair)
        for pair in ((0.2, 0.7), (1.0, 3.0), (0.5, 0.5), (2.5, 10.0), (5.0, 0.3))
    ],
    ids=str,
)
def test_threshold_efficiency_matches_bisection(spec):
    reference = bisected_threshold(spec)
    assert reference is not None and 0.5 < reference < 1.0
    assert threshold_efficiency(spec) == pytest.approx(reference, abs=1e-4)


@pytest.mark.parametrize(
    "spec, expected",
    [
        (ScenarioSpec("parametric", 1.0, chi=0.3), lambda eta: 0.5 < eta < 1.0),
        (ScenarioSpec("parametric", 0.2, chi=0.1), lambda eta: eta == pytest.approx(0.368, abs=1e-3)),
        (ScenarioSpec("parametric", 0.0, chi=0.3), lambda eta: eta == 0.0),
        (ScenarioSpec("free_unequal_baths", (0.0, 1.0)), lambda eta: eta is None),
    ],
    ids=["upper-half", "lower-half", "unmonitored-entangled", "never-entangled"],
)
def test_threshold_efficiency_branches(spec, expected):
    eta = threshold_efficiency(spec)
    assert expected(eta)
    reference = bisected_threshold(spec)
    if eta is None or eta == 0.0:
        assert eta == reference
    else:
        assert eta == pytest.approx(reference, abs=1e-4)


def count_solves(monkeypatch):
    calls = []
    solve = scenarios.solve_riccati

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(scenarios, "solve_riccati", counted)
    return calls


@pytest.mark.parametrize("occupation", [1.0, 2.5, 10.0])
def test_threshold_efficiency_solve_count(monkeypatch, occupation):
    # acceptance criterion 6 configurations; bisection to 1e-4 takes 15
    calls = count_solves(monkeypatch)
    threshold_efficiency(ScenarioSpec("parametric", occupation, chi=0.3))
    assert len(calls) <= 10


def test_threshold_coupling():
    assert threshold_coupling(1.0) == pytest.approx(1.0 / 3.0)
    assert threshold_coupling(0.0) == 0.0
    assert threshold_coupling(10.0) == pytest.approx(10.0 / 21.0)
    with pytest.raises(ValueError):
        threshold_coupling(-1.0)


def test_threshold_coupling_matches_homodyne_crossing():
    occ = 1.0
    chi_t = threshold_coupling(occ)
    for chi, expect_positive in ((chi_t - 0.02, False), (chi_t + 0.02, True)):
        report = run_scenario(ScenarioSpec("parametric", occ, "homodyne", chi=chi))
        assert (report.achieved_log_negativity > 1e-9) == expect_positive


def test_eta_sweep_crosses_at_threshold():
    spec = ScenarioSpec("free_two_mode", 1.0, "optimal")
    grid = np.linspace(0.5, 1.0, 11)
    reports = sweep(spec, "eta", grid)
    values = [r.achieved_log_negativity for r in reports]
    for eta, en in zip(grid, values):
        assert (en > 1e-10) == (eta > 0.75 + 1e-12)
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


def test_occupation_sweep_optimal_matches_closed_form():
    spec = ScenarioSpec("free_two_mode", 0.0, "optimal")
    grid = np.arange(0.0, 10.001, 1.0)
    reports = sweep(spec, "N", grid)
    for occ, report in zip(grid, reports):
        assert report.achieved_log_negativity == pytest.approx(
            np.log2(1.0 + 2.0 * occ), abs=1e-8
        )
    values = [r.achieved_log_negativity for r in reports]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_chi_sweep_homodyne_zero_until_threshold():
    spec = ScenarioSpec("parametric", 1.0, "homodyne", chi=0.0)
    grid = np.arange(0.0, 0.4501, 0.05)
    reports = sweep(spec, "chi", grid)
    for chi, report in zip(grid, reports):
        assert (report.achieved_log_negativity > 1e-10) == (chi > 1.0 / 3.0 + 1e-12)


def test_sweep_marks_unstable_points():
    spec = ScenarioSpec("parametric", 1.0, "homodyne", chi=0.1)
    reports = sweep(spec, "chi", [0.6, 0.2, 0.5])
    assert reports[0] == scenarios.UnstablePoint(replace(spec, chi=0.6))
    assert reports[2] == scenarios.UnstablePoint(replace(spec, chi=0.5))
    assert reports[1].to_dict() == run_scenario(replace(spec, chi=0.2)).to_dict()


def test_monotonicity_contrast_in_occupation():
    # optimal strategy improves with thermal occupation, homodyne degrades
    grid = np.linspace(0.0, 5.0, 6)
    optimal = [
        r.achieved_log_negativity
        for r in sweep(ScenarioSpec("parametric", 0.0, "optimal", chi=0.3), "N", grid)
    ]
    homodyne = [
        r.achieved_log_negativity
        for r in sweep(ScenarioSpec("parametric", 0.0, "homodyne", chi=0.3), "N", grid)
    ]
    assert all(b >= a - 1e-10 for a, b in zip(optimal, optimal[1:]))
    assert all(b <= a + 1e-10 for a, b in zip(homodyne, homodyne[1:]))


def test_strategies_coincide_at_zero_temperature():
    for kind, kwargs in (("free_two_mode", {}), ("parametric", {"chi": 0.3})):
        r_opt = run_scenario(ScenarioSpec(kind, 0.0, "optimal", **kwargs))
        r_hom = run_scenario(ScenarioSpec(kind, 0.0, "homodyne", **kwargs))
        assert np.max(np.abs(r_opt.sigma_c - r_hom.sigma_c)) <= 1e-8
        assert r_opt.achieved_log_negativity == pytest.approx(
            r_hom.achieved_log_negativity, abs=1e-8
        )


def test_sweep_rejects_bad_parameter():
    with pytest.raises(ValueError):
        sweep(ScenarioSpec("free_single", 1.0), "kappa", [1.0])
    with pytest.raises(ValueError):
        sweep(ScenarioSpec("free_single", 1.0), "N", [])


@pytest.mark.parametrize(
    "parameter, field, grid, systems",
    [
        ("eta", "eta", [0.3, 0.6, 0.9, 1.0], 1),
        ("N", "n_th", [0.5, 1.0, 3.0], 3),
        ("chi", "chi", [0.1, 0.3, 0.1], 2),
    ],
)
def test_sweep_builds_one_limits_per_system(monkeypatch, parameter, field, grid, systems):
    spec = ScenarioSpec("parametric", 1.0, chi=0.3)
    expected = [run_scenario(replace(spec, **{field: value})) for value in grid]
    built = []
    of = scenarios.Limits.of
    monkeypatch.setattr(scenarios.Limits, "of", lambda dd: built.append(dd) or of(dd))
    reports = sweep(spec, parameter, grid)
    assert len(built) == systems
    assert [r.to_dict() for r in reports] == [r.to_dict() for r in expected]
