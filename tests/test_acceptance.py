"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with the quantities it checked.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import numpy as np
import pytest

from gendyne import (
    Bipartition,
    ScenarioSpec,
    ThermalBath,
    TrajectoryConfig,
    apply_efficiency,
    closed_loop,
    ensemble_statistics,
    entanglement_bound,
    feedback_gain,
    log_negativity,
    lyapunov_steady_state,
    measurement_matrices,
    named_unravelling,
    parametric_hamiltonian,
    pt_min_symplectic_eigenvalue,
    riccati_steady_state,
    run_scenario,
    simulate_closed_loop,
    solve_riccati,
    symplectic_eigenvalues,
    thermal_drift_diffusion,
    threshold_coupling,
    threshold_efficiency,
    tightness_entanglement,
    unravelling_for_target,
)
from conftest import (
    random_physical_cm,
    random_stable_thermal_system,
    random_valid_unravelling,
)

BP = Bipartition.last_modes(2)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def free(*occ):
    return thermal_drift_diffusion(None, ThermalBath(occ))


def parametric(chi, occ):
    return thermal_drift_diffusion(parametric_hamiltonian(chi), ThermalBath((occ, occ)))


def test_criterion_1_free_system_squeezing():
    worst_eig, worst_nu = 0.0, 0.0
    for occ in (0.0, 1.0, 5.0):
        dd, couplings = free(occ)
        m = measurement_matrices(couplings, named_unravelling("optimal_squeeze", ThermalBath((occ,))))
        sigma = riccati_steady_state(dd, m)
        target = 1.0 / (1.0 + 2.0 * occ)
        worst_eig = max(worst_eig, abs(np.linalg.eigvalsh(sigma.matrix)[0] - target))
        worst_nu = max(worst_nu, float(np.max(np.abs(symplectic_eigenvalues(sigma) - 1.0))))
    ok = worst_eig <= 1e-8 and worst_nu <= 1e-8
    report(
        "criterion 1 (free-system squeezing, N in {0,1,5})",
        ok,
        f"max |min-eig - 1/(1+2N)| = {worst_eig:.2e}, max |nu-1| = {worst_nu:.2e}",
    )


def test_criterion_2_homodyne_null_result():
    worst = 0.0
    for occ in (0.0, 1.0, 2.5, 10.0):
        dd1, c1 = free(occ)
        m1 = measurement_matrices(c1, named_unravelling("homodyne_single", ThermalBath((occ,))))
        s1 = riccati_steady_state(dd1, m1).matrix
        worst = max(worst, float(np.max(np.abs(s1 - (1 + 2 * occ) * np.eye(2)))))

        dd2, c2 = free(occ, occ)
        m2 = measurement_matrices(c2, named_unravelling("homodyne_nonlocal", ThermalBath((occ, occ))))
        s2 = riccati_steady_state(dd2, m2).matrix
        worst = max(worst, float(np.max(np.abs(s2 - (1 + 2 * occ) * np.eye(4)))))

    # at zero temperature homodyne and optimal coincide (same correlations,
    # same measurement matrices, same steady state)
    coincide = 0.0
    bath1, bath2 = ThermalBath((0.0,)), ThermalBath((0.0, 0.0))
    for hom, opt, c in (
        ("homodyne_single", "optimal_squeeze", free(0.0)[1]),
        ("homodyne_nonlocal", "optimal_entangle", free(0.0, 0.0)[1]),
    ):
        bath = bath1 if hom == "homodyne_single" else bath2
        uh, uo = named_unravelling(hom, bath), named_unravelling(opt, bath)
        coincide = max(coincide, float(np.max(np.abs(uh.u_matrix - uo.u_matrix))))
        mh = measurement_matrices(c, uh)
        mo = measurement_matrices(c, uo)
        coincide = max(coincide, float(np.max(np.abs(mh.c - mo.c))))
        coincide = max(coincide, float(np.max(np.abs(mh.gamma - mo.gamma))))
    ok = worst <= 1e-8 and coincide <= 1e-8
    report(
        "criterion 2 (homodyne leaves the thermal state)",
        ok,
        f"max |sigma_c - D_th| = {worst:.2e}, N=0 optimal/homodyne gap = {coincide:.2e}",
    )


def test_criterion_3_free_system_entanglement():
    dd, couplings = free(1.0, 1.0)
    m = measurement_matrices(couplings, named_unravelling("optimal_entangle", ThermalBath((1.0, 1.0))))
    sigma = riccati_steady_state(dd, m)
    achieved = log_negativity(sigma, BP)
    bound = entanglement_bound(dd)
    equal_ok = abs(achieved - np.log2(3.0)) <= 1e-8 and abs(achieved - bound) <= 1e-8

    bath_u = ThermalBath((2.0, 1.0))
    dd_u, c_u = thermal_drift_diffusion(None, bath_u)
    m_u = measurement_matrices(c_u, named_unravelling("optimal_entangle", bath_u))
    sigma_u = riccati_steady_state(dd_u, m_u)
    achieved_u = log_negativity(sigma_u, BP)
    unequal_ok = (
        abs(achieved_u - np.log2(3.0)) <= 1e-8
        and tightness_entanglement(dd_u, BP) is False
    )
    ok = equal_ok and unequal_ok
    report(
        "criterion 3 (free-system entanglement)",
        ok,
        f"equal baths E_N = {achieved:.10f} (= bound), unequal E_N = {achieved_u:.10f}, tight = False",
    )


def test_criterion_4_efficiency_thresholds_free():
    errs = []
    for occ, target in ((1.0, 0.75), (5.0, 11.0 / 12.0)):
        spec = ScenarioSpec("free_two_mode", occ, "optimal")
        dd, couplings = free(occ, occ)
        base = named_unravelling("optimal_entangle", ThermalBath((occ, occ)))

        def unclamped(eta):
            m = measurement_matrices(couplings, apply_efficiency(base, eta), dd)
            s = solve_riccati(dd, m, probe_uniqueness=False).sigma
            return -np.log2(pt_min_symplectic_eigenvalue(s, BP))

        lo, hi = 0.5, 1.0
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if unclamped(mid) < 0:
                lo = mid
            else:
                hi = mid
        numeric = 0.5 * (lo + hi)
        errs.append(abs(numeric - target))
        assert threshold_efficiency(spec) == pytest.approx(target, abs=1e-12)

    grid = [0.5, 1.0, 2.0, 5.0, 10.0]
    thresholds = [threshold_efficiency(ScenarioSpec("free_two_mode", occ)) for occ in grid]
    monotone = all(b > a for a, b in zip(thresholds, thresholds[1:]))
    above_half = all(t > 0.5 for t in thresholds)
    ok = max(errs) <= 1e-3 and monotone and above_half
    report(
        "criterion 4 (free-system efficiency thresholds)",
        ok,
        f"zero-crossing errors {[f'{e:.1e}' for e in errs]}, increasing and > 1/2 on N grid",
    )


def test_criterion_5_parametric_scenario():
    details = []
    ok = True
    for chi, occ in ((0.3, 0.0), (0.3, 1.0), (0.45, 1.0)):
        dd, couplings = parametric(chi, occ)
        m = measurement_matrices(couplings, named_unravelling("optimal_entangle", ThermalBath((occ, occ))))
        sigma = riccati_steady_state(dd, m)
        achieved = log_negativity(sigma, BP)
        target = np.log2(1 + 2 * occ) - np.log2(1 - 2 * chi)
        ok &= abs(achieved - target) <= 1e-6
        details.append(f"opt({chi},{occ}) err {abs(achieved - target):.1e}")

    for chi, occ in ((0.3, 0.0), (0.3, 1.0), (0.45, 1.0), (0.2, 2.0)):
        dd, _ = parametric(chi, occ)
        sigma0 = lyapunov_steady_state(dd)
        free_value = log_negativity(sigma0, BP)
        target0 = max(0.0, np.log2(1 + 2 * chi) - np.log2(1 + 2 * occ))
        ok &= abs(free_value - target0) <= 1e-8

        dd_h, c_h = parametric(chi, occ)
        m_h = measurement_matrices(c_h, named_unravelling("homodyne_nonlocal", ThermalBath((occ, occ))))
        hom = log_negativity(riccati_steady_state(dd_h, m_h), BP)
        target_h = max(0.0, -np.log2((1 + 2 * occ) * (1 - 2 * chi)))
        ok &= abs(hom - target_h) <= 1e-6

    # homodyne zero crossing in chi at chi_t(1) = 1/3
    assert threshold_coupling(1.0) == pytest.approx(1.0 / 3.0)
    lo, hi = 0.05, 0.45
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        dd_h, c_h = parametric(mid, 1.0)
        m_h = measurement_matrices(c_h, named_unravelling("homodyne_nonlocal", ThermalBath((1.0, 1.0))))
        nu = pt_min_symplectic_eigenvalue(riccati_steady_state(dd_h, m_h).matrix, BP)
        if nu > 1.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    ok &= abs(crossing - 1.0 / 3.0) <= 1e-3

    grid = np.linspace(0.0, 5.0, 6)
    optimal = [
        run_scenario(ScenarioSpec("parametric", occ, "optimal", chi=0.3)).achieved_log_negativity
        for occ in grid
    ]
    homodyne = [
        run_scenario(ScenarioSpec("parametric", occ, "homodyne", chi=0.3)).achieved_log_negativity
        for occ in grid
    ]
    ok &= all(b >= a - 1e-10 for a, b in zip(optimal, optimal[1:]))
    ok &= all(b <= a + 1e-10 for a, b in zip(homodyne, homodyne[1:]))
    report(
        "criterion 5 (parametric closed forms and monotonicity contrast)",
        ok,
        f"{', '.join(details)}, chi_t crossing err {abs(crossing - 1/3):.1e}",
    )


def test_criterion_6_parametric_efficiency_thresholds():
    values = []
    ok = True
    for occ, target in ((1.0, 0.80), (2.5, 0.92), (10.0, 0.98)):
        eta = threshold_efficiency(ScenarioSpec("parametric", occ, "optimal", chi=0.3))
        values.append(eta)
        ok &= abs(eta - target) <= 0.01
    report(
        "criterion 6 (parametric efficiency thresholds at chi = 0.3)",
        ok,
        f"computed {[f'{v:.4f}' for v in values]} vs 0.80/0.92/0.98 (+-0.01)",
    )


def test_criterion_7_closed_loop_identity():
    worst = 0.0
    cases = []
    for spec in (
        ScenarioSpec("free_single", 0.0, "optimal"),
        ScenarioSpec("free_single", 1.0, "optimal"),
        ScenarioSpec("free_single", 5.0, "optimal"),
        ScenarioSpec("free_single", 2.5, "homodyne"),
        ScenarioSpec("free_two_mode", 1.0, "optimal"),
        ScenarioSpec("free_two_mode", 1.0, "homodyne"),
        ScenarioSpec("free_two_mode", 1.0, "optimal", eta=0.9),
        ScenarioSpec("free_unequal_baths", (2.0, 1.0), "optimal"),
        ScenarioSpec("parametric", 0.0, "optimal", chi=0.3),
        ScenarioSpec("parametric", 1.0, "optimal", chi=0.3),
        ScenarioSpec("parametric", 1.0, "optimal", chi=0.45),
        ScenarioSpec("parametric", 1.0, "homodyne", chi=0.45),
    ):
        residual = run_scenario(spec).closed_loop_residual
        worst = max(worst, residual)
        cases.append(residual)
    ok = worst <= 1e-8
    report(
        "criterion 7 (average closed loop reproduces the conditional CM)",
        ok,
        f"worst |lyap(A',D') - sigma_c| = {worst:.2e} over {len(cases)} scenarios",
    )


def test_criterion_8_property_suites():
    rng = np.random.default_rng(8082026)
    # spectral pairing and partial-transposition bounds on 1000 random CMs
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        sigma = random_physical_cm(n, rng)
        eigs = np.sort(np.linalg.eigvalsh(sigma))
        for j in range(n):
            if eigs[j] * eigs[-1 - j] < 1.0 - 1e-8:
                violations += 1
        m = int(rng.integers(1, n))
        bp = Bipartition(n, frozenset(rng.choice(n, size=m, replace=False).tolist()))
        nu = pt_min_symplectic_eigenvalue(sigma, bp)
        if nu**2 < eigs[0] * eigs[1] - 1e-8:
            violations += 1
        if eigs[0] * eigs[1] < 1.0 / (eigs[-1] * eigs[-2]) - 1e-8:
            violations += 1

    # steady-state bounds on 500 random monitored systems
    for _ in range(500):
        dd, couplings, _ = random_stable_thermal_system(rng)
        u = random_valid_unravelling(couplings.num_ops, rng)
        sigma = solve_riccati(dd, measurement_matrices(couplings, u), probe_uniqueness=False).sigma
        eigs = np.sort(np.linalg.eigvalsh(sigma))
        from gendyne import eig_product_bound, squeezing_bound

        if eigs[0] < squeezing_bound(dd) - 1e-8:
            violations += 1
        if eigs[-1] * eigs[-2] > eig_product_bound(dd) + 1e-8:
            violations += 1
        if dd.n >= 2:
            bp = Bipartition.last_modes(dd.n)
            if log_negativity(sigma, bp) > entanglement_bound(dd) + 1e-8:
                violations += 1

    # synthesis round trip on 100 random reachable targets
    worst_rt = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        occ = tuple(rng.uniform(0.2, 3.0, n))
        dd, couplings = free(*occ)
        g = rng.standard_normal((2 * n, 2 * n))
        g = g @ g.T
        g *= rng.uniform(0.1, 0.95) * 2.0 * min(occ) / max(np.linalg.eigvalsh(g)[-1], 1e-12)
        target = np.eye(2 * n) + g
        u = unravelling_for_target(target, dd, couplings)
        sigma = solve_riccati(dd, measurement_matrices(couplings, u), probe_uniqueness=False).sigma
        worst_rt = max(worst_rt, float(np.max(np.abs(sigma - target))))

    ok = violations == 0 and worst_rt <= 1e-6
    report(
        "criterion 8 (property suites)",
        ok,
        f"{violations} bound violations; worst synthesis round trip {worst_rt:.2e}",
    )


@pytest.mark.slow
def test_criterion_9_monte_carlo_consistency():
    occ = 1.0
    bath = ThermalBath((occ,))
    dd, couplings = free(occ)
    m = measurement_matrices(couplings, named_unravelling("optimal_squeeze", bath))
    sigma_c = riccati_steady_state(dd, m).matrix
    sigma_lyap = lyapunov_steady_state(dd).matrix
    cfg = TrajectoryConfig(dt=1e-3, horizon=20.0, n_traj=10_000, seed=90, record_stride=100)
    window = (10.0, 20.0)

    # closed loop: reconstructed Var(x) = 1/3, ensemble mean 0
    fb = feedback_gain(sigma_c, m)
    rec = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=sigma_lyap)
    stats = ensemble_statistics(rec, window)
    tau_model = rec.tau_path[(rec.times >= window[0])].mean(axis=0)
    var_x = stats.sigma[0, 0]
    se_x = max(stats.se_sigma[0, 0], 1e-12)
    model_var_x = (stats.sigma_c + tau_model)[0, 0]
    mean_ok = np.all(np.abs(stats.mean) <= 3.0 * np.maximum(stats.se_mean, 1e-12))
    # against the scheme's own second-moment recursion the residual is pure
    # sampling error; against the continuum value an O(dt) bias remains
    var_ok = abs(var_x - model_var_x) <= 3.0 * se_x and abs(var_x - 1.0 / 3.0) <= 1e-4

    # no feedback: sigma_c + tau reconstructs the unconditional steady state
    rec2 = simulate_closed_loop(dd, m, None, cfg, sigma_lyap, np.zeros(2))
    stats2 = ensemble_statistics(rec2, window)
    dev = np.abs(stats2.sigma - sigma_lyap)
    identity_ok = np.all(dev <= 3.0 * np.maximum(stats2.se_sigma, 1e-12) + 1e-6)

    ok = bool(mean_ok and var_ok and identity_ok)
    report(
        "criterion 9 (Monte-Carlo consistency, 1e4 trajectories)",
        ok,
        f"Var(x) = {var_x:.6f} (target 1/3, SE {se_x:.1e}), "
        f"max |sigma_c+tau - lyap| = {float(np.max(dev)):.2e}",
    )
