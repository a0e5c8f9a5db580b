"""Unravellings, measurement matrices and the conditional steady state."""

import numpy as np
import pytest

from gendyne import (
    Bipartition,
    ThermalBath,
    UnravellingMatrix,
    apply_efficiency,
    log_negativity,
    lyapunov_steady_state,
    measurement_matrices,
    named_unravelling,
    physicality_check,
    riccati_rhs,
    riccati_steady_state,
    solve_riccati,
    stabilising_check,
    symplectic_eigenvalues,
    thermal_drift_diffusion,
    validate_unravelling,
)
from gendyne.linalg import min_eigenvalue, psd_tolerance
from conftest import random_stable_thermal_system, random_valid_unravelling


def free_system(*occ):
    return thermal_drift_diffusion(None, ThermalBath(occ))


def test_validate_unravelling_heterodyne_like():
    u = UnravellingMatrix(np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex))
    assert validate_unravelling(u).valid


def test_validate_unravelling_rejects_asymmetric_upsilon():
    ups = np.zeros((2, 2), dtype=complex)
    ups[0, 1] = 0.3
    u = UnravellingMatrix(np.eye(2, dtype=complex), ups)
    assert not validate_unravelling(u).valid


def test_named_unravellings_are_valid():
    for occ in (0.0, 1.0, 3.0):
        bath1 = ThermalBath((occ,))
        bath2 = ThermalBath((occ, occ))
        for kind, bath in (
            ("optimal_squeeze", bath1),
            ("homodyne_single", bath1),
            ("optimal_entangle", bath2),
            ("homodyne_nonlocal", bath2),
        ):
            diag = validate_unravelling(named_unravelling(kind, bath))
            assert diag.valid, (kind, occ, diag)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        named_unravelling("heterodyne", ThermalBath((1.0,)))
    with pytest.raises(ValueError):
        named_unravelling("optimal_squeeze", ThermalBath((1.0, 1.0)))


def test_measurement_matrices_zero_unravelling():
    dd, couplings = free_system(1.0)
    m = measurement_matrices(couplings, UnravellingMatrix.zero(2))
    assert np.all(m.c == 0.0)
    assert np.all(m.gamma == 0.0)


def test_riccati_rhs_reduces_to_lyapunov_for_zero_measurement():
    dd, couplings = free_system(1.0)
    m = measurement_matrices(couplings, UnravellingMatrix.zero(2))
    sigma = np.diag([2.0, 1.5])
    expected = dd.a @ sigma + sigma @ dd.a.T + dd.d
    assert np.allclose(riccati_rhs(sigma, dd, m), expected)


def test_homodyne_thermal_fixed_point_rhs():
    # the thermal CM is an exact fixed point of homodyne monitoring
    for occ in (0.0, 1.0, 2.5):
        dd, couplings = free_system(occ)
        m = measurement_matrices(couplings, named_unravelling("homodyne_single", ThermalBath((occ,))))
        rhs = riccati_rhs((1.0 + 2.0 * occ) * np.eye(2), dd, m)
        assert np.max(np.abs(rhs)) < 1e-12

    dd2, couplings2 = free_system(1.0, 1.0)
    m2 = measurement_matrices(
        couplings2, named_unravelling("homodyne_nonlocal", ThermalBath((1.0, 1.0)))
    )
    assert np.max(np.abs(riccati_rhs(3.0 * np.eye(4), dd2, m2))) < 1e-12


def test_optimal_squeeze_fixed_point_rhs():
    dd, couplings = free_system(1.0)
    m = measurement_matrices(couplings, named_unravelling("optimal_squeeze", ThermalBath((1.0,))))
    rhs = riccati_rhs(np.diag([1.0 / 3.0, 3.0]), dd, m)
    assert np.max(np.abs(rhs)) < 1e-12
    # fixed-point identity: drift+noise balance equals the information term
    sigma = np.diag([1.0 / 3.0, 3.0])
    k = m.c @ sigma + m.gamma
    assert np.allclose(dd.a @ sigma + sigma @ dd.a.T + dd.d, k.T @ k, atol=1e-12)


def test_riccati_steady_state_examples():
    dd, couplings = free_system(2.0)
    m = measurement_matrices(couplings, named_unravelling("homodyne_single", ThermalBath((2.0,))))
    sigma = riccati_steady_state(dd, m)
    assert np.allclose(sigma.matrix, 5.0 * np.eye(2), atol=1e-10)

    dd1, couplings1 = free_system(1.0)
    m1 = measurement_matrices(couplings1, named_unravelling("optimal_squeeze", ThermalBath((1.0,))))
    sigma1 = riccati_steady_state(dd1, m1)
    assert np.allclose(np.sort(np.linalg.eigvalsh(sigma1.matrix)), [1.0 / 3.0, 3.0], atol=1e-10)
    assert np.allclose(symplectic_eigenvalues(sigma1), [1.0], atol=1e-10)

    dd2, couplings2 = free_system(1.0, 1.0)
    m2 = measurement_matrices(
        couplings2, named_unravelling("optimal_entangle", ThermalBath((1.0, 1.0)))
    )
    sigma2 = riccati_steady_state(dd2, m2)
    assert log_negativity(sigma2, Bipartition.last_modes(2)) == pytest.approx(
        np.log2(3.0), abs=1e-10
    )


def test_stabilising_check_examples():
    dd, _ = free_system(1.0)
    ok, margin = stabilising_check(3.0 * np.eye(2), dd)
    assert ok and abs(margin) < 1e-12

    ok2, margin2 = stabilising_check(10.0 * np.eye(2), dd)
    assert not ok2 and margin2 < -1.0

    ok3, _ = stabilising_check(np.diag([1.0 / 3.0, 3.0]), dd)
    assert ok3


def test_apply_efficiency_identity_and_range():
    u = named_unravelling("optimal_squeeze", ThermalBath((1.0,)))
    assert apply_efficiency(u, 1.0).eta == u.eta
    with pytest.raises(ValueError):
        apply_efficiency(u, 1.2)
    with pytest.raises(ValueError):
        apply_efficiency(u, -0.1)


def test_zero_efficiency_recovers_lyapunov():
    dd, couplings = free_system(1.0, 1.0)
    u = apply_efficiency(named_unravelling("optimal_entangle", ThermalBath((1.0, 1.0))), 0.0)
    m = measurement_matrices(couplings, u, dd)
    sigma = riccati_steady_state(dd, m)
    assert np.allclose(sigma.matrix, lyapunov_steady_state(dd).matrix, atol=1e-10)


def test_efficiency_needs_dynamics():
    dd, couplings = free_system(1.0, 1.0)
    u = apply_efficiency(named_unravelling("optimal_entangle", ThermalBath((1.0, 1.0))), 0.8)
    with pytest.raises(ValueError):
        measurement_matrices(couplings, u)


def test_efficiency_threshold_free_system():
    # entanglement appears only above (1+2N)/(2(1+N)); exactly zero at threshold
    occ = 1.0
    bath = ThermalBath((occ, occ))
    dd, couplings = free_system(occ, occ)
    bp = Bipartition.last_modes(2)
    base = named_unravelling("optimal_entangle", bath)
    for eta, expect_positive in ((0.7, False), (0.75, False), (0.76, True)):
        m = measurement_matrices(couplings, apply_efficiency(base, eta), dd)
        sigma = riccati_steady_state(dd, m)
        assert (log_negativity(sigma, bp) > 1e-10) == expect_positive


def test_log_negativity_monotone_in_efficiency():
    bath = ThermalBath((1.0, 1.0))
    dd, couplings = free_system(1.0, 1.0)
    bp = Bipartition.last_modes(2)
    base = named_unravelling("optimal_entangle", bath)
    values = []
    for eta in np.linspace(0.0, 1.0, 21):
        m = measurement_matrices(couplings, apply_efficiency(base, eta), dd)
        sigma = riccati_steady_state(dd, m, probe_uniqueness=False)
        values.append(log_negativity(sigma, bp))
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


def test_homodyne_equals_optimal_at_zero_temperature():
    bath1 = ThermalBath((0.0,))
    u_hom = named_unravelling("homodyne_single", bath1)
    u_opt = named_unravelling("optimal_squeeze", bath1)
    assert np.allclose(u_hom.theta, u_opt.theta)
    assert np.allclose(u_hom.upsilon, u_opt.upsilon)

    bath2 = ThermalBath((0.0, 0.0))
    u_hom2 = named_unravelling("homodyne_nonlocal", bath2)
    u_opt2 = named_unravelling("optimal_entangle", bath2)
    assert np.allclose(u_hom2.theta, u_opt2.theta)
    assert np.allclose(u_hom2.upsilon, u_opt2.upsilon)


def test_phase_rotational_invariance():
    # the monitored quadrature angle rotates the state, not its spectrum
    bath = ThermalBath((1.5,))
    dd, couplings = free_system(1.5)
    reference = None
    for phi in (0.0, 0.3, np.pi / 4, 1.2):
        u = named_unravelling("optimal_squeeze", bath, phi=phi)
        sigma = riccati_steady_state(dd, measurement_matrices(couplings, u))
        eigs = np.sort(np.linalg.eigvalsh(sigma.matrix))
        nus = symplectic_eigenvalues(sigma)
        if reference is None:
            reference = eigs
        assert np.allclose(eigs, reference, atol=1e-9)
        assert np.allclose(nus, [1.0], atol=1e-9)
        # homodyne stays thermal at any angle
        uh = named_unravelling("homodyne_single", bath, phi=phi)
        sh = riccati_steady_state(dd, measurement_matrices(couplings, uh))
        assert np.allclose(sh.matrix, 4.0 * np.eye(2), atol=1e-9)


def test_unequal_bath_entangler_is_pure_tms():
    bath = ThermalBath((2.0, 1.0))
    dd, couplings = thermal_drift_diffusion(None, bath)
    m = measurement_matrices(couplings, named_unravelling("optimal_entangle", bath))
    sigma = riccati_steady_state(dd, m)
    assert log_negativity(sigma, Bipartition.last_modes(2)) == pytest.approx(
        np.log2(3.0), abs=1e-8
    )
    assert np.allclose(symplectic_eigenvalues(sigma), [1.0, 1.0], atol=1e-8)


def test_homodyne_nonlocal_requires_equal_baths():
    with pytest.raises(ValueError):
        named_unravelling("homodyne_nonlocal", ThermalBath((2.0, 1.0)))


def test_riccati_contract_on_random_unravellings(rng):
    # conditioning never increases the CM; outputs are physical + stabilising
    for _ in range(60):
        dd, couplings, _ = random_stable_thermal_system(rng)
        u = random_valid_unravelling(couplings.num_ops, rng)
        sol = solve_riccati(dd, measurement_matrices(couplings, u), probe_uniqueness=False)
        assert sol.residual <= 1e-10 * np.max(np.abs(dd.d))
        assert physicality_check(sol.sigma).physical
        assert stabilising_check(sol.sigma, dd).stabilising
        lyap = lyapunov_steady_state(dd).matrix
        assert min_eigenvalue(lyap - sol.sigma) >= -psd_tolerance(lyap)


def stationary_rk4_flow(dd, m, dt=0.01, max_steps=40000):
    """Integrate the conditional flow by RK4 from the Lyapunov state until
    max|rhs| <= 1e-11 ||D||_max; a fixed point of the RK4 map is a zero of
    the right-hand side, so the result is independent of any CARE solver."""
    sigma = lyapunov_steady_state(dd).matrix
    tol = 1e-11 * np.max(np.abs(dd.d))
    for _ in range(max_steps):
        k1 = riccati_rhs(sigma, dd, m)
        if np.max(np.abs(k1)) <= tol:
            return sigma
        k2 = riccati_rhs(sigma + 0.5 * dt * k1, dd, m)
        k3 = riccati_rhs(sigma + 0.5 * dt * k2, dd, m)
        k4 = riccati_rhs(sigma + dt * k3, dd, m)
        sigma = sigma + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        sigma = (sigma + sigma.T) / 2.0
    raise AssertionError("RK4 conditional flow did not become stationary")


def test_care_solver_agrees_with_stationary_flow(rng):
    for _ in range(15):
        dd, couplings, _ = random_stable_thermal_system(rng, n=2)
        u = random_valid_unravelling(4, rng)
        m = measurement_matrices(couplings, u)
        care = solve_riccati(dd, m, probe_uniqueness=False)
        flow = stationary_rk4_flow(dd, m)
        assert np.max(np.abs(care.sigma - flow)) <= 1e-8


def test_uniqueness_probe_reported():
    dd, couplings = free_system(1.0)
    m = measurement_matrices(couplings, named_unravelling("optimal_squeeze", ThermalBath((1.0,))))
    sol = solve_riccati(dd, m)
    assert sol.unique is True
