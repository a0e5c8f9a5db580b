"""Spectral bounds and the saturation (tightness) predicates."""

import itertools

import numpy as np
import pytest

import gendyne.bounds as bounds
from gendyne import (
    Bipartition,
    DriftDiffusion,
    ScenarioSpec,
    ThermalBath,
    UnstableSystemError,
    eig_product_bound,
    entanglement_bound,
    log_negativity,
    measurement_matrices,
    parametric_hamiltonian,
    pt_nu_lower_bound,
    solve_riccati,
    squeezing_bound,
    stability_check,
    symplectic_form,
    thermal_drift_diffusion,
    tightness_entanglement,
    tightness_squeezing,
)
from gendyne.scenarios import Limits, stable_system
from conftest import random_stable_thermal_system, random_valid_unravelling

BP = Bipartition.last_modes(2)


def free_dd(*occ):
    return thermal_drift_diffusion(None, ThermalBath(occ))[0]


def parametric_dd(chi, occ):
    return thermal_drift_diffusion(parametric_hamiltonian(chi), ThermalBath((occ, occ)))[0]


def detuned_parametric_dd(chi, detuning, *occ):
    h = parametric_hamiltonian(chi) + detuning * np.eye(4)
    return thermal_drift_diffusion(h, ThermalBath(occ))[0]


def beam_splitter_dd(g, *occ):
    # g (x1 x2 + p1 p2): a passive exchange, so -(A + A^T) stays fully degenerate
    h = np.zeros((4, 4))
    h[0, 2] = h[2, 0] = h[1, 3] = h[3, 1] = g
    return thermal_drift_diffusion(h, ThermalBath(occ))[0]


def test_squeezing_bound_values():
    assert squeezing_bound(free_dd(1.0)) == pytest.approx(1.0 / 3.0)
    assert squeezing_bound(free_dd(0.0)) == pytest.approx(1.0)
    assert squeezing_bound(parametric_dd(0.3, 1.0)) == pytest.approx(0.4 / 3.0)


def test_entanglement_bound_values():
    assert entanglement_bound(free_dd(1.0, 1.0)) == pytest.approx(np.log2(3.0))
    assert entanglement_bound(parametric_dd(0.3, 1.0)) == pytest.approx(np.log2(7.5))
    assert entanglement_bound(free_dd(0.0, 0.0)) == 0.0


def test_eig_product_bound_values():
    assert eig_product_bound(free_dd(1.0, 1.0)) == pytest.approx(9.0)
    assert eig_product_bound(free_dd(0.0, 0.0)) == pytest.approx(1.0)
    assert eig_product_bound(parametric_dd(0.3, 1.0)) == pytest.approx(56.25)


def test_pt_nu_lower_bound_values():
    assert pt_nu_lower_bound(free_dd(1.0, 1.0)) == pytest.approx(1.0 / 3.0)
    assert pt_nu_lower_bound(free_dd(0.0, 0.0)) == pytest.approx(1.0)
    # consistency with the entanglement bound when active
    dd = parametric_dd(0.3, 1.0)
    assert pt_nu_lower_bound(dd) == pytest.approx(2.0 ** (-entanglement_bound(dd)))


def test_bounds_require_stability():
    dd = parametric_dd(0.45, 1.0)  # stable
    squeezing_bound(dd)
    with pytest.raises(UnstableSystemError):
        squeezing_bound(thermal_drift_diffusion(parametric_hamiltonian(0.6), ThermalBath((1.0, 1.0)))[0])


@pytest.mark.parametrize(
    "make_dd",
    [lambda: free_dd(2.0, 1.0), lambda: parametric_dd(0.3, 1.0)],
    ids=["unequal_baths", "parametric"],
)
def test_one_spectrum_per_drift_diffusion(monkeypatch, make_dd):
    # stability, the four bounds and both predicates share one decomposition
    # of -(A + A^T) and one of D, held read-only on the pair
    dd = make_dd()
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    assert stability_check(dd).stable
    for bound in (squeezing_bound, eig_product_bound, pt_nu_lower_bound, entanglement_bound):
        bound(dd)
    tightness_squeezing(dd)
    tightness_entanglement(dd, BP)
    assert calls == ["eigh", "eigh"]
    assert stability_check(dd).alphas is dd.spectrum.alphas
    with pytest.raises(ValueError, match="read-only"):
        dd.spectrum.alphas[0] = 0.0


def test_tightness_squeezing_cases():
    assert tightness_squeezing(free_dd(1.0)) is True  # fully degenerate spectra
    mismatched = DriftDiffusion(-np.diag([1.0, 2.0]) / 2.0, np.diag([1.0, 3.0]))
    assert tightness_squeezing(mismatched) is False
    assert tightness_squeezing(parametric_dd(0.3, 1.0)) is True


def test_tightness_entanglement_cases():
    assert tightness_entanglement(free_dd(1.0, 1.0), BP) is True
    assert tightness_entanglement(free_dd(2.0, 1.0), BP) is False
    assert tightness_entanglement(parametric_dd(0.3, 1.0), BP) is True
    assert tightness_entanglement(detuned_parametric_dd(0.3, 0.1, 1.0, 1.0), BP) is True
    assert tightness_entanglement(detuned_parametric_dd(0.3, 0.1, 2.0, 1.0), BP) is False
    assert tightness_entanglement(beam_splitter_dd(0.2, 1.0, 1.0), BP) is True
    assert tightness_entanglement(beam_splitter_dd(0.2, 2.0, 1.0), BP) is False
    for transposed in ({2}, {0, 1}):
        cut = Bipartition(3, frozenset(transposed))
        assert tightness_entanglement(free_dd(1.0, 1.0, 1.0), cut) is True
        assert tightness_entanglement(free_dd(1.0, 1.0, 2.0), cut) is False


def test_saturation_forms_in_quadrature_convention():
    # the exact entanglement predicate rests on two identities of the
    # (x1, p1, ..., xn, pn) convention: W = Omega^T Omega_pt Omega is
    # antisymmetric, and with G = (W^T Omega + Omega^T W)/2, (T - G)/2 is the
    # diagonal projector onto the x quadratures of the transposed modes
    for n in range(2, 5):
        omega = symplectic_form(n)
        for m in range(1, n):
            for transposed in itertools.combinations(range(n), m):
                bp = Bipartition(n, frozenset(transposed))
                w = omega.T @ bp.pt_form @ omega
                g = (w.T @ omega + omega.T @ w) / 2.0
                x_transposed = np.zeros(2 * n)
                x_transposed[[2 * k for k in transposed]] = 1.0
                assert np.array_equal(w.T, -w)
                assert np.array_equal((bp.t_matrix - g) / 2.0, np.diag(x_transposed))


def test_limits_need_no_numerical_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tightness must not run a numerical search")

    monkeypatch.setattr(bounds, "minimize", refuse)
    specs = [
        (ScenarioSpec("free_single", 1.0), None),
        (ScenarioSpec("free_two_mode", 1.0), True),
        (ScenarioSpec("free_unequal_baths", (2.0, 1.0)), False),
        (ScenarioSpec("parametric", 1.0, chi=0.3), True),
    ]
    for spec, tight in specs:
        assert Limits.of(stable_system(spec)[0]).tightness_entanglement is tight


def test_tightness_entanglement_other_side_transposed():
    # the auxiliary orthogonality also rules out the mirrored bipartition
    assert tightness_entanglement(free_dd(2.0, 1.0), Bipartition(2, frozenset({0}))) is False


def test_entanglement_bound_monotone_in_occupation():
    values = [entanglement_bound(free_dd(occ, occ)) for occ in np.linspace(0.0, 10.0, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_achieved_equals_bound_when_tight():
    # saturable cases: achieved log-negativity == bound and the state is pure
    from gendyne import named_unravelling, riccati_steady_state, symplectic_eigenvalues

    for dd, bath in (
        (free_dd(1.0, 1.0), ThermalBath((1.0, 1.0))),
        (parametric_dd(0.3, 1.0), ThermalBath((1.0, 1.0))),
    ):
        assert tightness_entanglement(dd, BP) is True
        _, couplings = thermal_drift_diffusion(
            None if np.allclose(dd.a, -0.5 * np.eye(4)) else parametric_hamiltonian(0.3),
            bath,
        )
        m = measurement_matrices(couplings, named_unravelling("optimal_entangle", bath))
        sigma = riccati_steady_state(dd, m)
        assert log_negativity(sigma, BP) == pytest.approx(entanglement_bound(dd), abs=1e-6)
        assert np.allclose(symplectic_eigenvalues(sigma), 1.0, atol=1e-6)


def test_bounds_hold_on_random_monitored_systems(rng):
    # sampled falsification: no conditional steady state beats the bounds
    for _ in range(80):
        dd, couplings, _ = random_stable_thermal_system(rng)
        u = random_valid_unravelling(couplings.num_ops, rng)
        sigma = solve_riccati(dd, measurement_matrices(couplings, u), probe_uniqueness=False).sigma
        eigs = np.sort(np.linalg.eigvalsh(sigma))
        assert eigs[0] >= squeezing_bound(dd) - 1e-8
        assert eigs[-1] * eigs[-2] <= eig_product_bound(dd) + 1e-8
        if dd.n >= 2:
            bp = Bipartition.last_modes(dd.n)
            assert log_negativity(sigma, bp) <= entanglement_bound(dd) + 1e-8
