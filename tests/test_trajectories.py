"""Stochastic ensemble simulation against the deterministic solvers."""

import json
import tracemalloc

import numpy as np
import pytest

from gendyne import (
    ScenarioSpec,
    ThermalBath,
    TrajectoryConfig,
    UnravellingMatrix,
    default_burn_in,
    ensemble_statistics,
    feedback_gain,
    lyapunov_steady_state,
    mean_spread_model,
    measurement_matrices,
    named_unravelling,
    riccati_steady_state,
    simulate_closed_loop,
    simulate_conditional,
    thermal_drift_diffusion,
)
from gendyne import trajectories
from gendyne.cli import main
from gendyne.scenarios import build_system, build_unravelling
from gendyne.trajectories import _moment_kernel, _noise_factors, _trajectory_generators


def free_system(*occ):
    return thermal_drift_diffusion(None, ThermalBath(occ))


def optimal_setup(occ=1.0):
    bath = ThermalBath((occ,))
    dd, couplings = thermal_drift_diffusion(None, bath)
    m = measurement_matrices(couplings, named_unravelling("optimal_squeeze", bath))
    return dd, m


def test_config_validation():
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.0, horizon=1.0, n_traj=1, seed=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, horizon=0.01, n_traj=1, seed=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, horizon=1.0, n_traj=0, seed=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, horizon=1.0, n_traj=1, seed=1, record_stride=0)
    # spawn indices from 2**32 on take two words of the seed sequence's entropy
    with pytest.raises(ValueError):
        TrajectoryConfig(dt=0.1, horizon=1.0, n_traj=2**32, seed=1)


def test_noise_free_contraction_is_deterministic():
    dd, couplings = free_system(0.0)
    m = measurement_matrices(couplings, UnravellingMatrix.zero(2))
    cfg = TrajectoryConfig(dt=1e-3, horizon=2.0, n_traj=4, seed=3, record_stride=100)
    rec = simulate_conditional(dd, m, np.eye(2), np.array([2.0, 0.0]), cfg)
    expected = 2.0 * np.exp(-rec.times / 2.0)
    assert np.allclose(rec.means[0, :, 0], expected, atol=2e-3)
    assert np.all(rec.means[:, :, 1] == 0.0)
    # no noise enters: every trajectory is the same curve
    for k in range(1, cfg.n_traj):
        assert np.array_equal(rec.means[k], rec.means[0])


def test_sigma_path_converges_to_riccati():
    dd, m = optimal_setup(1.0)
    cfg = TrajectoryConfig(dt=1e-2, horizon=40.0, n_traj=1, seed=5, record_stride=100)
    rec = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), cfg)
    target = riccati_steady_state(dd, m).matrix
    assert np.max(np.abs(rec.sigma_c_path[-1] - target)) <= 1e-6
    assert np.allclose(target, np.diag([1.0 / 3.0, 3.0]), atol=1e-9)
    # the covariance path is one shared deterministic array for the ensemble
    assert rec.sigma_c_path.shape == (len(rec.times), 2, 2)


def test_reproducibility_bit_identical():
    dd, m = optimal_setup(1.0)
    cfg = TrajectoryConfig(
        dt=1e-3, horizon=1.0, n_traj=7, seed=99, record_stride=10, record_currents=True
    )
    rec1 = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), cfg)
    rec2 = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), cfg)
    assert np.array_equal(rec1.means, rec2.means)
    assert np.array_equal(rec1.currents, rec2.currents)
    assert np.array_equal(rec1.sigma_c_path, rec2.sigma_c_path)


def test_trajectory_streams_independent_of_ensemble_size():
    # trajectory i draws the same noise no matter how many others run
    dd, m = optimal_setup(1.0)
    small = TrajectoryConfig(dt=1e-3, horizon=0.5, n_traj=3, seed=11, record_stride=10)
    large = TrajectoryConfig(dt=1e-3, horizon=0.5, n_traj=6, seed=11, record_stride=10)
    rec_small = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), small)
    rec_large = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), large)
    assert np.array_equal(rec_small.means, rec_large.means[:3])


def test_current_increment_variance():
    # with C = 0 the record is pure white noise of variance dt per step
    dd, couplings = free_system(1.0)
    m = measurement_matrices(couplings, UnravellingMatrix.zero(2))
    cfg = TrajectoryConfig(
        dt=1e-3, horizon=20.0, n_traj=4, seed=17, record_stride=1000, record_currents=True
    )
    rec = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), cfg)
    steps = rec.currents.shape[0] * rec.currents.shape[1]
    var = rec.currents.reshape(steps, -1).var(axis=0, ddof=1)
    band = 5.0 / np.sqrt(steps)
    assert np.all(var >= cfg.dt * (1.0 - band))
    assert np.all(var <= cfg.dt * (1.0 + band))


def test_conditional_moment_identity():
    # no feedback: classical mean spread restores the unconditional CM
    dd, m = optimal_setup(1.0)
    cfg = TrajectoryConfig(dt=2e-3, horizon=14.0, n_traj=600, seed=23, record_stride=50)
    rec = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), cfg)
    stats = ensemble_statistics(rec, (10.0, 14.0))
    target = lyapunov_steady_state(dd).matrix
    dev = np.abs(stats.sigma - target)
    assert np.all(dev <= 3.0 * np.maximum(stats.se_sigma, 1e-12) + 1e-9)


def test_closed_loop_cancels_mean_noise():
    dd, m = optimal_setup(1.0)
    sigma_c = riccati_steady_state(dd, m).matrix
    fb = feedback_gain(sigma_c, m)
    cfg = TrajectoryConfig(dt=2e-3, horizon=16.0, n_traj=500, seed=29, record_stride=50)
    rec = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=3.0 * np.eye(2))
    stats = ensemble_statistics(rec, (10.0, 16.0))
    assert np.max(np.abs(stats.tau)) <= 1e-3  # residual from the transient only
    assert stats.sigma[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert abs(stats.mean[0]) <= 3.0 * max(stats.se_mean[0], 1e-6)


def test_closed_loop_homodyne_nonlocal_thermal():
    bath = ThermalBath((1.0, 1.0))
    dd, couplings = thermal_drift_diffusion(None, bath)
    m = measurement_matrices(couplings, named_unravelling("homodyne_nonlocal", bath))
    sigma_c = riccati_steady_state(dd, m).matrix
    fb = feedback_gain(sigma_c, m)
    # homodyne conveys nothing at the thermal fixed point: the gain vanishes
    # (up to the conditional solver residual)
    assert np.max(np.abs(fb.b)) < 1e-6
    cfg = TrajectoryConfig(dt=2e-3, horizon=12.0, n_traj=100, seed=31, record_stride=50)
    rec = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=lyapunov_steady_state(dd).matrix)
    stats = ensemble_statistics(rec, (8.0, 12.0))
    assert np.max(np.abs(stats.sigma - 3.0 * np.eye(4))) <= 1e-6
    from gendyne import Bipartition, log_negativity

    assert log_negativity(stats.sigma, Bipartition.last_modes(2)) == 0.0


def test_zero_efficiency_reduces_to_lyapunov_statistics():
    from gendyne import apply_efficiency

    bath = ThermalBath((1.0,))
    dd, couplings = thermal_drift_diffusion(None, bath)
    u = apply_efficiency(named_unravelling("optimal_squeeze", bath), 0.0)
    m = measurement_matrices(couplings, u, dd)
    sigma_lyap = lyapunov_steady_state(dd).matrix
    fb = feedback_gain(sigma_lyap, m)
    assert np.all(fb.b == 0.0)
    cfg = TrajectoryConfig(dt=5e-3, horizon=8.0, n_traj=20, seed=43, record_stride=20)
    rec = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=sigma_lyap)
    stats = ensemble_statistics(rec, (4.0, 8.0))
    # nothing is measured: means never move and the CM is the Lyapunov one
    assert np.all(rec.means == 0.0)
    assert np.allclose(stats.sigma, sigma_lyap, atol=1e-12)


def test_closed_loop_entangler_reconstruction():
    bath = ThermalBath((1.0, 1.0))
    dd, couplings = thermal_drift_diffusion(None, bath)
    m = measurement_matrices(couplings, named_unravelling("optimal_entangle", bath))
    sigma_c = riccati_steady_state(dd, m).matrix
    fb = feedback_gain(sigma_c, m)
    cfg = TrajectoryConfig(dt=2e-3, horizon=14.0, n_traj=400, seed=53, record_stride=50)
    rec = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=lyapunov_steady_state(dd).matrix)
    stats = ensemble_statistics(rec, (10.0, 14.0))
    from gendyne import Bipartition, log_negativity

    reconstructed = log_negativity(stats.sigma, Bipartition.last_modes(2))
    assert reconstructed == pytest.approx(np.log2(3.0), abs=0.05)


def test_step_halving_consistency():
    # stationary variance estimates shift by less than the Monte-Carlo error
    dd, m = optimal_setup(1.0)
    estimates, errors = [], []
    for dt in (1e-2, 5e-3, 2.5e-3):
        cfg = TrajectoryConfig(dt=dt, horizon=14.0, n_traj=400, seed=37, record_stride=max(1, int(0.1 / dt)))
        rec = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), cfg)
        stats = ensemble_statistics(rec, (10.0, 14.0))
        estimates.append(stats.sigma[0, 0])
        errors.append(stats.se_sigma[0, 0])
    for k in range(len(estimates) - 1):
        tol = 3.0 * np.hypot(errors[k], errors[k + 1])
        assert abs(estimates[k] - estimates[k + 1]) <= tol


def test_ensemble_statistics_edges():
    dd, m = optimal_setup(1.0)
    cfg = TrajectoryConfig(dt=1e-2, horizon=1.0, n_traj=3, seed=41, record_stride=10)
    rec = simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), cfg)
    with pytest.raises(ValueError):
        ensemble_statistics(rec, (5.0, 6.0))
    # all-zero means: tau = 0 and sigma reduces to the deterministic CM part
    zeroed = rec.__class__(rec.times, np.zeros_like(rec.means), rec.sigma_c_path)
    stats = ensemble_statistics(zeroed, (0.0, 1.0))
    assert np.all(stats.tau == 0.0)
    assert np.allclose(stats.sigma, stats.sigma_c)


def test_default_burn_in():
    dd, _ = free_system(1.0)
    assert default_burn_in(dd) == pytest.approx(10.0)


def test_spread_model_matches_per_step_recursion():
    # closed loop from off the steady state, 305 steps on a stride of 20:
    # the record-interval kernel against tau_{k+1} = P tau_k P^T + dt G_k G_k^T
    dd, m = optimal_setup(1.0)
    fb = feedback_gain(riccati_steady_state(dd, m).matrix, m)
    sigma0 = 3.0 * np.eye(2)
    cfg = TrajectoryConfig(dt=1e-2, horizon=3.05, n_traj=1, seed=1, record_stride=20)
    assert cfg.n_steps % cfg.record_stride != 0
    times, tau_path = mean_spread_model(dd, m, fb.b, sigma0, cfg)

    fine = TrajectoryConfig(dt=cfg.dt, horizon=cfg.horizon, n_traj=1, seed=1)
    sigma_path = simulate_closed_loop(dd, m, fb, fine, sigma_c0=sigma0).sigma_c_path
    prop = np.eye(2) + cfg.dt * (dd.a + fb.b @ m.c)
    tau = np.zeros((2, 2))
    expected = [tau]
    for k in range(cfg.n_steps):
        g = sigma_path[k] @ m.c.T + m.gamma.T + fb.b
        tau = prop @ tau @ prop.T + cfg.dt * g @ g.T
        if (k + 1) % cfg.record_stride == 0:
            expected.append(tau)
    expected = np.array(expected)

    assert np.allclose(times, cfg.dt * cfg.record_stride * np.arange(len(expected)))
    assert np.max(np.abs(tau_path - expected)) <= 1e-12 * np.max(np.abs(expected))
    # a simulation carries the same deterministic path
    rec = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=sigma0)
    assert np.array_equal(rec.tau_path, tau_path)


def _rk4_sigma_path(dd, m, sigma0, dt, n_steps, substeps):
    """Conditional CM flow by classical RK4, `substeps` steps per grid step."""
    a, d, c, gamma = dd.a, dd.d, m.c, m.gamma

    def rhs(s):
        k = c @ s + gamma
        return a @ s + s @ a.T + d - k.T @ k

    h = dt / substeps
    sigma = sigma0
    path = [sigma]
    for _ in range(n_steps):
        for _ in range(substeps):
            k1 = rhs(sigma)
            k2 = rhs(sigma + 0.5 * h * k1)
            k3 = rhs(sigma + 0.5 * h * k2)
            k4 = rhs(sigma + h * k3)
            sigma = sigma + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            sigma = (sigma + sigma.T) / 2.0
        path.append(sigma)
    return np.array(path)


@pytest.mark.parametrize(
    "spec",
    [ScenarioSpec("free_two_mode", 10.0, "optimal"), ScenarioSpec("parametric", 1.0, "optimal", chi=0.3)],
)
def test_sigma_path_matches_fine_rk4(spec):
    # From the Lyapunov state, as `gendyne simulate` starts. The collapse of
    # free_two_mode at N = 10 runs at a rate of order 10^2; RK4 at the grid
    # step 1e-4 is itself off by 8e-9 relative there, so the reference takes
    # four RK4 steps per grid step.
    dd, couplings, bath = build_system(spec)
    m = measurement_matrices(couplings, build_unravelling(spec, bath), dd)
    sigma0 = lyapunov_steady_state(dd).matrix
    cfg = TrajectoryConfig(dt=1e-4, horizon=0.2, n_traj=1, seed=1)
    path = _moment_kernel(dd, m, None, sigma0, cfg).sigma_path
    expected = _rk4_sigma_path(dd, m, sigma0, cfg.dt, cfg.n_steps, substeps=4)
    assert path.shape == expected.shape
    assert np.max(np.abs(path - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_sigma_path_large_occupation_stays_above_steady_state():
    # N = 1e3 from the Lyapunov state: the collapse runs at a rate of order
    # N^2, far beyond any explicit scheme at this step. A CM path from above
    # the steady state stays above it (Riccati comparison theorem) and ends
    # on it.
    dd, m = optimal_setup(1e3)
    target = riccati_steady_state(dd, m).matrix
    cfg = TrajectoryConfig(dt=1e-2, horizon=30.0, n_traj=1, seed=1)
    path = _moment_kernel(dd, m, None, lyapunov_steady_state(dd).matrix, cfg).sigma_path
    assert np.all(np.isfinite(path))
    gaps = np.linalg.eigvalsh(path - target)
    assert np.all(gaps >= -1e-12 * np.max(np.abs(path), axis=(1, 2))[:, None])
    assert np.max(np.abs(path[-1] - target)) <= 1e-8 * np.linalg.eigvalsh(target)[0]


@pytest.mark.parametrize("currents", [False, True])
def test_noise_block_size_does_not_change_output(monkeypatch, currents):
    # two trajectory chunks, and a partial last block at every block size
    dd, m = optimal_setup(1.0)
    cfg = TrajectoryConfig(
        dt=1e-2, horizon=3.0, n_traj=trajectories._TRAJ_CHUNK + 6, seed=19,
        record_stride=3, record_currents=currents,
    )
    runs = []
    for block in (1, 7, trajectories._STEP_BLOCK):
        monkeypatch.setattr(trajectories, "_STEP_BLOCK", block)
        runs.append(simulate_conditional(dd, m, 3.0 * np.eye(2), np.zeros(2), cfg))
    default = runs[-1]
    for run in runs[:-1]:
        assert np.array_equal(run.means, default.means)
        if currents:
            assert np.array_equal(run.currents, default.currents)


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 20240611])
def test_trajectory_keys_match_seed_sequence(seed):
    # keys derived in one pass against numpy's SeedSequence, one at a time
    chunk = trajectories._TRAJ_CHUNK
    for start, stop in ((0, 5), (chunk - 3, chunk + 3)):
        gens = _trajectory_generators(seed, start, stop)
        assert len(gens) == stop - start
        for index, gen in zip(range(start, stop), gens):
            ref = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
            key = gen.bit_generator.state["state"]["key"]
            assert np.array_equal(key, ref.state["state"]["key"])
            normals = np.random.Generator(ref).standard_normal(64)
            assert np.array_equal(gen.standard_normal(64), normals)


def _per_step_sample(mom, m, r0, cfg):
    """Reference sampler: one SeedSequence stream per trajectory, one move per iteration."""
    n_records = len(mom.sample_steps)
    if cfg.record_currents:
        n_moves, prop_t, factors_t = cfg.n_steps, mom.prop.T, mom.gains.transpose(0, 2, 1)
        record_of_move = np.full(n_moves, -1)
        record_of_move[mom.sample_steps[1:] - 1] = np.arange(1, n_records)
    else:
        n_moves, prop_t = n_records - 1, mom.record_prop.T
        factors_t = _noise_factors(mom.interval_cov).transpose(0, 2, 1)
        record_of_move = np.arange(1, n_records)
    prop_t, factors_t = np.ascontiguousarray(prop_t), np.ascontiguousarray(factors_t)
    streams = (np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)) for i in range(cfg.n_traj))
    noise = np.stack([
        np.random.Generator(np.random.Philox(stream)).standard_normal((n_moves, factors_t.shape[1]))
        for stream in streams
    ])
    r = np.tile(r0, (cfg.n_traj, 1))
    means = np.empty((cfg.n_traj, n_records, len(r0)))
    means[:, 0] = r
    currents = np.empty_like(noise) if cfg.record_currents else None
    for k in range(n_moves):
        z = noise[:, k]
        if currents is not None:
            z = z * np.sqrt(cfg.dt)
            currents[:, k] = r @ m.c.T * cfg.dt + z
        r = r @ prop_t + z @ factors_t[k]
        if record_of_move[k] >= 0:
            means[:, record_of_move[k]] = r
    return means, currents


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("currents", [False, True])
def test_sampler_matches_per_step_reference(monkeypatch, currents, closed):
    # two trajectory chunks, 37 steps: partial last blocks and record intervals
    dd, m = optimal_setup(1.0)
    sigma_inf = riccati_steady_state(dd, m).matrix
    fb = feedback_gain(sigma_inf, m)
    b = fb.b if closed else None
    sigma0, r0 = 1.5 * sigma_inf, np.array([0.3, -0.2])
    for stride in (1, 3, 10):
        cfg = TrajectoryConfig(
            dt=1e-2, horizon=0.37, n_traj=trajectories._TRAJ_CHUNK + 6, seed=61,
            record_stride=stride, record_currents=currents,
        )
        means, currents_ref = _per_step_sample(_moment_kernel(dd, m, b, sigma0, cfg), m, r0, cfg)
        for block in (1, 7, trajectories._STEP_BLOCK):
            monkeypatch.setattr(trajectories, "_STEP_BLOCK", block)
            if closed:
                rec = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=sigma0, r0=r0)
            else:
                rec = simulate_conditional(dd, m, sigma0, r0, cfg)
            assert np.array_equal(rec.means, means)
            if currents:
                assert np.array_equal(rec.currents, currents_ref)
            else:
                assert rec.currents is None


def test_sampler_memory_stays_near_its_output():
    # The record dominates: work arrays of one block of moves come on top,
    # not time-major copies of the whole record.
    bath = ThermalBath((1.0, 1.0))
    dd, couplings = thermal_drift_diffusion(None, bath)
    m = measurement_matrices(couplings, named_unravelling("optimal_entangle", bath))
    sigma_c = riccati_steady_state(dd, m).matrix
    fb = feedback_gain(sigma_c, m)
    cfg = TrajectoryConfig(
        dt=1e-2, horizon=20.0, n_traj=256, seed=3, record_stride=10, record_currents=True
    )
    tracemalloc.start()
    try:
        rec = simulate_closed_loop(dd, m, fb, cfg, sigma_c0=sigma_c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * (rec.means.nbytes + rec.currents.nbytes)


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("kind", ["optimal_squeeze", "optimal_entangle"])
def test_interval_noise_factors_rebuild_covariances(kind, closed):
    # At N = 1e3 the interval covariances are singular (rank-one for the
    # squeezer, rounding-negative eigenvalues for the entangler), and under
    # the cancelling gain they decay over four decades. The CM starts near
    # its conditional steady state: the collapse from the thermal state runs
    # at a rate of order N^2, which no practical dt resolves.
    bath = ThermalBath((1e3,) * (1 if kind == "optimal_squeeze" else 2))
    dd, couplings = thermal_drift_diffusion(None, bath)
    m = measurement_matrices(couplings, named_unravelling(kind, bath))
    sigma_c = riccati_steady_state(dd, m).matrix
    b = feedback_gain(sigma_c, m).b if closed else None
    cfg = TrajectoryConfig(dt=1e-3, horizon=5.0, n_traj=1, seed=1, record_stride=50)
    q = _moment_kernel(dd, m, b, 1.5 * sigma_c, cfg).interval_cov
    factors = _noise_factors(q)
    rebuilt = factors @ factors.transpose(0, 2, 1)
    error = np.max(np.abs(rebuilt - q), axis=(1, 2))
    assert np.all(error <= 1e-10 * np.max(np.abs(q), axis=(1, 2)))


@pytest.mark.slow
def test_readme_example_simulate_within_three_se(tmp_path):
    # the config of the README's command-line section
    config = {
        "scenario": {"kind": "parametric", "n_th": 1.0, "chi": 0.3, "strategy": "optimal", "eta": 1.0},
        "trajectories": {"dt": 0.001, "horizon": 20.0, "n_traj": 10000, "seed": 1234, "record_stride": 100},
        "sweep": {"parameter": "eta", "grid": {"start": 0.5, "stop": 1.0, "count": 11}},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "summary.json"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["within_three_se"] is True
