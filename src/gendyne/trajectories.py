"""Stochastic simulation of monitored (and driven) Gaussian systems.

The conditional means diffuse,

    d<R> = A <R> dt + (sigma_c C^T + Gamma^T) dw,

while the conditional CM follows the noise-free Riccati flow shared by the
whole ensemble. A record-proportional drive B y(t), with
y dt = C <R> dt + dw, shifts the mean dynamics to

    d<R> = (A + B C) <R> dt + (sigma_c C^T + Gamma^T + B) dw,

so the cancelling gain B = -(sigma_c C^T + Gamma^T) removes the noise at
steady state. The scheme is Euler-Maruyama for the means (the noise is
additive given sigma_c); the deterministic CM path is exact on the step
grid. With sigma_inf the stabilising steady state and
F = A - Gamma^T C - sigma_inf C^T C (Hurwitz), the deviation
Delta = sigma_c - sigma_inf obeys Delta' = F Delta + Delta F^T -
Delta C^T C Delta, whose solution is

    Delta(t) = E Delta_0 (1 + W(t) Delta_0)^-1 E^T,    E = exp(F t),
    W(t) = W_inf - E^T W_inf E,    F^T W_inf + W_inf F + C^T C = 0

(Davison & Maki 1973; Kenney & Leipnik 1985).

One deterministic moment kernel serves every entry point. It evaluates
the CM path once and, with the one-step map P = 1 + dt A_eff and the
per-step gains G_k, reduces each record interval of s = record_stride steps
to the affine map P^s plus one Gaussian of covariance

    Q_j = sum_k P^(s-1-k) dt G_k G_k^T P^(s-1-k)^T,

which is what s Euler-Maruyama steps add up to. Without currents, each
trajectory therefore jumps from record to record, r_{j+1} = P^s r_j + L_j z_j
with L_j L_j^T = Q_j, and has exactly the distribution of the per-step
ensemble at the recorded times (the O(dt) bias of the scheme included) for
one normal vector per record instead of one per step. Currents need every
increment, so with record_currents=True the moves are the single steps,
r_{k+1} = P r_k + G_k dw_k, with the current y_k dt = C r_k dt + dw_k written
at each. One sampling loop runs both kinds of move; only the map, the noise
factors and which moves end on a record differ. The same Q_j give the
deterministic spread of the means, tau_{j+1} = P^s tau_j P^s^T + Q_j.

Noise streams are counter-based: trajectory i draws from Philox keyed by
SeedSequence(entropy=seed, spawn_key=(i,)), so ensembles are reproducible
bit-for-bit and independent of execution order or chunking. The keys of a
chunk of trajectories come from one vectorised pass of that hash.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.linalg import expm

from .conditioning import MeasurementSetup, solve_riccati
from .dynamics import DriftDiffusion, stability_check
from .feedback import FeedbackLaw
from .linalg import lyapunov_solve, symmetrize
from .symplectic import as_matrix

# Fixed so that results do not depend on memory layout: trajectories are
# processed in chunks, noise is drawn per chunk in blocks of time steps
# (records, on the record-time path). Each trajectory's stream is consumed
# in the same order whatever the block size, so the block only bounds the
# noise and work buffers.
_TRAJ_CHUNK = 1024
_STEP_BLOCK = 256

# Constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF

# Eigenvalues of an interval covariance Q_j down to -_FACTOR_RTOL * ||Q_j||
# are rounding noise and clipped to zero; Q_j itself may vanish (no
# monitoring, or the cancelling gain at steady state).
_FACTOR_RTOL = 1e-10

# Trajectory groups behind the batch-means standard errors.
_N_BATCHES = 16


@dataclass(frozen=True)
class TrajectoryConfig:
    """Grid, ensemble size and seeding for a stochastic run."""

    dt: float
    horizon: float
    n_traj: int
    seed: int
    record_stride: int = 1
    record_currents: bool = False

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon < self.dt:
            raise ValueError("horizon must cover at least one step")
        if not 1 <= self.n_traj < 2**32:
            raise ValueError("n_traj must be at least 1 and below 2**32")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled ensemble output.

    times has S entries, one every record_stride steps; means is
    (n_traj, S, 2n), sampled exactly at those times. sigma_c_path is
    (S, 2n, 2n) and identical for every trajectory of the ensemble (the CM
    flow carries no noise). tau_path, (S, 2n, 2n), is the model covariance
    of the means under the discrete scheme, the spread the sampled means
    estimate; it is None for records built by hand. currents, when
    recorded, holds every per-step increment y*dt with shape
    (n_traj, n_steps, 2L).
    """

    times: np.ndarray = field(repr=False)
    means: np.ndarray = field(repr=False)
    sigma_c_path: np.ndarray = field(repr=False)
    currents: Optional[np.ndarray] = field(repr=False, default=None)
    tau_path: Optional[np.ndarray] = field(repr=False, default=None)

    @property
    def n_traj(self) -> int:
        return self.means.shape[0]


def default_burn_in(dd: DriftDiffusion) -> float:
    """Default stationary-window start: ten relaxation times of the slowest mode."""
    stability = stability_check(dd)
    if not stability.stable:
        raise ValueError("burn-in is defined for stable systems only")
    return 10.0 / float(stability.alphas[0])


class _PhiloxKey(ISeedSequence):
    """Hands a precomputed key to Philox in place of a SeedSequence."""

    def __init__(self, key: np.ndarray) -> None:
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _trajectory_generators(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """Streams of trajectories start..stop-1, each independent of all others.

    Trajectory i draws from Philox(SeedSequence(entropy=seed, spawn_key=(i,))).
    Its key, that sequence's generate_state(2, uint64), is computed for the
    whole range at once with numpy's SeedSequence hash on uint32 arrays: a
    four-word pool fed the seed words, padded with zeros, then the index.
    """
    seed, index = int(seed), np.arange(start, stop, dtype=np.uint32)
    entropy = [seed & _MASK32, seed >> 32, 0, 0] if seed >> 32 else [seed, 0, 0, 0]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ value >> 16

    pool = [hashmix(np.full(len(index), word, dtype=np.uint32)) for word in entropy]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for dst in range(4):
        pool[dst] = mix(pool[dst], hashmix(index))
    hash_const = _INIT_B
    lo0, hi0, lo1, hi1 = (hashmix(value, _MULT_B).astype(np.uint64) for value in pool)
    keys = np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=1)
    return [np.random.Generator(np.random.Philox(_PhiloxKey(key))) for key in keys]


def _sigma_path(
    dd: DriftDiffusion, m: MeasurementSetup, sigma0: np.ndarray, n_steps: int, dt: float,
    sigma_inf: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Closed-form conditional CM on the full step grid (n_steps+1 entries).

    E_k = exp(F dt)^k is built by doubling (expm, not eig: F may be
    defective); every step then takes one batched solve,
    Delta_0 (1 + W_k Delta_0)^-1 = (1 + Delta_0 W_k)^-1 Delta_0. sigma_inf,
    the stabilising conditional steady state, is solved for when not given.
    """
    dim = sigma0.shape[0]
    if sigma_inf is None:
        sigma_inf = solve_riccati(dd, m, probe_uniqueness=False).sigma
    ctc = m.c.T @ m.c
    f = dd.a - m.gamma.T @ m.c - sigma_inf @ ctc
    w_inf = lyapunov_solve(f.T, ctc)

    e = np.empty((n_steps + 1, dim, dim))
    e[0] = np.eye(dim)
    e[1] = expm(f * dt)
    k = 2
    while k <= n_steps:
        span = min(k - 1, n_steps + 1 - k)
        e[k : k + span] = e[1 : span + 1] @ e[k - 1]
        k += span
    e_t = e.transpose(0, 2, 1)

    delta0 = sigma0 - sigma_inf
    lhs = delta0 @ (w_inf - e_t @ w_inf @ e)
    lhs += np.eye(dim)
    x = np.linalg.solve(lhs, np.broadcast_to(delta0, lhs.shape))
    del lhs
    path = e @ x @ e_t
    path = (path + path.transpose(0, 2, 1)) / 2.0
    path += sigma_inf
    path[0] = sigma0
    if not np.all(np.isfinite(path)):
        raise FloatingPointError("conditional covariance path is not finite")
    return path


class _Moments(NamedTuple):
    """Deterministic part of an ensemble run, on the step and record grids."""

    sample_steps: np.ndarray  # step index of each record, (S,)
    sigma_path: np.ndarray  # conditional CM, closed form, (n_steps + 1, 2n, 2n)
    gains: np.ndarray  # noise gains sigma_c C^T + Gamma^T (+ B), (n_steps, 2n, 2L)
    prop: np.ndarray  # one-step map P = 1 + dt A_eff
    record_prop: np.ndarray  # P^s, one record interval
    interval_cov: np.ndarray  # Q_j, noise added over record interval j, (S - 1, 2n, 2n)
    tau_path: np.ndarray  # spread of the means from a fixed start, (S, 2n, 2n)


def _moment_kernel(
    dd: DriftDiffusion,
    m: MeasurementSetup,
    b: Optional[np.ndarray],
    sigma_c0,
    cfg: TrajectoryConfig,
    sigma_inf: Optional[np.ndarray] = None,
) -> _Moments:
    """CM path, gains and per-interval moments of the Euler-Maruyama scheme."""
    dim = dd.a.shape[0]
    n_steps, dt, stride = cfg.n_steps, cfg.dt, cfg.record_stride
    sigma_path = _sigma_path(dd, m, symmetrize(as_matrix(sigma_c0)), n_steps, dt, sigma_inf)
    # Noise gains per step (left-point rule): sigma_c C^T + Gamma^T (+ B).
    gains = sigma_path[:-1] @ m.c.T + m.gamma.T
    drift = dd.a if b is None else dd.a + b @ m.c
    if b is not None:
        gains = gains + b
    prop = np.eye(dim) + dt * drift

    sample_steps = np.arange(0, n_steps + 1, stride)
    n_intervals = len(sample_steps) - 1
    # q <- P q P^T + dt G_k G_k^T over the steps of each interval, all
    # intervals at once; steps after the last record are never sampled.
    interval_gains = gains[: n_intervals * stride].reshape(n_intervals, stride, *gains.shape[1:])
    q = np.zeros((n_intervals, dim, dim))
    for k in range(stride):
        g = interval_gains[:, k]
        q = prop @ q @ prop.T + dt * (g @ g.transpose(0, 2, 1))
    q = (q + q.transpose(0, 2, 1)) / 2.0

    record_prop = np.linalg.matrix_power(prop, stride)
    tau_path = np.zeros((n_intervals + 1, dim, dim))
    for j in range(n_intervals):
        tau_path[j + 1] = symmetrize(record_prop @ tau_path[j] @ record_prop.T + q[j])
    return _Moments(sample_steps, sigma_path, gains, prop, record_prop, q, tau_path)


def _noise_factors(q: np.ndarray) -> np.ndarray:
    """Factors L_j with L_j L_j^T = Q_j for a stack of symmetric PSD Q_j.

    A symmetric eigendecomposition, not Cholesky: Q_j may be singular or
    zero. Eigenvalues above -_FACTOR_RTOL * ||Q_j|| are clipped to zero.
    """
    vals, vecs = np.linalg.eigh(q)
    scale = np.max(np.abs(vals), axis=-1, keepdims=True)
    if np.any(vals < -_FACTOR_RTOL * scale):
        worst = float(np.min(vals / np.where(scale > 0, scale, 1.0)))
        raise FloatingPointError(
            f"record-interval noise covariance is not positive semidefinite "
            f"(relative eigenvalue {worst:.3e})"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]


def _sample(
    mom: _Moments, m: MeasurementSetup, r0: np.ndarray, cfg: TrajectoryConfig
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Means at the record times, and every current increment if recorded.

    Each move is r <- r P_move + z_move F_move^T in row-vector form. Without
    currents a move spans one record interval (P^s, F = L_j) and every move
    ends on a record; with currents it is one Euler-Maruyama step (P,
    F = G_k, z scaled by sqrt(dt)) and only every s-th move does.

    Per block of moves one stacked matmul gives every u_j = z_j F_j^T, and
    the loop makes one matmul and one add per move into time-major states,
    copied to the records after it. With currents the normals are drawn into
    the current record, scaled by sqrt(dt) there; C r dt is added after it.
    """
    n_records, dim = len(mom.sample_steps), r0.shape[0]
    # Before the current record: in the other order, repeated runs kept one
    # more current record's worth of heap resident (allocator reuse).
    means = np.empty((cfg.n_traj, n_records, dim))
    if cfg.record_currents:
        n_moves, n_noise, stride = cfg.n_steps, m.c.shape[0], cfg.record_stride
        if cfg.n_traj * n_moves * n_noise > 2 * 10**8:
            raise ValueError("current record would be too large; disable record_currents")
        prop_t = np.ascontiguousarray(mom.prop.T)
        factors_t = mom.gains.transpose(0, 2, 1)
        currents = np.empty((cfg.n_traj, n_moves, n_noise))
    else:
        n_moves, n_noise, stride = n_records - 1, dim, 1
        prop_t = np.ascontiguousarray(mom.record_prop.T)
        factors_t = np.ascontiguousarray(_noise_factors(mom.interval_cov).transpose(0, 2, 1))
        currents = None
    width = min(_STEP_BLOCK, n_moves)
    for start in range(0, cfg.n_traj, _TRAJ_CHUNK):
        stop = min(start + _TRAJ_CHUNK, cfg.n_traj)
        gens = _trajectory_generators(cfg.seed, start, stop)
        states = np.empty((width + 1, stop - start, dim))
        means[start:stop, 0] = states[0] = r0
        u = np.empty((width, stop - start, dim))
        if currents is None:
            noise = np.empty((stop - start, width, n_noise))
        else:
            c_r = np.empty((width, stop - start, n_noise))
        for block_start in range(0, n_moves, _STEP_BLOCK):
            block = min(_STEP_BLOCK, n_moves - block_start)
            moves = slice(block_start, block_start + block)
            z = noise[:, :block] if currents is None else currents[start:stop, moves]
            for g, out in zip(gens, z):
                g.standard_normal(out=out)
            if currents is not None:
                z *= np.sqrt(cfg.dt)
            np.matmul(z.transpose(1, 0, 2), factors_t[moves], out=u[:block])
            for j in range(block):
                np.matmul(states[j], prop_t, out=states[j + 1])
                states[j + 1] += u[j]
            # Move k ends on record (k + 1) / stride when stride divides k + 1.
            first, last = block_start // stride + 1, (block_start + block) // stride + 1
            recorded = states[first * stride - block_start : block + 1 : stride]
            means[start:stop, first:last] = recorded.transpose(1, 0, 2)
            if currents is not None:
                np.matmul(states[:block], m.c.T, out=c_r[:block])
                c_r[:block] *= cfg.dt
                z_t = z.transpose(1, 0, 2)
                z_t += c_r[:block]
            states[0] = states[block]
        if not np.all(np.isfinite(states[0])):
            raise FloatingPointError(f"trajectory means diverged (chunk starting at {start})")
    return means, currents


def _simulate(
    dd: DriftDiffusion, m: MeasurementSetup, b: Optional[np.ndarray], sigma_c0, r0,
    cfg: TrajectoryConfig, sigma_inf: Optional[np.ndarray] = None,
) -> TrajectoryRecord:
    r0 = np.asarray(r0, dtype=float).reshape(dd.a.shape[0])
    mom = _moment_kernel(dd, m, b, sigma_c0, cfg, sigma_inf)
    means, currents = _sample(mom, m, r0, cfg)
    sigma_c_path = mom.sigma_path[mom.sample_steps]
    return TrajectoryRecord(mom.sample_steps * cfg.dt, means, sigma_c_path, currents, mom.tau_path)


def simulate_conditional(
    dd: DriftDiffusion,
    m: MeasurementSetup,
    sigma_c0,
    r0,
    cfg: TrajectoryConfig,
) -> TrajectoryRecord:
    """Ensemble of conditional trajectories without driving."""
    return _simulate(dd, m, None, sigma_c0, r0, cfg)


def simulate_closed_loop(
    dd: DriftDiffusion,
    m: MeasurementSetup,
    fb: FeedbackLaw,
    cfg: TrajectoryConfig,
    sigma_c0,
    r0=None,
    *,
    sigma_inf: Optional[np.ndarray] = None,
) -> TrajectoryRecord:
    """Ensemble of trajectories with the record fed back as linear driving.

    sigma_inf, the conditional steady state of (dd, m) from solve_riccati,
    saves solving it again when the caller already has it.
    """
    if r0 is None:
        r0 = np.zeros(dd.a.shape[0])
    return _simulate(dd, m, fb.b, sigma_c0, r0, cfg, sigma_inf)


def mean_spread_model(
    dd: DriftDiffusion,
    m: MeasurementSetup,
    b: Optional[np.ndarray],
    sigma_c0,
    cfg: TrajectoryConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic second moments of the conditional means, tau(t).

    The moment kernel of the simulations without their noise: the exact
    covariance of the Euler-Maruyama means, tau_{k+1} = P tau_k P^T +
    dt G_k G_k^T with P = 1 + dt A_eff, taken one record interval at a time,
    tau_{j+1} = P^s tau_j P^s^T + Q_j. Sampled spreads differ from it by
    Monte-Carlo error only. Returns (times, tau path) on the record grid,
    for an ensemble started at a fixed mean; a simulation carries the same
    path as TrajectoryRecord.tau_path.
    """
    mom = _moment_kernel(dd, m, b, sigma_c0, cfg)
    return mom.sample_steps * cfg.dt, mom.tau_path


class EnsembleStats(NamedTuple):
    mean: np.ndarray
    tau: np.ndarray  # classical covariance of the conditional means
    sigma: np.ndarray  # reconstructed average CM: window-mean sigma_c + tau
    sigma_c: np.ndarray
    se_mean: np.ndarray
    se_sigma: np.ndarray
    n_samples: int


def ensemble_statistics(record: TrajectoryRecord, window: tuple[float, float]) -> EnsembleStats:
    """Stationary moments over ensemble x window, with batch-means errors.

    The ensemble is split into _N_BATCHES groups of trajectories; the
    spread of the per-batch statistics gives the standard errors (the CM
    path is deterministic, so only the mean-fluctuation part contributes).
    """
    t1, t2 = window
    mask = (record.times >= t1) & (record.times <= t2)
    if not np.any(mask):
        raise ValueError(f"no samples inside window [{t1}, {t2}]")

    pool = record.means[:, mask, :]
    n_traj, n_t, dim = pool.shape
    flat = pool.reshape(n_traj * n_t, dim)
    mean = flat.mean(axis=0)
    centred = flat - mean
    denom = max(flat.shape[0] - 1, 1)
    tau = symmetrize(centred.T @ centred / denom)
    sigma_c = symmetrize(record.sigma_c_path[mask].mean(axis=0))
    sigma = sigma_c + tau

    n_batches = max(1, min(_N_BATCHES, n_traj))
    batch_means = np.empty((n_batches, dim))
    batch_sigmas = np.empty((n_batches, dim, dim))
    for b, chunk in enumerate(np.array_split(np.arange(n_traj), n_batches)):
        sub = pool[chunk].reshape(-1, dim)
        bm = sub.mean(axis=0)
        batch_means[b] = bm
        sub_c = sub - bm
        batch_sigmas[b] = sigma_c + sub_c.T @ sub_c / max(sub.shape[0] - 1, 1)
    if n_batches > 1:
        se_mean = batch_means.std(axis=0, ddof=1) / np.sqrt(n_batches)
        se_sigma = batch_sigmas.std(axis=0, ddof=1) / np.sqrt(n_batches)
    else:
        se_mean = np.full(dim, np.nan)
        se_sigma = np.full((dim, dim), np.nan)

    return EnsembleStats(mean, tau, sigma, sigma_c, se_mean, se_sigma, flat.shape[0])
