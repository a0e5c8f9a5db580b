"""Per-layer tracing of gendyne from outside the package.

``Tracer.install()`` replaces every public module-level function of every
``gendyne`` module, in every namespace that holds a reference to it, with a
wrapper that records a span: the function's layer (its module), its
duration, and the time its child spans cover. Spans are folded as they close
into per-function and per-layer totals, which is what the per-layer metrics
need and keeps a long run's memory flat. ``numpy.linalg.eigh``/``eigvalsh``
and the ``minimize`` that ``gendyne.bounds`` imports are counted too, but
only inside a job. ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from fractions import Fraction

import numpy as np

import gendyne

# Function groups behind the time and call metrics. A group's time counts
# only its outermost spans, so nested members are not counted twice.
GROUPS = {
    "schemas.validate": ("validate_config", "validate_report"),
    "scenarios.threshold": ("threshold_efficiency",),
    "bounds.tightness": ("tightness_squeezing", "tightness_entanglement"),
    "bounds.spectral": ("squeezing_bound", "eig_product_bound", "pt_nu_lower_bound", "entanglement_bound"),
    "linalg.solve": ("solve_bilinear",),
    "linalg.psd_sqrt": ("psd_sqrt",),
    "conditioning.riccati": ("solve_riccati",),
    "conditioning.measurement": ("measurement_matrices",),
    "dynamics.lyapunov": ("lyapunov_steady_state",),
    "dynamics.stability": ("stability_check",),
    "trajectories.simulate": ("simulate_closed_loop", "simulate_conditional"),
    "trajectories.spread_model": ("mean_spread_model",),
    "trajectories.stats": ("ensemble_statistics",),
}
_GROUP_OF = {fn: group for group, fns in GROUPS.items() for fn in fns}

# (metric, unit, how it is computed from the folded totals), per job.
PER_LAYER = (
    ("schemas.validate_ms", "ms", ("group_ms", "schemas.validate")),
    ("schemas.validate_calls", "count", ("group_calls", "schemas.validate")),
    ("cli.self_ms", "ms", ("self_ms", "cli")),
    ("scenarios.self_ms", "ms", ("self_ms", "scenarios")),
    ("scenarios.threshold_ms", "ms", ("group_ms", "scenarios.threshold")),
    ("scenarios.threshold_solves", "count", ("counter", "threshold_solves")),
    ("bounds.tightness_ms", "ms", ("group_ms", "bounds.tightness")),
    ("bounds.tightness_calls", "count", ("group_calls", "bounds.tightness")),
    ("bounds.bfgs_runs", "count", ("counter", "bfgs_runs")),
    ("bounds.spectral_ms", "ms", ("group_ms", "bounds.spectral")),
    ("linalg.eigh_calls", "count", ("counter", "eigh_calls")),
    ("linalg.solve_ms", "ms", ("group_ms", "linalg.solve")),
    ("linalg.solve_calls", "count", ("group_calls", "linalg.solve")),
    ("linalg.solve_gflop", "GFLOP", ("gflop", "solve_d6")),
    ("linalg.psd_sqrt_ms", "ms", ("group_ms", "linalg.psd_sqrt")),
    ("conditioning.riccati_ms", "ms", ("group_ms", "conditioning.riccati")),
    ("conditioning.riccati_calls", "count", ("group_calls", "conditioning.riccati")),
    ("conditioning.flow_steps", "count", ("counter", "flow_steps")),
    ("conditioning.newton_steps", "count", ("counter", "newton_steps")),
    ("conditioning.measurement_ms", "ms", ("group_ms", "conditioning.measurement")),
    ("dynamics.lyapunov_ms", "ms", ("group_ms", "dynamics.lyapunov")),
    ("dynamics.lyapunov_calls", "count", ("group_calls", "dynamics.lyapunov")),
    ("dynamics.stability_calls", "count", ("group_calls", "dynamics.stability")),
    ("feedback.self_ms", "ms", ("self_ms", "feedback")),
    ("symplectic.self_ms", "ms", ("self_ms", "symplectic")),
    ("trajectories.simulate_ms", "ms", ("group_ms", "trajectories.simulate")),
    ("trajectories.spread_model_ms", "ms", ("group_ms", "trajectories.spread_model")),
    ("trajectories.stats_ms", "ms", ("group_ms", "trajectories.stats")),
    ("trajectories.traj_steps", "count", ("counter", "traj_steps")),
    ("trajectories.steps_per_s", "1/s", ("steps_per_s", None)),
)


class Tracer:
    """Folds spans of gendyne's public functions into per-layer totals."""

    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # per open span: [child ns]
        self.in_job = False
        self.active: dict[str, int] = defaultdict(int)  # open spans per function name
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.fn_self_ns: dict[str, int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.group_ns: dict[str, int] = defaultdict(int)
        self.group_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.jobs = 0
        self.job_ns = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _after(self, name: str, args, kwargs, result) -> None:
        """Counts read from arguments and results at a span's close."""
        if name == "solve_riccati":
            self.counters["flow_steps"] += result.flow_steps
            self.counters["newton_steps"] += result.newton_steps
            if self.active["threshold_efficiency"]:
                self.counters["threshold_solves"] += 1
        elif name == "solve_bilinear":
            self.counters["solve_d6"] += np.shape(args[0])[0] ** 6  # exact integer
        elif name in ("simulate_closed_loop", "simulate_conditional"):
            cfg = next(a for a in (*args, *kwargs.values()) if isinstance(a, gendyne.TrajectoryConfig))
            self.counters["traj_steps"] += cfg.n_traj * cfg.n_steps

    def _wrap(self, fn: types.FunctionType) -> types.FunctionType:
        name = fn.__name__
        layer = fn.__module__.rpartition(".")[2]
        group = _GROUP_OF.get(name)
        tracer = self

        def span(*args, **kwargs):
            frame = [0]
            outermost = group is not None and not any(tracer.active[f] for f in GROUPS[group])
            tracer.active[name] += 1
            tracer.stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                tracer.stack.pop()
                tracer.active[name] -= 1
                if tracer.stack:
                    tracer.stack[-1][0] += duration
                own = duration - frame[0]
                tracer.calls[name] += 1
                tracer.incl_ns[name] += duration
                tracer.fn_self_ns[name] += own
                tracer.layer_self_ns[layer] += own
                if outermost:
                    tracer.group_ns[group] += duration
                if group is not None:
                    tracer.group_calls[group] += 1
            self._after(name, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = name
        return span

    def _counting(self, fn, counter: str):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.in_job:
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def job(self, run, round_index: int):
        """Run one job as the root span; its children are gendyne's spans."""
        frame = [0]
        self.stack.append(frame)
        self.in_job = True
        start = time.perf_counter_ns()
        try:
            return run(round_index)
        finally:
            self.job_ns += time.perf_counter_ns() - start
            self.in_job = False
            self.stack.pop()
            self.jobs += 1

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "gendyne" or n.startswith("gendyne.")]
        wrappers: dict[int, types.FunctionType] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith("gendyne.")
                ):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(value)
                    self._set(module, attr, wrappers[id(value)])
        self._set(np.linalg, "eigh", self._counting(np.linalg.eigh, "eigh_calls"))
        self._set(np.linalg, "eigvalsh", self._counting(np.linalg.eigvalsh, "eigh_calls"))
        bounds = sys.modules["gendyne.bounds"]
        self._set(bounds, "minimize", self._counting(bounds.minimize, "bfgs_runs"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def metrics(self) -> dict:
        """Every per-layer metric, per job over all traced jobs."""
        jobs = max(self.jobs, 1)
        out = {}
        for metric, unit, (kind, key) in PER_LAYER:
            if kind == "group_ms":
                value = self.group_ns[key] / 1e6 / jobs
            elif kind == "group_calls":
                value = self.group_calls[key] / jobs
            elif kind == "self_ms":
                value = self.layer_self_ns[key] / 1e6 / jobs
            elif kind == "counter":
                value = self.counters[key] / jobs
            elif kind == "gflop":
                # (2/3) d^6 flops per LU of the d^2 x d^2 Kronecker operator, computed
                # exactly so that equal work per job gives an identical number.
                value = float(Fraction(2 * self.counters[key], 3 * 10**9 * jobs))
            else:
                seconds = self.group_ns["trajectories.simulate"] / 1e9
                value = self.counters["traj_steps"] / seconds if seconds else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def summary(self) -> dict:
        """Folded spans for the trace file: per function and per layer."""
        return {
            "jobs": self.jobs,
            "job_ms": self.job_ns / 1e6,
            "layers_self_ms": {k: v / 1e6 for k, v in sorted(self.layer_self_ns.items())},
            "functions": {
                name: {
                    "calls": self.calls[name],
                    "incl_ms": self.incl_ns[name] / 1e6,
                    "self_ms": self.fn_self_ns[name] / 1e6,
                }
                for name in sorted(self.calls)
            },
            "counters": dict(sorted(self.counters.items())),
        }
