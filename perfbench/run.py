#!/usr/bin/env python3
"""gendyne benchmark: one workload per process, one job at a time.

    python3 perfbench/run.py --workload reports --seed 1 --seconds 15 --trace 0

Closed loop with a single client and BLAS held to one thread. The run sets
up (import plus the first, cold job, sampled three times), warms up, runs
whole rounds of the workload's seeded job list for at least ``--seconds``
(``jobs_per_s`` is the job count of a round over the median round time),
then checks every output and prints one JSON line: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("reports", "sweeps", "mode-ladder", "monte-carlo")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_job(job, round_index, tracer):
    """Run one job; return (output, error message or None)."""
    try:
        if tracer is None:
            return job.run(round_index), None
        return tracer.job(job.run, round_index), None
    except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
        return None, f"{job.name}: {type(exc).__name__}: {exc}"


def setup_probe(args) -> float:
    """Setup time measured in a fresh interpreter running this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Checker:
    """Checks one workload's outputs against references built once per job."""

    def __init__(self, workload, checks):
        self.workload = workload
        self.c = checks
        self.refs = {}

    def reference(self, job):
        if job.name not in self.refs:
            spec = job.spec
            if self.workload == "sweeps":
                ref = self.c.sweep_reference(spec["config"])
            elif self.workload == "mode-ladder":
                ref = None  # each system's reference is built by check_ladder_system
            else:
                ref = self.c.scenario_reference(spec["config"]["scenario"] if "config" in spec else spec["scenario"])
            self.refs[job.name] = ref
        return self.refs[job.name]

    def check(self, job, output) -> None:
        c, spec = self.c, job.spec
        ref = self.reference(job)
        if self.workload == "reports":
            with open(output, encoding="utf-8") as handle:
                obj = json.load(handle)
            c.check_report(spec["command"], obj, spec["config"]["scenario"], ref)
        elif self.workload == "sweeps":
            with open(output, encoding="utf-8") as handle:
                c.check_sweep_csv(handle.read(), spec["config"], ref)
        elif self.workload == "mode-ladder":
            for system, out in zip(spec["systems"], output):
                c.check_ladder_system(system, out)
        elif "config" in spec:
            c.check_simulate(output, spec["config"], ref["sigma"])
        else:
            record, stats = output
            c.check_currents(record, stats, spec["scenario"], spec["dt"], ref["sigma"])


def digest(output):
    """Small fingerprint of an in-memory Monte-Carlo result (deterministic)."""
    record, stats = output
    return (float(record.means.sum()), float(record.currents.sum()), float(stats.sigma.sum()))


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    try:
        import gendyne
        import gendyne.cli  # noqa: F401  (part of what a CLI user imports)
    except ImportError as exc:
        print(f"cannot import gendyne from {SRC}: {exc}", file=sys.stderr)
        return 1
    import_s = time.perf_counter() - t0
    if Path(gendyne.__file__).resolve().parent.parent != SRC.resolve():
        print(f"gendyne imported from {gendyne.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    import checks
    import jobs

    outdir = OUT / args.workload / ("probe" if args.setup_probe else "run")
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    job_list = jobs.WORKLOADS[args.workload](args.seed, outdir)

    # Set-up: import plus the first, cold job (input generation excluded).
    t1 = time.perf_counter()
    first = run_job(job_list[0], 0, None)
    setup = [import_s + time.perf_counter() - t1]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup[0]}))
        return 0
    setup += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

    # Warm-up: the rest of one untimed round, checked before the timed phase.
    checker = Checker(args.workload, checks)
    warm_bad = 0
    for job in job_list:
        output, error = first if job is job_list[0] else run_job(job, 0, None)
        try:
            if error is not None:
                raise RuntimeError(error)
            checker.check(job, output)
        except Exception as exc:
            warm_bad += 1
            print(f"warm-up job failed: {job.name}: {exc}", file=sys.stderr)
    first = output = None

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    in_memory = args.workload == "monte-carlo"
    times, round_times, errors, outputs, digests = [], [], [], [], []
    latest = {}
    start = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        round_start = time.perf_counter()
        for index, job in enumerate(job_list):
            t = time.perf_counter()
            output, error = run_job(job, rounds, tracer)
            times.append(time.perf_counter() - t)
            if error is not None:
                errors.append(error)
            elif in_memory and not isinstance(output, str):
                digests.append((index, digest(output)))
                latest[index] = output
            else:
                outputs.append((index, output))
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()

    # Checks, outside the timed region.
    bad = []
    for index, output in outputs + list(latest.items()):
        try:
            checker.check(job_list[index], output)
        except Exception as exc:  # CheckFailed, or a reference that cannot be built
            bad.append(f"{job_list[index].name}: {type(exc).__name__}: {exc}")
    for index, fingerprint in digests:
        if fingerprint != digest(latest[index]):
            bad.append(f"{job_list[index].name}: output differs between rounds")

    for message in errors + bad:
        print(f"failed: {message}", file=sys.stderr)
    attempted = len(times)
    failed = len(errors) + len(bad)
    correct = not bad and warm_bad == 0

    if tracer is not None:
        metrics = tracer.metrics()
        summary = tracer.summary()
        summary["traced_jobs_per_s"] = len(job_list) / statistics.median(round_times)
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "jobs_per_s": {"value": len(job_list) / statistics.median(round_times), "unit": "1/s"},
            "job_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    info = f"{args.workload}: {attempted} jobs in {rounds} rounds, {elapsed:.2f} s timed; setup samples {setup}"
    if attempted >= 100 and not args.trace:
        p90 = 1e3 * statistics.quantiles(times, n=10)[-1]
        info += f"; job_p90_ms {p90:.3f} over {attempted} jobs"
    print(info)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
