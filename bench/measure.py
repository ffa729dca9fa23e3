"""Workloads, timed solves, output checks and metric assembly.

A benchmark run of one workload:

1. starts a fresh child process that solves the workload once and reports
   its peak resident memory (untraced runs only);
2. meanwhile solves once in this process as a warm-up, probes the built
   preconditioner with seeded random vectors and takes its census;
3. solves repeatedly until the measuring time is up, timing each
   `run_experiment` call from outside, with yardstick runs between the
   solves (about 15% of a solve's length). Traced runs alternate untraced
   and traced solves, so tracing overhead is measured in the same run.

Each solve's timings are converted to reference seconds by the yardstick
times just before and just after it (yardstick.py); the end-to-end timings
are medians of those over the untraced solves, and the `wall.*` entries
keep the plain wall-clock medians. `trace.overhead_s` is the median, over
adjacent untraced/traced pairs, of the traced minus the untraced time to
solution in reference seconds. The other per-layer timings are wall seconds.

Every solve, the warm-up and the child's included, is an attempted run. It
fails if it raises `MlbddcError`, does not converge, differs from the
workload's reference (n_dofs, coarse sizes, iterations exactly; condition
estimate to 1e-6 relative), has a true residual above the tolerance, or
reports setup + solve time above its own wall time.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import census
import tracing
from yardstick import REFERENCE_S, Yardstick
from mlbddc import (MlbddcError, assemble_global, generate_box_mesh, load_config,
                    run_experiment)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KAPPA_RTOL = 1e-6
SYMMETRY_RTOL = 1e-10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "MLBDDC_WORKERS")
CHILD_TIMEOUT_S = 170
YARDSTICK_SHARE = 0.15  # share of each timed solve's length spent on the yardstick
WORKLOADS_JSON = HERE / "workloads.json"


def load_workloads() -> dict:
    with open(WORKLOADS_JSON) as fh:
        return json.load(fh)


def workload_config(spec: dict):
    return load_config(overrides=[f"{k}={v}" for k, v in spec["config"].items()])


def reference_failures(ref: dict, n_dofs, coarse_sizes, iterations, kappa) -> list:
    """Why a run's outputs differ from the workload's reference (empty if
    they match)."""
    out = []
    if n_dofs != ref["n_dofs"]:
        out.append(f"n_dofs {n_dofs} != {ref['n_dofs']}")
    if list(coarse_sizes) != ref["coarse_sizes"]:
        out.append(f"coarse_sizes {coarse_sizes} != {ref['coarse_sizes']}")
    if iterations != ref["iterations"]:
        out.append(f"iterations {iterations} != {ref['iterations']}")
    k_ref = ref["condition_estimate"]
    if kappa is None or not abs(kappa - k_ref) <= KAPPA_RTOL * abs(k_ref):
        out.append(f"condition_estimate {kappa!r} != {k_ref!r} to {KAPPA_RTOL:g}")
    return out


class Oracle:
    """Global K and f, assembled once outside every timed region, to
    compute the true residual ||f - K u|| / ||f|| of a solution."""

    def __init__(self, config):
        mesh = generate_box_mesh(config.dim, config.elements_per_axis(),
                                 config.lengths_per_axis())
        k, self.f = assemble_global(config.problem_spec(), mesh)
        self.k = k.scipy_csr()
        self.f_norm = float(np.linalg.norm(self.f))

    def true_residual(self, u) -> float:
        return float(np.linalg.norm(self.f - self.k @ u)) / self.f_norm


def check(result, wall: float, ref: dict, oracle: Oracle, tol: float):
    """(true_residual, failures) for one completed run."""
    rep = result.report
    fails = reference_failures(ref, result.n_dofs, result.coarse_sizes,
                               rep.iterations, rep.condition_estimate)
    if not rep.converged:
        fails.append("not converged")
    res = oracle.true_residual(result.solution)
    if not res <= tol:
        fails.append(f"true residual {res:.3e} > tolerance {tol:g}")
    if result.setup_seconds + result.krylov_seconds > wall:
        fails.append(f"setup {result.setup_seconds:.6f} s + solve "
                     f"{result.krylov_seconds:.6f} s > wall {wall:.6f} s")
    return res, fails


class Runner:
    """Runs and checks the solves of one workload, counting attempts."""

    def __init__(self, name: str, spec: dict):
        self.name = name
        self.config = workload_config(spec)
        self.ref = spec["reference"]
        self.oracle = Oracle(self.config)
        self.attempted = 0
        self.failed_runs: set = set()
        self.failures: list = []
        self.factorizations: list = []
        self.warm_wall = 0.0

    def fail(self, reasons) -> None:
        """Mark the current attempt failed for each of the given reasons."""
        for r in reasons:
            self.failed_runs.add(self.attempted)
            self.failures.append(f"{self.name} run {self.attempted}: {r}")

    def solve(self):
        """One timed, checked solve: (result or None, sample dict or None)."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = run_experiment(self.config)
        except MlbddcError as exc:
            self.fail([f"{type(exc).__name__}: {exc}"])
            return None, None
        wall = time.perf_counter() - t0
        res, fails = check(result, wall, self.ref, self.oracle, self.config.tolerance)
        self.fail(fails)
        rep = result.report
        return result, {"time_to_solution_s": wall,
                        "setup_s": result.setup_seconds,
                        "solve_s": result.krylov_seconds,
                        "iterations": rep.iterations,
                        "condition_estimate": rep.condition_estimate,
                        "true_residual": res}

    def warm_up(self, seed: int) -> dict:
        """Untimed first solve, then probes and census of its preconditioner."""
        result, sample = self.solve()
        if result is None:
            return {}
        self.warm_wall = sample["time_to_solution_s"]
        out = census.probe(result, np.random.default_rng(seed))
        for op in ("bddc.apply", "substructuring.schur_apply"):
            err = out.pop(f"{op}.asymmetry")
            if not err <= SYMMETRY_RTOL:
                self.fail([f"{op} asymmetry {err:.3e} > {SYMMETRY_RTOL:g}"])
        out.update(census.census(result.preconditioner))
        self.factorizations = census.factorizations(result.preconditioner)
        return out

    def finish_child(self, child: subprocess.Popen) -> float | None:
        """Peak RSS (MB) reported by the fresh-process solve, checked."""
        self.attempted += 1
        try:
            out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            self.fail(["fresh-process solve timed out"])
            return None
        if child.returncode != 0:
            self.fail([f"fresh-process solve exited with {child.returncode}"])
            return None
        rec = json.loads(out.strip().splitlines()[-1])
        self.fail(reference_failures(self.ref, rec["n_dofs"], rec["coarse_sizes"],
                                     rec["iterations"], rec["condition_estimate"]))
        if not rec["converged"]:
            self.fail(["fresh-process solve did not converge"])
        return rec["peak_rss_mb"]


def start_child(workload: str, spec: dict) -> subprocess.Popen:
    """Start the fresh-process solve of the given workload spec."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--rss-child", json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)


def rss_child(spec: dict) -> int:
    """Solve once in this (fresh) process; print peak RSS and outputs."""
    config = workload_config(spec)
    result = run_experiment(config)
    rep = result.report
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "n_dofs": result.n_dofs, "coarse_sizes": result.coarse_sizes,
        "iterations": rep.iterations, "condition_estimate": rep.condition_estimate,
        "converged": rep.converged}))
    return 0


def reference_seconds(sample: dict, key: str) -> float:
    """A solve's timing `key` in reference seconds. The yardstick time is
    interpolated linearly between its values just before and just after the
    solve, at the midpoint of the timed phase (setup runs first)."""
    f = sample["setup_s"] / sample["time_to_solution_s"]
    mid = {"time_to_solution_s": 0.5, "setup_s": f / 2, "solve_s": (1 + f) / 2}[key]
    before, after = sample["yardstick_s"]
    return sample[key] * REFERENCE_S / ((1 - mid) * before + mid * after)


def median_of(samples, key):
    vals = [s[key] for s in samples if s is not None]
    return statistics.median(vals) if vals else None


@dataclass
class Outcome:
    attempted: int
    failed: int
    failures: list          # one line per failed check
    metrics: dict           # metric name -> value (None if never measured)
    samples: int            # untraced timed solves behind the medians
    traces: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)


def measure(workload: str, seed: int, seconds: float, traced: bool,
            workloads: dict) -> Outcome:
    """Run one workload (a key of `workloads`) for at least `seconds` of
    timed solves."""
    child = None if traced else start_child(workload, workloads[workload])
    try:
        runner = Runner(workload, workloads[workload])
        probes = runner.warm_up(seed)
        peak = None if child is None else runner.finish_child(child)
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()

    plain, traced_samples, traces = [], [], []
    tracer = tracing.Tracer()
    yard = Yardstick()
    reps = max(3, round(YARDSTICK_SHARE * runner.warm_wall / yard.run()))
    speed = [yard.median(reps)]
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds or not plain
           or (traced and not traced_samples)):
        tracing_now = traced and len(traced_samples) < len(plain)
        if tracing_now:
            spans = tracer.begin_trace()
            with tracer.installed():
                sample = runner.solve()[1]
        else:
            sample = runner.solve()[1]
        speed.append(yard.median(reps))
        if sample is not None:
            sample["yardstick_s"] = (speed[-2], speed[-1])
        if not tracing_now:
            plain.append(sample)
            continue
        traced_samples.append(sample)
        if sample is not None:
            traces.append((sample, spans))

    metrics = {"yardstick_s": statistics.median(speed), "peak_rss_mb": peak}
    for k in ("iterations", "condition_estimate", "true_residual"):
        metrics[k] = median_of(plain, k)
    for k in ("time_to_solution_s", "setup_s", "solve_s"):
        metrics[f"wall.{k}"] = median_of(plain, k)
        ref = [reference_seconds(s, k) for s in plain if s is not None]
        metrics[k] = statistics.median(ref) if ref else None
    if traced:
        metrics.update(probes)
        per_trace = []
        for sample, spans in traces:
            m = tracing.layer_metrics(spans)
            m["trace.uncovered_s"] = (sample["time_to_solution_s"]
                                      - tracing.top_level_coverage(spans))
            per_trace.append(m)
        for key in per_trace[0] if per_trace else ():
            metrics[key] = statistics.median(m[key] for m in per_trace)
        # traced solve i directly follows untraced solve i
        diffs = [reference_seconds(t, "time_to_solution_s")
                 - reference_seconds(p, "time_to_solution_s")
                 for p, t in zip(plain, traced_samples)
                 if p is not None and t is not None]
        if diffs:
            metrics["trace.overhead_s"] = statistics.median(diffs)
    return Outcome(attempted=runner.attempted, failed=len(runner.failed_runs),
                   failures=runner.failures, metrics=metrics,
                   samples=sum(1 for s in plain if s is not None),
                   traces=tracer.traces,
                   factorizations=runner.factorizations)


def write_trace(path: Path, workload: str, prov: dict, metrics: dict,
                outcome: Outcome) -> None:
    """Spans as [name, parent, start_s, end_s, method] rows per trace, with
    times relative to the trace's first span; parent indexes the same trace."""
    traces = []
    for spans in outcome.traces:
        t0 = spans[0].start if spans else 0.0
        traces.append([[s.name, s.parent, round(s.start - t0, 7),
                        round(s.end - t0, 7), s.method] for s in spans])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": workload, "provenance": prov, "metrics": metrics,
                   "factorizations": {"fields": ["level", "role", "subdomain",
                                                 "method", "n", "nnz"],
                                      "rows": outcome.factorizations},
                   "span_fields": ["name", "parent", "start_s", "end_s", "method"],
                   "traces": traces}, fh)


# -- provenance ---------------------------------------------------------------

def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return None


def provenance(seed: int) -> dict:
    src = sorted((ROOT / "src" / "mlbddc").glob("*.py"))
    return {
        "commit": git_commit(ROOT),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": sum(p.read_bytes().count(b"\n") for p in src),
        "note": ("timings come from a shared machine (the benchmark was "
                 "defined on a shared 2-core box); end-to-end timings are in "
                 "reference seconds (bench/yardstick.py), as is "
                 "trace.overhead_s; wall.* and the other per-layer timings "
                 "are in wall seconds"),
    }
