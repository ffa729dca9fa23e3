"""Self-tests of the benchmark: span arithmetic, the reference gate, census
repeatability, metric coverage and the refusal to run without sources.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import census  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
from mlbddc import run_experiment  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

# three BDDC levels with corner, edge and face constraints, in under a second
TINY_CONFIG = {"problem": "elasticity", "dim": "3", "elements": "6",
               "hierarchy": "27/8", "tolerance": "1e-8", "workers": "1"}


@pytest.fixture(scope="module")
def tiny():
    res = run_experiment(measure.workload_config({"config": TINY_CONFIG}))
    rep = res.report
    return {"config": TINY_CONFIG,
            "reference": {"n_dofs": res.n_dofs, "coarse_sizes": res.coarse_sizes,
                          "iterations": rep.iterations,
                          "condition_estimate": rep.condition_estimate}}


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_covered_merges_overlaps():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0, 1), (2, 3)]) == 2.0
    assert tracing.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_self_time_on_hand_built_tree():
    spans = [Span("root", -1, 0.0, 10.0),
             Span("a", 0, 1.0, 4.0),
             Span("b", 0, 3.0, 6.0),        # overlaps a: counted once
             Span("a.child", 1, 2.0, 3.0),
             Span("late", 0, 9.0, 12.0)]    # clipped to the parent's end
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 2, 3, 1, 3])
    assert tracing.top_level_coverage(spans) == pytest.approx(10.0)


def test_apply_split_and_krylov_self_time():
    spans = [Span("krylov.pcg", -1, 0.0, 20.0),
             Span("substructuring.schur_apply", 0, 0.0, 5.0),
             Span("sparse.solve", 1, 1.0, 2.0),
             Span("bddc.apply", 0, 5.0, 15.0),
             Span("bddc.constrained_solve", 3, 6.0, 8.0),
             Span("sparse.solve", 4, 6.5, 7.5),
             Span("bddc.interior_precorrection", 3, 8.0, 9.0),
             Span("sparse.solve", 3, 10.0, 11.0)]    # top solve
    m = tracing.layer_metrics(spans)
    assert m["bddc.apply_s"] == pytest.approx(10.0)
    assert m["bddc.apply.local_solve_s"] == pytest.approx(2.0)
    assert m["bddc.apply.interior_correction_s"] == pytest.approx(1.0)
    assert m["bddc.apply.top_solve_s"] == pytest.approx(1.0)
    assert m["bddc.apply.self_s"] == pytest.approx(6.0)
    assert m["krylov.self_s"] == pytest.approx(5.0)
    assert m["sparse.solve_calls"] == 3
    assert m["sparse.solve_s"] == pytest.approx(3.0)


def test_tracer_records_nesting_and_restores_originals():
    import mlbddc.harness
    import mlbddc.sparse
    orig_harness = mlbddc.harness.assemble_global
    orig_solve = mlbddc.sparse.Factorization.solve
    tracer = Tracer()
    spans = tracer.begin_trace()
    with tracer.installed():
        assert mlbddc.harness.assemble_global is not orig_harness
        run_experiment(measure.workload_config({"config": TINY_CONFIG}))
    assert mlbddc.harness.assemble_global is orig_harness
    assert mlbddc.sparse.Factorization.solve is orig_solve
    names = {s.name for s in spans}
    assert {"fem.assemble_global", "bddc.setup", "bddc.coarse_basis",
            "krylov.pcg", "bddc.apply", "sparse.solve"} <= names
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start <= s.end <= p.end
    assert sum(1 for s in spans if s.name == "bddc.setup") == 1
    assert all(spans[s.parent].name == "bddc.setup"
               for s in spans if s.name == "bddc.coarse_basis")


def test_reference_gate(tiny):
    runner = measure.Runner("tiny", tiny)
    runner.solve()
    assert runner.attempted == 1 and not runner.failed_runs, runner.failures

    wrong = dict(tiny, reference=dict(tiny["reference"]))
    wrong["reference"]["condition_estimate"] *= 1 + 2e-6
    runner = measure.Runner("tiny", wrong)
    _, sample = runner.solve()
    assert runner.failed_runs == {1}
    assert "condition_estimate" in runner.failures[0]
    assert sample is not None       # timed, but counted as failed

    wrong = dict(tiny, reference=dict(tiny["reference"]))
    wrong["reference"]["iterations"] += 1
    runner = measure.Runner("tiny", wrong)
    runner.solve()
    assert runner.failed_runs == {1}


def test_census_repeats_exactly(tiny):
    cfg = measure.workload_config(tiny)
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert census.census(a.preconditioner) == census.census(b.preconditioner)
    assert census.factorizations(a.preconditioner) == \
        census.factorizations(b.preconditioner)
    c = census.census(a.preconditioner)
    assert c["bddc.L1.coarse_dofs"] == a.coarse_sizes[0]
    assert c["bddc.L3.coarse_dofs"] == 0
    assert sum(c[f"interface.L1.constraints.{k}"]
               for k in census.CONSTRAINT_KINDS) == a.coarse_sizes[0]


def test_probes_are_seeded_and_symmetric(tiny):
    import numpy as np
    res = run_experiment(measure.workload_config(tiny))
    p = census.probe(res, np.random.default_rng(3), reps=1)
    again = census.probe(res, np.random.default_rng(3), reps=1)
    assert again["bddc.apply.asymmetry"] == p["bddc.apply.asymmetry"]
    assert p["bddc.apply.asymmetry"] < measure.SYMMETRY_RTOL
    assert p["substructuring.schur_apply.asymmetry"] < measure.SYMMETRY_RTOL
    assert p["bddc.apply_ms"] > 0 and p["substructuring.schur_apply_ms"] > 0


@pytest.mark.parametrize("traced", [False, True])
def test_every_declared_metric_is_measured(tiny, traced, tmp_path):
    out = measure.measure("tiny", 0, 0.0, traced, {"tiny": tiny})
    assert out.failed == 0, out.failures
    assert out.samples >= 1
    declared = benchmark_json()["per_layer" if traced else "end_to_end"]
    missing = [m["name"] for m in declared if out.metrics.get(m["name"]) is None]
    assert not missing
    if traced:
        path = tmp_path / "trace.json"
        measure.write_trace(path, "tiny", {}, out.metrics, out)
        with open(path) as fh:
            written = json.load(fh)
        assert len(written["traces"]) == len(out.traces) >= 1
        assert len(written["traces"][0]) == len(out.traces[0]) > 0


def test_end_to_end_bounds_follow_the_contract():
    spec = benchmark_json()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert set(measure.load_workloads()) == {w["name"] for w in spec["workloads"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "p2d-256",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
