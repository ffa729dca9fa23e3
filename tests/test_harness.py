"""Configuration parsing, the experiment runner, and report formatting."""

import csv
import io
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from mlbddc.errors import ConfigError, NumericalError
from mlbddc.harness import (
    CSV_COLUMNS,
    TIMING_COLUMNS,
    RunConfig,
    analyze_globs,
    export_solution_vtk,
    format_report,
    load_config,
    parse_config_text,
    parse_hierarchy,
    run_configs,
    run_experiment,
    run_sweep,
    write_report,
)


# -- hierarchy strings --------------------------------------------------------

def test_hierarchy_forms():
    assert parse_hierarchy("64/8/1") == [64, 8]
    assert parse_hierarchy("64/8") == [64, 8]
    assert parse_hierarchy("64") == [64]
    assert parse_hierarchy("64/1") == [64]
    assert parse_hierarchy("64/1/1") == [64, 1]
    assert parse_hierarchy("1") == [1]
    assert parse_hierarchy("64/8/2") == [64, 8, 2]


@pytest.mark.parametrize("bad", ["4/8/1", "8/8", "0", "64/0", "a/b", "", "64//8",
                                 "64/8/4/8"])
def test_hierarchy_rejects(bad):
    with pytest.raises(ConfigError):
        parse_hierarchy(bad)


# -- config parsing -----------------------------------------------------------

def test_parse_config_text():
    text = """
    # comment line
    problem = elasticity
    dim=3
    elements = 4,4,8   # trailing comment
    tolerance = 1e-8
    weight_scheme = stiffness-diagonal
    """
    values = parse_config_text(text)
    assert values == {"problem": "elasticity", "dim": 3, "elements": (4, 4, 8),
                      "tolerance": 1e-8, "weight_scheme": "stiffness-diagonal"}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown option"):
        parse_config_text("solver = magic")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("dim = two")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words")


def _option_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("f", fields(RunConfig), ids=lambda f: f.name)
def test_every_option_round_trips_and_rejects_a_bad_value(f):
    # each RunConfig field is a config key whose default, written out,
    # parses back to itself, type included; a text option rejects a value
    # that is none of its choices, a numeric one a value that is no number
    values = parse_config_text(f"{f.name} = {_option_text(f.default)}")
    assert values == {f.name: f.default}
    items = values[f.name] if isinstance(f.default, tuple) else (values[f.name],)
    defaults = f.default if isinstance(f.default, tuple) else (f.default,)
    assert [type(v) for v in items] == [type(v) for v in defaults]
    if isinstance(defaults[0], str):
        with pytest.raises(ConfigError):
            load_config(overrides=[f"{f.name}=bogus"])
    else:
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text(f"{f.name} = bogus")


@pytest.mark.parametrize("name", ["krylov", "constraint_policy", "corner_strategy",
                                  "weight_scheme", "partition"])
def test_a_bad_choice_names_its_option(name):
    with pytest.raises(ConfigError, match=f"unknown {name} 'bogus'"):
        load_config(overrides=[f"{name}=bogus"])


def test_load_config_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("elements = 8\nhierarchy = 4\ntolerance = 1e-8\n")
    config = load_config(cfg, overrides=["hierarchy=16/4", "workers=2"])
    assert config.elements == (8,)
    assert config.hierarchy == "16/4"
    assert config.tolerance == 1e-8
    assert config.workers == 2


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_bad_override():
    with pytest.raises(ConfigError):
        load_config(None, overrides=["notakeyvalue"])
    with pytest.raises(ConfigError):
        load_config(None, overrides=["mystery=1"])


@pytest.mark.parametrize("field,value", [
    ("problem", "stokes"), ("dim", 4), ("krylov", "gmres"),
    ("constraint_policy", "everything"), ("corner_strategy", "none"),
    ("weight_scheme", "mass"), ("partition", "metis"),
    ("tolerance", -1.0), ("max_iterations", 0), ("workers", 0),
    ("elements", (0,)), ("elements", (4, 4, 4)), ("length", (-1.0,)),
    ("length", (1.0, 2.0, 3.0)), ("rhs", "bogus"), ("dirichlet_faces", ("q-",)),
    ("poisson_ratio", 0.5), ("young", 0.0),
])
def test_validate_rejects(field, value):
    # on elasticity, so that the moduli are checked too
    with pytest.raises(ConfigError):
        RunConfig(**{"problem": "elasticity", field: value}).validate()


def test_axis_expansion():
    assert RunConfig(dim=3, elements=(4,)).elements_per_axis() == (4, 4, 4)
    assert RunConfig(dim=2, elements=(4, 6)).elements_per_axis() == (4, 6)
    assert RunConfig(dim=2, length=(2.0,)).lengths_per_axis() == (2.0, 2.0)


# -- experiments --------------------------------------------------------------

def test_run_experiment_row():
    res = run_experiment(RunConfig(elements=(8,), hierarchy="4"))
    row = res.csv_row()
    assert row["levels"] == "2"
    assert row["subdomains"] == "4"
    assert row["n_dofs"] == "49"
    assert row["coarse_sizes"] == "13"
    assert row["converged"] == "true"
    assert res.report.converged
    # the interface residual |g - S u| / |g| of the converged solve
    assert row["true_residual"] == f"{res.report.true_residual:.6e}"
    assert 0.0 < res.report.true_residual < res.config.tolerance


def test_run_experiment_matches_dense_solve():
    res = run_experiment(RunConfig(elements=(16,), hierarchy="16/4",
                                   tolerance=1e-10))
    from mlbddc.fem import assemble_global
    k, f = assemble_global(res.spec, res.mesh)
    x_ref = np.linalg.solve(k.scipy_csr().toarray(), f)
    assert np.max(np.abs(res.solution - x_ref)) < 1e-8


@pytest.mark.parametrize("hierarchy", ["16", "16/4"])
def test_run_experiment_nonzero_dirichlet(hierarchy):
    cfg = RunConfig(elements=(16,), hierarchy=hierarchy, dirichlet_value=2.0,
                    tolerance=1e-12)
    res = run_experiment(replace(cfg, rhs="zero"))
    assert np.max(np.abs(res.solution - 2.0)) < 1e-10
    res = run_experiment(cfg)
    from mlbddc.fem import assemble_global
    k, f = assemble_global(res.spec, res.mesh)
    assert np.max(np.abs(res.solution - np.linalg.solve(k.scipy_csr().toarray(), f))) < 1e-10


def test_run_experiment_single_subdomain():
    res = run_experiment(RunConfig(elements=(6,), hierarchy="1"))
    assert res.report.iterations == 1
    assert res.report.condition_estimate == 1.0
    assert res.report.true_residual == 0.0
    from mlbddc.fem import assemble_global
    k, f = assemble_global(res.spec, res.mesh)
    assert np.max(np.abs(res.solution - np.linalg.solve(k.scipy_csr().toarray(), f))) < 1e-12


def test_run_experiment_bicgstab():
    res = run_experiment(RunConfig(elements=(16,), hierarchy="4",
                                   krylov="bicgstab", tolerance=1e-10))
    assert res.report.converged
    assert res.report.condition_estimate is None
    assert res.csv_row()["condition_estimate"] == ""


def test_bicgstab_converged_run_meets_tolerance_on_the_interface():
    # three-level elasticity: BiCGstab's preconditioned residual met 1e-6
    # while the interface residual |g - S u| / |g| was still 1.9e-6
    res = run_experiment(load_config(overrides=[
        "problem=elasticity", "dim=3", "elements=6", "hierarchy=27/8",
        "krylov=bicgstab", "tolerance=1e-6"]))
    assert res.report.converged
    from mlbddc.fem import assemble_global
    from mlbddc.substructuring import condensed_rhs, schur_apply
    level = res.preconditioner.levels[0]
    g = condensed_rhs(level.splits, level.imap, assemble_global(res.spec, res.mesh)[1])
    u = res.solution[level.imap.dofs]
    residual = g - schur_apply(level.splits, level.imap, u)
    assert np.linalg.norm(residual) / np.linalg.norm(g) < 1e-6


def test_run_experiment_deterministic():
    cfg = RunConfig(elements=(16,), hierarchy="16/4", workers=2)
    rows = [run_experiment(cfg).csv_row() for _ in range(2)]
    for col in CSV_COLUMNS:
        if col in TIMING_COLUMNS:
            continue
        assert rows[0][col] == rows[1][col], col


def test_run_experiment_solution_deterministic():
    cfg = RunConfig(elements=(12,), dim=2, problem="elasticity", hierarchy="4/2")
    a = run_experiment(cfg).solution
    b = run_experiment(cfg).solution
    assert np.array_equal(a, b)


def test_run_experiment_rejects_oversubscription():
    with pytest.raises(ConfigError):
        run_experiment(RunConfig(elements=(2,), hierarchy="64"))


# -- sweeps and reports -------------------------------------------------------

def test_sweep_order_and_report():
    cfg = RunConfig(elements=(8,))
    results = run_sweep(cfg, ["4", "4/2", "4/2/1"])
    assert [r.config.hierarchy for r in results] == ["4", "4/2", "4/2/1"]
    # "4/2/1" normalizes to the same tree as "4/2": the trailing 1 is implied.
    assert [r.levels for r in results] == [2, 3, 3]
    text = format_report(results)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    assert text.endswith("\n")


def test_sweep_requires_hierarchies():
    with pytest.raises(ConfigError):
        run_sweep(RunConfig(), [])


def test_sweep_validates_upfront():
    with pytest.raises(ConfigError):
        run_sweep(RunConfig(elements=(8,)), ["4", "4/8/1"])


def test_sweep_partial_failure(monkeypatch):
    import mlbddc.harness as harness
    real = harness.run_experiment

    def flaky(cfg):
        if cfg.hierarchy == "4/2":
            raise NumericalError("synthetic failure")
        return real(cfg)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    results = harness.run_sweep(RunConfig(elements=(8,)), ["4", "4/2", "4/2/1"])
    assert [r.report.converged for r in results] == [True, False, True]
    row = results[1].csv_row()
    assert row["converged"] == "false"
    assert row["iterations"] == "0"
    assert row["true_residual"] == ""
    assert row["error"] == "NumericalError: synthetic failure"
    assert results[0].csv_row()["error"] == ""


def test_sweep_rows_name_their_failure():
    # the weak-coarse-space reproducer (vertex corners only, 2D elasticity
    # clamped on one face) fails next to a healthy run: its row names the
    # error class and message, quoted since the message has commas, and the
    # healthy row's error column is empty
    weak = load_config(overrides=["problem=elasticity", "dim=2", "dirichlet_faces=x-",
                                  "constraint_policy=corners-only",
                                  "corner_strategy=vertices-only",
                                  "hierarchy=16", "elements=8"])
    healthy = replace(weak, constraint_policy="corners+edges+faces", corner_strategy="default")
    text = format_report(run_configs([weak, healthy]))
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [list(r) for r in rows] == [list(CSV_COLUMNS)] * 2
    assert rows[0]["converged"] == "false" and rows[0]["n_dofs"] == "0"
    assert rows[0]["error"].startswith("NumericalError: level 1, subdomain 3: ")
    assert rows[0]["error"].endswith("; the constraint set is too weak")
    assert rows[1]["converged"] == "true" and rows[1]["error"] == ""


def test_write_report(tmp_path):
    res = run_experiment(RunConfig(elements=(8,), hierarchy="4"))
    path = tmp_path / "report.csv"
    text = write_report([res], path)
    assert path.read_text() == text
    assert text.startswith("levels,")


def test_analyze_globs_text():
    text = analyze_globs(RunConfig(elements=(8,), hierarchy="4"))
    assert "4 faces, 0 edges, 1 vertices" in text
    assert "corners (default): 9" in text


def test_export_vtk(tmp_path):
    path = tmp_path / "sol.vtk"
    res = export_solution_vtk(RunConfig(elements=(6,), problem="elasticity",
                                        hierarchy="4"), path)
    body = path.read_text()
    assert "VECTORS displacement double" in body
    assert res.report.converged
    path2 = tmp_path / "scalar.vtk"
    export_solution_vtk(RunConfig(elements=(6,), hierarchy="4"), path2)
    assert "SCALARS solution double 1" in path2.read_text()


SOLVE_AND_SAVE = """
import sys
import numpy as np
from mlbddc import load_config, run_experiment
res = run_experiment(load_config(overrides=sys.argv[2:]))
np.save(sys.argv[1], np.r_[res.report.iterations, res.report.condition_estimate, res.solution])
"""


def test_blas_thread_count_moves_results_only_by_roundoff(tmp_path):
    # runs are bitwise reproducible at a fixed BLAS thread count only: a
    # threaded BLAS may sum in another order. Across 1 and 2 threads the
    # iterations agree and the solution and kappa agree to round-off
    src = str(Path(__file__).resolve().parents[1] / "src")
    overrides = ["problem=elasticity", "dim=3", "elements=8", "hierarchy=8", "tolerance=1e-10"]
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        path = tmp_path / f"threads{threads}.npy"
        done = subprocess.run([sys.executable, "-c", SOLVE_AND_SAVE, str(path), *overrides],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        runs.append(np.load(path))
    (it1, kappa1, *x1), (it2, kappa2, *x2) = runs
    assert it1 == it2
    assert abs(kappa1 - kappa2) <= 1e-10 * abs(kappa1)
    assert np.linalg.norm(np.subtract(x1, x2)) <= 1e-12 * np.linalg.norm(x1)
