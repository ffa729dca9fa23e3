"""CLI surface: subcommands, exit codes, file outputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mlbddc.cli import main
from mlbddc.errors import EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_NUMERICAL, EXIT_OK
from mlbddc.harness import load_config, run_experiment


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve(capsys, tmp_path):
    out_file = tmp_path / "row.csv"
    code, out, _ = run_cli(capsys, "solve", "--set", "elements=8",
                           "--hierarchy", "4", "--output", str(out_file))
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("levels,subdomains,n_dofs")
    assert lines[1].startswith("2,4,49,13,")
    assert out_file.read_text() == out


def test_solve_invalid_hierarchy(capsys):
    code, _, err = run_cli(capsys, "solve", "--hierarchy", "4/8/1")
    assert code == EXIT_CONFIG
    assert "error:" in err


def test_solve_unknown_option(capsys):
    code, _, err = run_cli(capsys, "solve", "--set", "magic=1")
    assert code == EXIT_CONFIG
    assert "unknown option" in err


def test_solve_non_convergence(capsys):
    code, out, _ = run_cli(capsys, "solve", "--set", "elements=16",
                           "--hierarchy", "4", "--set", "max_iterations=1",
                           "--set", "tolerance=1e-30")
    assert code == EXIT_NO_CONVERGENCE
    assert ",false" in out


def test_solve_underflowed_residual_is_not_converged(capsys):
    # the recursive residual underflows below 1e-300 while the true residual
    # does not: PCG stops there, but the run has not converged
    overrides = ["elements=16", "hierarchy=16", "tolerance=1e-300",
                 "max_iterations=200"]
    report = run_experiment(load_config(overrides=overrides)).report
    assert report.relative_residuals[-1] < 1e-300
    assert report.iterations < 200
    assert not report.converged
    code, out, _ = run_cli(capsys, "solve", *(a for o in overrides for a in ("--set", o)))
    assert code == EXIT_NO_CONVERGENCE
    assert out.strip().endswith(",false")


def test_solve_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("elements = 8\nhierarchy = 4\n")
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == EXIT_OK
    assert "2,4,49," in out


def test_sweep(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--set", "elements=8",
                           "--hierarchies", "4,4/2")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("2,4,")
    assert lines[2].startswith("3,4/2,")


def test_sweep_bad_hierarchy_fails_fast(capsys):
    code, out, err = run_cli(capsys, "sweep", "--set", "elements=8",
                             "--hierarchies", "4,4/8")
    assert code == EXIT_CONFIG
    assert out == ""


def test_sweep_config_list(capsys, tmp_path):
    a = tmp_path / "a.cfg"
    a.write_text("elements = 8\nhierarchy = 4\n")
    b = tmp_path / "b.cfg"
    b.write_text("elements = 8\nhierarchy = 4/2\nproblem = elasticity\n")
    lst = tmp_path / "runs.txt"
    lst.write_text(f"{a}\n# comment\n\n{b}\n")
    code, out, _ = run_cli(capsys, "sweep", "--config-list", str(lst))
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("2,4,49,")
    assert lines[2].startswith("3,4/2,")


def test_sweep_config_list_empty(capsys, tmp_path):
    lst = tmp_path / "runs.txt"
    lst.write_text("# nothing here\n")
    code, _, err = run_cli(capsys, "sweep", "--config-list", str(lst))
    assert code == EXIT_CONFIG
    assert "at least one" in err


def test_sweep_config_list_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--config-list",
                           str(tmp_path / "none.txt"))
    assert code == EXIT_CONFIG
    assert "cannot read config list" in err


def test_sweep_needs_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--set", "elements=8")
    assert code == EXIT_CONFIG
    assert "exactly one of" in err
    lst = tmp_path / "runs.txt"
    lst.write_text("whatever\n")
    code, _, err = run_cli(capsys, "sweep", "--hierarchies", "4",
                           "--config-list", str(lst))
    assert code == EXIT_CONFIG


def test_analyze_globs(capsys, tmp_path):
    out_file = tmp_path / "globs.txt"
    code, out, _ = run_cli(capsys, "analyze-globs", "--set", "elements=8",
                           "--hierarchy", "4", "--output", str(out_file))
    assert code == EXIT_OK
    assert "vertex" in out
    assert out_file.read_text() == out


def test_export_vtk(capsys, tmp_path):
    path = tmp_path / "out.vtk"
    code, out, _ = run_cli(capsys, "export-vtk", "--set", "elements=6",
                           "--hierarchy", "4", "--output", str(path))
    assert code == EXIT_OK
    assert path.exists()
    assert "converged" in out


@pytest.mark.parametrize("argv", [["solve", "--hierarchy", "4"],
                                  ["sweep", "--hierarchies", "4"],
                                  ["analyze-globs", "--hierarchy", "4"],
                                  ["export-vtk", "--hierarchy", "4"]],
                         ids=lambda argv: argv[0])
def test_unwritable_output_is_config_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.csv"
    code, _, err = run_cli(capsys, *argv, "--set", "elements=6", "--output", str(path))
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err
    assert not path.parent.exists()


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("setting", ["elements=0", "elements=4,4,4", "length=-1",
                                     "length=1,2,3"])
def test_solve_bad_mesh_size_is_config_error(capsys, setting):
    code, _, err = run_cli(capsys, "solve", "--set", setting, "--hierarchy", "4")
    assert code == EXIT_CONFIG
    assert "error:" in err


@pytest.mark.parametrize("elements", [8, 16])
def test_solve_weak_coarse_space_names_the_subdomain(capsys, elements):
    # corner values alone do not control the rigid-body modes of the 2D
    # elasticity subdomains here: the constrained local problems fail their
    # setup check (elements=8 used to crash on NaNs, elements=16 used to
    # "converge" with condition estimate ~4.5e14)
    code, _, err = run_cli(capsys, "solve", "--set", "problem=elasticity",
                           "--set", "dim=2", "--set", "dirichlet_faces=x-",
                           "--set", "constraint_policy=corners-only",
                           "--set", "corner_strategy=vertices-only",
                           "--set", "hierarchy=16", "--set", f"elements={elements}")
    assert code == EXIT_NUMERICAL
    assert "level 1, subdomain" in err
    assert "constraint set is too weak" in err


def test_solve_weak_coarse_space_names_the_subdomain_3d(capsys):
    # the 3D case: subdomain 1 does not touch the clamped face, and the
    # values at its one coarse vertex (3 constraints) leave its rotations free
    code, _, err = run_cli(capsys, "solve", "--set", "problem=elasticity",
                           "--set", "dim=3", "--set", "elements=4",
                           "--set", "hierarchy=8", "--set", "dirichlet_faces=x-",
                           "--set", "constraint_policy=corners-only",
                           "--set", "corner_strategy=vertices-only")
    assert code == EXIT_NUMERICAL
    assert "level 1, subdomain 1" in err
    assert "constraint set is too weak" in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "mlbddc", "solve", "--help"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
