"""Property suite over small configurations: every run either solves the
problem (the solution matches a dense solve of the global system) or fails
with a NumericalError, the CLI's exit 3; no other exception escapes.

A solved run's preconditioner also meets the BDDC lower eigenvalue bound
lambda_min(M S) >= 1 (Mandel & Dohrmann, Numer. Linear Algebra Appl. 10,
2003; Mandel, Sousedik & Dohrmann, Computing 83, 2008): wrong local
operators, bases, weights or coarse matrices pull it below 1 even where the
solution still comes out right. Its extreme Lanczos eigenvalues are Ritz
values, which lie inside the spectrum: the reported lambda_min is at least
1 and the dense lambda_min, lambda_max at most the dense lambda_max, and
the condition estimate, their ratio, never exceeds the dense kappa(M S); a
value outside these bounds is a faulty recurrence.

Examples are drawn deterministically (derandomize=True) and bounded, so the
suite picks the same configurations on every run.

The preconditioner of every configuration the strategy can draw is pinned in
preconditioner_pins.json: the dense lambda_min and lambda_max of M S of each
solving configuration, and the level and subdomain that each exit-3 failure
names. A change that alters the preconditioner on purpose rewrites the file
with `PYTHONPATH=src python tests/test_properties.py` and says why. The same
test runs PCG on a seeded random right-hand side of each solving
configuration, which excites the whole spectrum (unlike the constant load),
and holds its condition estimate to within 1% of the dense kappa.
"""

import itertools
import json
import re
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import holding
from mlbddc import load_config, run_experiment
from mlbddc.bddc import MultilevelBddc, assemble_coarse
from mlbddc.errors import NumericalError
from mlbddc.fem import assemble_global
from mlbddc.krylov import pcg
from mlbddc.sparse import factorize
from mlbddc.substructuring import schur_apply

# level-1 size per dimension, and its two- and three-level hierarchies
MESHES = {2: (8, ("16", "16/4")), 3: (4, ("8", "8/2"))}
PROBLEMS = ["poisson", "elasticity"]
POLICIES = ["corners-only", "corners+edges", "corners+edges+faces"]
STRATEGIES = ["default", "vertices-only"]
FACES = ["all", "x-"]
PINS = Path(__file__).with_name("preconditioner_pins.json")


def config_overrides(dim, hierarchy, problem, policy, strategy, faces):
    return [f"dim={dim}", f"elements={MESHES[dim][0]}", f"hierarchy={hierarchy}",
            f"problem={problem}", f"constraint_policy={policy}",
            f"corner_strategy={strategy}", f"dirichlet_faces={faces}", "tolerance=1e-10"]


@st.composite
def configs(draw):
    dim = draw(st.sampled_from([2, 3]))
    return config_overrides(dim, draw(st.sampled_from(MESHES[dim][1])),
                            draw(st.sampled_from(PROBLEMS)), draw(st.sampled_from(POLICIES)),
                            draw(st.sampled_from(STRATEGIES)), draw(st.sampled_from(FACES)))


def grid() -> list:
    """Every configuration `configs` can draw, in a fixed order."""
    return [config_overrides(dim, hierarchy, *rest)
            for dim in MESHES for hierarchy in MESHES[dim][1]
            for rest in itertools.product(PROBLEMS, POLICIES, STRATEGIES, FACES)]


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_runs_solve_or_exit_3(overrides):
    config = load_config(overrides=overrides)
    try:
        result = run_experiment(config)
    except NumericalError as exc:
        assert "constraint set is too weak" in str(exc), overrides
        return
    assert result.report.converged, overrides
    k, f = assemble_global(result.spec, result.mesh)
    u = np.linalg.solve(k.scipy_csr().toarray(), f)
    assert np.linalg.norm(result.solution - u) <= 1e-7 * np.linalg.norm(u), overrides
    lam_min, lam_max = extreme_eigenvalues_ms(result.preconditioner)
    assert lam_min >= 1.0 - 1e-10, overrides
    ritz_min, ritz_max = result.report.eigenvalue_bounds
    assert ritz_min >= 1.0 - 1e-10, overrides
    assert lam_min * (1 - 1e-8) <= ritz_min and ritz_max <= lam_max * (1 + 1e-8), overrides
    assert result.report.condition_estimate <= lam_max / lam_min * (1 + 1e-8), overrides


def extreme_eigenvalues_ms(prec, li=0) -> tuple:
    """(lambda_min, lambda_max) of M S for the interface operator S of
    level li + 1 and the cycle M from that level down (at li = 0, the
    preconditioner), both built densely from identity columns: the
    eigenvalues of M S are those of L^T S L for M = L L^T."""
    level = prec.levels[li]
    eye = np.eye(level.imap.n)
    s = np.column_stack([schur_apply(level.splits, level.imap, e) for e in eye])
    m = np.column_stack([prec._interface_apply(li, e) for e in eye])
    low = np.linalg.cholesky((m + m.T) / 2)
    lam = np.linalg.eigvalsh(low.T @ ((s + s.T) / 2) @ low)
    return lam[0], lam[-1]


def test_each_level_meets_the_multilevel_bound(coarse_stacks):
    # at every level k of each solving three-level configuration, with S_k
    # the level's interface operator and M_k the cycle from level k down:
    # lambda_min(M_k S_k) >= 1, and lambda_max(M_k S_k) is at most the
    # level's two-level lambda_max (the same level with an exact coarse
    # solve) times lambda_max(M_{k+1} S_{k+1}), which is 1 below the last
    # level, whose coarse solve is the exact top solve (Tu, SIAM J. Sci.
    # Comput. 29, 2007; Mandel, Sousedik & Dohrmann, Computing 83, 2008)
    checked = 0
    for config in grid():
        if "/" not in config[2]:
            continue
        try:
            prec = run_experiment(load_config(overrides=config)).preconditioner
        except NumericalError:
            continue
        lam_below = 1.0
        for li in reversed(range(len(prec.levels))):
            lv = prec.levels[li]
            two_level = MultilevelBddc(levels=[lv], top=factorize(
                assemble_coarse(holding(lv.groups, coarse_stacks), lv.coarse.dofs_per_node)))
            lam_min, lam_max = extreme_eigenvalues_ms(prec, li)
            assert lam_min >= 1.0 - 1e-10, (config, li + 1)
            assert lam_max <= extreme_eigenvalues_ms(two_level)[1] * lam_below * (1 + 1e-10), \
                (config, li + 1)
            lam_below, checked = lam_max, checked + 1
    assert checked == 2 * 46                # two levels of 46 solving configurations


def pin(config) -> tuple:
    """What preconditioner_pins.json records of one configuration (the dense
    extreme eigenvalues of M S, or the level and subdomain of its exit 3),
    and its preconditioner (None on exit 3)."""
    try:
        result = run_experiment(load_config(overrides=config))
    except NumericalError as exc:
        level = re.match(r"level (\d+), subdomain (\d+):", str(exc))
        assert level is not None, (config, str(exc))
        return {"overrides": config, "level": int(level[1]), "subdomain": int(level[2])}, None
    lam_min, lam_max = extreme_eigenvalues_ms(result.preconditioner)
    return ({"overrides": config, "lambda_min": float(lam_min), "lambda_max": float(lam_max)},
            result.preconditioner)


def test_preconditioner_matches_pins():
    # every configuration of the grid, against the values pinned in the file
    pins = json.loads(PINS.read_text())
    assert [p["overrides"] for p in pins] == grid()
    for want in pins:
        got, prec = pin(want["overrides"])
        if "level" in want:
            assert got == want
            continue
        assert got.keys() == want.keys(), (want, got)
        for key in ("lambda_min", "lambda_max"):
            assert abs(got[key] - want[key]) <= 1e-8 * want[key], (want, got)
        # PCG on a seeded random right-hand side sees the whole spectrum, so
        # its condition estimate is the dense kappa to within 1%
        level = prec.levels[0]
        g = np.random.default_rng(0).standard_normal(level.imap.n)
        _, report = pcg(lambda v: schur_apply(level.splits, level.imap, v), g,
                        apply_m=prec.apply, tol=1e-10)
        kappa = got["lambda_max"] / got["lambda_min"]
        assert report.converged, want
        assert abs(report.condition_estimate - kappa) <= 0.01 * kappa, (want, report)


if __name__ == "__main__":
    PINS.write_text("[\n" + ",\n".join(json.dumps(pin(c)[0]) for c in grid()) + "\n]\n")
