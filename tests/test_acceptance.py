"""Acceptance suite: one test per criterion, numbered.

Small-scale stand-ins for results that need a cluster: exact degeneracy
identities, dense-oracle equivalences, and trend checks replace the
large-mesh benchmark runs.  Each test carries its tolerance inline; a
summary block at the end of the pytest run prints one PASS/FAIL line per
criterion (see conftest.pytest_terminal_summary).

Condition numbers here are Lanczos estimates from the PCG coefficients.
They are measured against a seeded random right-hand side: the physical
(constant-load) rhs of these symmetric model problems lies almost entirely
in the eigenvalue-one invariant subspace of the preconditioned operator,
so PCG stops in one step and the estimate collapses to 1.0 regardless of
the true spectrum.  A random rhs excites the full spectrum and reproduces
the dense-oracle condition number (criterion 7 checks exactly this).
"""

import csv
import io
import time

import numpy as np
import pytest

from conftest import build_level1
from mlbddc.bddc import setup_bddc
from mlbddc.fem import ProblemSpec
from mlbddc.harness import (
    CSV_COLUMNS,
    TIMING_COLUMNS,
    RunConfig,
    format_report,
    run_experiment,
    run_sweep,
)
from mlbddc.krylov import bicgstab, pcg
from mlbddc.substructuring import condensed_rhs, schur_apply
from test_substructuring import dense_schur_parts

SEED = 20260819


# Shared solve fixtures: 2D/3D x poisson/elasticity x {2-level, 3-level}.
SOLVE_FIXTURES = [
    dict(problem="poisson", dim=2, elements=(16,), hierarchy="4"),
    dict(problem="poisson", dim=2, elements=(16,), hierarchy="4/2"),
    dict(problem="elasticity", dim=2, elements=(12,), hierarchy="9"),
    dict(problem="elasticity", dim=2, elements=(12,), hierarchy="9/3"),
    dict(problem="poisson", dim=3, elements=(6,), hierarchy="8"),
    dict(problem="poisson", dim=3, elements=(6,), hierarchy="8/2"),
    dict(problem="elasticity", dim=3, elements=(6,), hierarchy="8"),
    dict(problem="elasticity", dim=3, elements=(6,), hierarchy="8/2"),
]


def _key(fx):
    return (fx["problem"], fx["dim"], fx["hierarchy"])


@pytest.fixture(scope="module")
def solve_runs():
    return {_key(fx): run_experiment(RunConfig(**fx, tolerance=1e-6))
            for fx in SOLVE_FIXTURES}


@pytest.fixture(scope="module")
def dense_solutions():
    sols = {}
    for fx in SOLVE_FIXTURES:
        key = (fx["problem"], fx["dim"])
        if key in sols:
            continue
        lv = build_level1(ProblemSpec(kind=fx["problem"], dim=fx["dim"]),
                          n_elems=fx["elements"][0],
                          n_subs=int(fx["hierarchy"].split("/")[0]))
        sols[key] = np.linalg.solve(lv.k_global.scipy_csr().toarray(), lv.f_global)
    return sols


def test_01_substructuring_matches_dense_elimination():
    # Matrix-free Schur application vs explicit block elimination.
    start = time.monotonic()
    lv = build_level1(ProblemSpec(), n_elems=8, n_subs=4)
    s_dense, _, _ = dense_schur_parts(lv)
    rng = np.random.default_rng(SEED)
    for _ in range(10):
        x = rng.standard_normal(lv.imap.n)
        got = schur_apply(lv.splits, lv.imap, x)
        want = s_dense @ x
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
    assert time.monotonic() - start < 1.0


def test_02_all_corner_constraints_make_pcg_exact():
    # Every interface dof a corner -> the preconditioner inverts the
    # condensed operator, so PCG needs exactly one iteration.
    start = time.monotonic()
    lv = build_level1(ProblemSpec(), n_elems=8, n_subs=2)
    prec = setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys),
                      corner_strategy="all-interface")
    g = condensed_rhs(lv.splits, lv.imap, lv.f_global)
    _, report = pcg(lambda v: schur_apply(lv.splits, lv.imap, v), g,
                    apply_m=prec.apply, tol=1e-8)
    assert report.converged
    assert report.iterations == 1
    assert report.relative_residuals[-1] <= 1e-8
    assert time.monotonic() - start < 1.0


def test_03_single_coarse_subdomain_collapses_a_level():
    # N1/1 and N1 build different level stacks but identical operators.
    start = time.monotonic()
    lv = build_level1(ProblemSpec(kind="elasticity"), n_elems=8, n_subs=4)
    two = setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys))
    three = setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys),
                       coarse_counts=(1,))
    assert two.n_levels == 2 and three.n_levels == 3
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        r = rng.standard_normal(lv.imap.n)
        a, b = two.apply(r), three.apply(r)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)
    apply_s = lambda v: schur_apply(lv.splits, lv.imap, v)
    g = rng.standard_normal(lv.imap.n)
    _, rep_two = pcg(apply_s, g, apply_m=two.apply, tol=1e-8)
    _, rep_three = pcg(apply_s, g, apply_m=three.apply, tol=1e-8)
    assert rep_two.converged and rep_three.converged
    assert rep_two.iterations == rep_three.iterations
    assert time.monotonic() - start < 5.0


def test_04_converged_solves_match_dense_oracle(solve_runs, dense_solutions):
    start = time.monotonic()
    for fx in SOLVE_FIXTURES:
        res = solve_runs[_key(fx)]
        assert res.report.converged, _key(fx)
        u_star = dense_solutions[(fx["problem"], fx["dim"])]
        rel = (np.linalg.norm(res.solution - u_star)
               / np.linalg.norm(u_star))
        assert rel <= 1e-5, (_key(fx), rel)
    assert time.monotonic() - start < 60.0


def test_05_condition_number_flat_in_subdomain_count():
    # Fixed H/h = 8, growing subdomain grid: kappa must stay essentially
    # constant and below the polylog bound 4(1+log 8)^2.
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    kappas = []
    for subs_per_axis in (2, 4, 8):
        n = 8 * subs_per_axis
        lv = build_level1(ProblemSpec(), n_elems=n, n_subs=subs_per_axis**2)
        prec = setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys),
                          constraint_policy="corners+edges")
        g = rng.standard_normal(lv.imap.n)
        _, report = pcg(lambda v: schur_apply(lv.splits, lv.imap, v), g,
                        apply_m=prec.apply, tol=1e-12, max_iterations=300)
        assert report.converged
        kappas.append(report.condition_estimate)
    bound = 4.0 * (1.0 + np.log(8.0)) ** 2
    assert all(k <= bound for k in kappas), kappas
    assert max(kappas) - min(kappas) <= 0.25 * min(kappas), kappas
    assert time.monotonic() - start < 120.0


def test_06_condition_and_iterations_grow_with_levels():
    # One 3D elasticity box, deeper hierarchies: the coarse solve gets
    # less exact each time a level is added, so kappa and the iteration
    # count may only go up.
    start = time.monotonic()
    lv = build_level1(ProblemSpec(kind="elasticity", dim=3),
                      n_elems=12, n_subs=64)
    rng = np.random.default_rng(SEED)
    g = rng.standard_normal(lv.imap.n)
    apply_s = lambda v: schur_apply(lv.splits, lv.imap, v)
    kappas, its = [], []
    for counts in [(), (8,), (8, 2)]:
        prec = setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys),
                          coarse_counts=counts)
        assert prec.n_levels == len(counts) + 2
        _, report = pcg(apply_s, g, apply_m=prec.apply, tol=1e-8,
                        max_iterations=400)
        assert report.converged
        kappas.append(report.condition_estimate)
        its.append(report.iterations)
    assert kappas[0] <= kappas[1] + 1e-9 <= kappas[2] + 2e-9, kappas
    assert its[0] <= its[1] <= its[2], its
    assert time.monotonic() - start < 300.0


def test_07_lanczos_estimate_matches_dense_eigenvalues():
    start = time.monotonic()
    lv = build_level1(ProblemSpec(), n_elems=16, n_subs=4)
    prec = setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys),
                      constraint_policy="corners+edges")
    n = lv.imap.n
    s_mat = np.empty((n, n))
    m_mat = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        s_mat[:, j] = schur_apply(lv.splits, lv.imap, e)
        m_mat[:, j] = prec.apply(e)
    # eigenvalues of M.S via the congruent symmetric form L^T M L
    chol = np.linalg.cholesky(s_mat)
    lam = np.linalg.eigvalsh(chol.T @ m_mat @ chol)
    kappa_dense = lam.max() / lam.min()
    g = np.random.default_rng(SEED).standard_normal(n)
    _, report = pcg(lambda v: schur_apply(lv.splits, lv.imap, v), g,
                    apply_m=prec.apply, tol=1e-12)
    assert report.converged
    assert abs(report.condition_estimate - kappa_dense) <= 0.05 * kappa_dense
    assert time.monotonic() - start < 30.0


def test_08_preconditioner_is_symmetric_positive():
    # >= 1000 pair checks r1'M r2 == r2'M r1 plus positivity, on a
    # 2-level and a 3-level operator.
    start = time.monotonic()
    cases = [
        build_level1(ProblemSpec(), n_elems=8, n_subs=4),
        build_level1(ProblemSpec(kind="elasticity"), n_elems=12, n_subs=9),
    ]
    precs = [
        setup_bddc(cases[0].grid, cases[0].part,
                   lambda iface: (cases[0].k, cases[0].keys)),
        setup_bddc(cases[1].grid, cases[1].part,
                   lambda iface: (cases[1].k, cases[1].keys), coarse_counts=(3,)),
    ]
    assert [p.n_levels for p in precs] == [2, 3]
    rng = np.random.default_rng(SEED)
    checks = 0
    for lv, prec in zip(cases, precs):
        vecs = rng.standard_normal((33, lv.imap.n))
        images = np.array([prec.apply(v) for v in vecs])
        for i in range(len(vecs)):
            assert vecs[i] @ images[i] > 0.0
            for j in range(i + 1, len(vecs)):
                a = vecs[i] @ images[j]
                b = vecs[j] @ images[i]
                assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))
                checks += 1
    assert checks >= 1000
    assert time.monotonic() - start < 30.0


def test_09_weights_partition_unity(solve_runs):
    # Scatter-weight-gather must reproduce any interface vector exactly,
    # on every level of every fixture.
    rng = np.random.default_rng(SEED)
    checked = 0
    for fx in SOLVE_FIXTURES:
        prec = solve_runs[_key(fx)].preconditioner
        for level in prec.levels:
            x = rng.standard_normal(level.imap.n)
            index = level.splits.iface_index
            acc = np.bincount(index, level.weights * x[index], level.imap.n)
            assert np.max(np.abs(acc - x)) <= 1e-14 * np.max(np.abs(x))
            checked += 1
    assert checked >= len(SOLVE_FIXTURES)


def test_10_bicgstab_within_twice_pcg(solve_runs):
    for fx in SOLVE_FIXTURES:
        pcg_res = solve_runs[_key(fx)]
        bicg_res = run_experiment(
            RunConfig(**fx, tolerance=1e-6, krylov="bicgstab"))
        assert bicg_res.report.converged, _key(fx)
        assert bicg_res.report.iterations <= 2 * pcg_res.report.iterations
    # unpreconditioned nonsymmetric sanity oracle
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    b = rng.standard_normal(5)
    x, report = bicgstab(lambda v: a @ v, b, tol=1e-12)
    assert report.converged
    assert np.linalg.norm(x - np.linalg.solve(a, b)) <= 1e-8


def test_11_sweep_is_deterministic():
    # Bitwise-identical CSV (timing columns aside) across repeat runs and
    # worker counts.
    hierarchies = ["4", "4/2", "16/4"]
    reports = []
    for workers in (1, 2, 1):
        cfg = RunConfig(elements=(16,), workers=workers)
        reports.append(format_report(run_sweep(cfg, hierarchies)))
    keep = [i for i, c in enumerate(CSV_COLUMNS) if c not in TIMING_COLUMNS]

    def strip(text):
        rows = list(csv.reader(io.StringIO(text)))
        return [[row[i] for i in keep] for row in rows]

    assert strip(reports[0]) == strip(reports[1]) == strip(reports[2])
