"""Interface reduction: Schur products, condensed rhs, interior recovery.

The two-spring chain is worked out by hand: K = tridiag(-1, [2,?,2], -1)
split at the middle dof gives S = 1 and g = 2 for a unit load.
"""

import threading

import numpy as np
import pytest
import scipy.sparse

from conftest import build_level1
from mlbddc.fem import ProblemSpec
from mlbddc.partition import _block_axis_counts
from mlbddc.sparse import SparseMatrix
from mlbddc.substructuring import (
    build_splits,
    condensed_rhs,
    recover_interior,
    schur_apply,
)


def stacked(blocks, dof_lists, n_dofs):
    """Block-diagonal matrix and keys of the given subdomain matrices."""
    k = SparseMatrix.from_scipy(scipy.sparse.block_diag(blocks), symmetric=True)
    keys = np.concatenate([i * n_dofs + np.asarray(d) for i, d in enumerate(dof_lists)])
    return k, keys


def chain_splits():
    k, keys = stacked([[[2.0, -1.0], [-1.0, 1.0]], [[1.0, -1.0], [-1.0, 2.0]]],
                      [[0, 1], [1, 2]], 3)
    return build_splits(k, keys, np.array([1]), 3)


def test_chain_schur():
    splits, imap = chain_splits()
    assert imap.n == 1
    s = schur_apply(splits, imap, np.array([1.0]))
    assert s == pytest.approx([1.0], abs=1e-15)


def test_chain_condensed_rhs_and_recovery():
    splits, imap = chain_splits()
    f = np.ones(3)
    g = condensed_rhs(splits, imap, f)
    assert g == pytest.approx([2.0], abs=1e-15)
    u_hat = g / 1.0
    x = recover_interior(splits, imap, u_hat, f, n_dofs=3)
    k = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.allclose(x, np.linalg.solve(k, f), atol=1e-14)
    assert x == pytest.approx([1.5, 2.0, 1.5], abs=1e-14)


def dense_schur_parts(lv):
    """Block elimination of the assembled operator: the reference S and g."""
    kd = lv.k_global.scipy_csr().toarray()
    iface = lv.imap.dofs
    interior = np.setdiff1d(np.arange(kd.shape[0]), iface)
    kbb = kd[np.ix_(iface, iface)]
    kii = kd[np.ix_(interior, interior)]
    kib = kd[np.ix_(interior, iface)]
    s_dense = kbb - kib.T @ np.linalg.solve(kii, kib)
    g_dense = lv.f_global[iface] - kib.T @ np.linalg.solve(kii, lv.f_global[interior])
    return s_dense, g_dense, interior


FIXTURES = [
    (ProblemSpec(kind="poisson", dim=2), 8, 4, (2, 2)),
    (ProblemSpec(kind="elasticity", dim=2), 6, 4, (2, 2)),
    (ProblemSpec(kind="poisson", dim=3), 4, 2, (1, 1, 2)),
]


@pytest.mark.parametrize("spec,n,subs,axes", FIXTURES)
def test_schur_matches_block_elimination(spec, n, subs, axes):
    lv = build_level1(spec, n, subs, method="regular-blocks")
    assert _block_axis_counts(lv.grid.structured_shape, subs) == axes
    s_dense, g_dense, _ = dense_schur_parts(lv)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(lv.imap.n)
        y = schur_apply(lv.splits, lv.imap, x)
        assert np.max(np.abs(y - s_dense @ x)) < 1e-9
    g = condensed_rhs(lv.splits, lv.imap, lv.f_global)
    assert np.max(np.abs(g - g_dense)) < 1e-9


def test_recovery_matches_full_solve():
    lv = build_level1(ProblemSpec(kind="poisson", dim=2), 8, 4, method="regular-blocks")
    s_dense, g_dense, _ = dense_schur_parts(lv)
    u_hat = np.linalg.solve(s_dense, g_dense)
    x = recover_interior(lv.splits, lv.imap, u_hat, lv.f_global,
                         n_dofs=lv.k_global.shape[0])
    x_ref = np.linalg.solve(lv.k_global.scipy_csr().toarray(), lv.f_global)
    assert np.max(np.abs(x - x_ref)) < 1e-10


def test_empty_interface_is_direct_solve():
    lv = build_level1(ProblemSpec(kind="poisson", dim=2), 4, 1)
    assert lv.imap.n == 0
    x = recover_interior(lv.splits, lv.imap, np.zeros(0), lv.f_global,
                         n_dofs=lv.k_global.shape[0])
    x_ref = np.linalg.solve(lv.k_global.scipy_csr().toarray(), lv.f_global)
    assert np.max(np.abs(x - x_ref)) < 1e-12
    assert schur_apply(lv.splits, lv.imap, np.zeros(0)).shape == (0,)


def test_workers_key_starts_no_threads(monkeypatch):
    # the solver is single-threaded: the workers key is accepted and ignored
    from mlbddc.harness import RunConfig, run_experiment
    started = []
    start = threading.Thread.start

    def record(self):
        started.append(self.name)
        start(self)

    runs = [run_experiment(RunConfig(elements=(16,), hierarchy="16/4", workers=1))]
    monkeypatch.setattr(threading.Thread, "start", record)
    runs.append(run_experiment(RunConfig(elements=(16,), hierarchy="16/4", workers=4)))
    assert started == []
    assert np.array_equal(runs[0].solution, runs[1].solution)
    assert runs[0].report.relative_residuals == runs[1].report.relative_residuals


def test_split_errors():
    k, keys = stacked([[[1.0]]], [[0]], 3)
    with pytest.raises(ValueError, match="sorted"):
        build_splits(k, keys, np.array([2, 1]), 3)
    with pytest.raises(ValueError, match="key count"):
        build_splits(k, np.array([0, 1]), np.zeros(0, dtype=int), 3)
    k, keys = stacked([[[1.0]], [[1.0]]], [[0], [0]], 3)
    with pytest.raises(ValueError, match="more than one"):
        build_splits(k, keys, np.zeros(0, dtype=int), 3)
    splits, imap = chain_splits()
    with pytest.raises(ValueError, match="length"):
        schur_apply(splits, imap, np.zeros(3))
