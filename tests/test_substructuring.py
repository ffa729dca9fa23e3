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
    subdomain_keys,
)


def stacked(blocks, dof_lists, n_dofs, iface_dofs):
    """Block-diagonal matrix of the given subdomain matrices (subdomain i
    over level dofs dof_lists[i]) and its keys from subdomain_keys, rows
    and columns permuted to ascending keys: the split order of a level's
    subassembly, interior dofs before interface dofs."""
    keys = np.concatenate([subdomain_keys(i, d, n_dofs, len(dof_lists), iface_dofs)
                           for i, d in enumerate(dof_lists)])
    order = np.argsort(keys)
    k = scipy.sparse.block_diag(blocks, format="csr")[order][:, order]
    return SparseMatrix.from_scipy(k, symmetric=True), keys[order]


def chain_splits():
    k, keys = stacked([[[2.0, -1.0], [-1.0, 1.0]], [[1.0, -1.0], [-1.0, 2.0]]],
                      [[0, 1], [1, 2]], 3, [1])
    return build_splits(k, keys, np.array([1]), 3, 2)


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


@pytest.mark.parametrize("n", [0, 2])
def test_recovery_rejects_interface_vector_of_wrong_length(n):
    splits, imap = chain_splits()
    with pytest.raises(ValueError, match="interface vector has length"):
        recover_interior(splits, imap, np.ones(n), np.ones(3), n_dofs=3)


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
    k, keys = stacked([[[1.0]]], [[0]], 3, [])
    with pytest.raises(ValueError, match="sorted"):
        build_splits(k, keys, np.array([2, 1]), 3, 1)
    with pytest.raises(ValueError, match="key count"):
        build_splits(k, np.array([0, 1]), np.zeros(0, dtype=int), 3, 1)
    k, keys = stacked([[[1.0]], [[1.0]]], [[0], [0]], 3, [])
    with pytest.raises(ValueError, match="more than one"):
        build_splits(k, keys, np.zeros(0, dtype=int), 3, 2)
    splits, imap = chain_splits()
    with pytest.raises(ValueError, match="length"):
        schur_apply(splits, imap, np.zeros(3))


def test_split_rejects_keys_that_are_not_interface_last():
    # the chain's keys in subdomain-major order (subdomain * n_dofs + dof),
    # with an interface flag that disagrees with the interface dofs, out of
    # order, and past the last block: each is refused with the layout named
    k, keys = stacked([[[2.0, -1.0], [-1.0, 1.0]], [[1.0, -1.0], [-1.0, 2.0]]],
                      [[0, 1], [1, 2]], 3, [1])
    assert keys.tolist() == [0, 5, 3 * 2 + 1, 3 * 3 + 1]
    for bad, iface in (([0, 1, 3 + 1, 3 + 2], [1]), (keys, [2]), (keys[::-1], [1]),
                       (keys + 3 * 4, [1])):
        with pytest.raises(ValueError, match="not interface-last"):
            build_splits(k, np.array(bad), np.array(iface), 3, 2)


# level dofs 0..6 over four subdomains, some owning interface dofs only and
# some no dof at all, as coarse levels can have
EDGE_LEVELS = {"no-interior": [[0, 1, 2, 3], [2, 4], [], [4, 5, 6]],
               "no-dof": [[0, 1, 2, 3], [], [2, 4, 5, 6], [6]]}


@pytest.mark.parametrize("dof_lists", EDGE_LEVELS.values(), ids=EDGE_LEVELS.keys())
def test_split_matches_dense_oracle_with_empty_subdomain_parts(dof_lists):
    dof_lists = [np.asarray(d, dtype=np.int64) for d in dof_lists]
    rng = np.random.default_rng(5)
    blocks = []
    for d in dof_lists:
        q = rng.standard_normal((len(d), len(d)))
        blocks.append(q @ q.T + len(d) * np.eye(len(d)))
    n = 7
    count = np.bincount(np.concatenate(dof_lists), minlength=n)
    iface = np.nonzero(count > 1)[0]
    k, keys = stacked(blocks, dof_lists, n, iface)
    splits, imap = build_splits(k, keys, iface, n, len(dof_lists))
    interior = [np.setdiff1d(d, iface) for d in dof_lists]
    assert np.array_equal(np.diff(splits.interior_offsets), [a.size for a in interior])
    assert np.array_equal(np.diff(splits.iface_offsets),
                          [len(d) - a.size for d, a in zip(dof_lists, interior)])
    assert 0 in np.diff(splits.interior_offsets)
    # the dense oracle: assemble sum_i R_i^T K_i R_i and eliminate its interior
    kd = np.zeros((n, n))
    for d, b in zip(dof_lists, blocks):
        kd[np.ix_(d, d)] += b
    inner = np.setdiff1d(np.arange(n), iface)
    kii, kib, kbb = kd[np.ix_(inner, inner)], kd[np.ix_(inner, iface)], kd[np.ix_(iface, iface)]
    s_dense = kbb - kib.T @ np.linalg.solve(kii, kib)
    x, f = rng.standard_normal(iface.size), rng.standard_normal(n)
    assert np.allclose(schur_apply(splits, imap, x), s_dense @ x, rtol=0, atol=1e-12)
    g = condensed_rhs(splits, imap, f)
    assert np.allclose(g, f[iface] - kib.T @ np.linalg.solve(kii, f[inner]), rtol=0, atol=1e-12)
    u = recover_interior(splits, imap, np.linalg.solve(s_dense, g), f, n_dofs=n)
    assert np.allclose(u, np.linalg.solve(kd, f), rtol=0, atol=1e-12)
