"""Coarse bases and the multilevel preconditioner.

Hand-worked saddle fixtures: with S = I and C = [1 0], the basis column is
(1, 0) with coarse matrix [1]; with square invertible C the basis is C^-1
and the coarse matrix is psi^T S psi. On assembled fixtures the local
problems live on the interface, [S_i C_i^T; C_i 0]; the oracle is the full
dense bordered system [K_i C_i^T; C_i 0] with the constraint rows
zero-padded over the interior.
"""

import logging
import weakref
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import build_level1, holding, segments, split_positions
from mlbddc import bddc, load_config, run_experiment, sparse
from mlbddc.bddc import (
    LevelConstraints,
    MultilevelBddc,
    _local_schur,
    _shape_groups,
    assemble_coarse,
    build_constraints,
    coarse_basis,
    interior_postcorrection,
    setup_bddc,
    subassemble_coarse,
)
from mlbddc.cli import main
from mlbddc.errors import EXIT_NUMERICAL, NotPositiveDefiniteError, NumericalError
from mlbddc.fem import ProblemSpec, element_matrix, node_dofs, subassemble_subdomain
from mlbddc.interface import (CONSTRAINT_POLICIES, CORNER_STRATEGIES, classify_interface,
                              interface_dofs)
from mlbddc.krylov import pcg
from mlbddc.partition import Partition, build_pseudomesh, partition_elements
from mlbddc.sparse import Factorization, SparseMatrix, sum_elements
from mlbddc.substructuring import build_splits, schur_apply, subdomain_keys
from test_substructuring import dense_schur_parts, stacked


def make_bddc(lv, coarse_counts=(), **kw):
    return setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys),
                      coarse_counts, **kw)


def full_local_problem(lv, split, rows_b):
    """Subdomain split's dense oracle: the full bordered matrix
    [K C^T; C 0] (constraint rows over the interface zero-padded to all
    local dofs) and the interface Schur complement S by dense elimination."""
    kd = lv.k_local(split.index)
    local, i, b = split_positions(lv.splits, lv.imap, split.index)
    c = np.zeros((rows_b.shape[0], local.size))
    c[:, b] = rows_b
    bordered = np.block([[kd, c.T], [c, np.zeros((c.shape[0], c.shape[0]))]])
    kib = kd[np.ix_(i, b)]
    s = kd[np.ix_(b, b)] - kib.T @ np.linalg.solve(kd[np.ix_(i, i)], kib)
    return bordered, s


def rel_err(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


def mean_rows(labels, n_rows):
    """Dense constraint rows (n_rows, len(labels)) of one subdomain's labels:
    row r is the mean of the positions p with labels[p] == r."""
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.zeros((n_rows, labels.size))
    on = labels >= 0
    rows[labels[on], np.flatnonzero(on)] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


def hand_constraints(labels_list, tags_list):
    """LevelConstraints of hand-written constraint labels, one (labels, tags)
    pair per subdomain: labels[p] is the local row that covers interface
    position p, -1 if none. Returns it with the stacked interface offsets."""
    labels_list = [np.asarray(labels, dtype=np.int64) for labels in labels_list]
    iface_offsets = np.concatenate([[0], np.cumsum([labels.size for labels in labels_list])])
    starts = np.concatenate([[0], np.cumsum([len(tags) for tags in tags_list])])
    row_of = np.concatenate([np.where(labels >= 0, labels + start, -1)
                             for labels, start in zip(labels_list, starts)])
    cons = LevelConstraints(starts=starts, tags=np.array(sum(tags_list, []), dtype=str),
                            dofs=np.arange(starts[-1]), row_of=row_of)
    return cons, iface_offsets


def hand_basis(s, labels, tags):
    """coarse_basis of one subdomain without interior, as a one-member shape
    group: S = K_BB over its interface (stacked interface order) and
    constraint labels, read by _local_schur from a one-subdomain split.
    Returns the group and the member's (record, SubdomainCoarse, coarse
    matrix)."""
    cons, _ = hand_constraints([labels], [tags])
    n = len(labels)
    splits, imap = build_splits(*stacked([s], [np.arange(n)], n, np.arange(n)), np.arange(n), n, 1)
    g, = _shape_groups(cons, splits, imap, np.ones(n))
    coarse_basis(g, _local_schur(splits, g))
    sub, = bddc._subdomains(g, splits)
    return g, (sub.bordered, sub, g.kc[0])


def group_member(level, i):
    """(shape group, slot) of subdomain i of level."""
    for g in level.groups:
        j = np.flatnonzero(g.subs == i)
        if j.size:
            return g, int(j[0])
    raise KeyError(i)


def constraint_rows(level, i):
    """Subdomain i's constraint rows over its interface, dense, from its
    shape group's labels (which are in interface order)."""
    g, j = group_member(level, i)
    labels = np.empty_like(g.row[j])
    labels[g.order[j]] = g.row[j]
    return mean_rows(labels, g.tags.shape[1])


def coarse_matrix(level, i, stacks):
    """Subdomain i's coarse element matrix, from the copy of its shape
    group's stack in `stacks` (the coarse_stacks fixture)."""
    g, j = group_member(level, i)
    return stacks[id(g)][j]


def dense_rows(cons, iface_offsets, i):
    """Subdomain i's rows of level constraints cons, dense over its interface."""
    labels = cons.row_of[iface_offsets[i]:iface_offsets[i + 1]]
    return mean_rows(np.where(labels >= 0, labels - cons.starts[i], -1),
                     cons.starts[i + 1] - cons.starts[i])


@pytest.fixture(scope="module")
def cross2d():
    return build_level1(ProblemSpec(kind="poisson", dim=2), 8, 4, method="regular-blocks")


@pytest.fixture(scope="module")
def elasticity3d():
    return build_level1(ProblemSpec(kind="elasticity", dim=3), 4, 2, method="regular-blocks")


@pytest.fixture(scope="module")
def elasticity3d_edges():
    # 2x2x2 subdomains: corner, edge and face constraints
    return build_level1(ProblemSpec(kind="elasticity", dim=3), 6, 8, method="regular-blocks")


@pytest.fixture(scope="module")
def dirichlet_x2d():
    # 4x4 subdomains, clamped on x- only: subdomains differ in local size
    # (12 or 16 dofs) and fall into five interleaved shape groups
    return build_level1(ProblemSpec(kind="poisson", dim=2, dirichlet_faces=("x-",)), 12, 16,
                        method="regular-blocks")


@pytest.fixture(scope="module")
def corners2d():
    # one element per subdomain: every interface dof is a corner, so every
    # subdomain has no free dofs
    return build_level1(ProblemSpec(kind="poisson", dim=2), 4, 16, method="regular-blocks")


# -- coarse basis -------------------------------------------------------------

def test_basis_identity_matrix():
    _, (_, sub, kc) = hand_basis(np.eye(2), [0, -1], ["corner"])
    assert np.allclose(sub.psi, [[1.0], [0.0]], atol=1e-14)
    assert np.allclose(kc, [[1.0]], atol=1e-14)


def test_basis_square_constraints_invert():
    # an average over one node and a corner: no dof is left free
    k = np.diag([2.0, 3.0])
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    _, (fact, sub, kc) = hand_basis(k, [1, 0], ["edge", "corner"])
    assert fact.n == 0
    assert np.array_equal(mean_rows([1, 0], 2), c)
    assert np.allclose(sub.psi, np.linalg.inv(c), atol=1e-14)
    assert np.allclose(kc, [[3.0, 0.0], [0.0, 2.0]], atol=1e-14)


def test_basis_no_constraints():
    k = np.diag([2.0, 3.0])
    _, (_, sub, kc) = hand_basis(k, [-1, -1], [])
    assert sub.psi.shape == (2, 0)
    assert kc.shape == (0, 0)
    z_b, mu = sub.constrained_solve(np.array([2.0, 3.0]))
    assert np.allclose(z_b, [1.0, 1.0]) and mu.shape == (0,)


def test_basis_detects_singular_unconstrained():
    # with no constraints A is S itself, whose Cholesky factor meets a zero
    # pivot
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError, match="subdomain 0: constrained local "
                                                       "problem is not positive definite"):
        hand_basis(k, [-1, -1], [])


def test_average_row_eliminates_its_lowest_dof():
    # an average over positions 1, 3 and 4: its master is its lowest dof,
    # last in the interface order, and psi and the coarse matrix equal the
    # full bordered solve
    rng = np.random.default_rng(31)
    q = rng.standard_normal((5, 5))
    s = q @ q.T + 5.0 * np.eye(5)
    labels = [-1, 0, -1, 0, 0]
    g, (fact, sub, kc) = hand_basis(s, labels, ["face"])
    assert np.array_equal(g.order[0], [0, 2, 3, 4, 1]) and fact.n == 4
    assert np.array_equal(g.row[0], [-1, -1, 0, 0, 0])
    # N and X as index maps: positions 3 and 4 are kept under master 1
    assert np.array_equal(g.kept[0], [0, 2, 3, 4]) and np.array_equal(g.own[0], [1])
    assert np.array_equal(g.master[0], [5, 5, 1, 1]) and np.array_equal(g.w[0], [3.0])
    c = mean_rows(labels, 1)
    ref = np.linalg.solve(np.block([[s, c.T], [c, np.zeros((1, 1))]]), np.eye(6)[:, 5])
    assert rel_err(sub.psi[:, 0], ref[:5]) <= 1e-12
    assert rel_err(kc[0], -ref[5:]) <= 1e-12


def coarse_nodes_sharing(cs, node):
    """The subdomains whose coarse nodes include `node`."""
    return {i for i, nodes in enumerate(segments(cs.sub_ptr, cs.sub_node)) if node in nodes}


@pytest.mark.parametrize("case", ["empty-row", "corner-only-average"])
def test_overlapping_constraint_rows_are_rejected(elasticity3d_edges, case):
    # every row eliminates a dof of its own, so supports must be disjoint
    # and nonempty. A node names one coarse node, so supports cannot
    # overlap; a row that covers no position is refused where the rows are
    # made, naming its lowest subdomain: a glob whose members name no coarse
    # node, or an average added over a corner's subdomains, whose only
    # member would be the corner. That average covers only the dof the
    # corner fixes, so it owns no dof and [S C^T; C 0] is singular
    c = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    bordered = np.block([[np.eye(3), c.T], [c, np.zeros((2, 2))]])
    assert np.linalg.matrix_rank(bordered) < 5
    lv = elasticity3d_edges
    cs = lv.coarse_space()
    if case == "empty-row":
        node = int(np.flatnonzero(cs.kinds == "face")[0])
        cs = replace(cs, node_coarse=np.where(cs.node_coarse == node, -1, cs.node_coarse))
    else:
        center = int(np.argmax(np.bincount(cs.sub_node) * (cs.kinds == "corner")))
        node = cs.n_nodes
        assert len(coarse_nodes_sharing(cs, center)) == 8
        nodes = [np.append(ns, node) if center in ns else ns
                 for ns in segments(cs.sub_ptr, cs.sub_node)]
        cs = replace(cs, kinds=np.append(cs.kinds, "edge"),
                     sub_ptr=np.cumsum([0] + [ns.size for ns in nodes]),
                     sub_node=np.concatenate(nodes))
    first = min(coarse_nodes_sharing(cs, node))
    with pytest.raises(ValueError, match=f"subdomain {first}: coarse nodes do not match"):
        build_constraints(cs, lv.splits, lv.imap)


def test_basis_caps_floating_kernel():
    # the same singular matrix becomes solvable with one point constraint;
    # the constant mode then carries zero energy
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    _, (_, sub, kc) = hand_basis(k, [0, -1], ["corner"])
    assert np.allclose(sub.psi[:, 0], [1.0, 1.0], atol=1e-14)
    assert abs(kc[0, 0]) < 1e-14


def test_basis_without_interior_matches_full_solve():
    # a hand-built level of two subdomains: 0 has interior dofs only, 1
    # has interface dofs only, so its S = K_BB = K, and psi and the coarse
    # matrix are those of the full bordered solve
    k = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    blocks, keys = stacked([np.diag([4.0, 5.0]), k], [[0, 1], [3, 4, 7]], 8, [3, 4, 7])
    splits, imap = build_splits(blocks, keys, [3, 4, 7], 8, 2)
    c = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    assert np.array_equal(mean_rows([0, 1, 1], 2), c)
    cons, iface_offsets = hand_constraints([[], [0, 1, 1]], [[], ["corner", "edge"]])
    assert np.array_equal(iface_offsets, splits.iface_offsets)
    g = [g for g in _shape_groups(cons, splits, imap, np.ones(3)) if 1 in g.subs][0]
    order = g.order[0]
    s, = _local_schur(splits, g)
    assert np.array_equal(np.tril(s), np.tril(k[np.ix_(order, order)]))
    coarse_basis(g, [s])
    sub, = bddc._subdomains(g, splits)
    bordered = np.block([[k, c.T], [c, np.zeros((2, 2))]])
    ref = np.linalg.solve(bordered, np.vstack([np.zeros((3, 2)), np.eye(2)]))
    assert rel_err(sub.psi, ref[:3]) <= 1e-12
    assert rel_err(g.kc[0], -ref[3:]) <= 1e-12


def test_local_schur_reads_members_of_different_sizes():
    # two subdomains of one shape whose interiors differ in size (1 and 2
    # dofs): the lower triangle of each member's S is its own dense elimination's
    rng = np.random.default_rng(41)
    mats = []
    for n in (3, 4):
        q = rng.standard_normal((n, n))
        mats.append(q @ q.T + n * np.eye(n))
    # subdomain 0: dofs 0, 1, 2 (interior 0); subdomain 1: dofs 1, 2, 3, 4
    # (interior 3, 4); interface dofs 1 and 2
    blocks, keys = stacked(mats, [[0, 1, 2], [1, 2, 3, 4]], 10, [1, 2])
    splits, imap = build_splits(blocks, keys, [1, 2], 10, 2)
    cons, _ = hand_constraints([[-1, 0], [-1, 0]], [["corner"], ["corner"]])
    g, = _shape_groups(cons, splits, imap, np.ones(4))
    assert np.array_equal(g.subs, [0, 1])
    for kd, s, interior in zip(mats, _local_schur(splits, g),
                               ([0], [2, 3])):
        b = [1, 2] if interior == [0] else [0, 1]
        ref = kd[np.ix_(b, b)] - kd[np.ix_(interior, b)].T @ np.linalg.solve(
            kd[np.ix_(interior, interior)], kd[np.ix_(interior, b)])
        assert rel_err(np.tril(s), np.tril(ref[np.ix_(g.order[0], g.order[0])])) <= 1e-13


def test_local_schur_forms_the_lower_triangle_on_both_interior_paths(monkeypatch):
    # one level factor over two K_II blocks: a dense one of order 4 (kd = 3)
    # that the band fills, 2 kd + 1 >= 4, and a pentadiagonal one of order
    # 12 > 2 kd + 1. The first member's W^T = K_BI L^-T is a right-side dtrsm
    # on a dense triangle, the second's W = L^-1 K_IB a dtbtrs on the band;
    # either way S's lower triangle is K_BB - K_BI K_II^-1 K_IB's
    rng = np.random.default_rng(43)
    dense = rng.standard_normal((7, 7))
    band = np.diag(np.full(15, 8.0))
    for d in (1, 2):
        off = rng.uniform(-1.0, 1.0, 15 - d)
        band += np.diag(off, d) + np.diag(off, -d)
    band[12:, :12] = rng.uniform(-0.5, 0.5, (3, 12))
    band[:12, 12:] = band[12:, :12].T
    mats = [dense @ dense.T + 7.0 * np.eye(7), band]
    # subdomain 0: interior dofs 0-3, subdomain 1: interior dofs 7-18; both
    # share the interface dofs 4, 5 and 6
    blocks, keys = stacked([scipy.sparse.csr_matrix(k) for k in mats],
                           [np.arange(7), np.r_[7:19, 4:7]], 19, [4, 5, 6])
    splits, imap = build_splits(blocks, keys, [4, 5, 6], 19, 2)
    assert splits.k_ii_fact.kd == 3
    cons, _ = hand_constraints([[0, -1, -1], [0, -1, -1]], [["corner"], ["corner"]])
    g, = _shape_groups(cons, splits, imap, np.ones(6))
    calls = []
    for name in ("dtrsm", "dtbtrs"):
        real = getattr(sparse, name)
        monkeypatch.setattr(sparse, name, lambda *a, name=name, real=real, **kw:
                            calls.append(name) or real(*a, **kw))
    for k, s, interior, iface in zip(mats, _local_schur(splits, g),
                                     (np.arange(4), np.arange(12)), (np.r_[4:7], np.r_[12:15])):
        ref = k[np.ix_(iface, iface)] - k[np.ix_(interior, iface)].T @ np.linalg.solve(
            k[np.ix_(interior, interior)], k[np.ix_(interior, iface)])
        ref = ref[np.ix_(g.order[0], g.order[0])]
        assert rel_err(np.tril(s), np.tril(ref)) <= 1e-13
    assert calls == ["dtrsm", "dtbtrs"]


def test_point_constraints_inside_averages_match_full_solve():
    # corners fix dofs 5 and 2, both also in an average's support. Labels
    # cannot express overlapping rows, but folding each corner out of its
    # average, C = T C_d with C_d the means of disjoint supports, spans the
    # same constraints: N A^-1 N^T and the constrained solve equal the full bordered
    # solve of [S C^T; C 0], and psi T^-1, T^-T kc T^-1 and T^-T mu equal its
    # basis, coarse matrix and multipliers. Each average eliminates its
    # lowest dof, so A has order 7 - 4
    rng = np.random.default_rng(23)
    q = rng.standard_normal((7, 7))
    s = q @ q.T + 7.0 * np.eye(7)
    c = np.zeros((4, 7))
    c[0, [1, 2, 3]] = 1.0 / 3.0       # edge average over the corner dof 2
    c[1, 5] = 1.0                     # corner
    c[2, 2] = 1.0                     # corner
    c[3, [4, 5, 6]] = 1.0 / 3.0       # face average over the corner dof 5
    tags = ["edge", "corner", "corner", "face"]
    labels = [-1, 0, 2, 0, 3, 1, 3]
    c_d = mean_rows(labels, 4)
    t = np.eye(4)
    t[0, 0], t[0, 2], t[3, 3], t[3, 1] = 2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0
    assert np.array_equal(t @ c_d, c)
    t_inv = np.linalg.inv(t)
    g, (fact, sub, kc) = hand_basis(s, labels, tags)
    # kept dofs, then the masters of rows 0 and 3, then the fixed dofs
    assert np.array_equal(g.order[0], [0, 3, 6, 1, 4, 2, 5])
    free = g.order[0, :5]
    assert fact.n == 7 - 4
    # the record keeps A = N^T S_ff N, N = [I; G] spanning the null space of
    # the averages over the free dofs, as a canonical symmetric CSR
    n = np.vstack([np.eye(3), [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]])
    c_af = c[np.ix_([0, 3], free)]
    assert not (c_af @ n).any()
    a = n.T @ s[np.ix_(free, free)] @ n
    record = fact.matrix.scipy_csr()
    assert record.has_canonical_format and fact.matrix.symmetric
    assert np.array_equal(record.toarray(), record.toarray().T)
    assert rel_err(record.toarray(), a) <= 1e-14
    # A^-1 is exactly symmetric, and N A^-1 N^T is the free-dof block of
    # the reduced bordered matrix's inverse; the record keeps no factor
    assert (fact.method, fact._payload) == ("cholesky", None)
    assert np.array_equal(sub.ainv, sub.ainv.T)
    reduced = np.block([[s[np.ix_(free, free)], c_af.T], [c_af, np.zeros((2, 2))]])
    assert rel_err(n @ sub.ainv @ n.T, np.linalg.inv(reduced)[:5, :5]) <= 1e-12
    bordered = np.block([[s, c.T], [c, np.zeros((4, 4))]])
    ref = np.linalg.solve(bordered, np.vstack([np.zeros((7, 4)), np.eye(4)]))
    assert rel_err(sub.psi @ t_inv, ref[:7]) <= 1e-12
    assert rel_err(t_inv.T @ kc @ t_inv, -ref[7:]) <= 1e-12
    r_b = rng.standard_normal(7)
    z_b, mu = sub.constrained_solve(r_b)
    ref = np.linalg.solve(bordered, np.concatenate([r_b, np.zeros(4)]))
    assert rel_err(z_b, ref[:7]) <= 1e-12
    assert rel_err(t_inv.T @ mu, ref[7:]) <= 1e-12
    assert z_b[2] == z_b[5] == 0.0


@pytest.mark.parametrize("nb", [40, 120])
def test_bordered_inverse_matches_dense_solve(nb, monkeypatch):
    # A of order nb - 7, below and above LAPACK's potrf block size (64), so
    # both its unblocked and its blocked path run; psi, the coarse matrix
    # and N A^-1 N^T equal the dense solve of [S C^T; C 0], and the record
    # keeps A = N^T S_ff N with N = [I; G] spanning the averages' null space
    rng = np.random.default_rng(nb)
    q = rng.standard_normal((nb, nb))
    s = q @ q.T + nb * np.eye(nb)
    labels = np.full(nb, -1)
    labels[[0, nb // 2, nb - 1]] = [0, 1, 2]                      # corners
    rest = np.setdiff1d(np.arange(1, nb - 1), nb // 2)
    for r, part in enumerate(np.array_split(rest, 4)):
        labels[part] = 3 + r                                      # averages
    c = mean_rows(labels, 7)
    orders = []

    def recorded(a, **kwargs):
        orders.append(a.shape[0])
        return scipy.linalg.lapack.dpotrf(a, **kwargs)

    monkeypatch.setattr(bddc, "dpotrf", recorded)
    g, (fact, sub, kc) = hand_basis(s, labels, ["corner"] * 3 + ["edge"] * 4)
    n = nb - 7
    assert fact.n == n and orders == [n] and fact.method == "cholesky"
    assert (n > 64) == (nb > 64)
    bordered = np.block([[s, c.T], [c, np.zeros((7, 7))]])
    free = g.order[0, :nb - 3]
    rhs = np.zeros((nb + 7, 7 + free.size))
    rhs[nb:, :7] = np.eye(7)
    rhs[free, 7 + np.arange(free.size)] = 1.0
    ref = np.linalg.solve(bordered, rhs)
    assert rel_err(sub.psi, ref[:nb, :7]) <= 1e-12
    assert rel_err(kc, -ref[nb:, :7]) <= 1e-12
    assert np.array_equal(sub.ainv, sub.ainv.T) and fact._payload is None
    c_af = c[3:, free]
    gk = -c_af[:, :n] / c_af[np.arange(4), n + np.arange(4)][:, None]
    null = np.vstack([np.eye(n), gk])
    assert np.abs(c_af @ null).max() <= 1e-15
    assert rel_err(null @ sub.ainv @ null.T, ref[free, 7:]) <= 1e-12
    record = fact.matrix.scipy_csr()
    assert record.has_canonical_format and fact.matrix.symmetric
    assert np.array_equal(record.toarray(), record.toarray().T)
    assert rel_err(record.toarray(), null.T @ s[np.ix_(free, free)] @ null) <= 1e-13


def test_fully_corner_determined_subdomains_match_full_solve(corners2d, coarse_stacks):
    # 2D Poisson with one element per subdomain: every interface dof is a
    # corner, so each reduced factor has order 0 and no dof is kept, z_b = 0,
    # and psi and the
    # coarse matrix still equal the full bordered solve
    lv = corners2d
    level = make_bddc(lv).levels[0]
    rng = np.random.default_rng(29)
    for sub, split in zip(level.subs, level.splits):
        assert sub.bordered.method == "empty" and sub.bordered.n == 0
        assert sub.constraints.kept.size == 0 and set(sub.constraints.tags) == {"corner"}
        local, _, b = split_positions(lv.splits, lv.imap, split.index)
        n, nc = local.size, len(sub.constraints.tags)
        bordered, _ = full_local_problem(lv, split, constraint_rows(level, split.index))
        ref = np.linalg.solve(bordered, np.vstack([np.zeros((n, nc)), np.eye(nc)]))
        assert rel_err(sub.psi, ref[b]) <= 1e-12
        assert rel_err(coarse_matrix(level, split.index, coarse_stacks), -ref[n:]) <= 1e-12
        r_b = rng.standard_normal(b.size)
        rhs = np.zeros(bordered.shape[0])
        rhs[b] = r_b
        ref = np.linalg.solve(bordered, rhs)
        z_b, mu = sub.constrained_solve(r_b)
        assert not z_b.any()
        assert rel_err(mu, ref[n:]) <= 1e-12


def test_reduced_problem_is_formed_exactly_by_gathers(elasticity3d_edges, coarse_stacks):
    # N = [I; G] and X have one nonzero per column, so coarse_basis forms
    # S N, A = N^T S_ff N and V by gathering and subtracting rows and
    # columns of S: each member's record of A equals, bit for bit, the
    # mirrored lower triangle of the dense products with _local_schur's S
    # (of which only the lower triangle is formed, so it is mirrored first),
    # and its coarse matrix is X^T S X - V^T A^-1 V with V = N^T (S X)_f
    level = make_bddc(elasticity3d_edges).levels[0]
    subs, averaged = level.subs, 0
    for g in level.groups:
        nb, (nk, nc) = g.order.shape[1], g.u.shape[1:]
        lower = np.tri(nk, dtype=bool)
        for j, s in enumerate(_local_schur(level.splits, g)):
            s = np.where(np.tri(nb, dtype=bool), s, s.T)
            # dense rows over S's places: a row's own dof is its last place
            c = mean_rows(g.row[j], nc)
            own = np.array([np.flatnonzero(g.row[j] == r).max() for r in range(nc)])
            point = (g.tags[j] == "corner") & (np.count_nonzero(c, axis=1) == 1)
            nf = nb - np.count_nonzero(point)
            c_af = c[~point, :nf]
            null = np.vstack([np.eye(nk), -c_af[:, :nk] / c_af[:, nk:].diagonal()[:, None]])
            assert not (c_af @ null).any()
            a = null.T @ (s[:nf, :nf] @ null)
            a = np.where(lower, a, a.T)
            assert np.array_equal(subs[g.subs[j]].bordered.matrix.scipy_csr().toarray(), a)
            x = np.zeros((nb, nc))
            x[own, np.arange(nc)] = 1.0 / c[np.arange(nc), own]
            v = null.T @ (s @ x)[:nf]
            kc = x.T @ s @ x - v.T @ np.linalg.solve(a, v)
            assert rel_err(coarse_stacks[id(g)][j], kc) <= 1e-13
            averaged += nf > nk
    assert averaged


@pytest.mark.parametrize("overrides", [
    ["problem=elasticity", "dim=3", "elements=6", "hierarchy=27/8"],
    ["problem=poisson", "dim=2", "elements=4", "hierarchy=16/4", "constraint_policy=corners-only"],
], ids=["elasticity3d", "poisson2d-corners"])
def test_records_of_a_are_formed_on_demand(overrides, monkeypatch):
    # setup makes no SubdomainCoarse and keeps no record of A: a level's
    # `subs` forms them when read, and each member's `bordered` redoes S and
    # A by setup's own steps, so it holds, bit for bit, the A whose lower
    # triangle setup handed to potrf ("empty", of order 0, where A has no
    # order; potrf reads the lower triangle only, so it is mirrored); reading
    # `subs` again gives equal records and changes no stored operator (A^-1
    # and U: the coarse matrices went to the next level's assembly). Each
    # level holds K_BB as its lower triangle, all that S's lower triangle reads
    factorized, made = [], []
    potrf, init = bddc.dpotrf, bddc.SubdomainCoarse.__init__

    def recorded(a, **kwargs):
        factorized.append(np.where(np.tri(a.shape[0], dtype=bool), a, a.T))
        return potrf(a, **kwargs)

    def counted_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bddc, "dpotrf", recorded)
    monkeypatch.setattr(bddc.SubdomainCoarse, "__init__", counted_init)
    prec = run_experiment(load_config(overrides=overrides)).preconditioner
    assert prec.n_levels == 3 and made == []
    assert all(g.kc is None for lv in prec.levels for g in lv.groups)
    stacks = [(g.ainv, g.u) for lv in prec.levels for g in lv.groups]
    stored = [[a.copy() for a in stack] for stack in stacks]
    formed, orders = iter(factorized[:]), set()
    for lv in prec.levels:
        assert scipy.sparse.triu(lv.splits.k_bb, 1).nnz == 0
        subs = lv.subs
        assert len(made) == len(subs) == lv.partition.n_subdomains
        first = [sub.bordered for sub in subs]
        second = [sub.bordered for sub in lv.subs]
        for g in lv.groups:
            nk = g.ainv.shape[1]
            orders.add(nk > 0)
            for i in g.subs.tolist():
                record, csr = first[i], first[i].matrix.scipy_csr()
                assert (record.n, record.method, record._payload) == \
                    (nk, "cholesky" if nk else "empty", None)
                assert csr.shape == (nk, nk) and csr.has_canonical_format
                if nk:
                    a = next(formed)
                    assert csr.data.tobytes() == a[a != 0].tobytes()
                    assert np.array_equal(csr.toarray(), a)
                again = second[i].matrix.scipy_csr()
                assert (second[i].n, second[i].method) == (record.n, record.method)
                assert all(np.array_equal(getattr(again, k), getattr(csr, k))
                           for k in ("data", "indices", "indptr"))
        made.clear()
    assert next(formed, None) is None
    assert all(np.array_equal(a, b) for stack, copies in zip(stacks, stored)
               for a, b in zip(stack, copies))
    assert orders == {False, True}          # members with and without an A


def test_setup_logs_each_level_at_debug_and_changes_no_bit(caplog, monkeypatch):
    # setup_bddc's DEBUG records on the "mlbddc" logger, off by default,
    # give each level's subdomain count, subdomain sizes in elements (min,
    # max), coarse dofs by kind (corner, edge, face) and per subdomain (min,
    # max), shape groups (m, n_B, n_c), K_II factor (method, n, kd) and what
    # its solves read: inverse stacks (order, count per block order, bytes)
    # where the band is as wide as every interior block, else the band (kd,
    # bytes), and at level 1 its Schur form with the rule's two entry counts,
    # the form's own first, and what the form holds; then the top factor
    # (method, n). The three-level elasticity run stacks both levels'
    # inverses and keeps K_GG (entries, bytes); the 2D run with 7 x 7
    # interiors keeps its band (2 kd + 1 < 49) and the S stacks ((count,
    # n_B) per shape group, bytes). With DEBUG off no record's arguments are
    # evaluated (`Factorization.storage` is never read), and a run that logs
    # them has bitwise the solution, residual history and condition estimate
    # of one that does not
    runs = [(["problem=elasticity", "dim=3", "elements=6", "hierarchy=27/8"], [True, True],
             "sparse"),
            (["dim=2", "elements=16", "hierarchy=4"], [False], "dense")]
    evaluated, storage = [], Factorization.storage
    monkeypatch.setattr(Factorization, "storage",
                        property(lambda self: evaluated.append(self) or storage.fget(self)))
    for overrides, stacked, form in runs:
        caplog.clear()
        evaluated.clear()
        quiet = run_experiment(load_config(overrides=overrides))
        assert not [r for r in caplog.records if r.name == "mlbddc"] and evaluated == []
        with caplog.at_level(logging.DEBUG, logger="mlbddc"):
            logged = run_experiment(load_config(overrides=overrides))
        records = [r for r in caplog.records if r.name == "mlbddc"]
        prec = logged.preconditioner
        assert all(r.levelno == logging.DEBUG for r in records)
        assert len(records) == len(prec.levels) + 1 == len(stacked) + 1
        for record, level, inverses in zip(records, prec.levels, stacked):
            fact, groups = level.splits.k_ii_fact, level.groups
            shapes = [(g.subs.size, g.row.shape[1], g.tags.shape[1]) for g in groups]
            cs = level.coarse
            by_kind = tuple(cs.dofs_per_node * int(np.count_nonzero(cs.kinds == k))
                            for k in ("corner", "edge", "face"))
            assert sum(by_kind) == level.n_coarse_dofs
            sizes = level.partition.sizes()
            per_sub = np.diff(cs.sub_ptr) * cs.dofs_per_node
            n_i = np.diff(level.splits.interior_offsets)
            orders, counts = np.unique(n_i[n_i > 0], return_counts=True)
            assert (2 * fact.kd + 1 >= orders.max()) == inverses
            solves = (f"inverse stacks (order, count) {list(zip(orders.tolist(), counts.tolist()))}"
                      f", {8 * int(np.sum(counts * orders ** 2))} bytes" if inverses
                      else f"band kd={fact.kd}, {8 * (fact.kd + 1) * fact.n} bytes")
            sp, k_gg = level.splits, level.splits.k_gg
            assert sp.form == (form if level.index == 1 else None)
            assert (k_gg is not None) == (sp.form == "sparse")
            interface = ""
            if sp.form is not None:
                dense, sparse = bddc.schur_form(sp)[1]
            if sp.form == "sparse":
                interface = (f"; Schur form sparse, {sparse} entries against {dense}: "
                             f"K_GG {k_gg.nnz} entries, "
                             f"{12 * k_gg.nnz + 4 * (k_gg.shape[0] + 1)} bytes")
            elif sp.form == "dense":
                counts = [(g.subs.size, g.order.shape[1]) for g in groups]
                interface = (f"; Schur form dense, {dense} entries against {sparse}: "
                             f"S stacks (count, n_B) {counts}, "
                             f"{sum(8 * m * n_b * (n_b + 1) for m, n_b in counts)} bytes")
            assert record.getMessage() == (
                f"level {level.index}: {level.partition.n_subdomains} subdomains of "
                f"{sizes.min()} to {sizes.max()} elements; coarse dofs (corner, edge, face) "
                f"{by_kind}, {per_sub.min()} to {per_sub.max()} per subdomain; "
                f"shape groups (m, n_B, n_c) {shapes}; "
                f"K_II factor {fact.method} n={fact.n} kd={fact.kd}, solves by {solves}"
                f"{interface}")
        assert records[-1].getMessage() == f"top factor {prec.top.method} n={prec.top.n}"
        assert quiet.solution.tobytes() == logged.solution.tobytes()
        assert quiet.report.relative_residuals == logged.report.relative_residuals
        assert quiet.report.condition_estimate == logged.report.condition_estimate


def test_setup_names_the_failing_subdomain_not_its_slot(dirichlet_x2d, monkeypatch):
    # the setup names the level and the subdomain (exit 3), not its slot in
    # its shape group: the last member of a group of several (so neither
    # subdomain 0 nor slot 0) is handed -S, so potrf meets a negative pivot
    # (vertex corners only, so that A has an order)
    lv = dirichlet_x2d
    level = make_bddc(lv, corner_strategy="vertices-only").levels[0]
    group = max(level.groups, key=lambda g: g.subs.size)
    assert group.subs.size >= 2 and group.ainv.shape[1] > 0
    victim = int(group.subs[-1])
    schur = bddc._local_schur

    def negated(splits, g):
        for i, s in zip(g.subs.tolist(), schur(splits, g)):
            yield -s if i == victim else s

    monkeypatch.setattr(bddc, "_local_schur", negated)
    with pytest.raises(NumericalError, match=f"level 1, subdomain {victim}: constrained "
                                             f"local problem is not positive definite"):
        make_bddc(lv, corner_strategy="vertices-only")


def test_setup_names_the_interior_block_whose_inverse_is_inaccurate(dirichlet_x2d,
                                                                     monkeypatch):
    # setup ends by stacking each level's K_II block inverses, one stack per
    # block order, and checks the stacked solve: an inverse off by 1e-9
    # relative in block 7 (order 6, blocks interleaved with orders 4 and 9,
    # so not the first of its stack) fails setup with NumericalError naming
    # the level and that block
    lv = dirichlet_x2d
    n_i = np.diff(lv.splits.interior_offsets)
    victim, made = 7, []
    call = int(np.flatnonzero(np.lexsort((np.arange(n_i.size), n_i)) == victim)[0])
    assert n_i[victim] == 6 and n_i[:victim].tolist().count(6) == 3 and call == 9
    real = sparse.spd_inverse

    def skewed(low, out, lower):
        real(low, out, lower)
        if len(made) == call:
            out *= 1.0 + 1e-9
        made.append(out)

    monkeypatch.setattr(sparse, "spd_inverse", skewed)
    with pytest.raises(NumericalError, match=f"level 1, interior solves: factor solve is "
                                             f"inaccurate in diagonal block {victim}:"):
        make_bddc(lv)


def test_constraint_rows(cross2d):
    lv = cross2d
    cs = lv.coarse_space()
    cons = build_constraints(cs, lv.splits, lv.imap)
    rows = dense_rows(cons, lv.splits.iface_offsets, 0)
    assert rows.shape[0] == 7
    assert cons.tags[:7].tolist() == ["corner"] * 5 + ["face"] * 2
    assert np.array_equal(cons.dofs[:7], node_dofs(segments(cs.sub_ptr, cs.sub_node)[0],
                                                    cs.dofs_per_node))
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-15)
    # corner rows are unit vectors
    for row in rows[:5]:
        assert set(np.unique(row)) == {0.0, 1.0}
        assert row.sum() == 1.0


def test_constraint_rows_match_dense_lookup(elasticity3d_edges):
    # rows found by one search through node_coarse equal rows placed over
    # each coarse node's members through a full level-dof lookup table, which
    # puts nothing on the interior; under every corner strategy and the
    # corners-only policy
    lv = elasticity3d_edges
    for policy, strategy in [("corners+edges+faces", "default"), ("corners-only", "default"),
                             ("corners+edges+faces", "vertices-only"),
                             ("corners+edges+faces", "all-interface")]:
        cs = lv.coarse_space(policy, strategy)
        cons = build_constraints(cs, lv.splits, lv.imap)
        for i, nodes in enumerate(segments(cs.sub_ptr, cs.sub_node)):
            local, interior_pos, interface_pos = split_positions(lv.splits, lv.imap, i)
            local_of = np.full(lv.grid.n_dofs, -1)
            local_of[local] = np.arange(local.size)
            ref = []
            for cn in nodes:
                members = np.flatnonzero(cs.node_coarse == cn)
                for comp in range(cs.dofs_per_node):
                    row = np.zeros(local.size)
                    row[local_of[members * cs.dofs_per_node + comp]] = 1.0 / members.size
                    ref.append(row)
            ref = np.array(ref)
            assert not ref[:, interior_pos].any()
            rows = dense_rows(cons, lv.splits.iface_offsets, i)
            assert np.array_equal(rows, ref[:, interface_pos])
            # no two rows of any kind share a column, and every row has an
            # entry: each can eliminate a dof of its own
            assert np.count_nonzero(rows, axis=0).max() <= 1
            assert np.count_nonzero(rows, axis=1).min() >= 1


@lru_cache(maxsize=None)
def drawn_level(dim, kind, method, n_subs, faces):
    n_elems = {2: 6, 3: 4}[dim]
    return build_level1(ProblemSpec(kind=kind, dim=dim, dirichlet_faces=(faces,)), n_elems,
                        n_subs, method=method)


@st.composite
def coarse_space_cases(draw):
    dim = draw(st.sampled_from([2, 3]))
    level = (dim, draw(st.sampled_from(["poisson", "elasticity"])),
             draw(st.sampled_from(["regular-blocks", "greedy-graph-growing"])),
             draw(st.sampled_from({2: [2, 3, 4, 6, 9], 3: [2, 4, 8]}[dim])),
             draw(st.sampled_from(["all", "x-"])))
    return level, draw(st.sampled_from(CONSTRAINT_POLICIES)), \
        draw(st.sampled_from(CORNER_STRATEGIES))


@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(coarse_space_cases())
def test_every_node_names_at_most_one_coarse_node_and_every_row_covers_one(case):
    # the invariant build_constraints relies on, over the coarse spaces that
    # build_coarse_space makes: node_coarse is set exactly on the corners and
    # on the non-corner members of the policy's globs, the rows are made
    # without an error, each position is labelled by its node's coarse node
    # and component, and each row covers its coarse node's members once
    # each, so every row covers a position and no position is in two rows
    level, policy, strategy = case
    lv = drawn_level(*level)
    gs, dpn = lv.globset, lv.spec.dofs_per_node
    corners = lv.corners(strategy)
    cs = lv.coarse_space(policy, strategy)
    averaged = {"corners-only": (), "corners+edges+faces": ("edge", "face"),
                "corners+edges": ("edge",) if lv.grid.dim == 3 else ("edge", "face")}[policy]
    expected = np.isin(np.arange(lv.grid.n_nodes), corners)
    expected |= (gs.node_glob >= 0) & np.isin(np.append(gs.kinds, "")[gs.node_glob], averaged)
    assert np.array_equal(cs.node_coarse >= 0, expected)
    assert cs.kinds[cs.node_coarse[corners]].tolist() == ["corner"] * corners.size
    members = np.bincount(cs.node_coarse[expected], minlength=cs.n_nodes)
    assert members.min(initial=1) >= 1
    cons = build_constraints(cs, lv.splits, lv.imap)
    labelled = cons.row_of >= 0
    dof = lv.imap.dofs[lv.splits.iface_index]
    assert np.array_equal(labelled, cs.node_coarse[dof // dpn] >= 0)
    assert np.array_equal(cons.dofs[cons.row_of[labelled]],
                          cs.node_coarse[dof[labelled] // dpn] * dpn + dof[labelled] % dpn)
    covered = np.bincount(cons.row_of[labelled], minlength=cons.tags.size)
    assert np.array_equal(covered, np.repeat(members[cs.sub_node], dpn))
    assert covered.min(initial=1) >= 1


def test_constraint_rows_reject_nodes_outside_the_subdomain(cross2d):
    # a position whose node names a coarse node its subdomain lacks: subdomain
    # 0 given subdomain 3's coarse nodes, or a node of subdomain 0 that names
    # one of subdomain 3's that subdomain 0 lacks
    cs = cross2d.coarse_space()
    nodes = segments(cs.sub_ptr, cs.sub_node)
    swapped = [nodes[3], *nodes[1:]]
    theirs = replace(cs, sub_ptr=np.cumsum([0] + [n.size for n in swapped]),
                     sub_node=np.concatenate(swapped))
    node_coarse = cs.node_coarse.copy()
    node_coarse[cross2d.imap.dofs[cross2d.splits.iface_index[0]]] = \
        np.setdiff1d(nodes[3], nodes[0])[0]        # one dof per node: the dof is the node
    named = replace(cs, node_coarse=node_coarse)
    for faulty in (theirs, named):
        with pytest.raises(ValueError, match="subdomain 0: coarse nodes do not match its "
                                             "interface"):
            build_constraints(faulty, cross2d.splits, cross2d.imap)


def test_basis_properties_on_fixture(cross2d, coarse_stacks):
    # psi is the interface part of the full local problem's basis, and the
    # coarse matrix is its energy psi^T S psi
    lv = cross2d
    m = make_bddc(lv)
    level = m.levels[0]
    for sub, split in zip(level.subs, level.splits):
        rows = constraint_rows(level, split.index)
        psi = sub.psi
        bordered, s = full_local_problem(lv, split, rows)
        local, _, b = split_positions(lv.splits, lv.imap, split.index)
        n, nc = local.size, len(sub.constraints.tags)
        ref = np.linalg.solve(bordered, np.vstack([np.zeros((n, nc)), np.eye(nc)]))
        assert rel_err(psi, ref[b]) <= 1e-12
        assert np.allclose(rows @ psi, np.eye(nc), atol=1e-11)
        kc = coarse_matrix(level, split.index, coarse_stacks)
        assert np.allclose(kc, psi.T @ s @ psi, atol=1e-10)
        assert np.allclose(kc, kc.T, atol=1e-14)
        assert np.linalg.eigvalsh(kc).min() > 0


def test_group_setup_matches_full_local_problems(dirichlet_x2d, coarse_stacks):
    # subdomains of different local sizes, set up shape group by shape
    # group: each one's constrained solve (its interface block for
    # right-hand sides zero on the interior, with its multipliers), psi and
    # coarse matrix equal the dense full bordered solve of [K C^T; C 0]
    lv = dirichlet_x2d
    level = make_bddc(lv).levels[0]
    sizes = np.diff(lv.splits.interior_offsets) + np.diff(lv.splits.iface_offsets)
    assert len(set(sizes.tolist())) > 1
    assert len(level.groups) > 1 and max(g.subs.size for g in level.groups) > 1
    # every apply gathers through these index stacks; a strided one is slower
    assert all(a.flags.c_contiguous for g in level.groups
               for a in (g.kept, g.own, *([] if g.master is None else [g.master])))
    for sub, split in zip(level.subs, level.splits):
        rows = constraint_rows(level, split.index)
        bordered, _ = full_local_problem(lv, split, rows)
        inv = np.linalg.inv(bordered)
        local, _, b = split_positions(lv.splits, lv.imap, split.index)
        n, nc = local.size, rows.shape[0]
        # measured against the whole inverse: a solve fully fixed by averages is 0
        tol = 1e-12 * np.abs(inv).max()
        solves = [sub.constrained_solve(e) for e in np.eye(b.size)]
        assert np.abs(np.column_stack([z for z, _ in solves]) - inv[np.ix_(b, b)]).max() <= tol
        assert np.abs(np.column_stack([mu for _, mu in solves]) - inv[n:, b]).max() <= tol
        assert np.abs(sub.psi - inv[b, n:]).max() <= tol
        assert np.abs(coarse_matrix(level, split.index, coarse_stacks)
                      + inv[n:, n:]).max() <= tol
        cs = level.coarse
        assert np.array_equal(sub.coarse_dofs, node_dofs(
            segments(cs.sub_ptr, cs.sub_node)[split.index], cs.dofs_per_node))
        assert sub.bordered.n == rows.shape[1] - nc


def test_setup_runs_one_coarse_basis_per_shape_group(dirichlet_x2d, monkeypatch):
    # coarse_basis takes a whole shape group: one call per group and level,
    # fewer than the subdomains
    calls = []

    def counted(g, schur):
        calls.append(g.subs.size)
        return coarse_basis(g, schur)

    monkeypatch.setattr(bddc, "coarse_basis", counted)
    m = make_bddc(dirichlet_x2d, coarse_counts=(4,))
    assert len(calls) == sum(len(level.groups) for level in m.levels)
    assert sum(calls) == sum(len(level.subs) for level in m.levels) > len(calls)


def test_each_level_matrix_is_freed_once_split(monkeypatch):
    # no frame (the harness, setup_bddc, _build_level) holds a level's
    # block-diagonal K past build_splits: at every coarse_basis call, each K
    # split so far is already freed by reference counting, with no gc pass
    refs, seen = [], []

    def recorded_build_splits(k, *args, **kwargs):
        refs.append((weakref.ref(k), weakref.ref(k.scipy_csr())))
        return build_splits(k, *args, **kwargs)

    def checked_coarse_basis(g, schur):
        seen.append((len(refs), [r() is not None for pair in refs for r in pair]))
        return coarse_basis(g, schur)

    monkeypatch.setattr(bddc, "build_splits", recorded_build_splits)
    monkeypatch.setattr(bddc, "coarse_basis", checked_coarse_basis)
    overrides = ["problem=elasticity", "dim=3", "elements=6", "hierarchy=27/8"]
    assert run_experiment(load_config(overrides=overrides)).levels == 3
    assert {level for level, _ in seen} == {1, 2} and len(refs) == 2
    assert not any(any(alive) for _, alive in seen)


@pytest.mark.parametrize("coarse_counts", [(), (4,)])
def test_condition_number_follows_the_log_bound(coarse_counts):
    # 2D Poisson, corners only, 16 subdomains: from H/h = 4 to H/h = 32 the
    # seeded random-rhs condition estimate may grow by at most the ratio of
    # the bound's (1 + log H/h)^2 factors (Mandel, Sousedik & Dohrmann,
    # Computing 83, 2008), for two and three levels
    kappas = []
    for n_elems in (16, 128):
        lv = build_level1(ProblemSpec(), n_elems, 16, method="regular-blocks")
        m = make_bddc(lv, coarse_counts, constraint_policy="corners-only")
        g = np.random.default_rng(43).standard_normal(lv.imap.n)
        _, report = pcg(lambda v: schur_apply(lv.splits, lv.imap, v), g, apply_m=m.apply,
                        tol=1e-10, max_iterations=200)
        assert report.converged
        kappas.append(report.condition_estimate)
    ratio = ((1 + np.log(32)) / (1 + np.log(4))) ** 2
    assert kappas[0] < kappas[1] <= ratio * kappas[0], kappas


def test_basis_energy_minimality(cross2d):
    # among interface functions with the same constraint values, psi has the
    # least S energy
    lv = cross2d
    m = make_bddc(lv)
    level = m.levels[0]
    sub, split = level.subs[0], level.splits[0]
    c = constraint_rows(level, 0)
    _, s = full_local_problem(lv, split, c)
    proj = np.eye(c.shape[1]) - np.linalg.pinv(c) @ c
    rng = np.random.default_rng(11)
    for k in range(len(sub.constraints.tags)):
        psi_k = sub.psi[:, k]
        base = psi_k @ s @ psi_k
        for _ in range(3):
            y = psi_k + proj @ rng.standard_normal(c.shape[1])
            assert y @ s @ y >= base - 1e-10


# -- the preconditioner -------------------------------------------------------

def test_all_corners_is_exact_inverse(cross2d):
    lv = cross2d
    m = make_bddc(lv, corner_strategy="all-interface")
    s_dense, _, _ = dense_schur_parts(lv)
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = rng.standard_normal(lv.imap.n)
        z = m.apply(s_dense @ x)
        assert np.max(np.abs(z - x)) < 1e-10


def test_apply_symmetric_positive(cross2d):
    m = make_bddc(cross2d)
    rng = np.random.default_rng(5)
    for _ in range(5):
        r1 = rng.standard_normal(cross2d.imap.n)
        r2 = rng.standard_normal(cross2d.imap.n)
        a = r1 @ m.apply(r2)
        b = r2 @ m.apply(r1)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))
        assert r1 @ m.apply(r1) > 0


def test_three_level_apply(cross2d):
    m = make_bddc(cross2d, coarse_counts=(2,))
    assert m.n_levels == 3
    assert len(m.coarse_sizes()) == 2
    rng = np.random.default_rng(9)
    r1 = rng.standard_normal(cross2d.imap.n)
    r2 = rng.standard_normal(cross2d.imap.n)
    a = r1 @ m.apply(r2)
    b = r2 @ m.apply(r1)
    assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))
    assert r1 @ m.apply(r1) > 0


def test_apply_runs_plain_factor_solves(cross2d, monkeypatch):
    # every factor was checked once at setup, and the constrained local
    # solves are products with stacked operators: an apply makes exactly the
    # interior pre- and post-correction of each level past the first and the
    # top solve, each one factor solve that reads no matrix (no per-solve
    # residual check), and never calls a subdomain's constrained_solve
    m = make_bddc(cross2d, coarse_counts=(2,))
    assert m.n_levels == 3
    calls = {"solve": 0, "raw": 0, "csr_in_solve": 0, "constrained_solve": 0}
    inside = [0]
    solve, raw, csr = Factorization.solve, Factorization._raw_solve, SparseMatrix.scipy_csr
    constrained_solve = bddc.SubdomainCoarse.constrained_solve

    def counted_solve(self, b):
        calls["solve"] += 1
        inside[0] += 1
        try:
            return solve(self, b)
        finally:
            inside[0] -= 1

    def counted_raw(self, b):
        calls["raw"] += 1
        return raw(self, b)

    def counted_csr(self):
        calls["csr_in_solve"] += inside[0] > 0
        return csr(self)

    def counted_constrained_solve(self, r_b):
        calls["constrained_solve"] += 1
        return constrained_solve(self, r_b)

    monkeypatch.setattr(Factorization, "solve", counted_solve)
    monkeypatch.setattr(Factorization, "_raw_solve", counted_raw)
    monkeypatch.setattr(SparseMatrix, "scipy_csr", counted_csr)
    monkeypatch.setattr(bddc.SubdomainCoarse, "constrained_solve", counted_constrained_solve)
    rng = np.random.default_rng(5)
    applies = 2
    for _ in range(applies):
        m.apply(rng.standard_normal(cross2d.imap.n))
    assert calls["solve"] == applies * (2 * (m.n_levels - 2) + 1)
    assert calls["raw"] == calls["solve"]
    assert calls["csr_in_solve"] == 0
    assert calls["constrained_solve"] == 0


def level_schur_blocks(level):
    """Each subdomain's interface Schur complement (stacked interface order), by
    dense elimination of its blocks of the level's K_II, K_IG (K_IB's columns
    at the subdomain's global positions) and K_BB (its lower triangle, mirrored)."""
    sp = level.splits
    low, k_ig = sp.k_bb.toarray(), sp.k_ig.toarray()
    k_bb, k_ii = low + np.tril(low, -1).T, sp.k_ii_fact.matrix.scipy_csr().toarray()
    out = []
    for i in range(len(sp)):
        (lo, hi), (a, b) = sp.interior_offsets[i:i + 2], sp.iface_offsets[i:i + 2]
        k_ib = k_ig[lo:hi, sp.iface_index[a:b]]
        out.append(k_bb[a:b, a:b] - (k_ib.T @ np.linalg.solve(k_ii[lo:hi, lo:hi], k_ib)
                                     if hi > lo else 0.0))
    return out


def dense_cycle(m, li, r_hat, check=lambda *args: None, coarse=None):
    """One BDDC cycle at level li + 1 on interface residual r_hat, densely
    over the stacked interface: weighted restriction, a dense solve of
    [S_i C_i^T; C_i 0] per subdomain (for the unit constraint values and for
    its residual), the coarse correction coarse(r_c) (by default
    `dense_full_apply` of the next level), weighted prolongation.
    check(sub, r_b, psi, pair) sees each subdomain's solves. Returns the
    cycle's output and the coarse residual r_c."""
    level = m.levels[li]
    index, ends = level.splits.iface_index, level.splits.iface_offsets
    r_b = level.weights * r_hat[index]
    r_c, parts = np.zeros(level.n_coarse_dofs), []
    for i, (sub, s, a, b) in enumerate(zip(level.subs, level_schur_blocks(level),
                                           ends[:-1], ends[1:])):
        c = constraint_rows(level, i)
        nb, nc = b - a, c.shape[0]
        bordered = np.block([[s, c.T], [c, np.zeros((nc, nc))]])
        ref = np.linalg.solve(bordered, np.column_stack([
            np.vstack([np.zeros((nb, nc)), np.eye(nc)]),
            np.concatenate([r_b[a:b], np.zeros(nc)])]))
        psi, pair = ref[:nb, :nc], ref[:, nc]
        check(sub, r_b[a:b], psi, pair)
        np.add.at(r_c, sub.coarse_dofs, pair[nb:])
        parts.append((pair[:nb], psi, sub.coarse_dofs))
    z_c = coarse(r_c) if coarse else dense_full_apply(m, li + 1, r_c)
    v_b = np.concatenate([z + psi @ z_c[dofs] for z, psi, dofs in parts])
    return np.bincount(index, level.weights * v_b, level.imap.n), r_c


def dense_full_apply(m, li, r):
    """The preconditioner at level li + 1 on a full residual, densely: the
    top solve past the last level, else condensation, `dense_cycle` and
    interior recovery by dense K_II solves with K_IG."""
    if li == len(m.levels):
        return np.linalg.solve(m.top.matrix.scipy_csr().toarray(), r)
    level = m.levels[li]
    sp, dofs = level.splits, level.imap.dofs
    k_ii, k_ig = sp.k_ii_fact.matrix.scipy_csr().toarray(), sp.k_ig.toarray()
    r_i = r[sp.interior_dofs]
    z_hat = dense_cycle(m, li, r[dofs] - k_ig.T @ np.linalg.solve(k_ii, r_i))[0]
    z = np.zeros(r.size)
    z[dofs] = z_hat
    z[sp.interior_dofs] = np.linalg.solve(k_ii, r_i - k_ig @ z_hat)
    return z


@pytest.mark.parametrize("name,coarse_counts", [
    ("cross2d", ()), ("cross2d", (2,)), ("elasticity3d_edges", ()),
    ("elasticity3d_edges", (2,)), ("corners2d", ()), ("dirichlet_x2d", (4,))])
def test_batched_cycle_matches_per_subdomain_dense_solves(name, coarse_counts, request,
                                                          monkeypatch):
    # the oracle is a plain dense solve of [S_i C_i^T; C_i 0] per subdomain
    # and level: each subdomain's slice of its shape group's stacked
    # operators (through constrained_solve), and one batched cycle of
    # _interface_apply, whose coarse correction is replaced by a fixed z_c
    # so that the cycle is checked on its own
    m = make_bddc(request.getfixturevalue(name), coarse_counts=coarse_counts)
    assert m.n_levels == len(coarse_counts) + 2
    rng = np.random.default_rng(37)
    for li, level in enumerate(m.levels):
        subs = level.subs
        assert sum(g.ainv.shape[0] for g in level.groups) == len(subs)
        z_c = rng.standard_normal(level.n_coarse_dofs)
        r_hat = rng.standard_normal(level.imap.n)

        def check(sub, r_b, psi, pair):
            fact = sub.bordered
            assert fact._payload is None
            # A^-1 and the record of A are exactly symmetric
            record = fact.matrix.scipy_csr()
            assert np.array_equal(sub.ainv, sub.ainv.T) and (record != record.T).nnz == 0
            # views into the stacks, not copies
            assert any(sub.ainv.base is g.ainv and sub.u.base is g.u for g in level.groups)
            assert rel_err(sub.psi, psi) <= 1e-12
            z_b, mu = sub.constrained_solve(r_b)
            assert rel_err(np.concatenate([z_b, mu]), pair) <= 1e-12

        ref_out, r_c = dense_cycle(m, li, r_hat, check, coarse=lambda r, z_c=z_c: z_c)
        seen = []

        def fixed_coarse_correction(lj, r, seen=seen, z_c=z_c):
            seen.append(r)
            return z_c

        monkeypatch.setattr(m, "_full_apply", fixed_coarse_correction)
        out = m._interface_apply(li, r_hat)
        monkeypatch.undo()
        assert rel_err(seen[0], r_c) <= 1e-12
        assert rel_err(out, ref_out) <= 1e-12


def test_apply_matches_a_dense_stacked_cycle(request):
    # the apply gathers through index maps composed with R and the weights
    # and returns through one bincount per level; the oracle is the stacked
    # cycle, dense at every level (weighted restriction over the stacked
    # interface, a dense bordered solve per subdomain, condensation and
    # recovery by dense K_II solves, the dense top solve), on groups with
    # and without masters, two and three levels, and both weight schemes,
    # the stiffness diagonal giving a dof's copies different weights
    rng = np.random.default_rng(47)
    masters, per_copy = set(), False
    # an irregular partition (5 subdomains of an 8 x 8 mesh), where a dof's
    # subdomains touch it with different numbers of elements
    irregular = build_level1(ProblemSpec(kind="poisson", dim=2), 8, 5)
    for lv1, coarse_counts in [(request.getfixturevalue("corners2d"), ()),
                               (request.getfixturevalue("cross2d"), (2,)),
                               (request.getfixturevalue("elasticity3d_edges"), (2,)),
                               (request.getfixturevalue("dirichlet_x2d"), (4,)),
                               (irregular, ()), (irregular, (2,))]:
        for scheme in ("cardinality", "stiffness-diagonal"):
            m = make_bddc(lv1, coarse_counts, weight_scheme=scheme)
            for lv in m.levels:
                masters |= {g.master is not None for g in lv.groups}
                count = np.bincount(lv.splits.iface_index)[lv.splits.iface_index]
                per_copy |= not np.allclose(lv.weights, 1.0 / count, rtol=1e-3)
            r_hat = rng.standard_normal(m.levels[0].imap.n)
            assert rel_err(m.apply(r_hat), dense_cycle(m, 0, r_hat)[0]) <= 1e-12, \
                (coarse_counts, scheme)
    assert masters == {False, True} and per_copy


def test_degenerate_middle_level_collapses(cross2d):
    m2 = make_bddc(cross2d)
    m3 = make_bddc(cross2d, coarse_counts=(1,))
    assert m3.n_levels == 3
    rng = np.random.default_rng(13)
    for _ in range(3):
        r = rng.standard_normal(cross2d.imap.n)
        assert np.max(np.abs(m3.apply(r) - m2.apply(r))) < 1e-10


@pytest.mark.parametrize("dense_threshold", [None, 0])
@pytest.mark.parametrize("name", ["cross2d", "elasticity3d", "elasticity3d_edges"])
def test_constrained_solve_multipliers_are_coarse_residuals(name, dense_threshold,
                                                            request, monkeypatch):
    # the interface solve equals the full solve of [K C^T; C 0][z; mu] = [r; 0]
    # for r zero on the interior, read on the interface; the bordered matrix
    # is symmetric, so the multipliers are psi^T r, and z satisfies the
    # constraints (band Cholesky K_II factors, and SuperLU ones at a budget
    # of 0 band entries; A is inverted densely either way)
    if dense_threshold is not None:
        monkeypatch.setattr(sparse, "DENSE_THRESHOLD", dense_threshold)
    lv = request.getfixturevalue(name)
    level = make_bddc(lv).levels[0]
    assert level.splits.k_ii_fact.method == ("splu" if dense_threshold == 0 else "cholesky")
    rng = np.random.default_rng(17)
    for sub, split in zip(level.subs, level.splits):
        local, _, b = split_positions(lv.splits, lv.imap, split.index)
        r_b = rng.standard_normal(b.size)
        z_b, mu = sub.constrained_solve(r_b)
        rows = constraint_rows(level, split.index)
        bordered, _ = full_local_problem(lv, split, rows)
        rhs = np.zeros(bordered.shape[0])
        rhs[b] = r_b
        ref = np.linalg.solve(bordered, rhs)
        # the pair (z_b, mu) is measured as one vector: with as many
        # constraints as interface dofs (cross2d), z_b alone is zero
        pair = np.concatenate([ref[b], ref[local.size:]])
        assert rel_err(np.concatenate([z_b, mu]), pair) <= 1e-12
        assert rel_err(mu, sub.psi.T @ r_b) <= 1e-12
        # A never reaches SuperLU, whatever the threshold
        assert sub.bordered.method in ("cholesky", "empty")
        n_b, n_c = z_b.size, mu.size
        scale = np.linalg.norm(pair) if n_b == n_c else np.linalg.norm(z_b)
        assert np.linalg.norm(rows @ z_b) <= 1e-12 * scale


def half_bandwidth(csr) -> int:
    return int(np.max(np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr)) - csr.indices))


def check_against_full_local_problems(lv, level, stacks):
    """Every subdomain's S (the lower triangle that _local_schur forms), psi
    and coarse matrix (its copy in `stacks`) equal the dense oracle's, the
    full bordered solve of [K C^T; C 0]."""
    for g in level.groups:
        for j, s in enumerate(_local_schur(level.splits, g)):
            split = level.splits[g.subs[j]]
            _, s_ref = full_local_problem(lv, split, constraint_rows(level, split.index))
            assert rel_err(np.tril(s), np.tril(s_ref[np.ix_(g.order[j], g.order[j])])) <= 1e-12
    for sub, split in zip(level.subs, level.splits):
        bordered, _ = full_local_problem(lv, split, constraint_rows(level, split.index))
        local, _, b = split_positions(lv.splits, lv.imap, split.index)
        n, nc = local.size, len(sub.constraints.tags)
        ref = np.linalg.solve(bordered, np.vstack([np.zeros((n, nc)), np.eye(nc)]))
        assert rel_err(sub.psi, ref[b]) <= 1e-12
        assert rel_err(coarse_matrix(level, split.index, stacks), -ref[n:]) <= 1e-12


@pytest.mark.parametrize("name", ["cross2d", "elasticity3d"])
def test_large_subdomains_eliminate_the_interior_sparsely(name, request, monkeypatch,
                                                          coarse_stacks):
    # every subdomain above DENSE_THRESHOLD local dofs, on a level whose
    # stacked K_II still fits the band budget: each S_i comes from a
    # triangular solve with the member's own columns of the level's factor,
    # with no factor of its own and no dense K_II, and S_i, psi and the
    # coarse matrices equal the dense oracle's
    lv = request.getfixturevalue(name)
    k_ii = lv.splits.k_ii_fact.matrix.scipy_csr()
    threshold = int(np.ceil(np.sqrt((half_bandwidth(k_ii) + 1) * k_ii.shape[0])))
    assert threshold < min(np.diff(lv.splits.interior_offsets) + np.diff(lv.splits.iface_offsets))
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", threshold)
    level = make_bddc(lv).levels[0]
    assert level.splits.k_ii_fact.method == "cholesky"
    calls = {"factorize": 0, "lower_solve": 0}
    lower_solve = Factorization.lower_solve

    def counted_lower_solve(self, j, b, *args):
        calls["lower_solve"] += 1
        return lower_solve(self, j, b, *args)

    def counted_factorize(*args, **kwargs):
        calls["factorize"] += 1
        return sparse.factorize(*args, **kwargs)

    monkeypatch.setattr(Factorization, "lower_solve", counted_lower_solve)
    monkeypatch.setattr(bddc, "factorize", counted_factorize)
    check_against_full_local_problems(lv, level, coarse_stacks)
    assert calls == {"factorize": 0, "lower_solve": len(level.splits)}


def test_full_band_interiors_take_dense_triangles(elasticity3d_edges, monkeypatch,
                                                  coarse_stacks):
    # 3D elasticity on 2 x 2 x 2 subdomains: every K_II block's band is full,
    # 2 kd + 1 >= n_I, so each member's W = L^-1 K_IB is a dense triangular
    # solve (dtrsm) with a copy of its band columns, and S_i, psi and the
    # coarse matrices equal the dense oracle's
    lv = elasticity3d_edges
    level = make_bddc(lv).levels[0]
    fact, n_i = level.splits.k_ii_fact, np.diff(level.splits.interior_offsets)
    assert fact.method == "cholesky" and np.all(2 * fact._payload.shape[0] - 1 >= n_i)
    calls, dtrsm = [], sparse.dtrsm

    def counted(*args, **kwargs):
        calls.append(args[1].shape[0])
        return dtrsm(*args, **kwargs)

    monkeypatch.setattr(sparse, "dtrsm", counted)
    check_against_full_local_problems(lv, level, coarse_stacks)
    assert calls == [n_i[i] for g in level.groups for i in g.subs]


@pytest.mark.parametrize("fits", [True, False], ids=["blocks-fit", "largest-block-over"])
def test_band_budget_bounds_each_k_ii_block(dirichlet_x2d, fits, monkeypatch, coarse_stacks):
    # the budget bounds each K_II block's band storage, never the level's
    # stack: with a budget that every block fits but the stack does not, the
    # level factor is a band Cholesky and _local_schur factorizes nothing;
    # with one below the largest block it is SuperLU, and each member
    # factorizes its own block. S_i, psi and the coarse matrices equal the
    # dense oracle's either way
    lv = dirichlet_x2d
    k_ii = lv.splits.k_ii_fact.matrix.scipy_csr()
    kd, blocks = half_bandwidth(k_ii), np.diff(lv.splits.interior_offsets)
    threshold = int(np.ceil(np.sqrt((kd + 1) * blocks.max()))) - (0 if fits else 1)
    assert ((kd + 1) * blocks.max() <= threshold ** 2) == fits
    assert (kd + 1) * k_ii.shape[0] > threshold ** 2
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", threshold)
    level = make_bddc(lv).levels[0]
    assert level.splits.k_ii_fact.method == ("cholesky" if fits else "splu")
    orders = []

    def recorded(a, *args, **kwargs):
        orders.append(a.shape[0])
        return sparse.factorize(a, *args, **kwargs)

    monkeypatch.setattr(bddc, "factorize", recorded)
    check_against_full_local_problems(lv, level, coarse_stacks)
    assert orders == ([] if fits else [blocks[i] for g in level.groups for i in g.subs])


@pytest.mark.parametrize("name,coarse_counts", [("cross2d", (2,)), ("elasticity3d_edges", ())])
def test_bordered_factors_are_interface_sized(name, coarse_counts, request):
    # every level factors A = N^T S_ff N: each constraint row, corner or
    # average, removes the interface dof it owns, so A has order n_B - n_c,
    # never that of [S C^T; C 0] (n_B + n_c) or of [K C^T; C 0]
    m = make_bddc(request.getfixturevalue(name), coarse_counts=coarse_counts)
    assert m.n_levels == len(coarse_counts) + 2
    for level in m.levels:
        subs = level.subs
        assert any(set(sub.constraints.tags) - {"corner"} for sub in subs)
        for sub, split, n_b in zip(subs, level.splits, np.diff(level.splits.iface_offsets)):
            n_c = len(sub.constraints.tags)
            assert sub.bordered.n == n_b - n_c
            assert sub.psi.shape == constraint_rows(level, split.index).shape[::-1] == (n_b, n_c)


def test_elasticity_3d_smoke(elasticity3d):
    lv = elasticity3d
    m = make_bddc(lv)
    rng = np.random.default_rng(19)
    r = rng.standard_normal(lv.imap.n)
    z = m.apply(r)
    assert np.all(np.isfinite(z))
    assert r @ z > 0


def test_interior_corrections_are_consistent(cross2d):
    # the post-correction of a zero interface correction solves the
    # interiors only
    lv = cross2d
    r = np.linspace(0.5, 1.5, lv.k_global.shape[0])
    z = interior_postcorrection(lv.splits, lv.imap, np.zeros(lv.imap.n), r,
                                lv.k_global.shape[0])
    for s in lv.splits:
        local, interior_pos, _ = split_positions(lv.splits, lv.imap, s.index)
        idofs = local[interior_pos]
        kii = lv.k_local(s.index)[np.ix_(interior_pos, interior_pos)]
        assert np.allclose(kii @ z[idofs], r[idofs], atol=1e-12)
    assert np.max(np.abs(z[lv.imap.dofs])) == 0.0


def test_assembly_helpers_agree():
    # two one-member shape groups, pseudo-mesh elements 0 and 1
    # (fresh ones for each assembly, which takes their coarse matrices)
    k1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    k2 = np.array([[1.0, 0.5], [0.5, 1.0]])

    def groups():
        return [SimpleNamespace(subs=np.array([0]), kc=k1[None], dofs=np.array([[0, 1]])),
                SimpleNamespace(subs=np.array([1]), kc=k2[None], dofs=np.array([[1, 2]]))]

    taken = groups()
    full = assemble_coarse(taken, 1)
    assert all(g.kc is None for g in taken)
    one = Partition(1, np.array([0, 0]), "test")
    sub, keys = subassemble_coarse(groups(), one, 3, 1, np.zeros(0, dtype=np.int64))
    assert np.array_equal(keys, [0, 1, 2])
    assert np.allclose(full.scipy_csr().toarray(), sub.scipy_csr().toarray(), atol=1e-16)
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
    assert np.allclose(full.scipy_csr().toarray(), expected, atol=1e-15)


def group_major_sums(groups, part, dofs_per_node):
    """Per next-level subdomain j: sum_elements of its elements' coarse
    matrices, group by group and member by member, as one call sums them."""
    out = []
    for j in range(part.n_subdomains):
        blocks = [(g.kc[mine], g.dofs[mine]) for g in groups
                  for mine in [part.assignment[g.subs] == j] if mine.any()]
        out.append(sum_elements(blocks, dofs_per_node))
    return out


def test_stacked_coarse_assembly_is_block_diag_of_subdomains(elasticity3d_edges,
                                                              coarse_stacks):
    # level 2 of a 2x2x2 split: one call equals scipy's block_diag of
    # per-subdomain sums entry for entry, each summed in the same group-major
    # element order, rows and columns permuted to split order; keys are
    # (is interface, subdomain, coarse dof)
    level = make_bddc(elasticity3d_edges).levels[0]
    grid = build_pseudomesh(level.coarse, level.partition)
    part = partition_elements(grid, 2, method="auto")
    iface = interface_dofs(classify_interface(grid, part), grid.dofs_per_node)
    k, keys = subassemble_coarse(holding(level.groups, coarse_stacks), part, grid.n_dofs,
                                 grid.dofs_per_node, iface)
    per_sub = group_major_sums(holding(level.groups, coarse_stacks), part, grid.dofs_per_node)
    ref, ref_keys = stacked([k_j.scipy_csr() for k_j, _ in per_sub],
                            [ltg for _, ltg in per_sub], grid.n_dofs, iface)
    csr, ref = k.scipy_csr(), ref.scipy_csr()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(csr, attr), getattr(ref, attr))
    assert np.array_equal(keys, ref_keys) and iface.size


def test_coarse_assembly_from_interleaved_shape_groups(coarse_stacks):
    # 2D Poisson 12^2 on 16/4: the level-1 shape groups interleave in
    # subdomain order, so each level-2 subdomain takes elements from several
    # groups; one call over the group stacks keeps subdomain order and
    # equals per-subdomain sums in element order up to roundoff
    level = make_bddc(build_level1(ProblemSpec(kind="poisson", dim=2), 12, 16)).levels[0]
    grid = build_pseudomesh(level.coarse, level.partition)
    part, n = partition_elements(grid, 4, method="auto"), grid.n_dofs
    assert [g.subs.tolist() for g in level.groups] == \
        [[0, 3, 12, 15], [1, 2, 4, 7, 8, 11, 13, 14], [5, 6, 9, 10]]
    iface = interface_dofs(classify_interface(grid, part), 1)
    k, keys = subassemble_coarse(holding(level.groups, coarse_stacks), part, n, 1, iface)
    subs = level.subs
    per_sub = [sum_elements([(coarse_matrix(level, e, coarse_stacks), subs[e].coarse_dofs[None])
                             for e in part.elements_of(j)], 1) for j in range(4)]
    ref, ref_keys = stacked([k_j.scipy_csr() for k_j, _ in per_sub],
                            [ltg for _, ltg in per_sub], n, iface)
    assert np.array_equal(keys, ref_keys)
    assert np.all(np.diff(keys) > 0)
    csr, ref = k.scipy_csr(), ref.scipy_csr()
    assert np.array_equal(csr.indptr, ref.indptr) and np.array_equal(csr.indices, ref.indices)
    assert np.abs(csr.data - ref.data).max() <= 1e-14 * np.abs(ref.data).max()


@pytest.mark.parametrize("overrides", [
    ["problem=elasticity", "dim=3", "elements=6", "hierarchy=27/8"],
    ["problem=elasticity", "dim=2", "elements=12", "hierarchy=16/4"]],
    ids=["elasticity3d-27/8", "elasticity2d-16/4"])
def test_node_pair_assembly_equals_the_dof_pair_sum_on_every_level(overrides, coarse_stacks):
    # every level's (K, keys) and the top matrix, summed over node pairs of
    # dofs_per_node components, equal the sum of the same blocks with one
    # component per node (every dof its own node) bitwise, pattern included
    res = run_experiment(load_config(overrides=overrides))
    spec, mesh, dofmap, levels = res.spec, res.mesh, res.dofmap, res.preconditioner.levels
    assert spec.dofs_per_node == levels[0].coarse.dofs_per_node > 1
    part = levels[0].partition
    free = dofmap.full_to_free[node_dofs(mesh.elem_nodes, spec.dofs_per_node)]
    iface, n_subs = levels[0].imap.dofs, part.n_subdomains
    pairs = [(subassemble_subdomain(spec, mesh, dofmap, part, iface),
              sum_elements([(element_matrix(spec, mesh),
                             subdomain_keys(part.assignment[:, None], free, dofmap.n_free,
                                            n_subs, iface))], 1))]
    for prev, lv in zip(levels, levels[1:]):
        n, part, iface = lv.grid.n_dofs, lv.partition, lv.imap.dofs
        keys = [subdomain_keys(part.assignment[g.subs][:, None], g.dofs, n, part.n_subdomains,
                               iface) for g in prev.groups]
        pairs.append((subassemble_coarse(holding(prev.groups, coarse_stacks), part, n,
                                         lv.grid.dofs_per_node, iface),
                      sum_elements([(coarse_stacks[id(g)], k)
                                    for g, k in zip(prev.groups, keys)], 1)))
    top = levels[-1]
    k_top = assemble_coarse(holding(top.groups, coarse_stacks), top.coarse.dofs_per_node)
    pairs.append(((k_top, None), (sum_elements([(coarse_stacks[id(g)], g.dofs)
                                                for g in top.groups], 1)[0], None)))
    assert len(pairs) == 3
    for (k, keys), (k_ref, keys_ref) in pairs:
        assert k.shape[0] > 0 and np.array_equal(keys, keys_ref)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(k.scipy_csr(), attr), getattr(k_ref.scipy_csr(), attr))


def test_setup_hands_the_coarse_matrices_to_the_next_assembly(monkeypatch):
    # each level's coarse matrices are read once, by the next level's
    # assembly (the top one's for the last level), which takes them out of
    # their groups: every level-1 stack is freed before the level-2 sum's
    # first sort (its values live on in the sum's table only), a built
    # preconditioner holds none, and level 2's K and the top matrix are
    # bitwise those summed from copies of the stacks
    refs, copies, state, level2 = [], {}, {"level1": None, "summing": False}, []
    basis, subassemble = bddc.coarse_basis, bddc.subassemble_coarse
    tocsc = scipy.sparse.csr_matrix.tocsc

    def watched_basis(g, schur):
        basis(g, schur)
        refs.append(weakref.ref(g.kc))
        copies[id(g)] = g.kc.copy()

    def watched_subassemble(groups, *args):
        assert state["level1"] is None          # one coarse level below the top
        state["level1"], state["args"], state["summing"] = list(refs), args, True
        k, keys = subassemble(groups, *args)
        state["summing"] = False
        level2.append(k.scipy_csr().copy())
        return k, keys

    def watched_tocsc(self, *args, **kwargs):
        if state["summing"] and "dead" not in state:
            state["dead"] = [ref() is None for ref in state["level1"]]
        return tocsc(self, *args, **kwargs)

    monkeypatch.setattr(bddc, "coarse_basis", watched_basis)
    monkeypatch.setattr(bddc, "subassemble_coarse", watched_subassemble)
    monkeypatch.setattr(scipy.sparse.csr_matrix, "tocsc", watched_tocsc)
    prec = run_experiment(load_config(overrides=["problem=elasticity", "dim=3", "elements=6",
                                                 "hierarchy=27/8"])).preconditioner
    assert prec.n_levels == 3 and state["level1"] and all(state["dead"])
    assert len(refs) == len(copies) > len(state["level1"])
    assert all(ref() is None for ref in refs)
    assert all(g.kc is None for lv in prec.levels for g in lv.groups)
    first, top = prec.levels
    k, _ = subassemble(holding(first.groups, copies), *state["args"])
    k_top = assemble_coarse(holding(top.groups, copies), top.coarse.dofs_per_node)
    for got, ref in ((level2[0], k.scipy_csr()), (prec.top.matrix.scipy_csr(), k_top.scipy_csr())):
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))


def test_setup_rejects_weak_coarse_space(monkeypatch, capsys):
    # a final coarse matrix that is not positive definite (here -K) stops
    # the setup with exit code 3
    def negated(groups, dofs_per_node):
        k = assemble_coarse(groups, dofs_per_node)
        return replace(k, csr=-k.csr)
    monkeypatch.setattr(bddc, "assemble_coarse", negated)
    lv = build_level1(ProblemSpec(kind="poisson", dim=2), 8, 4)
    with pytest.raises(NumericalError, match=r"final coarse matrix \(13 dofs\) is not positive "
                                             r"definite .* too weak"):
        setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys))
    assert main(["solve", "--set", "elements=8", "--hierarchy", "4"]) == EXIT_NUMERICAL
    assert "numerical failure: final coarse matrix" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(12,), (14,), (13, 1)])
def test_apply_rejects_residual_of_wrong_shape(cross2d, shape):
    m = make_bddc(cross2d)
    assert cross2d.imap.n == 13
    with pytest.raises(ValueError, match="residual has shape"):
        m.apply(np.ones(shape))
