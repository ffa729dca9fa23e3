"""Coarse bases and the multilevel preconditioner.

Hand-worked saddle fixtures: with S = I and C = [1 0], the basis column is
(1, 0) with coarse matrix [1]; with square invertible C the basis is C^-1
and the coarse matrix is psi^T S psi. On assembled fixtures the local
problems live on the interface, [S_i C_i^T; C_i 0]; the oracle is the full
dense bordered system [K_i C_i^T; C_i 0] with the constraint rows
zero-padded over the interior.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import build_level1
from mlbddc import bddc, sparse
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
from mlbddc.errors import NumericalError, SingularMatrixError
from mlbddc.fem import ProblemSpec
from mlbddc.krylov import pcg
from mlbddc.partition import Partition, build_pseudomesh, partition_elements
from mlbddc.sparse import Factorization, SparseMatrix, sum_elements
from mlbddc.substructuring import build_splits, schur_apply
from test_substructuring import dense_schur_parts


def make_bddc(lv, coarse_counts=(), **kw):
    return setup_bddc(lv.grid, lv.part, lv.k, lv.keys,
                      coarse_counts, **kw)


def full_local_problem(lv, split, rows_b):
    """Subdomain split's dense oracle: the full bordered matrix
    [K C^T; C 0] (constraint rows over the interface zero-padded to all
    local dofs) and the interface Schur complement S by dense elimination."""
    kd = lv.k_local(split.index)
    i, b = split.interior_pos, split.interface_pos
    c = np.zeros((rows_b.shape[0], split.n_local))
    c[:, b] = rows_b
    bordered = np.block([[kd, c.T], [c, np.zeros((c.shape[0], c.shape[0]))]])
    kib = kd[np.ix_(i, b)]
    s = kd[np.ix_(b, b)] - kib.T @ np.linalg.solve(kd[np.ix_(i, i)], kib)
    return bordered, s


def rel_err(a, ref):
    return np.linalg.norm(a - ref) / np.linalg.norm(ref)


def hand_constraints(rows_list, tags_list):
    """LevelConstraints of hand-written dense constraint rows, one (rows,
    tags) pair per subdomain, columns over each one's interface; returns it
    with the stacked interface offsets."""
    nb = [rows.shape[1] for rows in rows_list]
    iface_offsets = np.concatenate([[0], np.cumsum(nb)])
    starts = np.concatenate([[0], np.cumsum([rows.shape[0] for rows in rows_list])])
    stacked = scipy.linalg.block_diag(*rows_list)
    row, col = np.nonzero(stacked)
    cons = LevelConstraints(starts=starts, tags=np.array(sum(tags_list, []), dtype=str),
                            dofs=np.arange(starts[-1]), row=row, col=col, val=stacked[row, col])
    return cons, iface_offsets


def hand_basis(s, c, tags):
    """coarse_basis of one subdomain, as a one-member shape group: S over
    its interface (interface_pos order) and constraint rows c. Returns the
    group and the member's (record, z, psi, coarse matrix)."""
    g, = _shape_groups(*hand_constraints([c], [tags]))
    order = g.order[0]
    fact, = coarse_basis(g, [s[np.ix_(order, order)]])
    return g, (fact, g.z[0], g.psi[0], g.kc[0])


def constraint_rows(level, i):
    """Subdomain i's constraint rows over its interface, dense, from its
    shape group."""
    for g in level.groups:
        j = np.flatnonzero(g.subs == i)
        if j.size:
            nc = g.tags.shape[1]
            return g.rows[j[0] * nc:(j[0] + 1) * nc].toarray()
    raise KeyError(i)


def dense_rows(cons, iface_offsets, i):
    """Subdomain i's rows of level constraints cons, dense over its interface."""
    lo, hi = cons.starts[i], cons.starts[i + 1]
    rows = np.zeros((hi - lo, iface_offsets[i + 1] - iface_offsets[i]))
    mine = (cons.row >= lo) & (cons.row < hi)
    rows[cons.row[mine] - lo, cons.col[mine] - iface_offsets[i]] = cons.val[mine]
    return rows


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
    _, (_, _, psi, kc) = hand_basis(np.eye(2), np.array([[1.0, 0.0]]), ["corner"])
    assert np.allclose(psi, [[1.0], [0.0]], atol=1e-14)
    assert np.allclose(kc, [[1.0]], atol=1e-14)


def test_basis_square_constraints_invert():
    k = np.diag([2.0, 3.0])
    c = np.array([[1.0, 1.0], [0.0, 1.0]])
    _, (_, _, psi, kc) = hand_basis(k, c, ["corner", "corner"])
    assert np.allclose(psi, np.linalg.inv(c), atol=1e-14)
    assert np.allclose(kc, [[2.0, -2.0], [-2.0, 5.0]], atol=1e-14)


def test_basis_no_constraints():
    k = np.diag([2.0, 3.0])
    _, (_, z, psi, kc) = hand_basis(k, np.zeros((0, 2)), [])
    assert psi.shape == (2, 0)
    assert kc.shape == (0, 0)
    assert np.allclose(z @ np.array([2.0, 3.0]), [1.0, 1.0])


def test_basis_detects_singular_unconstrained():
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(SingularMatrixError, match="subdomain 0: constrained local problem"):
        hand_basis(k, np.zeros((0, 2)), [])


def test_basis_caps_floating_kernel():
    # the same singular matrix becomes solvable with one point constraint;
    # the constant mode then carries zero energy
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    _, (_, _, psi, kc) = hand_basis(k, np.array([[1.0, 0.0]]), ["corner"])
    assert np.allclose(psi[:, 0], [1.0, 1.0], atol=1e-14)
    assert abs(kc[0, 0]) < 1e-14


def test_basis_without_interior_matches_full_solve():
    # a hand-built level of two subdomains: 0 has interior dofs only, 1
    # has interface dofs only, so its S = K_BB = K, and psi and the coarse
    # matrix are those of the full bordered solve
    k = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    blocks = SparseMatrix.from_scipy(scipy.sparse.block_diag([np.diag([4.0, 5.0]), k]),
                                     symmetric=True)
    splits, _ = build_splits(blocks, np.array([0, 1, 8 + 3, 8 + 4, 8 + 7]), [3, 4, 7], 8)
    c = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    cons, iface_offsets = hand_constraints([np.zeros((0, 0)), c], [[], ["corner", "edge"]])
    assert np.array_equal(iface_offsets, splits.iface_offsets)
    g = [g for g in _shape_groups(cons, iface_offsets) if 1 in g.subs][0]
    order = g.order[0]
    s, = _local_schur(blocks.scipy_csr(), splits, g)
    assert np.array_equal(s, k[np.ix_(order, order)])
    coarse_basis(g, [s])
    bordered = np.block([[k, c.T], [c, np.zeros((2, 2))]])
    ref = np.linalg.solve(bordered, np.vstack([np.zeros((3, 2)), np.eye(2)]))
    assert rel_err(g.psi[0], ref[:3]) <= 1e-12
    assert rel_err(g.kc[0], -ref[3:]) <= 1e-12


def test_local_schur_reads_members_of_different_sizes():
    # two subdomains of one shape whose interiors differ in size (1 and 2
    # dofs): each member's S is its own dense elimination
    rng = np.random.default_rng(41)
    mats = []
    for n in (3, 4):
        q = rng.standard_normal((n, n))
        mats.append(q @ q.T + n * np.eye(n))
    blocks = SparseMatrix.from_scipy(scipy.sparse.block_diag(mats), symmetric=True)
    # subdomain 0: dofs 0, 1, 2 (interior 1); subdomain 1: dofs 1, 2, 3, 4
    # (interior 3, 4); interface dofs 1 and 2
    keys = np.concatenate([[0, 1, 2], 10 + np.array([1, 2, 3, 4])])
    splits, _ = build_splits(blocks, keys, [1, 2], 10)
    c = np.array([[0.0, 1.0]])
    cons, iface_offsets = hand_constraints([c, c], [["corner"], ["corner"]])
    g, = _shape_groups(cons, iface_offsets)
    assert np.array_equal(g.subs, [0, 1])
    for kd, s, interior in zip(mats, _local_schur(blocks.scipy_csr(), splits, g),
                               ([0], [2, 3])):
        b = [1, 2] if interior == [0] else [0, 1]
        ref = kd[np.ix_(b, b)] - kd[np.ix_(interior, b)].T @ np.linalg.solve(
            kd[np.ix_(interior, interior)], kd[np.ix_(interior, b)])
        assert rel_err(s, ref[np.ix_(g.order[0], g.order[0])]) <= 1e-13


def test_point_constraints_inside_averages_match_full_solve():
    # corners fix dofs 5 (row value 2) and 2, both also in an average's
    # support (C_ap != 0); the reduced factor drops both dofs and both point
    # rows, and psi, the coarse matrix and the constrained solve equal the
    # full bordered solve of [S C^T; C 0]
    rng = np.random.default_rng(23)
    q = rng.standard_normal((7, 7))
    s = q @ q.T + 7.0 * np.eye(7)
    c = np.zeros((4, 7))
    c[0, [1, 2, 3]] = 1.0 / 3.0       # edge average over the corner dof 2
    c[1, 5] = 2.0                     # corner
    c[2, 2] = 1.0                     # corner
    c[3, [4, 5, 6]] = 1.0 / 3.0       # face average over the corner dof 5
    tags = ["edge", "corner", "corner", "face"]
    g, (fact, z, psi, kc) = hand_basis(s, c, tags)
    free = g.order[0, :5]
    assert np.array_equal(free, [0, 1, 3, 4, 6])
    assert fact.n == (7 - 2) + (4 - 2)
    # the record keeps the reduced bordered matrix as a canonical CSR of
    # its nonzeros
    c_af = c[np.ix_([0, 3], free)]
    reduced = np.block([[s[np.ix_(free, free)], c_af.T], [c_af, np.zeros((2, 2))]])
    record = fact.matrix.scipy_csr()
    assert record.has_canonical_format and fact.matrix.symmetric
    assert record.nnz == np.count_nonzero(reduced)
    assert np.array_equal(record.toarray(), reduced)
    bordered = np.block([[s, c.T], [c, np.zeros((4, 4))]])
    ref = np.linalg.solve(bordered, np.vstack([np.zeros((7, 4)), np.eye(4)]))
    assert rel_err(psi, ref[:7]) <= 1e-12
    assert rel_err(kc, -ref[7:]) <= 1e-12
    cons = bddc.SubdomainConstraints(tags=tags, free_dofs=free)
    sub = bddc.SubdomainCoarse(constraints=cons, bordered=fact, z=z, psi=psi,
                               coarse_matrix=kc, coarse_dofs=np.arange(4))
    r_b = rng.standard_normal(7)
    z_b, mu = sub.constrained_solve(r_b)
    ref = np.linalg.solve(bordered, np.concatenate([r_b, np.zeros(4)]))
    assert rel_err(z_b, ref[:7]) <= 1e-12
    assert rel_err(mu, ref[7:]) <= 1e-12
    assert z_b[2] == z_b[5] == 0.0


def test_fully_corner_determined_subdomains_match_full_solve(corners2d):
    # 2D Poisson with one element per subdomain: every interface dof is a
    # corner, so each reduced factor has order 0, z_b = 0, and psi and the
    # coarse matrix still equal the full bordered solve
    lv = corners2d
    level = make_bddc(lv).levels[0]
    rng = np.random.default_rng(29)
    for sub, split in zip(level.subs, level.splits):
        assert sub.bordered.n == 0 and sub.constraints.free_dofs.size == 0
        nc = sub.constraints.n_constraints
        bordered, _ = full_local_problem(lv, split, constraint_rows(level, split.index))
        ref = np.linalg.solve(bordered, np.vstack([np.zeros((split.n_local, nc)), np.eye(nc)]))
        assert rel_err(sub.psi, ref[split.interface_pos]) <= 1e-12
        assert rel_err(sub.coarse_matrix, -ref[split.n_local:]) <= 1e-12
        r_b = rng.standard_normal(split.interface_pos.size)
        rhs = np.zeros(bordered.shape[0])
        rhs[split.interface_pos] = r_b
        ref = np.linalg.solve(bordered, rhs)
        z_b, mu = sub.constrained_solve(r_b)
        assert not z_b.any()
        assert rel_err(mu, ref[split.n_local:]) <= 1e-12


def test_two_point_constraints_on_one_dof_are_singular(dirichlet_x2d, monkeypatch):
    # both rows fix dof 0, so [S C^T; C 0] is singular; the reduction must
    # not let one overwrite the other
    c = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert np.linalg.matrix_rank(np.block([[np.eye(2), c.T], [c, np.zeros((2, 2))]])) < 4
    with pytest.raises(SingularMatrixError):
        hand_basis(np.eye(2), c, ["corner", "corner"])

    # in the pipeline, the setup names the level and the subdomain (exit 3),
    # not its slot in its shape group: the second corner row of the last
    # member of a group of several (so neither subdomain 0 nor slot 0) is
    # made a copy of the first, so the row count still matches the
    # subdomain's coarse dofs
    lv = dirichlet_x2d
    group = max(make_bddc(lv).levels[0].groups, key=lambda g: g.subs.size)
    assert group.subs.size >= 2
    victim = int(group.subs[-1])

    def doubled(*args):
        cons = build_constraints(*args)
        rows = np.arange(cons.starts[victim], cons.starts[victim + 1])
        first, second = rows[cons.tags[rows] == "corner"][:2]
        cons.col[cons.row == second] = cons.col[cons.row == first]
        return cons

    monkeypatch.setattr(bddc, "build_constraints", doubled)
    with pytest.raises(NumericalError, match=f"level 1, subdomain {victim}: constrained "
                                             f"local problem is singular"):
        make_bddc(lv)


def test_constraint_rows(cross2d):
    lv = cross2d
    cs = lv.coarse_space()
    cons = build_constraints(cs, lv.globset, lv.splits, lv.imap)
    rows = dense_rows(cons, lv.splits.iface_offsets, 0)
    assert rows.shape[0] == 7
    assert cons.tags[:7].tolist() == ["corner"] * 5 + ["face"] * 2
    assert np.array_equal(cons.dofs[:7], cs.sub_dofs(0))
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-15)
    # corner rows are unit vectors
    for row in rows[:5]:
        assert set(np.unique(row)) == {0.0, 1.0}
        assert row.sum() == 1.0


def test_constraint_rows_match_dense_lookup(elasticity3d_edges):
    # rows found by searching the sorted interface dofs equal rows placed
    # through a full level-dof lookup table, which puts nothing on the interior
    lv = elasticity3d_edges
    cs = lv.coarse_space()
    cons = build_constraints(cs, lv.globset, lv.splits, lv.imap)
    for i, split in enumerate(lv.splits):
        local_of = np.full(lv.grid.n_dofs, -1)
        local_of[split.local_dofs] = np.arange(split.n_local)
        ref = []
        for cn in cs.sub_nodes[i]:
            members = (cs.glob_members[cn - cs.n_corners] if cn >= cs.n_corners
                       else cs.corner_nodes[cn:cn + 1])
            for comp in range(cs.dofs_per_node):
                row = np.zeros(split.n_local)
                row[local_of[members * cs.dofs_per_node + comp]] = 1.0 / members.size
                ref.append(row)
        ref = np.array(ref)
        assert not ref[:, split.interior_pos].any()
        rows = dense_rows(cons, lv.splits.iface_offsets, i)
        assert np.array_equal(rows, ref[:, split.interface_pos])


def test_constraint_rows_reject_nodes_outside_the_subdomain(cross2d):
    # subdomain 0 given subdomain 3's coarse nodes
    cs = cross2d.coarse_space()
    cs = replace(cs, sub_nodes=[cs.sub_nodes[3], *cs.sub_nodes[1:]])
    with pytest.raises(ValueError, match="subdomain 0: constraint node outside the subdomain"):
        build_constraints(cs, cross2d.globset, cross2d.splits, cross2d.imap)


def test_basis_properties_on_fixture(cross2d):
    # psi is the interface part of the full local problem's basis, and the
    # coarse matrix is its energy psi^T S psi
    lv = cross2d
    m = make_bddc(lv)
    level = m.levels[0]
    for sub, split in zip(level.subs, level.splits):
        rows = constraint_rows(level, split.index)
        psi = sub.psi
        bordered, s = full_local_problem(lv, split, rows)
        nc = sub.constraints.n_constraints
        ref = np.linalg.solve(bordered, np.vstack([np.zeros((split.n_local, nc)), np.eye(nc)]))
        assert rel_err(psi, ref[split.interface_pos]) <= 1e-12
        assert np.allclose(rows @ psi, np.eye(nc), atol=1e-11)
        assert np.allclose(sub.coarse_matrix, psi.T @ s @ psi, atol=1e-10)
        assert np.allclose(sub.coarse_matrix, sub.coarse_matrix.T, atol=1e-14)
        assert np.linalg.eigvalsh(sub.coarse_matrix).min() > 0


def test_group_setup_matches_full_local_problems(dirichlet_x2d):
    # subdomains of different local sizes, set up shape group by shape
    # group: each one's z, psi and coarse matrix equal the dense full
    # bordered solve of [K C^T; C 0] (z: its free-dof block for right-hand
    # sides zero on the interior and on the fixed dofs)
    lv = dirichlet_x2d
    level = make_bddc(lv).levels[0]
    assert len({split.n_local for split in lv.splits}) > 1
    assert len(level.groups) > 1 and max(g.subs.size for g in level.groups) > 1
    for sub, split in zip(level.subs, level.splits):
        rows = constraint_rows(level, split.index)
        bordered, _ = full_local_problem(lv, split, rows)
        inv = np.linalg.inv(bordered)
        nc = rows.shape[0]
        free = split.interface_pos[sub.constraints.free_dofs]
        # measured against the whole inverse: a z fully fixed by averages is 0
        tol = 1e-12 * np.abs(inv).max()
        assert np.abs(sub.z - inv[np.ix_(free, free)]).max(initial=0.0) <= tol
        assert np.abs(sub.psi - inv[split.interface_pos, split.n_local:]).max() <= tol
        assert np.abs(sub.coarse_matrix + inv[split.n_local:, split.n_local:]).max() <= tol
        assert np.array_equal(sub.coarse_dofs, level.coarse.sub_dofs(split.index))
        assert sub.bordered.n == sub.z.shape[0] + nc - (rows.shape[1] - sub.z.shape[0])


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
    for k in range(sub.constraints.n_constraints):
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
    """Each subdomain's interface Schur complement (interface_pos order), by
    dense elimination of the level's stacked K_II, K_IB and K_BB."""
    sp = level.splits
    k_ib = sp.k_ib.toarray()
    s = sp.k_bb.toarray() - k_ib.T @ np.linalg.solve(
        sp.k_ii_fact.matrix.scipy_csr().toarray(), k_ib)
    ends = np.cumsum([0] + [split.interface_pos.size for split in sp])
    return [s[a:b, a:b] for a, b in zip(ends[:-1], ends[1:])]


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
        assert sum(g.z.shape[0] for g in level.groups) == len(level.subs)
        z_c = rng.standard_normal(level.n_coarse_dofs)
        r_hat = rng.standard_normal(level.imap.n)
        r_b = level.weights * r_hat[level.splits.iface_index]
        ends = np.cumsum([0] + [split.interface_pos.size for split in level.splits])
        r_c, v_b = np.zeros(level.n_coarse_dofs), []
        for i, (sub, s, a, b) in enumerate(zip(level.subs, level_schur_blocks(level),
                                               ends[:-1], ends[1:])):
            assert sub.bordered._payload is None
            # views into the stacks, not copies
            assert any(sub.psi.base is g.psi and sub.z.base is g.z for g in level.groups)
            c = constraint_rows(level, i)
            nb, nc = b - a, c.shape[0]
            bordered = np.block([[s, c.T], [c, np.zeros((nc, nc))]])
            ref = np.linalg.solve(bordered, np.column_stack([
                np.vstack([np.zeros((nb, nc)), np.eye(nc)]),
                np.concatenate([r_b[a:b], np.zeros(nc)])]))
            psi, pair = ref[:nb, :nc], ref[:, nc]
            assert rel_err(sub.psi, psi) <= 1e-12
            z_b, mu = sub.constrained_solve(r_b[a:b])
            assert rel_err(np.concatenate([z_b, mu]), pair) <= 1e-12
            np.add.at(r_c, sub.coarse_dofs, pair[nb:])
            v_b.append(pair[:nb] + psi @ z_c[sub.coarse_dofs])
        ref_out = level.splits.gather(level.weights * np.concatenate(v_b), level.imap.n)
        seen = []

        def fixed_coarse_correction(lj, r, seen=seen, z_c=z_c):
            seen.append(r)
            return z_c

        monkeypatch.setattr(m, "_full_apply", fixed_coarse_correction)
        out = m._interface_apply(li, r_hat)
        monkeypatch.undo()
        assert rel_err(seen[0], r_c) <= 1e-12
        assert rel_err(out, ref_out) <= 1e-12


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
    # constraints (dense and sparse factors)
    if dense_threshold is not None:
        monkeypatch.setattr(sparse, "DENSE_THRESHOLD", dense_threshold)
    lv = request.getfixturevalue(name)
    level = make_bddc(lv).levels[0]
    rng = np.random.default_rng(17)
    for sub, split in zip(level.subs, level.splits):
        r_b = rng.standard_normal(split.interface_pos.size)
        z_b, mu = sub.constrained_solve(r_b)
        rows = constraint_rows(level, split.index)
        bordered, _ = full_local_problem(lv, split, rows)
        rhs = np.zeros(bordered.shape[0])
        rhs[split.interface_pos] = r_b
        ref = np.linalg.solve(bordered, rhs)
        # the pair (z_b, mu) is measured as one vector: with as many
        # constraints as interface dofs (cross2d), z_b alone is zero
        pair = np.concatenate([ref[split.interface_pos], ref[split.n_local:]])
        assert rel_err(np.concatenate([z_b, mu]), pair) <= 1e-12
        assert rel_err(mu, sub.psi.T @ r_b) <= 1e-12
        n_b, n_c = z_b.size, mu.size
        scale = np.linalg.norm(pair) if n_b == n_c else np.linalg.norm(z_b)
        assert np.linalg.norm(rows @ z_b) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["cross2d", "elasticity3d"])
def test_large_subdomains_eliminate_the_interior_sparsely(name, request, monkeypatch):
    # above DENSE_THRESHOLD local dofs the interior is eliminated with a
    # sparse K_II factor, never a dense copy of the subdomain block; S_i,
    # psi and the coarse matrices equal the dense path's
    lv = request.getfixturevalue(name)
    k_csr = lv.k.scipy_csr()
    dense = make_bddc(lv).levels[0]
    s_dense = [list(_local_schur(k_csr, lv.splits, g)) for g in dense.groups]
    # below every subdomain's order, at or above every bordered order: only
    # the elimination changes path, and the dense one is never reached
    threshold = max(sub.bordered.n for sub in dense.subs)
    assert threshold < min(split.n_local for split in lv.splits)
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", threshold)
    monkeypatch.setattr(bddc, "dpotrf", None)
    for g, ref in zip(dense.groups, s_dense):
        for s, s_ref in zip(_local_schur(k_csr, lv.splits, g), ref, strict=True):
            assert rel_err(s, s_ref) <= 1e-12
    for sub, ref in zip(make_bddc(lv).levels[0].subs, dense.subs):
        assert sub.bordered.method == ref.bordered.method == "bunch-kaufman"
        assert rel_err(sub.psi, ref.psi) <= 1e-12
        assert rel_err(sub.coarse_matrix, ref.coarse_matrix) <= 1e-12


@pytest.mark.parametrize("name,coarse_counts", [("cross2d", (2,)), ("elasticity3d_edges", ())])
def test_bordered_factors_are_interface_sized(name, coarse_counts, request):
    # every level factors [S_ff C_af^T; C_af 0]: each corner removes its
    # interface dof and its multiplier row from [S C^T; C 0] (order
    # n_B + n_c), never the full bordered matrix of order n_local + n_c
    m = make_bddc(request.getfixturevalue(name), coarse_counts=coarse_counts)
    assert m.n_levels == len(coarse_counts) + 2
    for level in m.levels:
        for sub, split in zip(level.subs, level.splits):
            n_b, n_c = split.interface_pos.size, sub.constraints.n_constraints
            n_corner = sub.constraints.tags.count("corner")
            assert n_corner > 0
            assert sub.bordered.n == (n_b - n_corner) + (n_c - n_corner)
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
        idofs = s.local_dofs[s.interior_pos]
        kii = lv.k_local(s.index)[np.ix_(s.interior_pos, s.interior_pos)]
        assert np.allclose(kii @ z[idofs], r[idofs], atol=1e-12)
    assert np.max(np.abs(z[lv.imap.dofs])) == 0.0


def test_assembly_helpers_agree():
    k1 = np.array([[2.0, -1.0], [-1.0, 2.0]])
    k2 = np.array([[1.0, 0.5], [0.5, 1.0]])
    full = assemble_coarse([k1, k2], [np.array([0, 1]), np.array([1, 2])])
    one = Partition(1, np.array([0, 0]), "test")
    sub, keys = subassemble_coarse([k1, k2], [np.array([0, 1]), np.array([1, 2])], one, 3)
    assert np.array_equal(keys, [0, 1, 2])
    assert np.allclose(full.scipy_csr().toarray(), sub.scipy_csr().toarray(), atol=1e-16)
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 3.0, 0.5], [0.0, 0.5, 1.0]])
    assert np.allclose(full.scipy_csr().toarray(), expected, atol=1e-15)


def test_stacked_coarse_assembly_is_block_diag_of_subdomains(elasticity3d_edges):
    # level 2 of a 2x2x2 split: one call equals scipy's block_diag of
    # per-subdomain sums entry for entry; keys are (subdomain, coarse dof)
    level = make_bddc(elasticity3d_edges).levels[0]
    grid = build_pseudomesh(level.coarse, level.partition, 3)
    part = partition_elements(grid, 2, method="auto")
    k_elems = [sub.coarse_matrix for sub in level.subs]
    dof_lists = [sub.coarse_dofs for sub in level.subs]
    k, keys = subassemble_coarse(k_elems, dof_lists, part, grid.n_dofs)
    per_sub = [sum_elements([(k_elems[e], dof_lists[e][None]) for e in part.elements_of(j)])
               for j in range(2)]
    ref = scipy.sparse.block_diag([k_j.scipy_csr() for k_j, _ in per_sub], format="csr")
    csr = k.scipy_csr()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(csr, attr), getattr(ref, attr))
    sub, dofs = np.divmod(keys, grid.n_dofs)
    assert np.array_equal(sub, np.repeat([0, 1], [ltg.size for _, ltg in per_sub]))
    assert np.array_equal(dofs, np.concatenate([ltg for _, ltg in per_sub]))


def test_setup_rejects_weak_coarse_space():
    # a singular final coarse matrix is reported as a numerical failure
    with pytest.raises(NumericalError):
        k = assemble_coarse([np.zeros((1, 1))], [np.array([0])])
        from mlbddc.sparse import factorize
        factorize(k, "spd")
