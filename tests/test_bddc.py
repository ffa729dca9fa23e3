"""Coarse bases and the multilevel preconditioner.

Hand-worked saddle fixtures: with S = I and C = [1 0], the basis column is
(1, 0) with coarse matrix [1]; with square invertible C the basis is C^-1
and the coarse matrix is psi^T S psi. On assembled fixtures the local
problems live on the interface, [S_i C_i^T; C_i 0]; the oracle is the full
dense bordered system [K_i C_i^T; C_i 0] with the constraint rows
zero-padded over the interior.
"""

import numpy as np
import pytest
import scipy.sparse

from conftest import build_level1
from mlbddc import bddc, sparse
from mlbddc.bddc import (
    ConstraintMatrix,
    MultilevelBddc,
    _local_schur,
    assemble_coarse,
    build_constraints,
    coarse_basis,
    interior_postcorrection,
    setup_bddc,
    subassemble_coarse,
)
from mlbddc.errors import NumericalError, SingularMatrixError
from mlbddc.fem import ProblemSpec
from mlbddc.partition import Partition, build_pseudomesh, partition_elements
from mlbddc.sparse import Factorization, SparseMatrix, sum_elements
from mlbddc.substructuring import SubdomainSplit
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
def corners2d():
    # one element per subdomain: every interface dof is a corner, so every
    # subdomain has no free dofs
    return build_level1(ProblemSpec(kind="poisson", dim=2), 4, 16, method="regular-blocks")


# -- coarse basis -------------------------------------------------------------

def test_basis_identity_matrix():
    k = np.eye(2)
    cmat = ConstraintMatrix(rows=np.array([[1.0, 0.0]]), tags=["corner"])
    _, _, psi, kc = coarse_basis(k, cmat)
    assert np.allclose(psi, [[1.0], [0.0]], atol=1e-14)
    assert np.allclose(kc, [[1.0]], atol=1e-14)


def test_basis_square_constraints_invert():
    k = np.diag([2.0, 3.0])
    c = np.array([[1.0, 1.0], [0.0, 1.0]])
    cmat = ConstraintMatrix(rows=c, tags=["corner", "corner"])
    _, _, psi, kc = coarse_basis(k, cmat)
    assert np.allclose(psi, np.linalg.inv(c), atol=1e-14)
    assert np.allclose(kc, [[2.0, -2.0], [-2.0, 5.0]], atol=1e-14)


def test_basis_no_constraints():
    k = np.diag([2.0, 3.0])
    cmat = ConstraintMatrix(rows=np.zeros((0, 2)), tags=[])
    _, z, psi, kc = coarse_basis(k, cmat)
    assert psi.shape == (2, 0)
    assert kc.shape == (0, 0)
    assert np.allclose(z @ np.array([2.0, 3.0]), [1.0, 1.0])


def test_basis_detects_singular_unconstrained():
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cmat = ConstraintMatrix(rows=np.zeros((0, 2)), tags=[])
    with pytest.raises(SingularMatrixError):
        coarse_basis(k, cmat)


def test_basis_caps_floating_kernel():
    # the same singular matrix becomes solvable with one point constraint;
    # the constant mode then carries zero energy
    k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    cmat = ConstraintMatrix(rows=np.array([[1.0, 0.0]]), tags=["corner"])
    _, _, psi, kc = coarse_basis(k, cmat)
    assert np.allclose(psi[:, 0], [1.0, 1.0], atol=1e-14)
    assert abs(kc[0, 0]) < 1e-14


def test_basis_without_interior_matches_full_solve():
    # a hand-built subdomain with interface dofs only, stored as the second
    # block of a block-diagonal CSR: S = K_BB = K, and psi and the coarse
    # matrix are those of the full bordered solve
    k = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    k_csr = scipy.sparse.block_diag([np.diag([4.0, 5.0]), k], format="csr")
    split = SubdomainSplit(1, np.array([3, 4, 7]), np.zeros(0, np.int64), np.arange(3), None)
    s = _local_schur(k_csr, 2, split, split.interface_pos)
    assert np.array_equal(s, k)
    c = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    cmat = ConstraintMatrix(rows=c, tags=["corner", "edge"])
    order = cmat.interface_order
    s = _local_schur(k_csr, 2, split, split.interface_pos[order])
    assert np.array_equal(s, k[np.ix_(order, order)])
    _, _, psi, kc = coarse_basis(s, cmat)
    bordered = np.block([[k, c.T], [c, np.zeros((2, 2))]])
    ref = np.linalg.solve(bordered, np.vstack([np.zeros((3, 2)), np.eye(2)]))
    assert rel_err(psi, ref[:3]) <= 1e-12
    assert rel_err(kc, -ref[3:]) <= 1e-12


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
    cmat = ConstraintMatrix(rows=c, tags=["edge", "corner", "corner", "face"])
    assert np.array_equal(cmat.free_dofs, [0, 1, 3, 4, 6])
    order = cmat.interface_order
    fact, z, psi, kc = coarse_basis(s[np.ix_(order, order)], cmat)
    assert fact.n == (7 - 2) + (4 - 2)
    bordered = np.block([[s, c.T], [c, np.zeros((4, 4))]])
    ref = np.linalg.solve(bordered, np.vstack([np.zeros((7, 4)), np.eye(4)]))
    assert rel_err(psi, ref[:7]) <= 1e-12
    assert rel_err(kc, -ref[7:]) <= 1e-12
    sub = bddc.SubdomainCoarse(constraints=cmat, bordered=fact, z=z, psi=psi,
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
        cmat = sub.constraints
        nc = cmat.n_constraints
        bordered, _ = full_local_problem(lv, split, cmat.rows)
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


def test_two_point_constraints_on_one_dof_are_singular(cross2d, monkeypatch):
    # both rows fix dof 0, so [S C^T; C 0] is singular; the reduction must
    # not let one overwrite the other
    c = np.array([[1.0, 0.0], [2.0, 0.0]])
    assert np.linalg.matrix_rank(np.block([[np.eye(2), c.T], [c, np.zeros((2, 2))]])) < 4
    with pytest.raises(SingularMatrixError):
        coarse_basis(np.eye(2), ConstraintMatrix(rows=c, tags=["corner", "corner"]))

    # in the pipeline, the setup names the level and the subdomain (exit 3);
    # the second corner row is made a copy of the first, so the row count
    # still matches the subdomain's coarse dofs
    def doubled(*args):
        cmat = build_constraints(*args)
        first, second = np.flatnonzero(np.array(cmat.tags) == "corner")[:2]
        rows = cmat.rows.copy()
        rows[second] = rows[first]
        return ConstraintMatrix(rows=rows, tags=cmat.tags)

    monkeypatch.setattr(bddc, "build_constraints", doubled)
    with pytest.raises(NumericalError, match="level 1, subdomain 0: constrained local "
                                             "problem is singular"):
        make_bddc(cross2d)


def test_constraint_rows(cross2d):
    lv = cross2d
    cs = lv.coarse_space()
    cmat = build_constraints(0, cs, lv.globset, lv.splits[0])
    assert cmat.n_constraints == 7
    assert cmat.tags == ["corner"] * 5 + ["face"] * 2
    assert np.allclose(cmat.rows.sum(axis=1), 1.0, atol=1e-15)
    # corner rows are unit vectors
    for row in cmat.rows[:5]:
        assert set(np.unique(row)) == {0.0, 1.0}
        assert row.sum() == 1.0


def test_constraint_rows_match_dense_lookup(elasticity3d_edges):
    # rows found by searching the sorted interface dofs equal rows placed
    # through a full level-dof lookup table, which puts nothing on the interior
    lv = elasticity3d_edges
    cs = lv.coarse_space()
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
        rows = build_constraints(i, cs, lv.globset, split).rows
        assert np.array_equal(rows, ref[:, split.interface_pos])


def test_constraint_rows_reject_nodes_outside_the_subdomain(cross2d):
    cs = cross2d.coarse_space()
    with pytest.raises(ValueError, match="outside the subdomain"):
        build_constraints(0, cs, cross2d.globset, cross2d.splits[3])


def test_basis_properties_on_fixture(cross2d):
    # psi is the interface part of the full local problem's basis, and the
    # coarse matrix is its energy psi^T S psi
    lv = cross2d
    m = make_bddc(lv)
    level = m.levels[0]
    for sub, split in zip(level.subs, level.splits):
        cmat = sub.constraints
        psi = sub.psi
        bordered, s = full_local_problem(lv, split, cmat.rows)
        nc = cmat.n_constraints
        ref = np.linalg.solve(bordered, np.vstack([np.zeros((split.n_local, nc)), np.eye(nc)]))
        assert rel_err(psi, ref[split.interface_pos]) <= 1e-12
        assert np.allclose(cmat.rows @ psi, np.eye(nc), atol=1e-11)
        assert np.allclose(sub.coarse_matrix, psi.T @ s @ psi, atol=1e-10)
        assert np.allclose(sub.coarse_matrix, sub.coarse_matrix.T, atol=1e-14)
        assert np.linalg.eigvalsh(sub.coarse_matrix).min() > 0


def test_basis_energy_minimality(cross2d):
    # among interface functions with the same constraint values, psi has the
    # least S energy
    lv = cross2d
    m = make_bddc(lv)
    level = m.levels[0]
    sub, split = level.subs[0], level.splits[0]
    c = sub.constraints.rows
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
    ("elasticity3d_edges", (2,)), ("corners2d", ())])
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
        for sub, s, a, b in zip(level.subs, level_schur_blocks(level), ends[:-1], ends[1:]):
            assert sub.bordered._payload is None
            # views into the stacks, not copies
            assert any(sub.psi.base is g.psi and sub.z.base is g.z for g in level.groups)
            c = sub.constraints.rows
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
        bordered, _ = full_local_problem(lv, split, sub.constraints.rows)
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
        assert np.linalg.norm(sub.constraints.rows @ z_b) <= 1e-12 * scale


@pytest.mark.parametrize("name", ["cross2d", "elasticity3d"])
def test_large_subdomains_eliminate_the_interior_sparsely(name, request, monkeypatch):
    # above DENSE_THRESHOLD local dofs the interior is eliminated with a
    # sparse K_II factor, never a dense copy of the subdomain block; S_i,
    # psi and the coarse matrices equal the dense path's
    lv = request.getfixturevalue(name)
    k_csr = lv.k.scipy_csr()
    los = np.cumsum([0] + [split.n_local for split in lv.splits[:-1]])
    dense = make_bddc(lv).levels[0]
    ifaces = [split.interface_pos[sub.constraints.interface_order]
              for split, sub in zip(lv.splits, dense.subs)]
    s_dense = [_local_schur(k_csr, lo, split, iface)
               for lo, split, iface in zip(los, lv.splits, ifaces)]
    # below every subdomain's order, at or above every bordered order: only
    # the elimination changes path, and the dense one is never reached
    threshold = max(sub.bordered.n for sub in dense.subs)
    assert threshold < min(split.n_local for split in lv.splits)
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", threshold)
    monkeypatch.setattr(bddc, "dpotrf", None)
    for lo, split, iface, s in zip(los, lv.splits, ifaces, s_dense):
        assert rel_err(_local_schur(k_csr, lo, split, iface), s) <= 1e-12
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
            assert sub.psi.shape == sub.constraints.rows.shape[::-1] == (n_b, n_c)


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
