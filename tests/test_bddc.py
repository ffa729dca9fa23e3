"""Coarse bases and the multilevel preconditioner.

Hand-worked saddle fixtures: with K = I and C = [1 0], the basis column is
(1, 0) with coarse matrix [1]; with square invertible C the basis is C^-1
and the coarse matrix is psi^T K psi.
"""

import numpy as np
import pytest
import scipy.sparse

from conftest import build_level1
from mlbddc import sparse
from mlbddc.bddc import (
    ConstraintMatrix,
    MultilevelBddc,
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
from test_substructuring import dense_schur_parts


def make_bddc(lv, coarse_counts=(), **kw):
    return setup_bddc(lv.grid, lv.part, lv.k, lv.keys,
                      coarse_counts, **kw)


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


# -- coarse basis -------------------------------------------------------------

def test_basis_identity_matrix():
    k = scipy.sparse.csr_matrix(np.eye(2))
    cmat = ConstraintMatrix(rows=np.array([[1.0, 0.0]]), tags=["corner"])
    _, psi, kc = coarse_basis(k, cmat)
    assert np.allclose(psi, [[1.0], [0.0]], atol=1e-14)
    assert np.allclose(kc, [[1.0]], atol=1e-14)


def test_basis_square_constraints_invert():
    k = scipy.sparse.csr_matrix(np.diag([2.0, 3.0]))
    c = np.array([[1.0, 1.0], [0.0, 1.0]])
    cmat = ConstraintMatrix(rows=c, tags=["corner", "corner"])
    _, psi, kc = coarse_basis(k, cmat)
    assert np.allclose(psi, np.linalg.inv(c), atol=1e-14)
    assert np.allclose(kc, [[2.0, -2.0], [-2.0, 5.0]], atol=1e-14)


def test_basis_no_constraints():
    k = scipy.sparse.csr_matrix(np.diag([2.0, 3.0]))
    cmat = ConstraintMatrix(rows=np.zeros((0, 2)), tags=[])
    fact, psi, kc = coarse_basis(k, cmat)
    assert psi.shape == (2, 0)
    assert kc.shape == (0, 0)
    assert np.allclose(fact.solve(np.array([2.0, 3.0])), [1.0, 1.0])


def test_basis_detects_singular_unconstrained():
    k = scipy.sparse.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    cmat = ConstraintMatrix(rows=np.zeros((0, 2)), tags=[])
    with pytest.raises(SingularMatrixError):
        coarse_basis(k, cmat)


def test_basis_caps_floating_kernel():
    # the same singular matrix becomes solvable with one point constraint;
    # the constant mode then carries zero energy
    k = scipy.sparse.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    cmat = ConstraintMatrix(rows=np.array([[1.0, 0.0]]), tags=["corner"])
    _, psi, kc = coarse_basis(k, cmat)
    assert np.allclose(psi[:, 0], [1.0, 1.0], atol=1e-14)
    assert abs(kc[0, 0]) < 1e-14


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
    # rows found by searching the sorted local dofs equal rows placed through
    # a full level-dof lookup table
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
        rows = build_constraints(i, cs, lv.globset, split).rows
        assert np.array_equal(rows, np.array(ref))


def test_constraint_rows_reject_nodes_outside_the_subdomain(cross2d):
    cs = cross2d.coarse_space()
    with pytest.raises(ValueError, match="outside the subdomain"):
        build_constraints(0, cs, cross2d.globset, cross2d.splits[3])


def test_basis_properties_on_fixture(cross2d):
    lv = cross2d
    m = make_bddc(lv)
    level = m.levels[0]
    for i, sub in enumerate(level.subs):
        cmat = sub.constraints
        psi = sub.psi
        assert np.allclose(cmat.rows @ psi, np.eye(cmat.n_constraints), atol=1e-11)
        kd = lv.k_local(i)
        assert np.allclose(sub.coarse_matrix, psi.T @ kd @ psi, atol=1e-10)
        assert np.allclose(sub.coarse_matrix, sub.coarse_matrix.T, atol=1e-14)
        assert np.linalg.eigvalsh(sub.coarse_matrix).min() > 0


def test_basis_energy_minimality(cross2d):
    lv = cross2d
    m = make_bddc(lv)
    level = m.levels[0]
    sub = level.subs[0]
    kd = lv.k_local(0)
    c = sub.constraints.rows
    proj = np.eye(c.shape[1]) - np.linalg.pinv(c) @ c
    rng = np.random.default_rng(11)
    for k in range(sub.constraints.n_constraints):
        psi_k = sub.psi[:, k]
        base = psi_k @ kd @ psi_k
        for _ in range(3):
            y = psi_k + proj @ rng.standard_normal(c.shape[1])
            assert y @ kd @ y >= base - 1e-10


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
    # every factor was checked once at setup: inside the apply, each solve is
    # one factor solve that reads no matrix (no per-solve residual check)
    m = make_bddc(cross2d, coarse_counts=(2,))
    assert m.n_levels == 3
    calls = {"solve": 0, "raw": 0, "csr_in_solve": 0}
    inside = [0]
    solve, raw, csr = Factorization.solve, Factorization._raw_solve, SparseMatrix.scipy_csr

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

    monkeypatch.setattr(Factorization, "solve", counted_solve)
    monkeypatch.setattr(Factorization, "_raw_solve", counted_raw)
    monkeypatch.setattr(SparseMatrix, "scipy_csr", counted_csr)
    m.apply(np.random.default_rng(5).standard_normal(cross2d.imap.n))
    assert calls["solve"] > sum(len(lv.subs) for lv in m.levels)
    assert calls["raw"] == calls["solve"]
    assert calls["csr_in_solve"] == 0


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
    # symmetric bordered matrix: the multipliers of [K C^T; C 0][z; mu] = [r; 0]
    # are psi^T r, and z satisfies the constraints (dense and sparse factors)
    if dense_threshold is not None:
        monkeypatch.setattr(sparse, "DENSE_THRESHOLD", dense_threshold)
    lv = request.getfixturevalue(name)
    level = make_bddc(lv).levels[0]
    rng = np.random.default_rng(17)
    for sub, split in zip(level.subs, level.splits):
        r = rng.standard_normal(split.n_local)
        z, mu = sub.constrained_solve(r)
        ref = sub.psi.T @ r
        assert np.linalg.norm(mu - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(sub.constraints.rows @ z) <= 1e-12 * np.linalg.norm(z)


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
