"""Sparse kernel tests: CSR storage, element sums and factorizations."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from mlbddc import sparse
from mlbddc.errors import NotPositiveDefiniteError, NumericalError, SingularMatrixError
from mlbddc.sparse import (
    REFINE_TOL,
    Factorization,
    SparseMatrix,
    factorize,
    sum_elements,
)


def tridiag_matrix(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 2.0
        if i + 1 < n:
            a[i, i + 1] = -1.0
            a[i + 1, i] = -1.0
    return SparseMatrix.from_scipy(a, symmetric=True)


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


def test_from_scipy_stores_one_canonical_csr():
    # duplicates summed, indices sorted, and no copy of the index arrays
    # beside the CSR it wraps
    coo = scipy.sparse.coo_matrix(([1.0, 2.0, 3.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    a = SparseMatrix.from_scipy(coo)
    assert a.scipy_csr().has_canonical_format
    assert a.scipy_csr().toarray().tolist() == [[0.0, 3.0], [3.0, 0.0]]
    assert a.shape == (2, 2)
    assert a.nnz == 2 and type(a.nnz) is int
    assert not a.symmetric
    t = tridiag_matrix(4)
    assert t.nnz == 10
    assert t.symmetric
    assert all(isinstance(v, (bool, scipy.sparse.csr_matrix)) for v in vars(t).values())


def test_matvec_tridiagonal_example():
    a = tridiag_matrix(3)
    y = a.scipy_csr() @ np.array([1.0, 2.0, 3.0])
    assert np.array_equal(y, np.array([0.0, 0.0, 4.0]))


def test_matvec_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 5, 20):
        dense = rng.standard_normal((n, n))
        dense[np.abs(dense) < 0.8] = 0.0
        a = SparseMatrix.from_scipy(dense)
        x = rng.standard_normal(n)
        assert np.allclose(a.scipy_csr() @ x, dense @ x, rtol=0, atol=1e-13)


def test_matvec_dimension_mismatch():
    a = tridiag_matrix(3)
    with pytest.raises(ValueError):
        a.scipy_csr() @ np.ones(4)


def test_matvec_is_deterministic():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((40, 40))
    a = SparseMatrix.from_scipy(dense)
    x = rng.standard_normal(40)
    y1 = a.scipy_csr() @ x
    y2 = a.scipy_csr() @ x
    assert np.array_equal(y1, y2)


def test_spd_solve_tridiagonal_example():
    a = tridiag_matrix(3)
    f = factorize(a, "spd")
    x = f.solve(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(x, [0.75, 0.5, 0.25], rtol=0, atol=1e-14)


def test_spd_solve_random_oracle():
    rng = np.random.default_rng(3)
    for n in (2, 10, 50):
        dense = random_spd(rng, n)
        a = SparseMatrix.from_scipy(dense, symmetric=True)
        b = rng.standard_normal(n)
        x = factorize(a, "spd").solve(b)
        assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-10)


def test_symmetric_indefinite_saddle_example():
    a = SparseMatrix.from_scipy([[2.0, 1.0], [1.0, 0.0]], symmetric=True)
    f = factorize(a, "symmetric-indefinite")
    x = f.solve(np.array([0.0, 1.0]))
    assert np.allclose(x, [1.0, -2.0], rtol=0, atol=1e-14)


def test_symmetric_indefinite_random_saddle_oracle():
    # random SPD-on-kernel saddle blocks, checked against dense solve
    rng = np.random.default_rng(13)
    for n, m in ((6, 2), (12, 5)):
        k = random_spd(rng, n)
        c = rng.standard_normal((m, n))
        dense = np.zeros((n + m, n + m))
        dense[:n, :n] = k
        dense[:n, n:] = c.T
        dense[n:, :n] = c
        a = SparseMatrix.from_scipy(dense, symmetric=True)
        b = rng.standard_normal(n + m)
        x = factorize(a, "symmetric-indefinite").solve(b)
        assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-9, atol=1e-9)


def test_multi_rhs_solve():
    rng = np.random.default_rng(5)
    dense = random_spd(rng, 8)
    a = SparseMatrix.from_scipy(dense, symmetric=True)
    b = rng.standard_normal((8, 3))
    x = factorize(a, "spd").solve(b)
    assert x.shape == (8, 3)
    assert np.allclose(dense @ x, b, rtol=1e-10, atol=1e-10)


def test_spd_rejects_indefinite():
    a = SparseMatrix.from_scipy([[1.0, 0.0], [0.0, -1.0]], symmetric=True)
    with pytest.raises(NotPositiveDefiniteError):
        factorize(a, "spd")


def test_sparse_spd_path_rejects_indefinite():
    # symmetric-mode SuperLU must catch what dense Cholesky catches
    pair = SparseMatrix.from_scipy(
        scipy.sparse.block_diag([[[1.0, 2.0], [2.0, 1.0]]] * 3), symmetric=True)
    with pytest.raises(NotPositiveDefiniteError, match="diagonal block"):
        factorize(pair, "spd", offsets=[0, 2, 4, 6])
    rng = np.random.default_rng(37)
    blocks = [random_spd(rng, 3 + j) for j in range(6)]
    blocks[3] = -blocks[3]
    a = SparseMatrix.from_scipy(scipy.sparse.block_diag(blocks), symmetric=True)
    offsets = np.concatenate([[0], np.cumsum([b.shape[0] for b in blocks])])
    with pytest.raises(NotPositiveDefiniteError, match="diagonal block 3$"):
        factorize(a, "spd", offsets=offsets)


def stacked_blocks(rng, sizes, perturbed=None, by=0.0):
    """Block-diagonal SPD matrix; block `perturbed` scaled by 1 + by."""
    blocks = [random_spd(rng, m) for m in sizes]
    if perturbed is not None:
        blocks[perturbed] = blocks[perturbed] * (1.0 + by)
    a = SparseMatrix.from_scipy(scipy.sparse.block_diag(blocks), symmetric=True)
    return a, np.concatenate([[0], np.cumsum(sizes)])


def test_block_residual_check_holds_every_block():
    # the factor of a matrix perturbed by 1e-9 in block 1 only stands in for
    # a factor that is inaccurate in one block: on the check probe that
    # block's own relative residual is 1e-9, but block 1 is small among
    # large ones, so the stacked relative residual stays below REFINE_TOL
    sizes = [200, 2, 200, 200]
    a, offsets = stacked_blocks(np.random.default_rng(41), sizes)
    a_off, _ = stacked_blocks(np.random.default_rng(41), sizes, perturbed=1, by=1e-9)
    f = replace(factorize(a_off, "spd", offsets=offsets, probe=False), matrix=a)
    b = sparse.probe_rhs(a.shape[0])
    x = f.solve(b)
    r = b - a.scipy_csr().toarray() @ x
    assert np.linalg.norm(r) < REFINE_TOL * np.linalg.norm(b)
    assert np.linalg.norm(r[200:202]) > REFINE_TOL * np.linalg.norm(b[200:202])
    with pytest.raises(NumericalError, match="diagonal block 1:"):
        f.check(x)
    # the exact factor passes the same check
    exact = factorize(a, "spd", offsets=offsets)
    exact.check(exact.solve(b))


def test_factorize_runs_the_setup_check(monkeypatch):
    # a factor whose solves are off by 1e-9 relative in block 2 only
    a, offsets = stacked_blocks(np.random.default_rng(43), [50, 50, 3, 50])
    raw = Factorization._raw_solve

    def skewed(self, b):
        x = raw(self, b)
        x[100:103] *= 1.0 + 1e-9
        return x

    monkeypatch.setattr(Factorization, "_raw_solve", skewed)
    with pytest.raises(NumericalError, match="diagonal block 2:"):
        factorize(a, "spd", offsets=offsets)
    factorize(a, "spd", offsets=offsets, probe=False)


def test_block_offsets_must_span_the_matrix():
    with pytest.raises(ValueError, match="offsets"):
        factorize(tridiag_matrix(4), "spd", offsets=[0, 3])


def test_singular_matrix_raises():
    a = SparseMatrix.from_scipy([[1.0, 1.0], [1.0, 1.0]], symmetric=True)
    with pytest.raises(SingularMatrixError):
        factorize(a, "symmetric-indefinite")


def test_factorize_rejects_nonsquare_and_nonsymmetric():
    with pytest.raises(ValueError):
        factorize(SparseMatrix.from_scipy(np.ones((2, 3))))
    with pytest.raises(ValueError):
        factorize(SparseMatrix.from_scipy([[1.0, 2.0], [0.0, 1.0]]))


def test_solve_dimension_mismatch():
    f = factorize(tridiag_matrix(3), "spd")
    with pytest.raises(ValueError):
        f.solve(np.ones(4))


def test_empty_matrix_factorization():
    a = SparseMatrix.from_scipy(np.zeros((0, 0)), symmetric=True)
    f = factorize(a, "spd")
    x = f.solve(np.zeros(0))
    assert x.shape == (0,)


def test_splu_path_above_threshold(monkeypatch):
    # force the sparse path with a tiny threshold
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", 4)
    rng = np.random.default_rng(17)
    dense = random_spd(rng, 30)
    a = SparseMatrix.from_scipy(dense, symmetric=True)
    f = factorize(a, "spd")
    assert f.method == "splu"
    b = rng.standard_normal(30)
    assert np.allclose(f.solve(b), np.linalg.solve(dense, b), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("threshold,kind,method", [
    (None, "symmetric-indefinite", "bunch-kaufman"), (4, "symmetric-indefinite", "splu"),
    (None, "spd", "cholesky"), (4, "spd", "splu")])
def test_inverse_matches_dense_inverse(threshold, kind, method, monkeypatch):
    # one inverse routine for every factor: exactly symmetric, equal to the
    # dense inverse, and the record keeps no factor afterwards
    if threshold is not None:
        monkeypatch.setattr(sparse, "DENSE_THRESHOLD", threshold)
    rng = np.random.default_rng(31)
    dense = random_spd(rng, 12)
    if kind == "symmetric-indefinite":
        c = rng.standard_normal((3, 12))
        dense = np.block([[dense, c.T], [c, np.zeros((3, 3))]])
    f = factorize(SparseMatrix.from_scipy(dense, symmetric=True), kind)
    assert f.method == method
    inv = f.inverse()
    assert np.array_equal(inv, inv.T)
    ref = np.linalg.inv(dense)
    assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)
    assert f._payload is None
    assert (f.method, f.n, f.matrix.nnz) == (method, dense.shape[0], np.count_nonzero(dense))


def test_inverse_of_empty_factor():
    f = factorize(SparseMatrix.from_scipy(np.zeros((0, 0)), symmetric=True),
                  "symmetric-indefinite")
    assert f.inverse().shape == (0, 0)


def test_inverse_rejects_a_singular_pivot_block():
    # sytri reports a zero diagonal block of D (here planted in a factor of
    # diag(1, 2)) as singular
    f = factorize(SparseMatrix.from_scipy(np.diag([1.0, 2.0]), symmetric=True),
                  "symmetric-indefinite")
    ldu, ipiv, sytrs = f._payload
    ldu = ldu.copy(order="F")
    ldu[1, 1] = 0.0
    f = replace(f, _payload=(ldu, ipiv, sytrs))
    with pytest.raises(SingularMatrixError, match="sytri"):
        f.inverse()


def test_solve_residual_contract():
    # a factor that passed its setup check solves other right-hand sides to
    # the same relative residual, with no per-solve check or refinement
    rng = np.random.default_rng(23)
    dense = random_spd(rng, 40)
    a = SparseMatrix.from_scipy(dense, symmetric=True)
    f = factorize(a, "spd")
    b = rng.standard_normal(40)
    x = f.solve(b)
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_sum_elements_drops_negative_ids_and_numbers_ascending():
    ke = random_spd(np.random.default_rng(5), 3)
    dofs = np.array([[9, -1, 4], [4, 7, -1], [-1, 9, 12]])
    k, ltg = sum_elements([(ke, dofs)])
    assert np.array_equal(ltg, [4, 7, 9, 12])
    dense = np.zeros((13, 13))
    for d in dofs:
        keep = d >= 0
        dense[np.ix_(d[keep], d[keep])] += ke[np.ix_(keep, keep)]
    assert k.symmetric
    assert np.allclose(k.scipy_csr().toarray(), dense[np.ix_(ltg, ltg)], rtol=0, atol=1e-13)
    # one shared (m, m) matrix sums bitwise like its (n_e, m, m) stack
    stacked, ltg_s = sum_elements([(np.repeat(ke[None], 3, axis=0), dofs)])
    assert np.array_equal(ltg_s, ltg)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(stacked.scipy_csr(), attr), getattr(k.scipy_csr(), attr))


def random_element_blocks(rng):
    """A shared non-symmetric (4, 4) matrix and a stack of (7, 7) ones, over
    overlapping, non-contiguous ids; about one id in six is negative."""
    pool = np.arange(60) * 3 + 5

    def ids(n_e, m):
        d = np.array([rng.choice(pool, m, replace=False) for _ in range(n_e)])
        return np.where(rng.random(d.shape) < 0.15, -1, d)

    return [(rng.standard_normal((4, 4)), ids(40, 4)),
            (rng.standard_normal((25, 7, 7)), ids(25, 7))]


def fold_sum(blocks):
    """Reference sum {(i, j): K_ij}: a plain left fold over the kept entries
    of each element matrix's symmetric part, block by block, element by
    element."""
    acc = {}
    for k, dofs in blocks:
        for ke, d in zip(np.broadcast_to(k, (len(dofs),) + k.shape[-2:]), dofs):
            ks = (ke + ke.T) * 0.5
            for a, i in enumerate(d.tolist()):
                for b, j in enumerate(d.tolist()):
                    if i >= 0 and j >= 0:
                        acc[i, j] = acc[i, j] + ks[a, b] if (i, j) in acc else ks[a, b]
    return acc


def stored_entries(k, ltg):
    coo = k.scipy_csr().tocoo()
    return {(int(ltg[i]), int(ltg[j])): v for i, j, v in zip(coo.row, coo.col, coo.data)}


def buffer_size(a):
    while a.base is not None:
        a = a.base
    return a.size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sum_elements_is_the_ordered_fold_of_symmetric_parts(seed):
    # bitwise: every K_ij sums its contributions left to right, in block
    # then element order, and nothing else is stored
    blocks = random_element_blocks(np.random.default_rng(seed))
    k, ltg = sum_elements(blocks)
    ref = fold_sum(blocks)
    assert np.array_equal(ltg, sorted({i for i, _ in ref}))
    assert stored_entries(k, ltg) == {ij: v for ij, v in ref.items() if v != 0.0}


def test_sum_elements_returns_a_compact_canonical_symmetric_csr():
    rng = np.random.default_rng(4)
    blocks = random_element_blocks(rng)
    # an element and its negative cancel exactly: their entries are not stored
    k_cancel = rng.standard_normal((4, 4))
    cancel = np.array([[500, 501, -1, 502]])
    k, ltg = sum_elements(blocks + [(k_cancel, cancel), (-k_cancel, cancel)])
    assert np.array_equal(ltg, sum_elements(blocks)[1].tolist() + [500, 501, 502])
    csr = k.scipy_csr()
    assert k.symmetric and (csr != csr.T).nnz == 0
    assert csr.has_canonical_format
    assert np.all(csr.data != 0.0)
    assert csr[-3:].nnz == 0
    assert csr.data.size == csr.indices.size == csr.nnz
    assert buffer_size(csr.data) == buffer_size(csr.indices) == csr.nnz
    assert csr.indices.dtype == csr.indptr.dtype == np.int32


def test_sum_elements_sums_symmetric_parts_of_nonsymmetric_blocks():
    rng = np.random.default_rng(6)
    (k4, d4), (k7, d7) = random_element_blocks(rng)
    k, ltg = sum_elements([(k4, d4), (k7, d7)])
    sym, ltg_s = sum_elements([((k4 + k4.T) / 2, d4),
                               ((k7 + k7.transpose(0, 2, 1)) / 2, d7)])
    assert np.array_equal(ltg, ltg_s)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(k.scipy_csr(), attr), getattr(sym.scipy_csr(), attr))
    dense = np.zeros((ltg.max() + 1,) * 2)
    for ke, d in [(k4, dd) for dd in d4] + list(zip(k7, d7)):
        keep = d >= 0
        dense[np.ix_(d[keep], d[keep])] += ke[np.ix_(keep, keep)]
    dense = (dense + dense.T) / 2
    assert np.allclose(k.scipy_csr().toarray(), dense[np.ix_(ltg, ltg)], rtol=0, atol=1e-13)
