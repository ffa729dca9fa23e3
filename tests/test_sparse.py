"""Sparse kernel tests: CSR storage, element sums and factorizations."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from mlbddc import sparse
from mlbddc.errors import NotPositiveDefiniteError, NumericalError
from mlbddc.sparse import (
    REFINE_TOL,
    Factorization,
    SparseMatrix,
    factorize,
    sorted_unique,
    spd_inverse,
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


@pytest.mark.parametrize("size,low,high", [(0, 0, 1), (1, -3, 3), (500, -50, 50),
                                           (2000, -10**12, 10**12)])
def test_sorted_unique_matches_np_unique(size, low, high):
    rng = np.random.default_rng(size)
    a = rng.integers(low, high, size=size)
    out = sorted_unique(a)
    assert out.dtype == a.dtype
    assert np.array_equal(out, np.unique(a))
    assert np.array_equal(sorted_unique(a.reshape(-1, 2) if size % 2 == 0 else a),
                          np.unique(a))


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


def test_from_scipy_leaves_the_callers_csr_as_it_was():
    # a float64 CSR with a duplicate, unsorted indices and a stored zero:
    # the result is canonical, and the input's arrays are byte for byte
    # what they were
    csr = scipy.sparse.csr_matrix((np.array([1.0, 1.0, 0.0, 4.0]), np.array([1, 1, 1, 0]),
                                   np.array([0, 2, 4])), shape=(2, 2))
    before = [getattr(csr, attr).tobytes() for attr in ("data", "indices", "indptr")]
    a = SparseMatrix.from_scipy(csr)
    assert [getattr(csr, attr).tobytes() for attr in ("data", "indices", "indptr")] == before
    out = a.scipy_csr()
    assert out.has_canonical_format
    assert out.data.tolist() == [2.0, 4.0] and out.indices.tolist() == [1, 0]
    assert out.indptr.tolist() == [0, 1, 2]


def test_from_scipy_drops_stored_zeros_so_the_band_follows_the_nonzeros():
    # scipy.sparse.block_diag of dense blocks stores their zeros: two dense
    # order-12 pentadiagonal blocks come as 288 entries for 108 nonzeros.
    # Kept, the zeros would give factorize a half-bandwidth of 11 and put
    # each block on the dense-triangle path; dropped, the band is kd = 2
    penta = sum(np.diag(np.full(12 - abs(k), v), k)
                for k, v in [(-2, -1.0), (-1, -2.0), (0, 8.0), (1, -2.0), (2, -1.0)])
    stacked = scipy.sparse.block_diag([penta, penta])
    assert stacked.nnz == 288
    a = SparseMatrix.from_scipy(stacked, symmetric=True)
    assert a.nnz == 108 and a.scipy_csr().has_canonical_format
    assert np.array_equal(a.scipy_csr().toarray(), stacked.toarray())
    f = factorize(a, offsets=[0, 12, 24])
    assert f.method == "cholesky" and f.kd == 2
    assert not f.takes_dense(0) and not f.takes_dense(1)


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
    f = factorize(a)
    x = f.solve(np.array([1.0, 0.0, 0.0]))
    assert np.allclose(x, [0.75, 0.5, 0.25], rtol=0, atol=1e-14)


def test_spd_solve_random_oracle():
    rng = np.random.default_rng(3)
    for n in (2, 10, 50):
        dense = random_spd(rng, n)
        a = SparseMatrix.from_scipy(dense, symmetric=True)
        b = rng.standard_normal(n)
        x = factorize(a).solve(b)
        assert np.allclose(x, np.linalg.solve(dense, b), rtol=1e-10, atol=1e-10)


def test_multi_rhs_solve():
    rng = np.random.default_rng(5)
    dense = random_spd(rng, 8)
    a = SparseMatrix.from_scipy(dense, symmetric=True)
    b = rng.standard_normal((8, 3))
    x = factorize(a).solve(b)
    assert x.shape == (8, 3)
    assert np.allclose(dense @ x, b, rtol=1e-10, atol=1e-10)


def test_spd_rejects_indefinite():
    a = SparseMatrix.from_scipy([[1.0, 0.0], [0.0, -1.0]], symmetric=True)
    with pytest.raises(NotPositiveDefiniteError):
        factorize(a)


@pytest.mark.parametrize("threshold", [None, 0], ids=["band", "splu"])
def test_sparse_spd_path_rejects_indefinite(threshold, monkeypatch):
    # band Cholesky (default budget) and symmetric-mode SuperLU (budget 0)
    # both name the first diagonal block with a bad pivot
    if threshold is not None:
        monkeypatch.setattr(sparse, "DENSE_THRESHOLD", threshold)
    pair = SparseMatrix.from_scipy(
        scipy.sparse.block_diag([[[1.0, 2.0], [2.0, 1.0]]] * 3), symmetric=True)
    with pytest.raises(NotPositiveDefiniteError, match="diagonal block"):
        factorize(pair, offsets=[0, 2, 4, 6])
    rng = np.random.default_rng(37)
    blocks = [random_spd(rng, 3 + j) for j in range(6)]
    blocks[3] = -blocks[3]
    a = SparseMatrix.from_scipy(scipy.sparse.block_diag(blocks), symmetric=True)
    offsets = np.concatenate([[0], np.cumsum([b.shape[0] for b in blocks])])
    with pytest.raises(NotPositiveDefiniteError, match="diagonal block 3$"):
        factorize(a, offsets=offsets)


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
    f = replace(factorize(a_off, offsets=offsets), matrix=a)
    b = sparse.probe_rhs(a.shape[0])
    x = f.solve(b)
    r = b - a.scipy_csr().toarray() @ x
    assert np.linalg.norm(r) < REFINE_TOL * np.linalg.norm(b)
    assert np.linalg.norm(r[200:202]) > REFINE_TOL * np.linalg.norm(b[200:202])
    with pytest.raises(NumericalError, match="diagonal block 1:"):
        f.check(x)
    # the exact factor passes the same check
    exact = factorize(a, offsets=offsets)
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
        factorize(a, offsets=offsets)


def test_block_offsets_must_span_the_matrix():
    with pytest.raises(ValueError, match="offsets"):
        factorize(tridiag_matrix(4), offsets=[0, 3])


def test_singular_matrix_raises(monkeypatch):
    # a singular PSD matrix is not positive definite: band Cholesky says
    # so, and SuperLU (a budget of 0 band entries) hits an exactly singular
    # pivot, which proves the same
    a = SparseMatrix.from_scipy([[1.0, 1.0], [1.0, 1.0]], symmetric=True)
    with pytest.raises(NotPositiveDefiniteError, match="diagonal block 0"):
        factorize(a)
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", 0)
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite: .*singular"):
        factorize(a)


def test_factorize_rejects_nonsquare_and_nonsymmetric():
    with pytest.raises(ValueError):
        factorize(SparseMatrix.from_scipy(np.ones((2, 3))))
    with pytest.raises(ValueError):
        factorize(SparseMatrix.from_scipy([[1.0, 2.0], [0.0, 1.0]]))


def test_solve_dimension_mismatch():
    f = factorize(tridiag_matrix(3))
    with pytest.raises(ValueError):
        f.solve(np.ones(4))


def test_empty_matrix_factorization():
    a = SparseMatrix.from_scipy(np.zeros((0, 0)), symmetric=True)
    f = factorize(a)
    x = f.solve(np.zeros(0))
    assert x.shape == (0,)


def test_splu_path_above_threshold(monkeypatch):
    # force SuperLU with a tiny budget: the dense 30 x 30 matrix has band
    # storage (29 + 1) * 30 = 900 > 4**2 entries
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", 4)
    rng = np.random.default_rng(17)
    dense = random_spd(rng, 30)
    a = SparseMatrix.from_scipy(dense, symmetric=True)
    f = factorize(a)
    assert f.method == "splu"
    b = rng.standard_normal(30)
    assert np.allclose(f.solve(b), np.linalg.solve(dense, b), rtol=1e-9, atol=1e-9)


def test_superlu_is_loaded_only_on_demand():
    # factorize imports scipy.sparse.linalg in its SuperLU branch only, so a
    # process whose factors are all band Cholesky never loads it (about 2 MB
    # of resident memory): here importing mlbddc and a three-level solve.
    # Likewise the greedy partitioner's balance pass alone imports
    # scipy.sparse.csgraph, and only once a subdomain is oversized, which no
    # level of this greedy-partitioned run is
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, mlbddc\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n"
            "prec = mlbddc.run_experiment(mlbddc.load_config(overrides=sys.argv[1:]))"
            ".preconditioner\n"
            "methods = {lv.splits.k_ii_fact.method for lv in prec.levels} | {prec.top.method}\n"
            "assert methods == {'cholesky'}, methods\n"
            "assert 'scipy.sparse.linalg' not in sys.modules\n"
            "assert 'scipy.sparse.csgraph' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code, "problem=elasticity", "dim=3",
                           "elements=6", "hierarchy=27/8", "partition=greedy-graph-growing"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def dense_oracle_check(a, f, rhs):
    dense = a.scipy_csr().toarray()
    x = f.solve(rhs)
    assert x.shape == rhs.shape
    assert np.allclose(x, np.linalg.solve(dense, rhs), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n,kd,threshold,method", [
    (8, 1, 4, "cholesky"),      # (kd + 1) * n = 16 = 4**2
    (5, 1, 3, "splu"),          # (kd + 1) * n = 10 = 3**2 + 1
    (16, 0, 4, "cholesky"),     # diagonal: 16 = 4**2
    (17, 0, 4, "splu"),         # diagonal: 17 = 4**2 + 1
    (1, 0, 1, "cholesky"),      # order 1: 1 = 1**2
])
def test_band_path_up_to_the_budget(n, kd, threshold, method, monkeypatch):
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", threshold)
    a = tridiag_matrix(n) if kd else SparseMatrix.from_scipy(
        scipy.sparse.diags(np.arange(1.0, n + 1)), symmetric=True)
    f = factorize(a)
    assert f.method == method
    if method == "cholesky":
        assert f._payload.shape == (kd + 1, n)
    rng = np.random.default_rng(n)
    dense_oracle_check(a, f, rng.standard_normal(n))


def test_band_path_solves_stacked_blocks():
    # one band over blocks of different widths: 1-D and 2-D right-hand sides
    # against the dense oracle
    rng = np.random.default_rng(29)
    sizes = [1, 7, 3, 12, 2]
    a, offsets = stacked_blocks(rng, sizes)
    f = factorize(a, offsets=offsets)
    assert f.method == "cholesky"
    assert f._payload.shape == (max(sizes), sum(sizes))
    dense_oracle_check(a, f, rng.standard_normal(sum(sizes)))
    dense_oracle_check(a, f, rng.standard_normal((sum(sizes), 4)))


def test_lower_solve_takes_dense_triangles_where_the_band_is_full(monkeypatch):
    # one band (kd = 3, from the dense 4 x 4 block) over blocks it fills,
    # 2 kd + 1 >= n_j (orders 4 and 2, the latter narrower than the band),
    # solved by dtrsm on a dense copy of their triangles, and a
    # pentadiagonal block of order 12 > 2 kd + 1, solved on the band by
    # dtbtrs; each matches the dense factor's triangular solve for F-ordered
    # right-hand sides of several columns, and from the right, b L_j^-T, for
    # F-ordered right-hand sides of several rows (dtrsm solves from the right
    # itself, dtbtrs solves the transpose from the left)
    rng = np.random.default_rng(31)
    narrow = np.diag(np.full(12, 6.0))
    for d in (1, 2):
        off = rng.uniform(-1.0, 1.0, 12 - d)
        narrow += np.diag(off, d) + np.diag(off, -d)
    dense = scipy.linalg.block_diag(random_spd(rng, 4), narrow, random_spd(rng, 2))
    offsets = [0, 4, 16, 18]
    f = factorize(SparseMatrix.from_scipy(dense, symmetric=True), offsets=offsets)
    assert f._payload.shape == (4, 18)
    low, calls = np.linalg.cholesky(dense), []

    def counted(name):
        real = getattr(sparse, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    for name in ("dtrsm", "dtbtrs"):
        monkeypatch.setattr(sparse, name, counted(name))
    for right in (False, True):
        for j, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            b = np.asfortranarray(rng.standard_normal((hi - lo, 5)))
            ref = scipy.linalg.solve_triangular(low[lo:hi, lo:hi], b, lower=True)
            x = f.lower_solve(j, np.asfortranarray(b.T) if right else b, right)
            assert f.takes_dense(j) == (j != 1)
            assert np.linalg.norm((x.T if right else x) - ref) <= 1e-13 * np.linalg.norm(ref)
    assert calls == ["dtrsm", "dtbtrs", "dtrsm"] * 2


def test_lower_solve_returns_an_empty_rhs_as_it_is():
    # LAPACK's dtbtrs corrupts the heap on a right-hand side with no columns
    # (glibc aborts later, or at exit), so lower_solve hands back an empty b
    # itself on either path and orientation; a process that calls it on
    # empty right-hand sides and then allocates freely exits cleanly
    code = ("import numpy as np, scipy.sparse\n"
            "from mlbddc.sparse import SparseMatrix, factorize\n"
            "k = scipy.sparse.diags([np.full(12, 4.0), np.full(11, -1.0), np.full(11, -1.0)],\n"
            "                       [0, 1, -1])\n"
            "f = factorize(SparseMatrix.from_scipy(scipy.sparse.block_diag([k, np.eye(2)]),\n"
            "                                      symmetric=True), offsets=[0, 12, 14])\n"
            "assert [f.takes_dense(j) for j in (0, 1)] == [False, True]\n"
            "for j, n in ((0, 12), (1, 2)):\n"
            "    for b, right in ((np.zeros((n, 0), order='F'), False),\n"
            "                     (np.zeros((0, n), order='F'), True)):\n"
            "        assert f.lower_solve(j, b, right) is b\n"
            "for _ in range(200):\n"
            "    np.linalg.inv(np.eye(50) + np.ones((50, 50)))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
def test_spd_inverse_matches_potri(n):
    # the recursive blocked inverse (dtrtri leaves up to order 64, so orders
    # 65 and up split, 129 and 300 more than once) agrees with LAPACK's
    # potri on the lower triangle, and the stored inverse is exactly symmetric
    rng = np.random.default_rng(n)
    low = scipy.linalg.lapack.dpotrf(random_spd(rng, n), lower=1)[0]
    ref = scipy.linalg.lapack.dpotri(low.copy(order="F"), lower=1)[0]
    out = np.empty((n, n))
    spd_inverse(low, out, np.tri(n, dtype=bool))
    assert np.array_equal(out, out.T)
    assert np.linalg.norm(np.tril(out - ref)) <= 1e-13 * np.linalg.norm(np.tril(ref))


def test_stacked_inverses_solve_like_dpbtrs():
    # dense blocks of orders 5, 0, 3, 5, 8, 3 under one band (kd = 7, so
    # 2 kd + 1 >= n_j for each): the inverse stacks, one per order, solve
    # 1-D and 2-D right-hand sides (one with no columns too) as dpbtrs does,
    # to 1e-13 relative; blocks of one order that are not adjacent are
    # gathered by index, adjacent ones read as a view
    rng = np.random.default_rng(47)
    sizes = [5, 0, 3, 5, 8, 3]
    a, offsets = stacked_blocks(rng, sizes)
    f = factorize(a, offsets=offsets)
    assert f.kd == 7 and f._stacks is None and f.storage == f"band kd=7, {8 * 8 * 24} bytes"
    rhs = [rng.standard_normal(24), rng.standard_normal((24, 3)), np.zeros((24, 0))]
    band = [f.solve(b) for b in rhs]
    f.stack_inverses()
    assert [(inv.shape, isinstance(rows, slice)) for rows, inv in f._stacks] == \
        [((2, 3, 3), False), ((2, 5, 5), False), ((1, 8, 8), True)]
    assert all(np.array_equal(inv, inv.swapaxes(1, 2)) for _, inv in f._stacks)
    assert f.storage == f"inverse stacks (order, count) [(3, 2), (5, 2), (8, 1)], " \
                        f"{8 * (2 * 9 + 2 * 25 + 64)} bytes"
    for b, ref in zip(rhs, band):
        x = f.solve(b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)


def test_narrow_band_and_single_block_factors_keep_dpbtrs(monkeypatch):
    # stack_inverses leaves a factor that has a block wider than 2 kd + 1
    # (a pentadiagonal block of order 12 beside dense ones), one of a single
    # block (and empty ones) and a SuperLU factor as they were: their solves
    # still run dpbtrs, or SuperLU
    rng = np.random.default_rng(53)
    narrow = np.diag(np.full(12, 6.0)) + sum(np.diag(np.full(12 - d, -1.0), d) +
                                             np.diag(np.full(12 - d, -1.0), -d) for d in (1, 2))
    dense = scipy.linalg.block_diag(random_spd(rng, 4), narrow, random_spd(rng, 2))
    single, _ = stacked_blocks(rng, [6])
    facts = [factorize(SparseMatrix.from_scipy(dense, symmetric=True), offsets=[0, 4, 16, 18]),
             factorize(single), factorize(single, offsets=[0, 0, 6, 6])]
    monkeypatch.setattr(sparse, "DENSE_THRESHOLD", 2)
    facts.append(factorize(single, offsets=[0, 3, 6]))
    assert [f.method for f in facts] == ["cholesky"] * 3 + ["splu"]
    calls = []
    real = sparse.dpbtrs
    monkeypatch.setattr(sparse, "dpbtrs", lambda *a, **k: calls.append(1) or real(*a, **k))
    for f in facts:
        f.stack_inverses()
        assert f._stacks is None
        b = rng.standard_normal(f.n)
        dense_oracle_check(f.matrix, f, b)
    assert len(calls) == 3


def test_solve_residual_contract():
    # a factor that passed its setup check solves other right-hand sides to
    # the same relative residual, with no per-solve check or refinement
    rng = np.random.default_rng(23)
    dense = random_spd(rng, 40)
    a = SparseMatrix.from_scipy(dense, symmetric=True)
    f = factorize(a)
    b = rng.standard_normal(40)
    x = f.solve(b)
    assert np.linalg.norm(dense @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_sum_elements_drops_negative_ids_and_numbers_ascending():
    ke = random_spd(np.random.default_rng(5), 3)
    dofs = np.array([[9, -1, 4], [4, 7, -1], [-1, 9, 12]])
    k, ltg = sum_elements([(ke, dofs)], 1)
    assert np.array_equal(ltg, [4, 7, 9, 12])
    dense = np.zeros((13, 13))
    for d in dofs:
        keep = d >= 0
        dense[np.ix_(d[keep], d[keep])] += ke[np.ix_(keep, keep)]
    assert k.symmetric
    assert np.allclose(k.scipy_csr().toarray(), dense[np.ix_(ltg, ltg)], rtol=0, atol=1e-13)
    # one shared (m, m) matrix sums bitwise like its (n_e, m, m) stack
    stacked, ltg_s = sum_elements([(np.repeat(ke[None], 3, axis=0), dofs)], 1)
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
    k, ltg = sum_elements(blocks, 1)
    ref = fold_sum(blocks)
    assert np.array_equal(ltg, sorted({i for i, _ in ref}))
    assert stored_entries(k, ltg) == {ij: v for ij, v in ref.items() if v != 0.0}


def test_sum_elements_returns_a_compact_canonical_symmetric_csr():
    rng = np.random.default_rng(4)
    blocks = random_element_blocks(rng)
    # an element and its negative cancel exactly: their entries are not stored
    k_cancel = rng.standard_normal((4, 4))
    cancel = np.array([[500, 501, -1, 502]])
    k, ltg = sum_elements(blocks + [(k_cancel, cancel), (-k_cancel, cancel)], 1)
    assert np.array_equal(ltg, sum_elements(blocks, 1)[1].tolist() + [500, 501, 502])
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
    k, ltg = sum_elements([(k4, d4), (k7, d7)], 1)
    sym, ltg_s = sum_elements([((k4 + k4.T) / 2, d4),
                               ((k7 + k7.transpose(0, 2, 1)) / 2, d7)], 1)
    assert np.array_equal(ltg, ltg_s)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(k.scipy_csr(), attr), getattr(sym.scipy_csr(), attr))
    dense = np.zeros((ltg.max() + 1,) * 2)
    for ke, d in [(k4, dd) for dd in d4] + list(zip(k7, d7)):
        keep = d >= 0
        dense[np.ix_(d[keep], d[keep])] += ke[np.ix_(keep, keep)]
    dense = (dense + dense.T) / 2
    assert np.allclose(k.scipy_csr().toarray(), dense[np.ix_(ltg, ltg)], rtol=0, atol=1e-13)


def node_major_blocks(rng, b):
    """Blocks of three orders over node-major ids (node i owns ids b*i..b*i+b-1)
    of overlapping, non-contiguous nodes: a shared non-symmetric (2b, 2b)
    matrix, and stacks of (4b, 4b) and (3b, 3b) ones. About one node in six
    is dropped, each of its ids some negative number."""
    pool = np.arange(30) * 3 + 2

    def ids(n_e, p):
        nodes = np.array([rng.choice(pool, p, replace=False) for _ in range(n_e)])
        d = nodes[..., None] * b + np.arange(b)
        dropped = rng.random(nodes.shape) < 0.15
        d[dropped] = -rng.integers(1, 9, (dropped.sum(), b))
        return d.reshape(n_e, p * b)

    return [(rng.standard_normal((2 * b, 2 * b)), ids(30, 2)),
            (rng.standard_normal((20, 4 * b, 4 * b)), ids(20, 4)),
            (rng.standard_normal((10, 3 * b, 3 * b)), ids(10, 3))]


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_sum_elements_over_node_pairs_is_the_ordered_fold(b, seed):
    # the sort runs over node pairs carrying b x b blocks, and every K_ij is
    # still the left fold of its contributions in block, then element order
    blocks = node_major_blocks(np.random.default_rng(seed), b)
    k, ltg = sum_elements(blocks, b)
    ref = fold_sum(blocks)
    assert np.array_equal(ltg, sorted({i for i, _ in ref}))
    assert stored_entries(k, ltg) == {ij: v for ij, v in ref.items() if v != 0.0}


def test_sum_elements_of_empty_blocks():
    # no elements, and elements of order 0 (the coarse matrices of a shape
    # group without constraints), add nothing
    blocks = node_major_blocks(np.random.default_rng(3), 3)
    k, ltg = sum_elements(blocks, 3)
    empty = [(np.zeros((0, 6, 6)), np.zeros((0, 6), dtype=int)),
             (np.zeros((4, 0, 0)), np.zeros((4, 0), dtype=int)),
             (np.zeros((0, 0)), np.zeros((2, 0), dtype=int))]
    with_empty, ltg_e = sum_elements(empty[:2] + blocks + empty[2:], 3)
    assert np.array_equal(ltg_e, ltg)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(with_empty.scipy_csr(), attr), getattr(k.scipy_csr(), attr))
    nothing, ltg_0 = sum_elements(empty, 3)
    assert nothing.shape == (0, 0) and ltg_0.size == 0


def test_sum_elements_returns_a_compact_canonical_csr_over_node_pairs():
    rng = np.random.default_rng(4)
    blocks = node_major_blocks(rng, 3)
    # an element and its negative cancel exactly: their entries are not stored
    k_cancel = rng.standard_normal((9, 9))
    cancel = np.array([[300, 301, 302, -1, -2, -3, 333, 334, 335]])
    k, ltg = sum_elements(blocks + [(k_cancel, cancel), (-k_cancel, cancel)], 3)
    assert np.array_equal(ltg, sum_elements(blocks, 3)[1].tolist()
                          + [300, 301, 302, 333, 334, 335])
    csr = k.scipy_csr()
    assert k.symmetric and (csr != csr.T).nnz == 0
    assert csr.has_canonical_format
    assert np.all(csr.data != 0.0)
    assert csr[-6:].nnz == 0
    assert csr.data.size == csr.indices.size == csr.nnz
    assert buffer_size(csr.data) == buffer_size(csr.indices) == csr.nnz
    assert csr.indices.dtype == csr.indptr.dtype == np.int32


def pair_entries(k, ltg, b, node_i, node_j):
    """The stored entries of K between the dofs of two nodes."""
    return {ij: v for ij, v in stored_entries(k, ltg).items()
            if ij[0] // b == node_i and ij[1] // b == node_j}


@pytest.mark.parametrize("b", [1, 2, 3])
def test_sum_elements_skips_node_pairs_zero_in_a_shared_matrix(b):
    # a chain of elements over nodes 2e..2e+3: local pairs (0, 2) and (1, 3)
    # couple nodes no other element couples, and their blocks are zero (the
    # second only in its symmetric part), so K stores nothing for them; all
    # other entries are the fold bitwise
    rng = np.random.default_rng(30 + b)
    k = rng.standard_normal((4 * b, 4 * b))
    kb = k.reshape(4, b, 4, b)
    kb[0, :, 2] = kb[2, :, 0] = 0.0
    kb[3, :, 1] = -kb[1, :, 3].T
    nodes = 2 * np.arange(6)[:, None] + np.arange(4)
    blocks = [(k, (nodes[..., None] * b + np.arange(b)).reshape(6, 4 * b))]
    out, ltg = sum_elements(blocks, b)
    assert stored_entries(out, ltg) == {ij: v for ij, v in fold_sum(blocks).items() if v != 0.0}
    for e in range(6):
        for i, j in ((2 * e, 2 * e + 2), (2 * e + 1, 2 * e + 3)):
            assert pair_entries(out, ltg, b, i, j) == pair_entries(out, ltg, b, j, i) == {}
    csr = out.scipy_csr()
    assert buffer_size(csr.data) == buffer_size(csr.indices) == csr.nnz
    assert csr.indices.dtype == csr.indptr.dtype == np.int32


@pytest.mark.parametrize("b", [1, 2, 3])
def test_sum_elements_skips_only_node_pairs_zero_in_every_member(b):
    # a stack whose members all sit on nodes 3, 5, 8, 9: pair (3, 8) is zero
    # in every member and is not stored; pair (5, 9) is zero in members 0, 2
    # and 4 only and is summed from the others, bitwise the fold
    rng = np.random.default_rng(40 + b)
    k = rng.standard_normal((5, 4 * b, 4 * b))
    kb = k.reshape(5, 4, b, 4, b)
    kb[:, 0, :, 2] = kb[:, 2, :, 0] = 0.0
    kb[::2, 1, :, 3] = kb[::2, 3, :, 1] = 0.0
    dofs = np.repeat((np.array([3, 5, 8, 9])[:, None] * b + np.arange(b)).reshape(1, -1), 5, axis=0)
    # a second block over overlapping nodes, so pairs also sum across blocks
    blocks = [(k, dofs)] + node_major_blocks(rng, b)[1:]
    out, ltg = sum_elements(blocks, b)
    ref = fold_sum(blocks)
    assert stored_entries(out, ltg) == {ij: v for ij, v in ref.items() if v != 0.0}
    assert pair_entries(out, ltg, b, 3, 8) == pair_entries(out, ltg, b, 8, 3) == {}
    assert len(pair_entries(out, ltg, b, 5, 9)) == b * b


@pytest.mark.parametrize("b", [2, 3])
def test_sum_elements_keeps_a_block_with_some_zero_components(b):
    # pair (0, 2)'s block has a zero first row (and its mirror a zero first
    # column), but the rest is nonzero: the pair is summed, and only its
    # zero components are left unstored
    rng = np.random.default_rng(50 + b)
    k = rng.standard_normal((4 * b, 4 * b))
    kb = k.reshape(4, b, 4, b)
    kb[0, 0, 2] = kb[2, :, 0, 0] = 0.0
    blocks = [(k, np.arange(4 * b)[None])]
    out, ltg = sum_elements(blocks, b)
    assert stored_entries(out, ltg) == {ij: v for ij, v in fold_sum(blocks).items() if v != 0.0}
    stored = pair_entries(out, ltg, b, 0, 2)
    assert len(stored) == b * b - b and all(i != 0 for i, _ in stored)


@pytest.mark.parametrize("dofs", [[[4, 6, 6, 7]], [[2, 3, 6, -1]], [[-1, 3, 6, 7]],
                                  [[5, 6, 2, 3]], [[2, 3, 4]]],
                         ids=["broken-run", "partly-dropped", "partly-kept",
                              "first-not-multiple", "order-not-multiple"])
def test_sum_elements_rejects_ids_that_are_not_node_runs(dofs):
    # with b = 2, every element's ids must be pairs (2i, 2i + 1) or negative pairs
    dofs = np.array(dofs)
    ke = np.eye(dofs.shape[1])
    with pytest.raises(ValueError, match="not node-major runs of dofs_per_node=2"):
        sum_elements([(ke, dofs)], 2)
