"""CSR storage, element sums and direct factorizations.

`SparseMatrix` holds one canonical scipy CSR matrix and a symmetry flag
that `factorize` reads; products use the scipy matrix directly. Every
level sums its element matrices here (Q1 elements, or subdomains as
coarse elements), all subdomains of a level in one call: keying each
element's dofs by subdomain makes the sum one block-diagonal matrix. The
sum is linear in the element entries (two stable CSR/CSC transposes, then
one pass over sorted duplicates) and adds each entry's contributions in
element order, so it is bitwise symmetric with no symmetrization pass.
Factorizations go dense below a size threshold (Cholesky for SPD,
Bunch-Kaufman sytrf for symmetric indefinite) and through SuperLU above
it; both paths reject non-SPD input to an SPD factorization. A
block-diagonal matrix, such as the stacked interior blocks of all
subdomains of a level, is factorized once as a whole. Each factor's
accuracy is checked once, right after it is made, by solving a fixed probe
right-hand side and checking the residual of every diagonal block; its
later solves are plain factor solves with no residual check. A factor can
also be turned into the explicit inverse, for operators applied as
products (`Factorization.inverse`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import dsytri

from .errors import NotPositiveDefiniteError, NumericalError, SingularMatrixError

# Above this order, factorizations switch from dense LAPACK to SuperLU.
DENSE_THRESHOLD = 2000

# A factor passes its setup check when its solve of probe_rhs(n) leaves a
# relative residual at or below this in every diagonal block.
REFINE_TOL = 1e-10


def probe_rhs(n: int) -> np.ndarray:
    """The fixed right-hand side of the setup check: every entry is nonzero,
    so every diagonal block has a nonzero right-hand side of its own."""
    return np.cos(np.arange(n)) + 1.5


@dataclass
class SparseMatrix:
    """One canonical scipy CSR matrix (sorted indices, no duplicates).
    Symmetric matrices store both triangles; the flag only asserts that the
    stored entries are symmetric."""

    csr: scipy.sparse.csr_matrix
    symmetric: bool = False

    @classmethod
    def from_scipy(cls, mat, symmetric: bool = False) -> "SparseMatrix":
        csr = scipy.sparse.csr_matrix(mat, dtype=np.float64)
        csr.sum_duplicates()        # sorts the indices too
        return cls(csr, symmetric)

    def scipy_csr(self) -> scipy.sparse.csr_matrix:
        return self.csr

    @property
    def shape(self) -> tuple:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)


# -- element assembly ---------------------------------------------------------

def sum_elements(blocks):
    """Sum dense element matrices into one symmetric sparse matrix; Q1
    elements and coarse elements (subdomains) of every level go through here.

    blocks lists (k, dofs) pairs: dofs is an (n_e, m) array of element dof
    ids, and k is one (m, m) matrix shared by the n_e elements or an
    (n_e, m, m) stack. Each element matrix enters as its symmetric part
    (k + k^T)/2, which is k itself for a symmetric k. Entries in a row or
    column with a negative id are dropped. Returns (K, local_to_global): K
    is numbered over the ids the kept entries touch, ascending, and
    local_to_global lists those ids.

    K_ij is the left-to-right sum of its contributions in block order, then
    element order, so K is bitwise symmetric whenever no element repeats an
    id. Entries that sum to exactly zero are not stored, and K owns compact,
    canonical CSR arrays.

    Every pass over the entries is a linear, stable counting sort: one CSR
    row per (element, local row) holds that row of the element matrix at
    the element's local column ids; converting it to CSC groups the entries
    by column, in element order; relabelling its rows by dof id and
    converting back to CSR leaves each row's columns ascending with
    duplicates adjacent, in element order, for an O(nnz) sum. Dropped ids
    are relabelled n, which sorts last and is cut off the index pointers.
    """
    blocks = [(np.asarray(k, dtype=np.float64), np.asarray(d, dtype=np.int64))
              for k, d in blocks]
    ltg = np.unique(np.concatenate([d[d >= 0] for _, d in blocks]))
    n = ltg.shape[0]
    # element rows, block by block: row_dof[r] is the local id of row r
    row_len = np.concatenate([np.full(d.size, d.shape[1]) for _, d in blocks])
    n_rows, nnz = row_len.size, int(row_len.sum())
    idx = np.int32 if max(nnz, n_rows, n + 1) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n_rows + 1, dtype=idx)
    np.cumsum(row_len, out=indptr[1:])
    row_dof = np.empty(n_rows, dtype=idx)
    cols = np.empty(nnz, dtype=idx)
    vals = np.empty(nnz)
    r = 0
    for k, dofs in blocks:
        n_e, m = dofs.shape
        lo, hi = indptr[r], indptr[r + n_e * m]
        local = np.where(dofs >= 0, np.searchsorted(ltg, dofs), n)
        row_dof[r:r + n_e * m] = local.ravel()
        cols[lo:hi].reshape(n_e, m, m)[...] = local[:, None, :]
        vals[lo:hi].reshape(n_e, m, m)[...] = (k + np.swapaxes(k, -1, -2)) * 0.5
        r += n_e * m
    by_col = scipy.sparse.csr_matrix((vals, cols, indptr), shape=(n_rows, n + 1)).tocsc()
    del vals, cols
    end = by_col.indptr[n]
    by_col = scipy.sparse.csc_matrix(
        (by_col.data[:end], row_dof[by_col.indices[:end]], by_col.indptr[:n + 1]),
        shape=(n + 1, n))
    by_row = by_col.tocsr()
    del by_col
    end = by_row.indptr[n]
    s = scipy.sparse.csr_matrix(
        (by_row.data[:end], by_row.indices[:end], by_row.indptr[:n + 1]), shape=(n, n))
    del by_row
    s.sum_duplicates()
    s.eliminate_zeros()
    return SparseMatrix(s.copy(), symmetric=True), ltg


# -- factorization ----------------------------------------------------------

KIND_SPD = "spd"
KIND_SYMMETRIC_INDEFINITE = "symmetric-indefinite"


@dataclass
class Factorization:
    """Opaque handle around a dense LAPACK or SuperLU factorization.

    `offsets` bounds the diagonal blocks of a block-diagonal matrix (block
    j is rows offsets[j]:offsets[j+1]); an unblocked matrix is one block.
    """

    kind: str
    n: int
    method: str
    matrix: SparseMatrix
    offsets: np.ndarray
    _payload: object = field(repr=False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for one rhs vector or a block of rhs columns.

        A plain factor solve: the factor's accuracy was checked once when it
        was made (see `check`), so no residual is computed here.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.n:
            raise ValueError(f"rhs length {b.shape[0]} != matrix order {self.n}")
        if self.n == 0:
            return b.copy()
        return self._raw_solve(b)

    def check(self, x: np.ndarray) -> None:
        """The setup check: x is this factor's solve of probe_rhs(n). Raises
        NumericalError unless the relative residual of every diagonal block
        is at or below REFINE_TOL, so each block is held to its own
        tolerance however large the others are."""
        b = probe_rhs(self.n)
        r = b - self.matrix.scipy_csr() @ x
        starts = self.offsets[:-1][np.diff(self.offsets) > 0]
        rel = np.sqrt(np.add.reduceat(r * r, starts) / np.add.reduceat(b * b, starts))
        bad = np.nonzero(~(rel <= REFINE_TOL))[0]    # a NaN fails too
        if bad.size:
            j = int(np.searchsorted(self.offsets, starts[bad[0]], side="right")) - 1
            raise NumericalError(
                f"factor solve is inaccurate in diagonal block {j}: relative "
                f"residual {rel[bad[0]]:.1e} on the check probe, above {REFINE_TOL:.0e}")

    def inverse(self) -> np.ndarray:
        """Turn the factor into the explicit inverse A^-1, exactly symmetric,
        and return it. A Bunch-Kaufman factor is inverted in its own storage
        by sytri, any other factor solves the columns of the identity; the
        lower triangle is then mirrored into the upper. The record keeps no
        factor afterwards (method, order and matrix stay). A singular
        diagonal block of D raises SingularMatrixError."""
        if self.method == "bunch-kaufman":
            ldu, ipiv, _ = self._payload
            inv, info = dsytri(ldu, ipiv, lower=1, overwrite_a=1)
            if info > 0:
                raise SingularMatrixError(f"singular pivot block at index {info} in sytri")
            if info < 0:
                raise NumericalError(f"sytri illegal argument {-info}")
        else:
            inv = self.solve(np.eye(self.n))
        self._payload = None
        return np.where(np.tri(self.n, dtype=bool), inv, inv.T)

    def _raw_solve(self, bb: np.ndarray) -> np.ndarray:
        if self.method == "cholesky":
            return scipy.linalg.cho_solve(self._payload, bb)
        if self.method == "bunch-kaufman":
            ldu, ipiv, sytrs = self._payload
            x, info = sytrs(ldu, ipiv, bb, lower=1)
            if info != 0:
                raise NumericalError(f"sytrs failed with info={info}")
            return np.asarray(x, dtype=np.float64).reshape(bb.shape)
        if self.method == "splu":
            return self._payload.solve(bb)
        raise NumericalError(f"unknown factorization method {self.method!r}")


def factorize(a: SparseMatrix, kind: str = KIND_SPD, offsets=None,
              probe: bool = True, dense=None) -> Factorization:
    """Factorize a symmetric matrix for repeated solves.

    kind="spd" expects positive definiteness and raises
    NotPositiveDefiniteError when a non-positive pivot shows up, on the
    dense and the sparse path alike; kind="symmetric-indefinite" takes any
    nonsingular symmetric matrix. Exactly singular input raises
    SingularMatrixError. `offsets` bounds the blocks of a block-diagonal
    `a` (default: one block); several blocks go to SuperLU as one matrix,
    and they scope the setup check and the error messages.

    The new factor solves probe_rhs(n) and passes the solution to
    `Factorization.check`, which raises NumericalError naming an inaccurate
    block. probe=False leaves that check to a caller that folds the probe
    into products of its own with the inverse (`bddc.coarse_basis`). A
    caller that holds `a` as a dense array already passes it as `dense`,
    which the dense path factorizes in place of a conversion of `a`.
    """
    if kind not in (KIND_SPD, KIND_SYMMETRIC_INDEFINITE):
        raise ValueError(f"unknown factorization kind {kind!r}")
    n, n_cols = a.shape
    if n != n_cols:
        raise ValueError(f"cannot factorize non-square matrix {n}x{n_cols}")
    if not a.symmetric:
        s = a.scipy_csr()
        if (s != s.T).nnz != 0:
            raise ValueError("factorize requires a symmetric matrix")
    if offsets is None:
        offsets = np.array([0, n], dtype=np.int64)
    else:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) < 0):
            raise ValueError(f"block offsets must rise from 0 to the order {n}")

    def made(method, payload):
        fact = Factorization(kind=kind, n=n, method=method, matrix=a,
                             offsets=offsets, _payload=payload)
        if probe and n:
            fact.check(fact.solve(probe_rhs(n)))
        return fact

    if n == 0:
        return made("empty", None)
    if n <= DENSE_THRESHOLD and offsets.size == 2:
        if dense is None:
            dense = a.scipy_csr().toarray()
        if kind == KIND_SPD:
            try:
                payload = scipy.linalg.cho_factor(dense, lower=True)
            except scipy.linalg.LinAlgError as exc:
                raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
            return made("cholesky", payload)
        sytrf, sytrs = get_lapack_funcs(("sytrf", "sytrs"), (dense,))
        ldu, ipiv, info = sytrf(dense, lower=1)
        if info > 0:
            raise SingularMatrixError(f"singular pivot block at index {info} in sytrf")
        if info < 0:
            raise NumericalError(f"sytrf illegal argument {-info}")
        return made("bunch-kaufman", (ldu, ipiv, sytrs))
    # kind="spd" factors in symmetric mode with diagonal pivots only: an
    # SPD matrix needs no other, so an off-diagonal or non-positive pivot
    # proves the matrix is not positive definite
    spd = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options=dict(SymmetricMode=True)) if kind == KIND_SPD else {}
    try:
        lu = scipy.sparse.linalg.splu(a.scipy_csr().tocsc(), **spd)
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularMatrixError(str(exc)) from exc
        raise NumericalError(str(exc)) from exc
    if kind == KIND_SPD:
        row_of = np.argsort(lu.perm_c)      # original row of each pivot
        bad = np.nonzero((lu.perm_r[row_of] != lu.perm_c[row_of])
                         | (lu.U.diagonal() <= 0))[0]
        if bad.size:
            row = int(row_of[bad[0]])
            j = int(np.searchsorted(offsets, row, side="right")) - 1
            raise NotPositiveDefiniteError(f"matrix is not positive definite: bad "
                                           f"pivot at row {row}, in diagonal block {j}")
    return made("splu", lu)

