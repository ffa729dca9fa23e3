"""CSR storage, element sums and direct factorizations.

`SparseMatrix` holds one canonical scipy CSR matrix and a symmetry flag
that `factorize` reads; products use the scipy matrix directly. Every
level sums its element matrices here (Q1 elements, or subdomains as
coarse elements), all subdomains of a level in one call: keying each
element's dofs by subdomain makes the sum one block-diagonal matrix.
The sum sorts the node pairs that couple, skipping any pair whose block is
zero in every element (two stable CSR/CSC transposes), then sums each of
the dofs_per_node^2 components' duplicates left to right, in element
order, so it is bitwise symmetric with no symmetrization pass.
Factorizations are of SPD matrices only: LAPACK's band Cholesky while
the band storage of every diagonal block fits a fixed budget, and SuperLU
in symmetric mode above it (scipy.sparse.linalg is imported only then);
both paths reject a non-positive pivot. A
block-diagonal matrix, such as the stacked interior blocks of all
subdomains of a level, is factorized once as a whole: it fills in only
inside its blocks, so its band factor is its blocks' band factors side by
side, and the budget bounds each block's share; a triangular solve with
one block's factor runs on the band, or on a dense copy of the block's
triangle where the band stores at least as much. Where every block is that
short, the factor can also take its blocks' explicit inverses, one stack
per block order (`Factorization.stack_inverses`): its solves are then one
batched product per order, and the band serves the triangular solves. Each
factor's accuracy is checked right after it is made, and again when it
takes inverse stacks, by solving a fixed probe right-hand side and
checking the residual of every diagonal block; its later solves, by band,
stacks or SuperLU, are plain solves with no residual check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dtrmm, dtrsm
from scipy.linalg.lapack import dlauum, dpbtrf, dpbtrs, dtbtrs, dtrtri

from .errors import NotPositiveDefiniteError, NumericalError

# A factor is LAPACK band Cholesky while the band storage of each diagonal
# block, (kd + 1) * n_j entries for half-bandwidth kd and block order n_j,
# is at most DENSE_THRESHOLD**2 (so every dense matrix up to this order
# qualifies, and so does a stack of them), and SuperLU above.
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
    """One canonical scipy CSR matrix (sorted indices, no duplicates, no
    stored zeros). Symmetric matrices store both triangles; the flag only
    asserts that the stored entries are symmetric."""

    csr: scipy.sparse.csr_matrix
    symmetric: bool = False

    def scipy_csr(self) -> scipy.sparse.csr_matrix:
        return self.csr

    @property
    def shape(self) -> tuple:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)


def sorted_unique(a) -> np.ndarray:
    """np.unique of an integer array, from one sort and an adjacent-difference
    mask (numpy's hash-based unique of integers is several times slower)."""
    a = np.sort(a, axis=None)
    return a[np.r_[True, a[1:] != a[:-1]][:a.size]]


# -- element assembly ---------------------------------------------------------

def _element_nodes(dofs: np.ndarray, b: int) -> np.ndarray:
    """(n_e, m / b) nodes, each named by its first dof id b * i (negative for
    a dropped node), of (n_e, m) element dof ids that are node-major runs of
    b; ValueError if they are not."""
    n_e, m = dofs.shape
    if m % b == 0:
        runs = dofs.reshape(n_e, m // b, b)
        first = runs[..., 0]
        # with b = 1 every id is a run of its own
        if b == 1 or np.array_equal(np.maximum(runs, -1),
                                    np.maximum(first[..., None] // b * b + np.arange(b), -1)):
            return first
    raise ValueError(f"element dof ids are not node-major runs of dofs_per_node={b}: "
                     f"ids b * node + c for c = 0..{b - 1}, or {b} negative ids")


def sum_elements(blocks, dofs_per_node: int):
    """Sum dense element matrices into one symmetric sparse matrix; Q1
    elements and coarse elements (subdomains) of every level go through here.

    blocks lists (k, dofs) pairs: dofs is an (n_e, m) array of element dof
    ids, and k is one (m, m) matrix shared by the n_e elements or an
    (n_e, m, m) stack. The ids are node-major runs: with b = dofs_per_node,
    ids b * i + c for c = 0..b-1 are node i's, and a dropped node has all b
    ids negative (anything else raises ValueError). Each element matrix
    enters as its symmetric part (k + k^T)/2, which is k itself for a
    symmetric k. Entries in a row or column with a negative id are dropped.
    Returns (K, local_to_global): K is numbered over the ids the kept
    entries touch, ascending, and local_to_global lists those ids.

    K_ij is the left-to-right sum of its contributions from nonzero blocks,
    in block order, then element order: a local node pair whose b x b block
    is zero in every element of its block (the shared matrix, or every
    member of a stack) is not summed at all. Adding +-0.0 changes no
    nonzero sum, so this is bitwise the sum of all contributions. K is
    bitwise symmetric whenever no element repeats an id, and bitwise equal
    to the sum of the same blocks with dofs_per_node 1. Entries that sum to
    exactly zero are not stored, and K owns compact, canonical CSR arrays.

    Two linear, stable counting sorts order the summed node pairs (b^2
    times fewer than dof pairs), each carrying the int32 index of its b x b
    block in a table of the symmetrized element matrices: a CSR row per
    (element, local node) goes to CSC, then, rows relabelled by node, back
    to CSR, leaving duplicates adjacent in element order (dropped nodes,
    relabelled n, sort last and are cut off). Each component gathers its
    values in that order and sums duplicates sequentially into one row of
    a (b^2, pairs) array, which is transposed once as the blocks expand to
    dof rows.
    """
    b = dofs_per_node
    blocks = [(np.asarray(k, dtype=np.float64), _element_nodes(np.asarray(d, dtype=np.int64), b))
              for k, d in blocks]
    nodes = sorted_unique(np.concatenate([nd[nd >= 0] for _, nd in blocks]))   # first ids
    n = nodes.shape[0]
    table = np.empty(sum(k.size for k, _ in blocks))
    pairs, row_len = [], []
    base = 0
    for k, nd in blocks:
        n_e, p = nd.shape
        # the symmetrized element matrices, node-pair blocks contiguous: [e,] A, B, c, d
        t = table[base:base + k.size]
        kp = k.reshape(k.shape[:-2] + (p, b, p, b)).swapaxes(-3, -2)
        np.add(kp, kp.swapaxes(-4, -3).swapaxes(-2, -1), out=t.reshape(kp.shape))
        t *= 0.5
        # the local node pairs a * p + c summed: those nonzero in some element
        nonzero = t.reshape(k.shape[:-2] + (p * p, b * b)) != 0
        q = np.flatnonzero(nonzero.any(axis=(0, 2) if k.ndim == 3 else 1))
        pairs.append(q)
        row_len.append(np.tile(np.bincount(q // p, minlength=p), n_e))
        base += k.size
    # the element matrices live on in the table only: a caller that hands its
    # blocks over (a generator) has them freed here
    blocks = [(nd, k.ndim == 3, k.size) for k, nd in blocks]
    del k, kp, t, nonzero
    # element rows, block by block: row_node[r] is the local node of row r
    row_len = np.concatenate(row_len)
    n_rows, nnz = row_len.size, int(row_len.sum())
    idx = np.int32 if max(nnz, n_rows, n + 1, table.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n_rows + 1, dtype=idx)
    np.cumsum(row_len, out=indptr[1:])
    row_node = np.empty(n_rows, dtype=idx)
    cols = np.empty(nnz, dtype=idx)
    src = np.empty(nnz, dtype=idx)
    r = base = 0
    for (nd, stack, size), q in zip(blocks, pairs):
        n_e, p = nd.shape
        lo, hi = indptr[r], indptr[r + n_e * p]
        local = np.where(nd >= 0, np.searchsorted(nodes, nd), n).astype(idx)
        row_node[r:r + n_e * p] = local.ravel()
        # (in-range indices: mode="clip" only spares take a buffered copy of out)
        np.take(local, q % p, axis=1, out=cols[lo:hi].reshape(n_e, q.size), mode="clip")
        # the table index of each summed block: element 0's, then a stack's later members
        first = src[lo:hi].reshape(n_e, q.size)
        first[...] = base + b * b * q
        if stack:
            first += idx(p * p * b * b) * np.arange(n_e, dtype=idx)[:, None]
        r, base = r + n_e * p, base + size
    del blocks, pairs, row_len, first               # first views src
    by_col = scipy.sparse.csr_matrix((src, cols, indptr), shape=(n_rows, n + 1)).tocsc()
    del src, cols
    end = by_col.indptr[n]
    by_col = scipy.sparse.csc_matrix(
        (by_col.data[:end], row_node[by_col.indices[:end]], by_col.indptr[:n + 1]),
        shape=(n + 1, n))
    by_row = by_col.tocsr()
    del by_col, row_node
    end = by_row.indptr[n]
    src, indices, indptr = by_row.data[:end], by_row.indices[:end], by_row.indptr[:n + 1]
    del by_row
    if b > 1:   # b^2 gathers repay one cast of the index to intp
        src = src.astype(np.intp)
    for c in range(b * b):
        # values table[src + c]; scipy sums duplicates as a left fold (np.add.reduceat
        # does not) and compacts the index arrays in place: all but the last get copies
        last = c == b * b - 1
        part = scipy.sparse.csr_matrix((table[c:][src], indices if last else indices.copy(),
                                        indptr if last else indptr.copy()), shape=(n, n))
        part.sum_duplicates()
        if b > 1:
            if c == 0:
                values = np.empty((b * b, part.nnz))
            values[c] = part.data
    del src, indices, indptr, table
    s = part
    if b > 1:   # expand the b x b blocks to dof rows (with b = 1 the sum is K)
        values = np.ascontiguousarray(values.T).reshape(-1, b, b)
        s = scipy.sparse.bsr_matrix((values, part.indices, part.indptr), shape=(n * b, n * b))
        del part, values
        s = s.tocsr()
    s.eliminate_zeros()
    return SparseMatrix(s.copy(), symmetric=True), (nodes[:, None] + np.arange(b)).ravel()


# -- factorization ----------------------------------------------------------

@dataclass
class Factorization:
    """Opaque handle around a band Cholesky factor (LAPACK lower band
    storage) or a SuperLU factorization of an SPD matrix.

    `offsets` bounds the diagonal blocks of a block-diagonal matrix (block
    j is rows offsets[j]:offsets[j+1]); an unblocked matrix is one block.
    A band factor solves by LAPACK's dpbtrs until `stack_inverses` gives it
    inverse stacks: then each solve is one batched product per block order,
    and the band serves `lower_solve` only.
    """

    n: int
    method: str
    matrix: SparseMatrix
    offsets: np.ndarray
    _payload: object = field(repr=False)
    # (rows, inverses) per block order, from `stack_inverses`; a copy made
    # by dataclasses.replace starts without them
    _stacks: list | None = field(default=None, init=False, repr=False)

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

    @property
    def kd(self):                 # the band factor's half-bandwidth, else None
        return self._payload.shape[0] - 1 if self.method == "cholesky" else None

    @property
    def storage(self) -> str:
        """What the solves read, for the setup log: the band (kd, bytes) or
        the inverse stacks ((order, count) per stack, bytes)."""
        if self._stacks is not None:
            return (f"inverse stacks (order, count) "
                    f"{[(inv.shape[1], inv.shape[0]) for _, inv in self._stacks]}, "
                    f"{sum(inv.nbytes for _, inv in self._stacks)} bytes")
        if self.method == "cholesky":
            return f"band kd={self.kd}, {self._payload.nbytes} bytes"
        return self.method

    @property
    def stackable(self) -> bool:
        """Whether `stack_inverses` gives this factor inverse stacks: a band
        factor with two nonempty blocks or more, each of which `takes_dense`."""
        sizes = np.diff(self.offsets)
        return (self.method == "cholesky" and np.count_nonzero(sizes) >= 2
                and 2 * self.kd + 1 >= sizes.max())

    @property
    def solve_entries(self) -> int:
        """The factor entries one solve reads once `stack_inverses` has run:
        each inverse stack once, the band twice (dpbtrs's two sweeps), or
        SuperLU's L and U twice."""
        if self.stackable:
            return int(np.sum(np.diff(self.offsets) ** 2))
        if self.method == "cholesky":
            return 2 * self._payload.size
        if self.method == "splu":
            return 2 * (self._payload.L.nnz + self._payload.U.nnz)
        return 0

    def takes_dense(self, j: int) -> bool:
        """Whether `lower_solve` copies block j's triangle: where the band stores
        as many entries or more, (kd + 1) n_j >= n_j (n_j + 1) / 2, 2 kd + 1 >= n_j."""
        n_j = self.offsets[j + 1] - self.offsets[j]
        return self.method == "cholesky" and 2 * self.kd + 1 >= n_j

    def lower_solve(self, j: int, b: np.ndarray, right: bool = False) -> np.ndarray:
        """L_j^-1 b for diagonal block j of a band Cholesky factor L L^T and b
        columns over its rows, or with `right` b L_j^-T and b rows over its
        columns; b is overwritten when F-ordered, and returned as it is when
        empty (LAPACK's dtbtrs corrupts the heap on an empty b). Block j's
        columns of the band storage are its own band factor L_j, since a
        block-diagonal matrix fills in only inside its blocks. Where
        `takes_dense(j)`, L_j is copied into a dense lower triangle for BLAS
        dtrsm (level 3); a narrower band keeps LAPACK's dtbtrs, which touches
        only the band and solves from the left (b L_j^-T = (L_j^-1 b^T)^T)."""
        if not b.size:
            return b
        if not self.takes_dense(j):
            band = self._payload[:, self.offsets[j]:self.offsets[j + 1]]
            x = dtbtrs(band, b.T if right else b, uplo="L", overwrite_b=1)[0]
            return x.T if right else x
        return dtrsm(1.0, self._dense_lower(j), b, side=int(right),
                     lower=1, trans_a=int(right), overwrite_b=1)

    def _dense_lower(self, j: int) -> np.ndarray:
        """Block j's band factor L_j copied into a fresh F-order lower triangle.
        Column c's band entries L[c + d, c] go to F-order flat index
        c * (n + 1) + d: those past row n land in the strict upper triangle
        (or past its end), which no lower-triangle routine reads."""
        lo, hi = self.offsets[j], self.offsets[j + 1]
        band, n = self._payload[:, lo:hi], hi - lo
        rows = min(band.shape[0], n)
        dense = np.zeros(n * (n + 1))
        dense.reshape(n, n + 1)[:, :rows] = band[:rows].T
        return dense[:n * n].reshape(n, n, order="F")

    def stack_inverses(self) -> None:
        """Make this band factor solve by its blocks' explicit inverses, if it
        has two nonempty blocks or more and every block `takes_dense`; leave
        any other factor as it is. Each block's inverse, exactly symmetric, is
        made by `spd_inverse` from the block's own band factor and stored in
        one (count, n_j, n_j) stack per block order n_j, so a solve is one
        batched product per order. dpbtrs runs one column of the band at a
        time, so on bands this short it is bound by latency, not by the bytes
        it reads. The band is kept for `lower_solve`. The stacked path runs
        the setup check again (`check`), which raises NumericalError naming
        an inaccurate block."""
        if not self.stackable:
            return
        sizes = np.diff(self.offsets)
        stacks = []
        for n_j in np.unique(sizes[sizes > 0]).tolist():
            blocks = np.flatnonzero(sizes == n_j)
            inv, lower = np.empty((blocks.size, n_j, n_j)), np.tri(n_j, dtype=bool)
            for k, j in enumerate(blocks.tolist()):
                spd_inverse(self._dense_lower(j), inv[k], lower)
            rows = (self.offsets[blocks][:, None] + np.arange(n_j)).ravel()
            if rows[-1] - rows[0] == rows.size - 1:          # adjacent blocks: a view
                rows = slice(int(rows[0]), int(rows[-1]) + 1)
            stacks.append((rows, inv))
        self._stacks = stacks
        self.check(self.solve(probe_rhs(self.n)))

    def _raw_solve(self, bb: np.ndarray) -> np.ndarray:
        if self._stacks is not None:
            b = bb.reshape(self.n, -1)
            x = np.empty_like(b)
            for rows, inv in self._stacks:
                m, n_j = inv.shape[:2]
                x[rows] = np.matmul(inv, b[rows].reshape(m, n_j, -1)).reshape(m * n_j, -1)
            return x.reshape(bb.shape)
        if self.method == "cholesky":
            return dpbtrs(self._payload, bb, lower=1)[0]
        return self._payload.solve(bb)


def factorize(a: SparseMatrix, offsets=None) -> Factorization:
    """Factorize a symmetric positive definite matrix for repeated solves.

    `offsets` bounds the blocks of a block-diagonal `a` (default: one
    block). With half-bandwidth kd (the largest i - j of a stored entry)
    and largest block order n_max, `a` goes to LAPACK's band Cholesky
    dpbtrf when (kd + 1) * n_max <= DENSE_THRESHOLD**2, its band storage
    ab[i - j, j] = a_ij written in place from the lower triangle of the CSR
    (at F-order flat index j * kd + i, by int32 indices when they fit);
    otherwise to SuperLU. The blocks are factorized as one matrix: the band
    factor is the blocks' own band factors side by side (see `lower_solve`),
    so the budget bounds each block's. The blocks also scope the setup
    check and the error messages. A non-positive pivot, or an exactly
    singular SuperLU pivot, raises NotPositiveDefiniteError. The new factor
    solves probe_rhs(n) and passes the solution to `Factorization.check`,
    which raises NumericalError naming an inaccurate block.
    """
    n, n_cols = a.shape
    if n != n_cols:
        raise ValueError(f"cannot factorize non-square matrix {n}x{n_cols}")
    s = a.scipy_csr()
    if not a.symmetric and (s != s.T).nnz != 0:
        raise ValueError("factorize requires a symmetric matrix")
    if offsets is None:
        offsets = np.array([0, n], dtype=np.int64)
    else:
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) < 0):
            raise ValueError(f"block offsets must rise from 0 to the order {n}")

    def made(method, payload):
        fact = Factorization(n=n, method=method, matrix=a, offsets=offsets, _payload=payload)
        if n:
            fact.check(fact.solve(probe_rhs(n)))
        return fact

    def not_positive_definite(row):
        j = int(np.searchsorted(offsets, row, side="right")) - 1
        return NotPositiveDefiniteError(f"matrix is not positive definite: bad "
                                        f"pivot at row {row}, in diagonal block {j}")

    if n == 0:
        return made("empty", None)
    counts = np.diff(s.indptr)
    filled = np.nonzero(counts)[0]
    kd = int(np.max(filled - np.minimum.reduceat(s.indices, s.indptr[filled]), initial=0))
    if (kd + 1) * int(np.diff(offsets).max()) <= DENSE_THRESHOLD ** 2:
        idx = np.int32 if (kd + 1) * n <= np.iinfo(np.int32).max else np.int64
        row = np.repeat(np.arange(n, dtype=idx), counts)
        low = row >= s.indices
        flat = s.indices[low].astype(idx, copy=False)
        flat *= kd
        flat += row[low]
        del row
        ab = np.zeros((kd + 1, n), order="F")
        ab.reshape(-1, order="F")[flat] = s.data[low]
        band, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info > 0:       # the leading minor of order info is not PD
            raise not_positive_definite(info - 1)
        return made("cholesky", band)
    # symmetric mode with diagonal pivots only: an SPD matrix needs no
    # other, so an off-diagonal or non-positive pivot proves the matrix is
    # not positive definite
    from scipy.sparse.linalg import splu     # on demand: most runs never load it

    try:
        lu = splu(s.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                      diag_pivot_thresh=0.0,
                                      options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
        raise NumericalError(str(exc)) from exc
    row_of = np.argsort(lu.perm_c)      # original row of each pivot
    bad = np.nonzero((lu.perm_r[row_of] != lu.perm_c[row_of]) | (lu.U.diagonal() <= 0))[0]
    if bad.size:
        raise not_positive_definite(int(row_of[bad[0]]))
    return made("splu", lu)


def spd_inverse(low: np.ndarray, out: np.ndarray, lower: np.ndarray) -> None:
    """Write A^-1, exactly symmetric, into `out` from the lower Cholesky factor
    L of an SPD A of order n >= 1 (`low`, F order, overwritten; `lower` is
    np.tri(n, dtype=bool)). L^-1 = [L11 0; L21 L22]^-1 is recursive (Elmroth,
    Gustavson, Jonsson & Kagstrom, SIAM Review 46, 2004): halves to order 64,
    dtrtri at the leaves and L21 <- -L22^-1 L21 L11^-1 by two dtrmm, at potrf's
    rate where OpenBLAS's dtrtri runs at a third of it. dlauum then forms the
    lower triangle of A^-1 = L^-T L^-1, as potri would."""
    def tri_inverse(l):
        if l.shape[0] <= 64:
            return dtrtri(l, lower=1, overwrite_c=1)[0]
        h = l.shape[0] // 2
        l11, l22 = (tri_inverse(np.array(d, order="F")) for d in (l[:h, :h], l[h:, h:]))
        l21 = dtrmm(1.0, l11, np.array(l[h:, :h], order="F"), side=1, lower=1, overwrite_b=1)
        l[h:, :h] = dtrmm(-1.0, l22, l21, lower=1, overwrite_b=1)
        l[:h, :h], l[h:, h:] = l11, l22
        return l

    inv = dlauum(tri_inverse(low), lower=1, overwrite_c=1)[0]
    np.copyto(out, inv.T)
    np.copyto(out, inv, where=lower)
