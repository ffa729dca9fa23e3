"""Iterative substructuring: interface numbering, the Schur operator in
global interface numbering, condensed right-hand sides, and interior
recovery.

A level's subdomain matrices arrive as one block-diagonal matrix (one block
per subdomain, from one assembly call) whose rows are keyed interface-last:
all interior dofs, by subdomain, then all interface dofs, by subdomain.
K_II, K_IB and K_BB, block-diagonal over the subdomains, are then its
contiguous corner and off-diagonal blocks. K_II is factorized once. K_IB is
kept with its columns in global interface numbering, K_IG = K_IB R (R maps
the stacked interface onto the global one), so condensation and recovery
read and write global interface vectors with no gather or scatter. Level 1,
the only level whose S is applied, also holds the assembled interface
block K_GG = R^T K_BB R = sum_i R_i^T K_BB,i R_i, built once by one sparse
product, so applying S = K_GG - K_IG^T K_II^-1 K_IG is two sparse products,
one transposed product and one block-diagonal interior solve, all in
global numbering. The stacked K_BB is then read only by the
preconditioner's setup, which forms the lower triangle of each subdomain's
Schur complement, so it keeps only its lower triangle. The blocks of K_II
are small subdomain interiors in mesh order, so the stacked matrix has a
narrow band and `factorize` gives it one LAPACK band Cholesky factor.
Where that band is as wide as every block, the end of the preconditioner's
setup switches the factor's solves to the blocks' explicit inverses
(`Factorization.stack_inverses`): an interior solve is then one batched
product per block order, not a band solve one column at a time.
Condensation and recovery serve every level: the level-1 solve, and the
preconditioner's interior corrections on the coarser levels. Interface
sums run in subdomain order, so results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse

from .sparse import Factorization, SparseMatrix, factorize, sorted_unique


@dataclass
class InterfaceMap:
    """Global interface numbering: dofs holds level-dof ids ordered by
    (node, component)."""

    dofs: np.ndarray

    @property
    def n(self) -> int:
        return self.dofs.shape[0]


@dataclass
class SubdomainSplit:
    """One subdomain of a level's splitting: its index and the level's K_II
    factor. Its interior and interface are slices of the level's stacks
    (`LevelSplits` offsets)."""

    index: int
    stacked_ii: Factorization = field(repr=False)   # the level's K_II factor

    @property
    def k_ii_fact(self) -> Factorization:
        """Record of this subdomain's diagonal block of the level's K_II
        factor: method, order and block matrix, without a factor of its own."""
        lo, hi = (int(b) for b in self.stacked_ii.offsets[self.index:self.index + 2])
        k_ii = self.stacked_ii.matrix
        return replace(self.stacked_ii, n=hi - lo, offsets=np.array([0, hi - lo]),
                       matrix=replace(k_ii, csr=k_ii.scipy_csr()[lo:hi, lo:hi]), _payload=None)


class LevelSplits(list):
    """The SubdomainSplit records of one level, in subdomain order, with the
    operators made from them (one block per subdomain, scipy CSR): k_ii_fact
    factorizes stacked interior x stacked interior; k_ig is K_IB with global
    interface columns (stacked interior x global interface); k_bb is the
    lower triangle of the stacked interface x stacked interface block; k_gg,
    level 1's only, is the assembled global interface x global interface
    block R^T K_BB R (None on coarser levels). interior_dofs maps stacked
    interior to level dofs and iface_index stacked interface to global
    interface positions (R). Subdomain i owns stacked interior
    interior_offsets[i]:interior_offsets[i+1] and stacked interface
    iface_offsets[i]:iface_offsets[i+1], dofs ascending; no other
    per-subdomain positions are kept."""

    def __init__(self, subs, k_ii_fact: Factorization, k_ig, k_bb, k_gg,
                 interior_dofs, iface_index, interior_offsets, iface_offsets):
        super().__init__(subs)
        self.k_ii_fact, self.k_ig, self.k_bb, self.k_gg = k_ii_fact, k_ig, k_bb, k_gg
        self.interior_dofs, self.iface_index = interior_dofs, iface_index
        self.interior_offsets, self.iface_offsets = interior_offsets, iface_offsets


def subdomain_keys(subdomain, dofs, n_dofs: int, n_subs: int, iface_dofs) -> np.ndarray:
    """Key (is_interface * n_subs + subdomain) * n_dofs + dof of each level
    dof (subdomain broadcasts against dofs), is_interface 1 for the dofs in
    iface_dofs; negative dofs stay negative. Summing element matrices over
    these keys (`sparse.sum_elements`) gives a level's block-diagonal matrix
    in split order: every subdomain's interior dofs, by subdomain, then every
    subdomain's interface dofs, by subdomain, each run ascending by dof. So
    `build_splits` cuts K_II, K_IB and K_BB as contiguous blocks."""
    dofs = np.asarray(dofs, dtype=np.int64)
    on_iface = np.isin(dofs, iface_dofs)
    return np.where(dofs >= 0, (on_iface * n_subs + subdomain) * n_dofs + dofs, -1)


def build_splits(k: SparseMatrix, keys, iface_dofs, n_dofs: int, n_subs: int,
                 interface_matrix: bool = True):
    """Split a level's block-diagonal matrix at its interface and factorize
    its interior part.

    k has one diagonal block per subdomain, and row j is level dof keys[j]
    of `subdomain_keys` (ascending, as the subassembly routines return
    them), so its rows are interface-last: the n_I interior rows of all
    subdomains come first, then the interface rows, each part in subdomain
    order. K_II = k[:n_I, :n_I] and K_IB = k[:n_I, n_I:] are then contiguous
    slices, one scipy pass each, and K_BB = k[n_I:, n_I:] is read in place
    from k's interface rows, never copied whole: each row holds its K_BI
    entries, then its K_BB entries, the lower triangle's up to the diagonal.
    A subdomain's interface dofs ascend, and so do their global positions,
    so relabelling K_IB's columns by R gives K_IG in canonical order. With
    `interface_matrix` (the level whose Schur operator is applied) K_GG =
    R^T (K_BB R) is one sparse product, which sums each entry's subdomain
    copies in subdomain order. K_BB keeps its lower triangle. Keys that do not
    ascend or whose interface flag disagrees with iface_dofs raise
    ValueError. A subdomain that owns no dof, or no interior dof, which a
    coarse level can have, gets empty blocks. Returns (LevelSplits,
    InterfaceMap).
    """
    iface_dofs = np.asarray(iface_dofs, dtype=np.int64)
    if np.any(np.diff(iface_dofs) <= 0):
        raise ValueError("interface dofs must be sorted and unique")
    keys = np.asarray(keys, dtype=np.int64)
    if k.shape != (keys.size, keys.size):
        raise ValueError(f"matrix shape {k.shape} != key count {keys.size}")
    block, ltg_all = np.divmod(keys, n_dofs)
    on_iface = np.zeros(n_dofs, dtype=bool)
    on_iface[iface_dofs] = True
    if (np.any(np.diff(keys) <= 0) or np.any(block >= 2 * n_subs)
            or not np.array_equal(on_iface[ltg_all], block >= n_subs)):
        raise ValueError("keys are not interface-last: they must ascend and flag exactly "
                         "the interface dofs, (is_interface * n_subs + subdomain) * n_dofs "
                         "+ dof as subdomain_keys makes them")
    n_i = int(np.searchsorted(block, n_subs))
    interior_dofs = ltg_all[:n_i].copy()
    if sorted_unique(interior_dofs).shape[0] != n_i:
        raise ValueError("an interior dof belongs to more than one subdomain")
    cut_i = np.searchsorted(block[:n_i], np.arange(n_subs + 1))
    cut_b = np.searchsorted(block[n_i:], np.arange(n_subs, 2 * n_subs + 1))

    k_all = k.scipy_csr()
    # a slice of the canonical, zero-free level matrix is canonical and zero-free too
    fact = factorize(SparseMatrix(k_all[:n_i, :n_i], symmetric=k.symmetric), offsets=cut_i)
    iface_index = np.searchsorted(iface_dofs, ltg_all[n_i:])
    del block, ltg_all, on_iface            # freed before the blocks are read
    n_g, n_b = iface_dofs.size, iface_index.size
    k_ib = k_all[:n_i, n_i:]
    glob = iface_index.astype(k_ib.indices.dtype)
    k_ig = scipy.sparse.csr_matrix((k_ib.data, glob[k_ib.indices], k_ib.indptr), shape=(n_i, n_g))
    del k_ib
    # k's interface rows, read in place: each holds its K_BI entries, then from
    # `first` on its K_BB entries, whose lower triangle ends before `past`
    at = k_all.indptr[n_i]
    ptr, cols, vals = k_all.indptr[n_i:] - at, k_all.indices[at:], k_all.data[at:]
    first = _row_search(ptr[:-1], ptr[1:], cols, n_i - 1)
    k_gg = None
    if interface_matrix:
        # K_BB R: every interface row split in two, its K_BI part (a row that R^T
        # never reads) and its K_BB part, columns relabelled by R; R^T of it sums
        # each global row's copies in subdomain order
        halves = np.empty(2 * n_b + 1, dtype=ptr.dtype)
        halves[0::2], halves[1::2] = ptr, first
        # an interior column (of a row never read) is relabelled 0
        k_bb_r = scipy.sparse.csr_matrix((vals, glob[np.maximum(cols - n_i, 0)], halves),
                                         shape=(2 * n_b, n_g))
        r_t = scipy.sparse.csr_matrix(
            (np.ones(n_b), 2 * np.argsort(iface_index, kind="stable").astype(ptr.dtype) + 1,
             np.concatenate([[0], np.cumsum(np.bincount(iface_index, minlength=n_g))])),
            shape=(n_g, 2 * n_b))
        k_gg = r_t @ k_bb_r
        del k_bb_r, r_t
        k_gg.sort_indices()
    # K_BB's lower triangle, its entries marked by a running sum of +1 at each
    # row's `first` and -1 at its `past` (the full block is never copied).
    # Every row stores its diagonal, so both ascend strictly
    diagonal = np.arange(n_i, n_i + n_b, dtype=cols.dtype)
    past = _row_search(first, ptr[1:], cols, diagonal)
    if n_b and not np.array_equal(cols[past - 1], diagonal):
        raise ValueError("an interface row stores no diagonal entry")
    mark = np.zeros(cols.size + 1, dtype=np.int8)
    mark[first] = 1
    mark[past] -= 1
    low = np.cumsum(mark[:-1], dtype=np.int8).view(bool)
    del mark
    kept = np.zeros(n_b + 1, dtype=ptr.dtype)
    np.cumsum(past - first, out=kept[1:])
    del first, past
    data, indices = vals[low], cols[low]
    del low
    indices -= n_i
    k_bb = scipy.sparse.csr_matrix((data, indices, kept), shape=(n_b, n_b))
    splits = LevelSplits([SubdomainSplit(i, fact) for i in range(n_subs)], fact, k_ig, k_bb,
                         k_gg, interior_dofs, iface_index, cut_i, cut_b)
    return splits, InterfaceMap(dofs=iface_dofs)


def _row_search(lo, hi, indices, target) -> np.ndarray:
    """For each row r, the first position in lo[r]:hi[r] of a CSR's
    ascending indices whose index is above target[r] (hi[r] if none): one
    vectorized bisection over all rows, with no array as long as indices."""
    lo, hi = lo.copy(), hi.copy()
    while (open_ := lo < hi).any():
        mid = lo + (hi - lo) // 2
        up = open_ & (indices[np.minimum(mid, indices.size - 1)] <= target)
        np.copyto(lo, mid + 1, where=up)
        np.copyto(hi, mid, where=open_ & ~up)
    return lo


def schur_apply(splits: LevelSplits, imap: InterfaceMap, x: np.ndarray) -> np.ndarray:
    """y = S x with S = K_GG - K_IG^T K_II^-1 K_IG in global interface
    numbering, which is R^T (K_BB - K_IB^T K_II^-1 K_IB) R over the stacked
    blocks, i.e. sum_i R_i^T (K_bb,i - K_ib,i^T K_ii,i^-1 K_ib,i) R_i. Only a
    level whose splits hold K_GG (`build_splits`' interface_matrix) has it."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (imap.n,):
        raise ValueError(f"interface vector has length {x.shape}, expected {imap.n}")
    if splits.k_gg is None:
        raise ValueError("these splits hold no assembled interface matrix K_GG")
    t = splits.k_ii_fact.solve(splits.k_ig @ x)
    return splits.k_gg @ x - splits.k_ig.T @ t


def condensed_rhs(splits: LevelSplits, imap: InterfaceMap, f: np.ndarray) -> np.ndarray:
    """Interface right-hand side g = f_G - K_IG^T K_II^-1 f_I, which is
    f_G - sum_i R_i^T K_ib,i^T K_ii,i^-1 f_int,i."""
    f = np.asarray(f, dtype=np.float64)
    w = splits.k_ii_fact.solve(f[splits.interior_dofs])
    return f[imap.dofs] - splits.k_ig.T @ w


def recover_interior(splits: LevelSplits, imap: InterfaceMap, u_hat: np.ndarray,
                     f: np.ndarray, n_dofs: int) -> np.ndarray:
    """Complete the interface solution to all level dofs by interior solves,
    u_I = K_II^-1 (f_I - K_IG u_hat).

    With an empty interface this is a direct solve of the whole problem.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    if u_hat.shape != (imap.n,):
        raise ValueError(f"interface vector has length {u_hat.shape}, expected {imap.n}")
    x = np.zeros(n_dofs)
    x[imap.dofs] = u_hat
    fint = np.asarray(f, dtype=np.float64)[splits.interior_dofs]
    x[splits.interior_dofs] = splits.k_ii_fact.solve(fint - splits.k_ig @ u_hat)
    return x
