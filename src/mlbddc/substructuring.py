"""Iterative substructuring: interface numbering, the matrix-free Schur
operator, condensed right-hand sides, and interior recovery.

The reduced interface problem S u = g is never assembled. A level's
subdomain matrices arrive as one block-diagonal matrix (one block per
subdomain, from one assembly call) whose rows are keyed interface-last:
all interior dofs, by subdomain, then all interface dofs, by subdomain.
K_II, K_IB and K_BB, block-diagonal over the subdomains, are then its
contiguous corner and off-diagonal blocks, and K_II is factorized once, so
applying S = R^T (K_BB - K_IB^T K_II^-1 K_IB) R is a few sparse products
and one block-diagonal interior solve per level. The blocks of K_II are
small subdomain interiors in mesh order, so the stacked matrix has a
narrow band and `factorize` gives it one LAPACK band Cholesky factor.
Where that band is as wide as every block, the end of the preconditioner's
setup switches the factor's solves to the blocks' explicit inverses
(`Factorization.stack_inverses`): an interior solve is then one batched
product per block order, not a band solve one column at a time.
Condensation and recovery serve every level: the level-1 solve, and the
preconditioner's interior corrections on the coarser levels. Interface
sums are ordered scatters in subdomain order, so results are bitwise
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

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
    block-diagonal operators stacked from them (one block per subdomain):
    k_ii_fact factorizes stacked interior x stacked interior, k_ib is
    stacked interior x stacked interface, k_bb stacked interface x stacked
    interface (both scipy CSR); interior_dofs maps stacked interior to level
    dofs and iface_index stacked interface to global interface positions.
    Subdomain i owns stacked interior interior_offsets[i]:interior_offsets[i+1]
    and stacked interface iface_offsets[i]:iface_offsets[i+1], dofs
    ascending; no other per-subdomain positions are kept."""

    def __init__(self, subs, k_ii_fact: Factorization, k_ib, k_bb,
                 interior_dofs, iface_index, interior_offsets, iface_offsets):
        super().__init__(subs)
        self.k_ii_fact, self.k_ib, self.k_bb = k_ii_fact, k_ib, k_bb
        self.interior_dofs, self.iface_index = interior_dofs, iface_index
        self.interior_offsets, self.iface_offsets = interior_offsets, iface_offsets

    def gather(self, v: np.ndarray, n_iface: int) -> np.ndarray:
        """R^T v: sum stacked interface values into the global interface
        vector, in subdomain order."""
        return np.bincount(self.iface_index, weights=v, minlength=n_iface)


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


def build_splits(k: SparseMatrix, keys, iface_dofs, n_dofs: int, n_subs: int):
    """Split a level's block-diagonal matrix at its interface and factorize
    its interior part.

    k has one diagonal block per subdomain, and row j is level dof keys[j]
    of `subdomain_keys` (ascending, as the subassembly routines return
    them), so its rows are interface-last: the n_I interior rows of all
    subdomains come first, then the interface rows, each part in subdomain
    order. K_II = k[:n_I, :n_I], K_IB = k[:n_I, n_I:] and K_BB = k[n_I:, n_I:]
    are then contiguous slices, one scipy pass each. Keys that do not ascend
    or whose interface flag disagrees with iface_dofs raise ValueError. A
    subdomain that owns no dof, or no interior dof, which a coarse level can
    have, gets empty blocks. Returns (LevelSplits, InterfaceMap).
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
    k_ib, k_bb = k_all[:n_i, n_i:], k_all[n_i:, n_i:]
    # a slice of the canonical, zero-free level matrix is canonical and zero-free too
    fact = factorize(SparseMatrix(k_all[:n_i, :n_i], symmetric=k.symmetric), offsets=cut_i)
    iface_index = np.searchsorted(iface_dofs, ltg_all[n_i:])
    splits = LevelSplits([SubdomainSplit(i, fact) for i in range(n_subs)], fact, k_ib, k_bb,
                         interior_dofs, iface_index, cut_i, cut_b)
    return splits, InterfaceMap(dofs=iface_dofs)


def schur_apply(splits: LevelSplits, imap: InterfaceMap, x: np.ndarray) -> np.ndarray:
    """y = S x with S = R^T (K_BB - K_IB^T K_II^-1 K_IB) R over the stacked
    blocks, i.e. sum_i R_i^T (K_bb,i - K_ib,i^T K_ii,i^-1 K_ib,i) R_i."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (imap.n,):
        raise ValueError(f"interface vector has length {x.shape}, expected {imap.n}")
    xb = x[splits.iface_index]
    t = splits.k_ii_fact.solve(splits.k_ib @ xb)
    return splits.gather(splits.k_bb @ xb - splits.k_ib.T @ t, imap.n)


def condensed_rhs(splits: LevelSplits, imap: InterfaceMap, f: np.ndarray) -> np.ndarray:
    """Interface right-hand side g = f_G - sum_i R_i^T K_ib,i^T K_ii,i^-1 f_int,i."""
    f = np.asarray(f, dtype=np.float64)
    w = splits.k_ii_fact.solve(f[splits.interior_dofs])
    return f[imap.dofs] - splits.gather(splits.k_ib.T @ w, imap.n)


def recover_interior(splits: LevelSplits, imap: InterfaceMap, u_hat: np.ndarray,
                     f: np.ndarray, n_dofs: int) -> np.ndarray:
    """Complete the interface solution to all level dofs by interior solves.

    With an empty interface this is a direct solve of the whole problem.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    if u_hat.shape != (imap.n,):
        raise ValueError(f"interface vector has length {u_hat.shape}, expected {imap.n}")
    x = np.zeros(n_dofs)
    x[imap.dofs] = u_hat
    fint = np.asarray(f, dtype=np.float64)[splits.interior_dofs]
    x[splits.interior_dofs] = splits.k_ii_fact.solve(
        fint - splits.k_ib @ u_hat[splits.iface_index])
    return x
