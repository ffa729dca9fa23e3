"""Iterative substructuring: interface numbering, the matrix-free Schur
operator, condensed right-hand sides, and interior recovery.

The reduced interface problem S u = g is never assembled. A level's
subdomain matrices arrive as one block-diagonal matrix (one block per
subdomain, from one assembly call). It is split by rows and columns into
block-diagonal K_II, K_IB and K_BB, and K_II is factorized once, so
applying S = R^T (K_BB - K_IB^T K_II^-1 K_IB) R is a few sparse products
and one block-diagonal interior solve per level.
Condensation and recovery serve every level: the level-1 solve, and the
preconditioner's interior corrections on the coarser levels. Interface
sums are ordered scatters in subdomain order, so results are bitwise
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .sparse import Factorization, SparseMatrix, factorize


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
    """One subdomain's interior/interface splitting of its diagonal block."""

    index: int
    local_dofs: np.ndarray          # global level-dof ids, ascending
    interior_pos: np.ndarray        # positions within local_dofs
    interface_pos: np.ndarray
    stacked_ii: Factorization = field(repr=False)   # the level's K_II factor

    @property
    def n_local(self) -> int:
        return self.local_dofs.shape[0]

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

    The same split, level-wide: interior_rows and interface_rows are the
    rows of the level's block-diagonal matrix that are interior and
    interface dofs, ascending; subdomain i owns rows offsets[i]:offsets[i+1],
    stacked interior interior_offsets[i]:interior_offsets[i+1] and stacked
    interface iface_offsets[i]:iface_offsets[i+1]."""

    def __init__(self, subs, k_ii_fact: Factorization, k_ib, k_bb,
                 interior_dofs, iface_index, interior_rows, interface_rows,
                 offsets, interior_offsets, iface_offsets):
        super().__init__(subs)
        self.k_ii_fact, self.k_ib, self.k_bb = k_ii_fact, k_ib, k_bb
        self.interior_dofs, self.iface_index = interior_dofs, iface_index
        self.interior_rows, self.interface_rows = interior_rows, interface_rows
        self.offsets, self.interior_offsets = offsets, interior_offsets
        self.iface_offsets = iface_offsets

    def gather(self, v: np.ndarray, n_iface: int) -> np.ndarray:
        """R^T v: sum stacked interface values into the global interface
        vector, in subdomain order."""
        return np.bincount(self.iface_index, weights=v, minlength=n_iface)


def subdomain_keys(subdomain, dofs, n_dofs: int) -> np.ndarray:
    """Key subdomain * n_dofs + dof of each level dof (subdomain broadcasts
    against dofs); negative dofs stay negative. Summing element matrices
    over these keys (`sparse.sum_elements`) gives a level's block-diagonal
    matrix in subdomain order, whose rows `build_splits` decodes."""
    dofs = np.asarray(dofs, dtype=np.int64)
    return np.where(dofs >= 0, subdomain * n_dofs + dofs, -1)


def build_splits(k: SparseMatrix, keys, iface_dofs, n_dofs: int):
    """Split a level's block-diagonal matrix by the interface dof set and
    factorize its interior part.

    k has one diagonal block per subdomain, in subdomain order, and row j
    is level dof keys[j] of `subdomain_keys` (ascending, as the subassembly
    routines return them). Returns (LevelSplits, InterfaceMap).
    """
    iface_dofs = np.asarray(iface_dofs, dtype=np.int64)
    if np.any(np.diff(iface_dofs) <= 0):
        raise ValueError("interface dofs must be sorted and unique")
    keys = np.asarray(keys, dtype=np.int64)
    if k.shape != (keys.size, keys.size):
        raise ValueError(f"matrix shape {k.shape} != key count {keys.size}")
    sub_of, ltg_all = np.divmod(keys, n_dofs)
    n_subs = int(sub_of[-1]) + 1 if keys.size else 0

    # stacked local vectors: all subdomains' local dofs in subdomain order
    on_iface = np.isin(ltg_all, iface_dofs)
    interior, interface = np.nonzero(~on_iface)[0], np.nonzero(on_iface)[0]
    interior_dofs = ltg_all[interior]
    if np.unique(interior_dofs).shape[0] != interior_dofs.shape[0]:
        raise ValueError("an interior dof belongs to more than one subdomain")
    ends = np.searchsorted(sub_of, np.arange(n_subs + 1))
    cut_i, cut_b = np.searchsorted(interior, ends), np.searchsorted(interface, ends)

    k_all = k.scipy_csr()
    k_rows_i = k_all[interior]
    k_ii = SparseMatrix.from_scipy(k_rows_i[:, interior], symmetric=k.symmetric)
    k_ib = k_rows_i[:, interface]
    k_bb = k_all[interface][:, interface]
    del k_rows_i
    fact = factorize(k_ii, "spd", offsets=cut_i)

    iface_index = np.searchsorted(iface_dofs, ltg_all[interface])
    subs = [SubdomainSplit(i, ltg_all[ends[i]:ends[i + 1]],
                           interior[cut_i[i]:cut_i[i + 1]] - ends[i],
                           interface[cut_b[i]:cut_b[i + 1]] - ends[i], fact)
            for i in range(n_subs)]
    splits = LevelSplits(subs, fact, k_ib, k_bb, interior_dofs, iface_index,
                         interior, interface, ends, cut_i, cut_b)
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
