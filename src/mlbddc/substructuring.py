"""Iterative substructuring: interface numbering, the matrix-free Schur
operator, condensed right-hand sides, and interior recovery.

The reduced interface problem S u = g is never assembled. The subdomain
blocks of a level are stacked into block-diagonal K_II, K_IB and K_BB, and
K_II is factorized once, so applying S = R^T (K_BB - K_IB^T K_II^-1 K_IB) R
is a few sparse products and one block-diagonal interior solve per level.
Condensation and recovery serve every level: the level-1 solve, and the
preconditioner's interior corrections on the coarser levels. Interface
sums are ordered scatters in subdomain order, so results are bitwise
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse

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
    """One subdomain's interior/interface splitting of K_i."""

    index: int
    local_dofs: np.ndarray          # global level-dof ids, ascending
    interior_pos: np.ndarray        # positions within local_dofs
    interface_pos: np.ndarray
    k_local: SparseMatrix
    stacked_ii: Factorization = field(repr=False)   # the level's K_II factor

    @property
    def n_local(self) -> int:
        return self.local_dofs.shape[0]

    @property
    def k_ii_fact(self) -> Factorization:
        """Record of this subdomain's diagonal block of the level's K_II
        factor: method, order and block matrix, without a factor of its own."""
        pos = self.interior_pos
        return replace(self.stacked_ii, n=pos.size, matrix=self.k_local.extract(pos, pos),
                       offsets=np.array([0, pos.size]), _payload=None)


class LevelSplits(list):
    """The SubdomainSplit records of one level, in subdomain order, with the
    block-diagonal operators stacked from them (one block per subdomain):
    k_ii_fact factorizes stacked interior x stacked interior, k_ib is
    stacked interior x stacked interface, k_bb stacked interface x stacked
    interface; interior_dofs maps stacked interior to level dofs and
    iface_index stacked interface to global interface positions."""

    def __init__(self, subs, k_ii_fact: Factorization, k_ib: SparseMatrix,
                 k_bb: SparseMatrix, interior_dofs, iface_index):
        super().__init__(subs)
        self.k_ii_fact, self.k_ib, self.k_bb = k_ii_fact, k_ib, k_bb
        self.interior_dofs, self.iface_index = interior_dofs, iface_index

    def gather(self, v: np.ndarray, n_iface: int) -> np.ndarray:
        """R^T v: sum stacked interface values into the global interface
        vector, in subdomain order."""
        return np.bincount(self.iface_index, weights=v, minlength=n_iface)


def build_splits(k_list, ltg_list, iface_dofs):
    """Split each subdomain matrix by the interface dof set, stack the
    blocks and factorize the stacked interior matrix. Returns
    (LevelSplits, InterfaceMap)."""
    iface_dofs = np.asarray(iface_dofs, dtype=np.int64)
    if np.any(np.diff(iface_dofs) <= 0):
        raise ValueError("interface dofs must be sorted and unique")
    n_subs = len(k_list)
    if len(ltg_list) != n_subs:
        raise ValueError("subdomain matrix and dof lists disagree")
    ltg_list = [np.asarray(ltg, dtype=np.int64) for ltg in ltg_list]
    for i, (k, ltg) in enumerate(zip(k_list, ltg_list)):
        if k.n_rows != ltg.shape[0]:
            raise ValueError(f"subdomain {i}: matrix order != local dof count")

    # stacked local vectors: all subdomains' local dofs in subdomain order
    ltg_all = np.concatenate(ltg_list)
    on_iface = np.isin(ltg_all, iface_dofs)
    interior, interface = np.nonzero(~on_iface)[0], np.nonzero(on_iface)[0]
    interior_dofs = ltg_all[interior]
    if np.unique(interior_dofs).shape[0] != interior_dofs.shape[0]:
        raise ValueError("an interior dof belongs to more than one subdomain")
    ends = np.cumsum([ltg.shape[0] for ltg in ltg_list])
    cut_i, cut_b = np.searchsorted(interior, ends), np.searchsorted(interface, ends)

    symmetric = all(k.symmetric for k in k_list)
    k_all = scipy.sparse.block_diag([k.scipy_csr() for k in k_list], format="csr")
    k_rows_i = k_all[interior]
    k_ii = SparseMatrix.from_scipy(k_rows_i[:, interior], symmetric=symmetric)
    k_ib = SparseMatrix.from_scipy(k_rows_i[:, interface])
    k_bb = SparseMatrix.from_scipy(k_all[interface][:, interface], symmetric=symmetric)
    del k_all, k_rows_i
    fact = factorize(k_ii, "spd", offsets=np.concatenate([[0], cut_i]))

    starts = np.concatenate([[0], ends[:-1]])
    interior_pos = [p - s for p, s in zip(np.split(interior, cut_i[:-1]), starts)]
    interface_pos = [p - s for p, s in zip(np.split(interface, cut_b[:-1]), starts)]
    iface_index = np.searchsorted(iface_dofs, ltg_all[interface])
    subs = [SubdomainSplit(i, ltg_list[i], interior_pos[i], interface_pos[i],
                           k_list[i], fact) for i in range(n_subs)]
    splits = LevelSplits(subs, fact, k_ib, k_bb, interior_dofs, iface_index)
    return splits, InterfaceMap(dofs=iface_dofs)


def schur_apply(splits: LevelSplits, imap: InterfaceMap, x: np.ndarray) -> np.ndarray:
    """y = S x with S = R^T (K_BB - K_IB^T K_II^-1 K_IB) R over the stacked
    blocks, i.e. sum_i R_i^T (K_bb,i - K_ib,i^T K_ii,i^-1 K_ib,i) R_i."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (imap.n,):
        raise ValueError(f"interface vector has length {x.shape}, expected {imap.n}")
    xb = x[splits.iface_index]
    t = splits.k_ii_fact.solve(splits.k_ib.matvec(xb))
    return splits.gather(splits.k_bb.matvec(xb) - splits.k_ib.rmatvec(t), imap.n)


def condensed_rhs(splits: LevelSplits, imap: InterfaceMap, f: np.ndarray) -> np.ndarray:
    """Interface right-hand side g = f_G - sum_i R_i^T K_ib,i^T K_ii,i^-1 f_int,i."""
    f = np.asarray(f, dtype=np.float64)
    w = splits.k_ii_fact.solve(f[splits.interior_dofs])
    return f[imap.dofs] - splits.gather(splits.k_ib.rmatvec(w), imap.n)


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
        fint - splits.k_ib.matvec(u_hat[splits.iface_index]))
    return x
