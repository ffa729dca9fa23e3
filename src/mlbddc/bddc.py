"""Multilevel BDDC: coarse bases, level setup, and the preconditioner apply.

Each subdomain carries a constrained local problem

    [ K_i  C_i^T ] [ z ]   [ r ]
    [ C_i   0    ] [ m ] = [ 0 ]

whose basis columns (unit constraint values) span the coarse space. The
negated Lagrange block of the basis solve is the subdomain's coarse element
matrix; assembling those over the coarse dofs yields the next level's
problem, which is either factorized directly (top level) or split again
into subdomains over a pseudo-mesh. Applications at levels past the first
condense the full residual onto the interface before the cycle and
recover the interiors after it, with the condensation and recovery of the
level-1 solve (substructuring), so the recursion only ever sees interface
residuals; each is one block-diagonal interior solve per level. The
constrained local solves stay per subdomain, and their multipliers are the
restricted coarse residuals. All reductions accumulate in subdomain order,
so results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import NumericalError, SingularMatrixError
from .grid import LevelGrid
from .interface import (
    CoarseSpace,
    build_coarse_space,
    build_weights,
    classify_interface,
    interface_dofs,
    select_corners,
)
from .partition import Partition, build_pseudomesh, partition_elements
from .sparse import Factorization, SparseMatrix, factorize, probe_rhs, sum_elements
from .substructuring import (InterfaceMap, LevelSplits, SubdomainSplit, build_splits,
                             condensed_rhs, recover_interior)


@dataclass
class ConstraintMatrix:
    """Dense constraint rows over a subdomain's local dofs, one row per
    local coarse dof (corner value or glob average), tagged by origin."""

    rows: np.ndarray              # (n_constraints, n_local)
    tags: list                    # "corner" | "edge" | "face" per row

    @property
    def n_constraints(self) -> int:
        return self.rows.shape[0]


def build_constraints(sub: int, coarse: CoarseSpace, globset, split: SubdomainSplit,
                      grid: LevelGrid) -> ConstraintMatrix:
    """Constraint rows for one subdomain, ordered like its coarse dofs
    (coarse nodes ascending, components fastest)."""
    dpn = coarse.dofs_per_node
    local_of = np.full(grid.n_dofs, -1, dtype=np.int64)
    local_of[split.local_dofs] = np.arange(split.n_local)
    rows = []
    tags = []
    for cn in coarse.sub_nodes[sub]:
        cn = int(cn)
        if cn < coarse.n_corners:
            node = int(coarse.corner_nodes[cn])
            members = np.array([node], dtype=np.int64)
            tag = "corner"
        else:
            j = cn - coarse.n_corners
            members = coarse.glob_members[j]
            tag = globset.globs[coarse.glob_ids[j]].kind
        for comp in range(dpn):
            row = np.zeros(split.n_local)
            pos = local_of[members * dpn + comp]
            if np.any(pos < 0):
                raise ValueError(
                    f"subdomain {sub}: constraint node outside the subdomain")
            row[pos] = 1.0 / members.size
            rows.append(row)
            tags.append(tag)
    rows = np.array(rows) if rows else np.zeros((0, split.n_local))
    return ConstraintMatrix(rows=rows, tags=tags)


@dataclass
class SubdomainCoarse:
    """One subdomain's coarse machinery: the factorized bordered matrix,
    the basis, its coarse element matrix, and where it assembles."""

    constraints: ConstraintMatrix
    bordered: Factorization
    psi: np.ndarray               # (n_local, n_constraints)
    coarse_matrix: np.ndarray     # (n_constraints, n_constraints)
    coarse_dofs: np.ndarray       # global coarse dof ids

    def constrained_solve(self, r_local: np.ndarray):
        """Solve the bordered system with residual r and zero constraint
        values. Returns (z, mu); the bordered matrix is symmetric, so the
        multipliers mu equal psi^T r, the subdomain's coarse residual."""
        n = r_local.shape[0]
        sol = self.bordered.solve(
            np.concatenate([r_local, np.zeros(self.constraints.n_constraints)]))
        return sol[:n], sol[n:]


def coarse_basis(split: SubdomainSplit, cmat: ConstraintMatrix):
    """Factorize the bordered matrix and compute the coarse basis.

    Returns (bordered_factorization, psi, coarse_matrix): psi solves the
    constrained minimization with unit constraint values, and the coarse
    matrix is the negated multiplier block (= psi^T K psi), symmetrized.
    The basis solve carries the factor's setup check as one extra column,
    the check probe, and only that column's residual is checked; an
    inaccurate factor raises NumericalError.
    """
    n = split.n_local
    nc = cmat.n_constraints
    c = scipy.sparse.csr_matrix(cmat.rows)
    bordered = SparseMatrix.from_scipy(
        scipy.sparse.bmat([[split.k_local.scipy_csr(), c.T], [c, None]]), symmetric=True)
    fact = factorize(bordered, "symmetric-indefinite", probe=False)
    rhs = np.zeros((n + nc, nc + 1))
    rhs[n:, :nc] = np.eye(nc)
    rhs[:, nc] = probe_rhs(n + nc)
    sol = fact.solve(rhs)
    fact.check(sol[:, nc])
    psi = sol[:n, :nc].copy(order="F")    # frees the probe column and multiplier rows
    kc = -sol[n:, :nc]
    kc = (kc + kc.T) / 2.0
    return fact, psi, kc


@dataclass
class BddcLevel:
    index: int                    # 1-based level number
    grid: LevelGrid
    partition: Partition
    splits: LevelSplits
    imap: InterfaceMap
    weights: np.ndarray           # over the stacked interface (splits.iface_index)
    coarse: CoarseSpace
    subs: list                    # SubdomainCoarse per subdomain

    @property
    def n_coarse_dofs(self) -> int:
        return self.coarse.n_dofs


@dataclass
class MultilevelBddc:
    """The assembled preconditioner: one BddcLevel per non-top level and a
    direct factorization of the final coarse matrix."""

    levels: list
    top: Factorization

    @property
    def n_levels(self) -> int:
        return len(self.levels) + 1

    def coarse_sizes(self) -> list:
        """Coarse problem size entering each recursion step (levels 2..L)."""
        return [lv.n_coarse_dofs for lv in self.levels]

    def apply(self, r_hat: np.ndarray) -> np.ndarray:
        """Preconditioned interface residual: z = M r for the level-1
        interface residual r."""
        r_hat = np.asarray(r_hat, dtype=np.float64)
        if r_hat.shape != (self.levels[0].imap.n,):
            raise ValueError(
                f"residual has shape {r_hat.shape}, expected ({self.levels[0].imap.n},)")
        return self._interface_apply(0, r_hat)

    # -- recursion ----------------------------------------------------------

    def _interface_apply(self, li: int, r_hat: np.ndarray) -> np.ndarray:
        """One BDDC cycle on interface residual r_hat: weighted restriction,
        constrained local solves, coarse correction, weighted prolongation."""
        level = self.levels[li]
        splits = level.splits
        r_b = level.weights * r_hat[splits.iface_index]
        z_loc, mu, start = [], [], 0
        for sub, split in zip(level.subs, splits):
            pos = split.interface_pos
            r_loc = np.zeros(split.n_local)
            r_loc[pos] = r_b[start:start + pos.size]
            start += pos.size
            z_i, mu_i = sub.constrained_solve(r_loc)
            z_loc.append(z_i)
            mu.append(mu_i)
        r_c = np.bincount(np.concatenate([sub.coarse_dofs for sub in level.subs]),
                          np.concatenate(mu), level.n_coarse_dofs)
        z_c = self._full_apply(li + 1, r_c)
        v_b = np.concatenate([(sub.psi @ z_c[sub.coarse_dofs] + z_i)[split.interface_pos]
                              for sub, split, z_i in zip(level.subs, splits, z_loc)])
        return splits.gather(level.weights * v_b, level.imap.n)

    def _full_apply(self, li: int, r: np.ndarray) -> np.ndarray:
        """Apply at a level that owns every dof (levels past the first):
        interior pre-correction, interface cycle, interior post-correction."""
        if li == len(self.levels):
            return self.top.solve(r)
        level = self.levels[li]
        r_hat = interior_precorrection(level.splits, level.imap, r)
        z_hat = self._interface_apply(li, r_hat)
        return interior_postcorrection(level.splits, level.imap, z_hat, r, level.grid.n_dofs)


# the interior corrections of levels past the first are the level-1
# condensation and recovery, under names of their own for tracing
interior_precorrection = condensed_rhs
interior_postcorrection = recover_interior


def assemble_coarse(k_elems, dof_lists) -> SparseMatrix:
    """Assemble dense coarse element matrices into one sparse operator over
    all coarse dofs (every coarse dof belongs to some subdomain)."""
    return sum_elements([(kc, np.asarray(d)[None]) for kc, d in zip(k_elems, dof_lists)])[0]


def subassemble_coarse(k_elems, dof_lists, elements):
    """Assemble a subdomain of the pseudo-mesh from coarse element
    matrices. Returns (K_j, local_to_global)."""
    return sum_elements([(k_elems[e], np.asarray(dof_lists[e])[None]) for e in elements])


def _build_level(index: int, grid: LevelGrid, part: Partition, k_list, ltg_list,
                 policy: str, strategy: str, scheme: str) -> BddcLevel:
    globset = classify_interface(grid, part)
    iface = interface_dofs(globset, grid.dofs_per_node)
    splits, imap = build_splits(k_list, ltg_list, iface)
    weights = build_weights(splits, scheme)
    corners = select_corners(globset, grid, strategy)
    coarse = build_coarse_space(globset, corners, grid, part, policy)
    subs = []
    for i, split in enumerate(splits):
        cmat = build_constraints(i, coarse, globset, split, grid)
        try:
            fact, psi, kc = coarse_basis(split, cmat)
        except NumericalError as exc:
            what = ("singular" if isinstance(exc, SingularMatrixError)
                    else "too ill-conditioned to solve accurately")
            raise NumericalError(
                f"level {index}, subdomain {i}: constrained local problem is "
                f"{what} ({cmat.n_constraints} constraints on "
                f"{split.n_local} dofs); the constraint set is too weak"
            ) from exc
        subs.append(SubdomainCoarse(constraints=cmat, bordered=fact, psi=psi,
                                    coarse_matrix=kc, coarse_dofs=coarse.sub_dofs(i)))
    return BddcLevel(index=index, grid=grid, partition=part, splits=splits,
                     imap=imap, weights=weights, coarse=coarse, subs=subs)


def setup_bddc(grid: LevelGrid, partition: Partition, k_list, ltg_list,
               coarse_counts=(), *, constraint_policy: str = "corners+edges+faces",
               corner_strategy: str = "default", weight_scheme: str = "cardinality",
               partition_method: str = "auto") -> MultilevelBddc:
    """Build the full level hierarchy.

    coarse_counts lists the subdomain counts of levels 2..L-1 (empty for the
    two-level method); the final coarse problem is always factorized
    directly. A count of 1 makes that level's coarse solve exact, which
    collapses it to the hierarchy without the level.
    """
    levels = []
    for depth, count in enumerate([None, *coarse_counts]):
        if depth > 0:
            prev = levels[-1]
            grid_l = build_pseudomesh(prev.coarse, prev.partition, grid.dim)
            part_l = partition_elements(grid_l, count, method=partition_method)
            k_elems = [sub.coarse_matrix for sub in prev.subs]
            dof_lists = [sub.coarse_dofs for sub in prev.subs]
            k_l, ltg_l = zip(*(subassemble_coarse(k_elems, dof_lists, part_l.elements_of(j))
                               for j in range(count)))
        else:
            grid_l, part_l, k_l, ltg_l = grid, partition, k_list, ltg_list
        levels.append(_build_level(depth + 1, grid_l, part_l, k_l, ltg_l,
                                   constraint_policy, corner_strategy,
                                   weight_scheme))

    last = levels[-1]
    k_top = assemble_coarse([sub.coarse_matrix for sub in last.subs],
                            [sub.coarse_dofs for sub in last.subs])
    try:
        top = factorize(k_top, "spd")
    except NumericalError as exc:
        raise NumericalError(
            f"final coarse matrix ({k_top.n_rows} dofs) is not positive "
            f"definite or too ill-conditioned to solve accurately; the "
            f"constraint set is too weak") from exc
    return MultilevelBddc(levels=levels, top=top)
