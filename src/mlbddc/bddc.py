"""Multilevel BDDC: coarse bases, level setup, and the preconditioner apply.

Each subdomain carries a constrained local problem

    [ K_i  C_i^T ] [ z ]   [ r ]
    [ C_i   0    ] [ m ] = [ 0 ]

whose basis columns (unit constraint values) span the coarse space. The
negated Lagrange block of the basis solve is the subdomain's coarse element
matrix; assembling those over the coarse dofs yields the next level's
problem, which is either factorized directly (top level) or split again
into subdomains over a pseudo-mesh. Applications at levels past the first
wrap the interface cycle in interior pre/post corrections so the recursion
only ever sees interface residuals. Those corrections, like the Schur
operator S, go through one block-diagonal interior solve per level (see
substructuring); the constrained local solves stay per subdomain.

All reductions accumulate in subdomain order, so results are independent
of the worker count.
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
from .sparse import Factorization, SparseMatrix, factorize, sum_elements
from .substructuring import (InterfaceMap, LevelSplits, SubdomainSplit, _condense,
                             build_splits, map_ordered)


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

    def constrained_solve(self, r_local: np.ndarray) -> np.ndarray:
        """Solve the bordered system with residual r and zero multipliers."""
        nc = self.constraints.n_constraints
        rhs = np.concatenate([r_local, np.zeros(nc)])
        return self.bordered.solve(rhs)[: r_local.shape[0]]


def coarse_basis(split: SubdomainSplit, cmat: ConstraintMatrix,
                 dense_threshold: int | None = None):
    """Factorize the bordered matrix and compute the coarse basis.

    Returns (bordered_factorization, psi, coarse_matrix): psi solves the
    constrained minimization with unit constraint values, and the coarse
    matrix is the negated multiplier block (= psi^T K psi), symmetrized.
    """
    n = split.n_local
    nc = cmat.n_constraints
    c = scipy.sparse.csr_matrix(cmat.rows)
    bordered = SparseMatrix.from_scipy(
        scipy.sparse.bmat([[split.k_local.scipy_csr(), c.T], [c, None]]), symmetric=True)
    fact = factorize(bordered, "symmetric-indefinite",
                     dense_threshold=dense_threshold)
    rhs = np.zeros((n + nc, nc))
    rhs[n:] = np.eye(nc)
    sol = fact.solve(rhs) if nc else np.zeros((n, 0))
    psi = sol[:n]
    kc = -sol[n:]
    kc = (kc + kc.T) / 2.0
    return fact, psi, kc


@dataclass
class BddcLevel:
    index: int                    # 1-based level number
    grid: LevelGrid
    partition: Partition
    splits: LevelSplits
    imap: InterfaceMap
    weights: list
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
    workers: int = 1

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
        level = self.levels[li]

        def down(i):
            sub = level.subs[i]
            split = level.splits[i]
            r_loc = np.zeros(split.n_local)
            r_loc[split.interface_pos] = level.weights[i] * r_hat[level.imap.sub_global[i]]
            z_i = sub.constrained_solve(r_loc)
            return z_i, sub.psi.T @ r_loc

        parts = map_ordered(down, len(level.subs), self.workers)
        r_c = np.bincount(np.concatenate([sub.coarse_dofs for sub in level.subs]),
                          np.concatenate([rc_i for _, rc_i in parts]), level.n_coarse_dofs)

        z_c = self._full_apply(li + 1, r_c)

        def up(i):
            sub = level.subs[i]
            split = level.splits[i]
            v = sub.psi @ z_c[sub.coarse_dofs] + parts[i][0]
            return level.weights[i] * v[split.interface_pos]

        combined = map_ordered(up, len(level.subs), self.workers)
        return level.splits.gather(np.concatenate(combined), level.imap.n)

    def _full_apply(self, li: int, r: np.ndarray) -> np.ndarray:
        """Apply at a level that owns every dof (levels past the first):
        interior pre-correction, interface cycle, interior post-correction."""
        if li == len(self.levels):
            return self.top.solve(r)
        level = self.levels[li]
        r_hat, w = interior_precorrection(level.splits, level.imap, r)
        z_hat = self._interface_apply(li, r_hat)
        return interior_postcorrection(level.splits, level.imap, z_hat, w,
                                       level.grid.n_dofs)


def interior_precorrection(splits: LevelSplits, imap: InterfaceMap, r: np.ndarray):
    """Condense a full residual onto the interface, keeping the stacked
    interior solves for the matching post-correction. Returns (r_hat, w)."""
    return _condense(splits, imap, r)


def interior_postcorrection(splits: LevelSplits, imap: InterfaceMap,
                            z_hat: np.ndarray, w: np.ndarray,
                            n_dofs: int) -> np.ndarray:
    """Complete an interface correction to the level's full dof vector,
    reusing the pre-correction interior solves."""
    z = np.zeros(n_dofs)
    z[imap.dofs] = z_hat
    z[splits.interior_dofs] = w - splits.k_ii_fact.solve(
        splits.k_ib.matvec(z_hat[splits.iface_index]))
    return z


def assemble_coarse(k_elems, dof_lists) -> SparseMatrix:
    """Assemble dense coarse element matrices into one sparse operator over
    all coarse dofs (every coarse dof belongs to some subdomain)."""
    return sum_elements([(kc, np.asarray(d)[None]) for kc, d in zip(k_elems, dof_lists)])[0]


def subassemble_coarse(k_elems, dof_lists, elements):
    """Assemble a subdomain of the pseudo-mesh from coarse element
    matrices. Returns (K_j, local_to_global)."""
    return sum_elements([(k_elems[e], np.asarray(dof_lists[e])[None]) for e in elements])


def _build_level(index: int, grid: LevelGrid, part: Partition, k_list, ltg_list,
                 policy: str, strategy: str, scheme: str, workers: int,
                 dense_threshold) -> BddcLevel:
    globset = classify_interface(grid, part)
    iface = interface_dofs(globset, grid.dofs_per_node)
    splits, imap = build_splits(k_list, ltg_list, iface, grid.dofs_per_node,
                                dense_threshold=dense_threshold)
    weights = build_weights(globset, imap, scheme,
                            local_diags=[k.diagonal() for k in k_list])
    corners = select_corners(globset, grid, strategy)
    coarse = build_coarse_space(globset, corners, grid, part, policy)

    def build_sub(i):
        cmat = build_constraints(i, coarse, globset, splits[i], grid)
        try:
            fact, psi, kc = coarse_basis(splits[i], cmat, dense_threshold)
        except SingularMatrixError as exc:
            raise NumericalError(
                f"level {index}, subdomain {i}: constrained local problem is "
                f"singular ({cmat.n_constraints} constraints on "
                f"{splits[i].n_local} dofs); the constraint set is too weak"
            ) from exc
        return SubdomainCoarse(constraints=cmat, bordered=fact, psi=psi,
                               coarse_matrix=kc, coarse_dofs=coarse.sub_dofs(i))

    subs = map_ordered(build_sub, part.n_subdomains, workers)
    return BddcLevel(index=index, grid=grid, partition=part, splits=splits,
                     imap=imap, weights=weights, coarse=coarse, subs=subs)


def setup_bddc(grid: LevelGrid, partition: Partition, k_list, ltg_list,
               coarse_counts=(), *, constraint_policy: str = "corners+edges+faces",
               corner_strategy: str = "default", weight_scheme: str = "cardinality",
               partition_method: str = "auto", workers: int = 1,
               dense_threshold: int | None = None) -> MultilevelBddc:
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
            pseudo = build_pseudomesh(prev.coarse, prev.partition, grid.dim)
            k_elems = [sub.coarse_matrix for sub in prev.subs]
            dof_lists = [sub.coarse_dofs for sub in prev.subs]
            part = partition_elements(pseudo, count, method=partition_method)

            def build_one(j):
                return subassemble_coarse(k_elems, dof_lists, part.elements_of(j))

            built = map_ordered(build_one, count, workers)
            grid_l, part_l = pseudo, part
            k_l = [b[0] for b in built]
            ltg_l = [b[1] for b in built]
        else:
            grid_l, part_l, k_l, ltg_l = grid, partition, k_list, ltg_list
        levels.append(_build_level(depth + 1, grid_l, part_l, k_l, ltg_l,
                                   constraint_policy, corner_strategy,
                                   weight_scheme, workers, dense_threshold))

    last = levels[-1]
    k_top = assemble_coarse([sub.coarse_matrix for sub in last.subs],
                            [sub.coarse_dofs for sub in last.subs])
    try:
        top = factorize(k_top, "spd", dense_threshold=dense_threshold)
    except (SingularMatrixError, NumericalError) as exc:
        raise NumericalError(
            f"final coarse matrix ({k_top.n_rows} dofs) is not positive "
            f"definite; the constraint set is too weak") from exc
    return MultilevelBddc(levels=levels, top=top, workers=workers)
