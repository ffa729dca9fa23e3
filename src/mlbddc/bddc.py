"""Multilevel BDDC: coarse bases, level setup, and the preconditioner apply.

Each subdomain carries a constrained local problem on its interface,

    [ S_i  C_i^T ] [ z ]   [ r ]
    [ C_i   0    ] [ m ] = [ 0 ],

with S_i = K_BB,i - K_IB,i^T K_II,i^-1 K_IB,i the subdomain's dense Schur
complement and C_i its constraint rows over the interface dofs. It is the
full problem [K_i C_i^T; C_i 0] with the interior eliminated: every apply
hands a subdomain a residual that is zero on its interior and reads back
only interface values and multipliers. A corner constraint fixes one
interface dof outright, so that dof and its multiplier row are eliminated
as well (Dohrmann, SIAM J. Sci. Comput. 25, 2003): what is factorized is
[S_ff C_af^T; C_af 0] over the free dofs f and the average rows a, which
is nonsingular exactly when the full matrix is. Its basis columns (unit
constraint values) span the coarse space. The negated Lagrange block of
the basis solve is the subdomain's coarse element matrix (its corner rows
recovered from the fixed dofs' equations); assembling those over the
coarse dofs yields the next level's problem, which is either factorized
directly (top level) or split again into subdomains over a pseudo-mesh.
Applications at levels past the first condense the full residual onto the
interface before the cycle and recover the interiors after it, with the
condensation and recovery of the level-1 solve (substructuring), so the
recursion only ever sees interface residuals; each is one block-diagonal
interior solve per level. The constrained local problems are solved once,
at setup: each bordered factor is turned into its explicit inverse, whose
free-dof block z_i is the subdomain's constrained-solve operator, and the
basis psi_i comes from products with it. A level stacks z_i and psi_i
over the subdomains that share a shape (free dofs, interface dofs,
constraints; a few shapes per level), so one preconditioner cycle is a
few batched products per level: z_i r_i and psi_i^T r_i (the multipliers,
i.e. the restricted coarse residuals), then psi_i z_c + z_i r_i after the
coarse correction. No factor of a subdomain is kept past setup. All
reductions accumulate in a fixed order (shape groups, then subdomains), so
results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from . import sparse
from .errors import NotPositiveDefiniteError, NumericalError, SingularMatrixError
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
                             condensed_rhs, recover_interior, subdomain_keys)


@dataclass
class ConstraintMatrix:
    """Dense constraint rows over a subdomain's interface dofs, one row per
    local coarse dof (corner value or glob average), tagged by origin.

    A point constraint, a row tagged "corner" with exactly one nonzero,
    fixes one interface dof; every other row (an average, even one over a
    single node) is a multiplier row of the constrained local problem.
    interface_order lists the free dofs (those no point constraint fixes),
    then the fixed ones, each ascending: `coarse_basis` takes S in this
    order."""

    rows: np.ndarray              # (n_constraints, n_interface)
    tags: list                    # "corner" | "edge" | "face" per row
    point_rows: np.ndarray = field(init=False, repr=False)
    point_dofs: np.ndarray = field(init=False, repr=False)    # the dof each fixes
    interface_order: np.ndarray = field(init=False, repr=False)
    free_dofs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        corner = np.array([tag == "corner" for tag in self.tags], dtype=bool)
        self.point_rows = np.flatnonzero(corner & (np.count_nonzero(self.rows, axis=1) == 1))
        self.point_dofs = np.nonzero(self.rows[self.point_rows])[1]
        fixed = np.zeros(self.rows.shape[1], dtype=bool)
        fixed[self.point_dofs] = True
        self.interface_order = np.argsort(fixed, kind="stable")
        self.free_dofs = self.interface_order[:fixed.size - np.count_nonzero(fixed)]

    @property
    def n_constraints(self) -> int:
        return self.rows.shape[0]


def build_constraints(sub: int, coarse: CoarseSpace, globset,
                      split: SubdomainSplit) -> ConstraintMatrix:
    """Constraint rows for one subdomain over its interface dofs (columns
    ordered like `split.interface_pos`), rows ordered like its coarse dofs
    (coarse nodes ascending, components fastest)."""
    dpn = coarse.dofs_per_node
    members, tags = [], []
    for cn in coarse.sub_nodes[sub]:
        if cn < coarse.n_corners:
            members.append(coarse.corner_nodes[cn:cn + 1])
            tags += ["corner"] * dpn
        else:
            j = cn - coarse.n_corners
            members.append(coarse.glob_members[j])
            tags += [globset.globs[coarse.glob_ids[j]].kind] * dpn
    sizes = np.array([m.size for m in members], dtype=np.int64)
    node = np.repeat(np.arange(sizes.size), sizes)      # coarse node of each member
    dofs = np.concatenate([np.zeros(0, np.int64), *members])[:, None] * dpn + np.arange(dpn)
    iface = split.local_dofs[split.interface_pos]
    pos = np.searchsorted(iface, dofs)
    if np.any(pos >= iface.size) or np.any(iface[pos] != dofs):
        raise ValueError(f"subdomain {sub}: constraint node outside the subdomain's interface")
    rows = np.zeros((sizes.size * dpn, iface.size))
    rows[node[:, None] * dpn + np.arange(dpn), pos] = (1.0 / sizes[node])[:, None]
    return ConstraintMatrix(rows=rows, tags=tags)


@dataclass
class SubdomainCoarse:
    """One subdomain's coarse machinery on its interface: the record of its
    factorized reduced bordered matrix [S_ff C_af^T; C_af 0] (see
    `coarse_basis`; the factor itself is not kept), the constrained-solve
    operator z and the basis psi (views into its level's ShapeGroup), its
    coarse element matrix, and where it assembles."""

    constraints: ConstraintMatrix
    bordered: Factorization
    z: np.ndarray                 # (n_free, n_free)
    psi: np.ndarray               # (n_interface, n_constraints)
    coarse_matrix: np.ndarray     # (n_constraints, n_constraints)
    coarse_dofs: np.ndarray       # global coarse dof ids

    def constrained_solve(self, r_b: np.ndarray):
        """Solve [S C^T; C 0][z_b; mu] = [r_b; 0]: the full local problem for
        a residual that is zero on the interior, read back on the interface.
        z_b is zero on the dofs the point constraints fix, and z r_b on the
        free dofs. Returns (z_b, mu); the bordered matrix is symmetric, so the
        multipliers mu equal psi^T r_b, the subdomain's coarse residual. The
        preconditioner applies the same operators to all subdomains of a
        shape at once (`MultilevelBddc._interface_apply`)."""
        free = self.constraints.free_dofs
        z_b = np.zeros(r_b.shape[0])
        z_b[free] = self.z @ r_b[free]
        return z_b, self.psi.T @ r_b


def coarse_basis(s_local: np.ndarray, cmat: ConstraintMatrix):
    """Factorize a subdomain's constrained local problem, invert it, and
    compute its coarse basis, from its dense interface Schur complement
    s_local (rows and columns ordered like cmat.interface_order) and its
    constraint rows.

    The basis columns solve [S C^T; C 0][psi; lam] = [0; I]. A point
    constraint fixes its dof p outright (psi_p is 1/c_p in its own column
    and 0 in the others), so only the reduced matrix B = [S_ff C_af^T; C_af 0]
    over the free dofs f and the other (average) rows a is factorized; it is
    nonsingular exactly when [S C^T; C 0] is. The fixed dofs' values g enter
    its right-hand sides as [-S_fp g; e_a - C_ap g]. The factor is turned
    into the explicit inverse B^-1, and every solve is a product with it.

    Returns (bordered, z, psi, coarse_matrix). bordered is the record of the
    factorization (method, order, matrix) without the factor. z = (B^-1)_ff
    (n_free x n_free, free dofs ascending) is the constrained-solve
    operator: the free-dof values of the solution of [S C^T; C 0][z; mu] =
    [r; 0] are z r_f. psi (n_interface x n_constraints, in interface order)
    holds the interface values of the constrained energy minimizers with
    unit constraint values, and the coarse matrix is the negated multiplier
    block (= psi^T S psi), symmetrized: -lam_a on the average rows and
    (S_pB psi + C_ap^T lam_a)/c_p on the point rows, from the fixed dofs'
    own equations. Both equal those of the full local problem
    [K C^T; C 0], whose minimizers are discrete harmonic inside. The basis
    product carries the factor's setup check as one extra column, the
    check probe, and only that column's residual is checked, so the check
    covers the inverse that the preconditioner applies; an inaccurate
    inverse raises NumericalError. Two point constraints on one dof make
    the bordered matrix singular and raise SingularMatrixError.
    """
    prow, pdof = cmat.point_rows, cmat.point_dofs
    nc, nb = cmat.rows.shape
    nf = cmat.free_dofs.size
    if nb - nf < prow.size:
        raise SingularMatrixError("two point constraints fix the same interface dof")
    order = cmat.interface_order
    fix = nf + np.searchsorted(order[nf:], pdof)    # each point row's dof, in S's order
    val = cmat.rows[prow, pdof]
    is_avg = np.ones(nc, dtype=bool)
    is_avg[prow] = False
    avg = np.flatnonzero(is_avg)
    c_a = cmat.rows[avg][:, order]
    s_p, c_ap = s_local[fix], c_a[:, fix]           # the fixed dofs' rows of S, columns of C_a
    n = nf + avg.size
    a = np.zeros((n, n))
    a[:nf, :nf] = s_local[:nf, :nf]
    a[nf:, :nf] = c_a[:, :nf]
    a[:nf, nf:] = c_a[:, :nf].T
    fact = factorize(SparseMatrix.from_dense(a, symmetric=True), "symmetric-indefinite",
                     probe=False)
    inv = fact.inverse()
    rhs = np.zeros((n, nc + 1))
    rhs[:nf, prow] = -s_p[:, :nf].T / val
    rhs[nf:, prow] = -c_ap / val
    rhs[nf + np.arange(avg.size), avg] = 1.0
    rhs[:, nc] = probe_rhs(n)
    sol = inv @ rhs
    fact.check(sol[:, nc])
    psi = np.zeros((nb, nc))                        # in S's order
    psi[:nf] = sol[:nf, :nc]
    psi[fix, prow] = 1.0 / val
    lam_a = sol[nf:, :nc]
    kc = np.empty((nc, nc))
    kc[avg] = -lam_a
    kc[prow] = (s_p @ psi + c_ap.T @ lam_a) / val[:, None]
    kc = (kc + kc.T) / 2.0
    psi_b = np.empty((nb, nc))
    psi_b[order] = psi
    return fact, inv[:nf, :nf], psi_b, kc


@dataclass
class ShapeGroup:
    """The subdomains of one level that share a shape (n_free, n_interface,
    n_constraints), with their constrained-solve operators and bases stacked
    in subdomain order, so that one batched product applies them all."""

    iface: np.ndarray             # (m, n_interface) positions in the stacked interface
    free: np.ndarray              # (m, n_free) positions of the free dofs in it
    dofs: np.ndarray              # (m, n_constraints) global coarse dof ids
    z: np.ndarray                 # (m, n_free, n_free)
    psi: np.ndarray               # (m, n_interface, n_constraints)


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
    groups: list                  # ShapeGroup per distinct subdomain shape

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
        constrained local solves and coarse residuals, coarse correction,
        weighted prolongation. Each step is one batched product per shape
        group, over all of its subdomains at once."""
        level = self.levels[li]
        groups = level.groups
        r_b = level.weights * r_hat[level.splits.iface_index]
        z_f = [np.matmul(g.z, r_b[g.free][..., None])[..., 0] for g in groups]
        mu = [np.matmul(r_b[g.iface][:, None], g.psi) for g in groups]
        r_c = np.bincount(np.concatenate([g.dofs.ravel() for g in groups]),
                          np.concatenate([m.ravel() for m in mu]), level.n_coarse_dofs)
        z_c = self._full_apply(li + 1, r_c)
        v_b = np.empty(r_b.size)
        for g, z in zip(groups, z_f):
            v_b[g.iface] = np.matmul(g.psi, z_c[g.dofs][..., None])[..., 0]
            v_b[g.free] += z
        return level.splits.gather(level.weights * v_b, level.imap.n)

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


def subassemble_coarse(k_elems, dof_lists, partition: Partition, n_dofs: int):
    """Assemble every subdomain of the pseudo-mesh from its coarse element
    matrices in one call, over `subdomain_keys` of the coarse dofs. Returns
    (K, keys), laid out like `fem.subassemble_subdomain`'s."""
    return sum_elements([(kc, subdomain_keys(s, d, n_dofs)[None])
                         for kc, d, s in zip(k_elems, dof_lists, partition.assignment)])


def _local_schur(k_csr, lo: int, split: SubdomainSplit, iface: np.ndarray) -> np.ndarray:
    """Dense interface Schur complement S = K_BB - K_IB^T K_II^-1 K_IB of the
    subdomain whose diagonal block of the level's block-diagonal CSR k_csr
    starts at row lo, over the interface positions iface (a reordering of
    split.interface_pos; S's rows and columns follow it). K_II is SPD: the
    level's stacked K_II factor passed its setup check.

    Up to sparse.DENSE_THRESHOLD local dofs, the block is read straight
    from the CSR arrays (it has no entries outside its own columns),
    interior dofs first, into one dense array: S = K_BB - W^T W with
    W = L^-1 K_IB, K_II = L L^T. Larger subdomains never become dense:
    their K_II is factorized by `factorize` (SuperLU above the threshold)
    and solved for the n_B columns of K_IB only.
    """
    n, n_i = split.n_local, split.interior_pos.size
    if n > sparse.DENSE_THRESHOLD:
        blk = k_csr[lo:lo + n, lo:lo + n]
        rows_i = blk[split.interior_pos]
        k_ib = rows_i[:, iface].toarray(order="F")
        k_ii = factorize(SparseMatrix.from_scipy(rows_i[:, split.interior_pos], symmetric=True))
        s = blk[iface][:, iface].toarray() - k_ib.T @ k_ii.solve(k_ib)
        return (s + s.T) * 0.5
    order = np.empty(n, dtype=np.int64)
    order[np.concatenate([split.interior_pos, iface])] = np.arange(n)
    ptr = k_csr.indptr[lo:lo + n + 1]
    entries = slice(ptr[0], ptr[-1])
    kd = np.zeros((n, n), order="F")
    kd[np.repeat(order, np.diff(ptr)), order[k_csr.indices[entries] - lo]] = k_csr.data[entries]
    if n_i in (0, n):
        return kd[n_i:, n_i:]
    low, info = dpotrf(kd[:n_i, :n_i], lower=1)
    if info != 0:
        raise NotPositiveDefiniteError(f"interior block is not positive definite (potrf info={info})")
    w, _ = dtrtrs(low, kd[:n_i, n_i:], lower=1)
    s = kd[n_i:, n_i:] - w.T @ w
    return (s + s.T) * 0.5


def _shape_groups(splits: LevelSplits, cmats, coarse: CoarseSpace):
    """Group a level's subdomains by shape (n_free, n_interface,
    n_constraints), in order of first appearance, with room for their
    operators. Returns (groups, slots): slots[i] is (group, row) of
    subdomain i."""
    ends = np.cumsum([split.interface_pos.size for split in splits])
    members = {}
    for i, cmat in enumerate(cmats):
        members.setdefault((cmat.free_dofs.size, *cmat.rows.shape[::-1]), []).append(i)
    groups, slots = [], [None] * len(cmats)
    for (nf, nb, nc), subs in members.items():
        start = ends[subs] - nb
        g = ShapeGroup(iface=start[:, None] + np.arange(nb),
                       free=start[:, None] + np.array([cmats[i].free_dofs for i in subs]
                                                      ).reshape(len(subs), nf),
                       dofs=np.array([coarse.sub_dofs(i) for i in subs]).reshape(len(subs), nc),
                       z=np.empty((len(subs), nf, nf)), psi=np.empty((len(subs), nb, nc)))
        groups.append(g)
        for j, i in enumerate(subs):
            slots[i] = (g, j)
    return groups, slots


def _build_level(index: int, grid: LevelGrid, part: Partition, k: SparseMatrix, keys,
                 policy: str, strategy: str, scheme: str) -> BddcLevel:
    globset = classify_interface(grid, part)
    iface = interface_dofs(globset, grid.dofs_per_node)
    splits, imap = build_splits(k, keys, iface, grid.n_dofs)
    weights = build_weights(splits, scheme)
    corners = select_corners(globset, grid, strategy)
    coarse = build_coarse_space(globset, corners, grid, part, policy)
    cmats = [build_constraints(i, coarse, globset, split) for i, split in enumerate(splits)]
    groups, slots = _shape_groups(splits, cmats, coarse)
    k_csr = k.scipy_csr()
    subs, lo = [], 0
    for i, (split, cmat, (g, j)) in enumerate(zip(splits, cmats, slots)):
        s_local = _local_schur(k_csr, lo, split, split.interface_pos[cmat.interface_order])
        try:
            fact, z, psi, kc = coarse_basis(s_local, cmat)
        except NumericalError as exc:
            what = ("singular" if isinstance(exc, SingularMatrixError)
                    else "too ill-conditioned to solve accurately")
            raise NumericalError(
                f"level {index}, subdomain {i}: constrained local problem is "
                f"{what} ({cmat.n_constraints} constraints on "
                f"{split.interface_pos.size} interface dofs); the constraint set is too weak"
            ) from exc
        g.z[j], g.psi[j] = z, psi
        subs.append(SubdomainCoarse(constraints=cmat, bordered=fact, z=g.z[j], psi=g.psi[j],
                                    coarse_matrix=kc, coarse_dofs=g.dofs[j]))
        lo += split.n_local
    return BddcLevel(index=index, grid=grid, partition=part, splits=splits,
                     imap=imap, weights=weights, coarse=coarse, subs=subs, groups=groups)


def setup_bddc(grid: LevelGrid, partition: Partition, k: SparseMatrix, keys,
               coarse_counts=(), *, constraint_policy: str = "corners+edges+faces",
               corner_strategy: str = "default", weight_scheme: str = "cardinality",
               partition_method: str = "auto") -> MultilevelBddc:
    """Build the full level hierarchy from the level-1 subdomain matrices:
    k is block-diagonal over the subdomains of `partition` and keys numbers
    its rows, as `fem.subassemble_subdomain` returns them.

    coarse_counts lists the subdomain counts of levels 2..L-1 (empty for the
    two-level method); the final coarse problem is always factorized
    directly. A count of 1 makes that level's coarse solve exact, which
    collapses it to the hierarchy without the level.
    """
    levels = []
    for depth, count in enumerate([None, *coarse_counts]):
        if depth > 0:
            prev = levels[-1]
            grid = build_pseudomesh(prev.coarse, prev.partition, grid.dim)
            partition = partition_elements(grid, count, method=partition_method)
            k, keys = subassemble_coarse([sub.coarse_matrix for sub in prev.subs],
                                         [sub.coarse_dofs for sub in prev.subs],
                                         partition, grid.n_dofs)
        levels.append(_build_level(depth + 1, grid, partition, k, keys,
                                   constraint_policy, corner_strategy,
                                   weight_scheme))

    last = levels[-1]
    k_top = assemble_coarse([sub.coarse_matrix for sub in last.subs],
                            [sub.coarse_dofs for sub in last.subs])
    try:
        top = factorize(k_top, "spd")
    except NumericalError as exc:
        raise NumericalError(
            f"final coarse matrix ({k_top.shape[0]} dofs) is not positive "
            f"definite or too ill-conditioned to solve accurately; the "
            f"constraint set is too weak") from exc
    return MultilevelBddc(levels=levels, top=top)
