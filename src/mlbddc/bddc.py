"""Multilevel BDDC: coarse bases, level setup, and the preconditioner apply.

Each subdomain carries a constrained local problem on its interface,

    [ S_i  C_i^T ] [ z ]   [ r ]
    [ C_i   0    ] [ m ] = [ 0 ],

with S_i = K_BB,i - K_IB,i^T K_II,i^-1 K_IB,i the subdomain's dense Schur
complement and C_i its constraint rows over the interface dofs. It is the
full problem [K_i C_i^T; C_i 0] with the interior eliminated: every apply
hands a subdomain a residual that is zero on its interior and reads back
only interface values and multipliers. Each constraint is a corner value or
the plain mean of a glob's non-corner members, and globs are disjoint, so a
level labels each interface dof with the one row that covers it, if any.
Every constraint then eliminates an interface dof of its own and no
multiplier is ever formed: a corner fixes its dof outright (Dohrmann, SIAM
J. Sci. Comput. 25, 2003), and an average gives its lowest dof, its master,
in terms of the others. This is the null-space method (Benzi, Golub &
Liesen, Acta Numerica 14, 2005, sec. 6), in BDDC terms a change of basis
(Li & Widlund, IJNME 66, 2006). What is factorized is the SPD matrix A_i =
N_i^T S_ff,i N_i of order n_interface - n_constraints, with N_i a basis of
the average rows' null space over the free dofs f; it is invertible exactly
when the full matrix is. The basis columns (unit constraint values) span
the coarse space, and their energy psi_i^T S_i psi_i is the subdomain's
coarse element matrix; assembling those over the coarse dofs yields the
next level's problem, which is either factorized directly (top level) or
split again into subdomains over a pseudo-mesh. Applications at levels past
the first condense the full residual onto the interface before the cycle
and recover the interiors after it, with the condensation and recovery of
the level-1 solve (substructuring), so the recursion only ever sees
interface residuals; each is one block-diagonal interior solve per level,
by the inverse stacks that setup gives a level's K_II factor last, where its
band is as wide as its blocks (`Factorization.stack_inverses`).
The constrained local problems are solved once, at setup: each A_i is
factorized by potrf and inverted from its factor (`sparse.spd_inverse`),
always densely (its order is below that of the interface). With
X_i the basis of unit constraint values (each row's inverse weight on its
own dof), V_i = N_i^T (S_i X_i)_f and U_i = A_i^-1 V_i, the subdomain's
constrained solve is N_i A_i^-1 N_i^T over the free dofs and its basis is
psi_i = X_i - N_i U_i. N_i and X_i have one nonzero per column, so they
are index maps, and a subdomain stores only A_i^-1 and U_i. A level stacks
them over the subdomains that share a shape (free dofs, interface dofs,
constraints; a few shapes per level), so one preconditioner cycle is a few
batched products and gathers per level: t_i = N_i^T r_i, y_i = A_i^-1 t_i
and the multipliers mu_i = X_i^T r_i - U_i^T t_i (the restricted coarse
residuals), then after the coarse correction z_c the local correction
X_i z_c + N_i (y_i - U_i z_c), which is psi_i z_c plus the constrained
solve. No subdomain keeps a factor, a record of A_i or an object past setup.

Setup works by shape group too. The constraint rows of all subdomains of a
level come from one search: each interface position's node names its coarse
node (`build_constraints`), which also decides each group's shape. For each
group, whatever does not depend on the Schur complements (dense positions of
its matrix rows, interface orders with each row's own dof, and the index
maps of N_i and X_i) is indexed once for all of its members; only the dense
kernels (a triangular solve with the subdomain's own columns of the level's
band K_II factor and a rank-k update for S_i's lower triangle, then potrf
and the inverse for A_i), the gathers of A_i from that triangle and the
products with A_i^-1 run once per subdomain, writing A_i^-1, U_i and the
coarse matrices into the group's stacks; the next level's assembly, their
only reader, takes them out of the groups. All reductions accumulate in a
fixed order (shape groups, then subdomains), so results are bitwise
reproducible at a fixed BLAS thread count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dsymv, dsyrk
from scipy.linalg.lapack import dpotrf

from .errors import NotPositiveDefiniteError, NumericalError
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
from .sparse import (REFINE_TOL, Factorization, SparseMatrix, factorize, probe_rhs,
                     spd_inverse, sum_elements)
from .substructuring import (InterfaceMap, LevelSplits, build_splits, condensed_rhs,
                             recover_interior, subdomain_keys)

log = logging.getLogger("mlbddc")      # setup's DEBUG records; no handler of its own

@dataclass
class LevelConstraints:
    """The constraint rows of every subdomain of a level, stacked in
    subdomain order: subdomain i owns rows starts[i]:starts[i+1], one per
    local coarse dof (corner value or glob average), ordered like its coarse
    dofs (coarse nodes ascending, components fastest). Row row_of[p], that of
    its node's coarse node (`CoarseSpace.node_coarse`) and component, covers
    position p of the level's stacked interface (`LevelSplits.iface_index`
    order), -1 if none does; a row is the mean of the positions it covers.

    Every row covers a position (`build_constraints` checks it). A point
    constraint, a row tagged "corner" that covers one position, fixes that
    dof; every other row (an average, even one over a single node)
    eliminates its master dof (see ShapeGroup)."""

    starts: np.ndarray            # (n_subdomains + 1,)
    tags: np.ndarray              # (n_rows,) "corner" | "edge" | "face"
    dofs: np.ndarray              # (n_rows,) global coarse dof of each row
    row_of: np.ndarray            # (n_stacked_interface,) covering row, or -1


def build_constraints(coarse: CoarseSpace, splits: LevelSplits,
                      imap: InterfaceMap) -> LevelConstraints:
    """Constraint rows of all subdomains of a level at once: each position of
    the stacked interface names its node's coarse node (`node_coarse`), and
    one search among the sorted (subdomain, coarse node) pairs finds its
    row. A node names one coarse node, so no position is in two rows. A
    position whose coarse node is not its subdomain's, and a row that covers
    no position, raise ValueError naming the subdomain."""
    dpn, n, n_subs = coarse.dofs_per_node, coarse.n_nodes, coarse.sub_ptr.size - 1
    owner = np.repeat(np.arange(n_subs), np.diff(coarse.sub_ptr))
    pairs = np.append(owner * n + coarse.sub_node, n * n_subs)   # ascending, then one above all
    node, comp = np.divmod(imap.dofs[splits.iface_index], dpn)
    on = np.flatnonzero(coarse.node_coarse[node] >= 0)
    sub = np.repeat(np.arange(n_subs), np.diff(splits.iface_offsets))[on]
    want = sub * n + coarse.node_coarse[node[on]]
    col = np.searchsorted(pairs, want)
    row_of = np.full(node.size, -1)
    row_of[on] = col * dpn + comp[on]
    empty = np.bincount(row_of[on], minlength=pairs.size * dpn)[:owner.size * dpn] == 0
    bad = np.r_[sub[pairs[col] != want], owner[np.flatnonzero(empty) // dpn]]
    if bad.size:
        raise ValueError(f"subdomain {bad.min()}: coarse nodes do not match its interface")
    return LevelConstraints(
        starts=coarse.sub_ptr * dpn, tags=np.repeat(coarse.kinds[coarse.sub_node], dpn),
        dofs=(coarse.sub_node[:, None] * dpn + np.arange(dpn)).ravel(), row_of=row_of)


@dataclass
class ShapeGroup:
    """The subdomains of one level that share a shape (n_free, n_interface,
    n_constraints), in subdomain order, with what their setup reads and what
    it stacks for the preconditioner, so that one batched product applies
    them all.

    Every row owns one interface dof of its own (the rows have disjoint
    supports): a point row the dof it fixes, an average row its master, its
    lowest position. The member's interface order lists the other free dofs
    ascending, then the masters in row order, then the fixed dofs ascending,
    so a row's own dof is its last place; its Schur complement is taken in
    that order. row[j, q] is the local row (0 to n_constraints - 1) that
    covers place q of member j's order, or -1. The other free dofs are the
    kept dofs, n_kept = n_interface - n_constraints of them.

    The null-space basis N = [I; G] and the basis X of unit constraint
    values have one nonzero per column (see `coarse_basis`), so they are
    kept as index stacks over the level's stacked interface (`_index_maps`):
    the kept dofs, each kept dof's master (that of the average row covering
    it, or the sentinel slot n_stacked_interface, which the apply pads with
    zero; None where that would be the sentinel throughout, as with corners
    only, so the apply skips the masters), each row's own dof and X's weight
    on it. The only operators stored per member are A^-1 and U = A^-1 V. The
    coarse matrices kc are written by `coarse_basis`, unsymmetrized, and read
    once, by the next level's assembly (`subassemble_coarse`, or
    `assemble_coarse` for the top matrix), which sums their symmetric parts
    and takes them out of the group: a built preconditioner holds none."""

    subs: np.ndarray              # (m,) the members' subdomain indices
    order: np.ndarray             # (m, n_interface) interface order, local positions
    row: np.ndarray               # (m, n_interface) covering row of each place, or -1
    tags: np.ndarray              # (m, n_constraints)
    dofs: np.ndarray              # (m, n_constraints) global coarse dof ids
    kept: np.ndarray              # (m, n_kept) stacked interface positions
    master: np.ndarray | None     # (m, n_kept) stacked interface positions, or the sentinel
    own: np.ndarray               # (m, n_constraints) stacked interface positions
    w: np.ndarray                 # (m, n_constraints) 1 / (1 / size) of each row
    ainv: np.ndarray              # (m, n_kept, n_kept) A^-1
    u: np.ndarray                 # (m, n_kept, n_constraints) U = A^-1 V
    kc: np.ndarray | None         # (m, n_constraints, n_constraints), until assembled


def _shape_groups(cons: LevelConstraints, iface_offsets: np.ndarray) -> list:
    """Group a level's subdomains by shape (n_free, n_interface,
    n_constraints), in order of first appearance, with room for their
    operators. Subdomain i's interface is stacked interface
    iface_offsets[i]:iface_offsets[i+1]; every row covers a position."""
    n_b, n_c = np.diff(iface_offsets), np.diff(cons.starts)
    n_rows, n_iface = cons.tags.size, int(iface_offsets[-1])
    # each row's own dof is its lowest position (label -1 sorts first)
    label, own, count = np.unique(cons.row_of, return_index=True, return_counts=True)
    own, count = own[label >= 0], count[label >= 0]
    weight = 1.0 / (1.0 / count)
    point = (cons.tags == "corner") & (count == 1)
    fixed = np.zeros(n_iface, dtype=bool)
    fixed[own[point]] = True
    # the interface order's key: free dofs by position, masters by row, fixed by position
    span = max(n_rows, n_iface)
    key = np.arange(n_iface) + 2 * span * fixed
    key[own[~point]] = span + np.flatnonzero(~point)
    n_fixed = np.diff(np.concatenate([[0], np.cumsum(fixed)])[iface_offsets])
    shapes = np.column_stack([n_b - n_fixed, n_b, n_c])
    _, first, which = np.unique(shapes, axis=0, return_index=True, return_inverse=True)
    which = which.ravel()
    groups = []
    for g in np.argsort(first):
        subs = np.flatnonzero(which == g)
        m, (_, nb, nc) = subs.size, shapes[subs[0]]
        nk = nb - nc
        iface = iface_offsets[subs][:, None] + np.arange(nb)
        order = np.argsort(key[iface], axis=1)
        placed = np.take_along_axis(iface, order, axis=1)
        start, row = cons.starts[subs][:, None], cons.row_of[placed]
        row = np.where(row >= 0, row - start, -1)
        row_ids = start + np.arange(nc)
        kept, own_g, master = _index_maps(row, nk, placed, n_iface)
        groups.append(ShapeGroup(
            subs=subs, order=order, row=row,
            tags=cons.tags[row_ids], dofs=cons.dofs[row_ids],
            kept=kept, master=master if (row[:, :nk] >= 0).any() else None,
            own=own_g, w=weight[row_ids],
            ainv=np.empty((m, nk, nk)), u=np.empty((m, nk, nc)), kc=np.empty((m, nc, nc))))
    return groups


def _index_maps(row: np.ndarray, nk: int, at: np.ndarray, sentinel: int):
    """N's and X's index maps for a shape group's row labels `row` (see
    ShapeGroup), read through `at` (m, n_interface), each member's places in
    some numbering: (kept, own, master), the kept dofs at[:, :nk], each
    row's own dof, its last place, and each kept dof's master, the own dof
    of the average row covering it or `sentinel` where none does. Every
    gather is a fresh C-contiguous array, which the apply's gathers need."""
    nb = row.shape[1]
    own = nk + np.argsort(row[:, nk:], axis=1)
    # a label of -1 (no row) picks the pad, the place nb read as `sentinel`
    master = np.take_along_axis(np.pad(own, ((0, 0), (0, 1)), constant_values=nb),
                                row[:, :nk], axis=1)
    at = np.pad(at, ((0, 0), (0, 1)), constant_values=sentinel)
    return at[:, :nk].copy(), np.take_along_axis(at, own, axis=1), \
        np.take_along_axis(at, master, axis=1)


@dataclass
class SubdomainConstraints:
    """One subdomain's constraint rows by origin (its ShapeGroup's `row`
    labels give their supports) and its N and X as index maps over its
    interface, in local positions: the kept dofs, each kept dof's master
    (n_interface, a slot read as zero, where no average row covers it), each
    row's own dof and X's weight on it (see `coarse_basis`)."""

    tags: list                    # "corner" | "edge" | "face" per row
    kept: np.ndarray              # (n_kept,)
    master: np.ndarray            # (n_kept,)
    own: np.ndarray               # (n_constraints,)
    weights: np.ndarray           # (n_constraints,)


@dataclass
class SubdomainCoarse:
    """One subdomain's coarse machinery on its interface, formed on request
    (`BddcLevel.subs`): A^-1 and U = A^-1 V (views into member `slot` of its
    ShapeGroup), where it assembles, and on each call the basis psi and the
    record of A = N^T S_ff N. Its coarse matrix is not kept: the next level's
    assembly took it."""

    constraints: SubdomainConstraints
    ainv: np.ndarray              # (n_kept, n_kept)
    u: np.ndarray                 # (n_kept, n_constraints)
    coarse_dofs: np.ndarray       # global coarse dof ids
    group: ShapeGroup = field(repr=False)     # where it sits: member `slot`
    slot: int
    splits: LevelSplits = field(repr=False)

    @property
    def bordered(self) -> Factorization:
        """Bitwise the A that setup factorized, formed on each call by its steps
        (S by `_local_schur`, A's lower triangle by `_reduced`, mirrored): method
        "cholesky" ("empty" at order 0), order and A as a CSR, no factor."""
        g, j, nk, nb = self.group, self.slot, self.ainv.shape[0], self.group.order.shape[1]
        _, own, master = _index_maps(g.row[j:j + 1], nk, np.arange(nb)[None], nb)
        s, = _local_schur(self.splits, g, [j])
        a = _reduced(s, own[0], master[0], g.w[j], np.tri(nb - nk, dtype=bool))[0]
        a = scipy.sparse.csr_matrix(np.where(np.tri(nk, dtype=bool), a, a.T))
        return Factorization(nk, "cholesky" if nk else "empty", SparseMatrix(a, symmetric=True),
                             np.array([0, nk]), None)

    @property
    def psi(self) -> np.ndarray:
        """The basis X - N U (n_interface, n_constraints), the constrained
        energy minimizers with unit constraint values, formed on each call:
        the preconditioner never stores it."""
        c = self.constraints
        nc = c.own.size
        psi = np.zeros((c.kept.size + nc + 1, nc))
        psi[c.own, np.arange(nc)] = c.weights
        psi[c.kept] -= self.u
        np.add.at(psi, c.master, self.u)
        return psi[:-1]

    def constrained_solve(self, r_b: np.ndarray):
        """Solve [S C^T; C 0][z_b; mu] = [r_b; 0]: the full local problem for
        a residual that is zero on the interior, read back on the interface.
        With t = N^T r_b, z_b = N A^-1 t, zero on the dofs the point
        constraints fix. Returns (z_b, mu); [S C^T; C 0] is symmetric, so
        the multipliers mu = X^T r_b - U^T t equal psi^T r_b, the
        subdomain's coarse residual. The preconditioner applies the same
        operators to all subdomains of a shape at once
        (`MultilevelBddc._interface_apply`)."""
        c = self.constraints
        t = r_b[c.kept] - np.append(r_b, 0.0)[c.master]
        y = self.ainv @ t
        z_b = -np.bincount(c.master, y, r_b.shape[0] + 1)[:-1]
        z_b[c.kept] = y
        return z_b, c.weights * r_b[c.own] - self.u.T @ t


def _subdomains(g: ShapeGroup, splits: LevelSplits) -> list:
    """Each member's SubdomainCoarse: its views of g's stacks and g's index
    maps in its own interface positions (the sentinel n_interface)."""
    nb = g.order.shape[1]
    kept, own, master = _index_maps(g.row, nb - g.tags.shape[1], g.order, nb)
    return [SubdomainCoarse(
        constraints=SubdomainConstraints(tags=g.tags[j].tolist(), kept=kept[j],
                                         master=master[j], own=own[j], weights=g.w[j]),
        ainv=g.ainv[j], u=g.u[j], coarse_dofs=g.dofs[j], group=g, slot=j, splits=splits)
        for j in range(g.subs.size)]


def _reduced(s: np.ndarray, own: np.ndarray, master: np.ndarray, w: np.ndarray, lower):
    """(A, V, X^T S X) of a group member by `coarse_basis`'s gathers from its S's lower triangle
    and its index-map rows (`lower`: np.tri of n_constraints); only A's lower triangle, F order."""
    nk, nb = s.shape[0] - own.size, s.shape[0]
    # S's rows at the own places nk.. (own block mirrored), a zero row, a zero column at nb
    rows = np.zeros((own.size + 1, nb + 1))
    rows[:-1, :nk] = s[nk:, :nk]
    rows[:-1, nk:nb] = s[nk:, nk:].T
    np.copyto(rows[:-1, nk:nb], s[nk:, nk:], where=lower)
    xs = rows[own - nk]                                     # X^T S = (S X)^T
    xs *= w[:, None]
    xsx = xs[:, own].T * w[:, None]
    if not (master < nb).any():                             # no kept dof under an average
        return np.array(s[:nk, :nk], order="F"), xs[:, :nk].T, xsx
    # S N, then N^T (S N); a kept dof without a master subtracts the zeros at nb
    a = s[:nk, :nk] - rows[master - nk, :nk].T
    sn = rows[:, :nk] - rows[:, master]
    a -= np.take(sn.T.copy(), master - nk, axis=1).T
    return a, (xs[:, :nk] - xs[:, master]).T, xsx


def coarse_basis(g: ShapeGroup, schur) -> None:
    """Solve the constrained local problems of a shape group once for all;
    schur yields each member's dense interface Schur complement S in turn,
    in the member's interface order g.order (kept dofs k, masters m, fixed
    dofs).

    Every constraint row is the mean of the dofs it covers and eliminates
    the one it owns, its last place (see ShapeGroup): a point row fixes it,
    and where an average row vanishes its master is x_m = -sum_k x_k over its
    kept dofs. So N = [I; G], G (n_masters x n_kept) -1 at (master, kept dof
    of its row), spans the null space of the average rows over the free dofs
    f, and A = N^T S_ff N is SPD of order n_interface - n_constraints. X
    puts 1 / (1 / size), the inverse of the row's weight, on each row's own
    dof, which no other row covers, so C X = I. N and X have one nonzero per
    column, so each product with them is a gather from S's lower triangle (the
    own places come last, and their own block is mirrored): X^T S scales S's
    own-place rows, S N subtracts from each kept column its master's, and
    N^T (S N) does the same with rows, for A's lower triangle only. potrf
    factorizes it and `sparse.spd_inverse` inverts; A^-1 is exactly symmetric.

    Fills the group's stacks with A^-1 and U = A^-1 V, V = N^T (S X)_f: the
    constrained solve is z_f = N A^-1 N^T r_f, the basis is psi = X - N U
    (the constrained energy minimizers with unit constraint values), and
    the coarse matrix, stacked in kc until the next level's assembly takes
    it, is psi^T S psi = X^T S X - V^T U. It is stored as computed, which is
    symmetric only up to rounding: the assembly sums each block's symmetric
    part (`sparse.sum_elements`), so it is symmetrized once, there.
    Returns nothing: no record of A is kept (see `SubdomainCoarse.bordered`).

    Each member's setup check, run as soon as its inverse is made, applies
    A (symv) to A^-1 b for the check probe b, so it covers the inverse that
    the preconditioner applies. A member whose inverse is inaccurate raises
    NumericalError and one whose A meets a non-positive pivot
    NotPositiveDefiniteError; each names the member's subdomain index (also
    set as the exception's `subdomain`).
    """
    nk, nc = g.u.shape[1:]                                  # nk: the order of A
    nb = g.row.shape[1]           # each row's own place, each kept dof's master's or nb
    _, own, master = _index_maps(g.row, nk, np.broadcast_to(np.arange(nb), g.row.shape), nb)
    b, lower, lower_c = probe_rhs(nk), np.tri(nk, dtype=bool), np.tri(nc, dtype=bool)
    for j, s in enumerate(schur):
        a, v, xsx = _reduced(s, own[j], master[j], g.w[j], lower_c)
        if nk:
            low, info = dpotrf(a, lower=1)
            if info:
                _member_failed(g, j, NotPositiveDefiniteError,
                               f"non-positive pivot at row {info - 1} of A")
            spd_inverse(low, g.ainv[j], lower)
            r = b - dsymv(1.0, a, g.ainv[j] @ b, lower=1)
            rel = np.sqrt(r @ r / (b @ b))
            if not rel <= REFINE_TOL:                       # a NaN fails too
                _member_failed(g, j, NumericalError, f"inverse is inaccurate: relative residual "
                               f"{rel:.1e} on the check probe, above {REFINE_TOL:.0e}")
        np.matmul(g.ainv[j], v, out=g.u[j])
        np.subtract(xsx, v.T @ g.u[j], out=g.kc[j])         # X^T S X - V^T U


def _member_failed(g: ShapeGroup, j: int, kind: type, detail: str):
    """Raise `kind` for member j of g, naming the member's subdomain (also
    set as the exception's `subdomain`), from kind(detail)."""
    what = ("not positive definite" if kind is NotPositiveDefiniteError
            else "too ill-conditioned to solve accurately")
    err = kind(f"subdomain {g.subs[j]}: constrained local problem is {what} "
               f"({g.u.shape[2]} constraints on {g.order.shape[1]} interface dofs)")
    err.subdomain = int(g.subs[j])
    raise err from kind(detail)


@dataclass
class BddcLevel:
    index: int                    # 1-based level number
    grid: LevelGrid
    partition: Partition
    splits: LevelSplits
    imap: InterfaceMap
    weights: np.ndarray           # over the stacked interface (splits.iface_index)
    coarse: CoarseSpace
    groups: list                  # ShapeGroup per distinct subdomain shape
    coarse_dofs: np.ndarray       # the groups' dofs, raveled and concatenated
    masters: np.ndarray           # the masters of the groups that have them, likewise

    @property
    def n_coarse_dofs(self) -> int:
        return self.coarse.n_dofs

    @property
    def subs(self) -> list:
        """SubdomainCoarse per subdomain, formed anew on each call (setup keeps none)."""
        subs = [sub for g in self.groups for sub in _subdomains(g, self.splits)]
        return [subs[k] for k in np.argsort(np.concatenate([g.subs for g in self.groups]))]


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
        weighted prolongation. Each step is one batched product or gather
        per shape group, over all of its subdomains at once: t = N^T r_f,
        y = A^-1 t and mu = X^T r - U^T t, then after the coarse correction
        z_c, v = X z_c + N e with e = y - U z_c. A kept dof without a master
        reads and writes the sentinel slot n, which stays zero on the way in
        and is dropped on the way out; groups without masters skip them."""
        level = self.levels[li]
        n = level.splits.iface_index.size
        r_b = np.zeros(n + 1)                               # the sentinel slot n stays 0
        r_b[:n] = level.weights * r_hat[level.splits.iface_index]
        y, mu = [], []
        for g in level.groups:
            t = r_b[g.kept] if g.master is None else r_b[g.kept] - r_b[g.master]
            y.append(np.matmul(g.ainv, t[..., None])[..., 0])
            mu.append(g.w * r_b[g.own] - np.matmul(t[:, None], g.u)[:, 0])
        r_c = np.bincount(level.coarse_dofs, np.concatenate([m.ravel() for m in mu]),
                          level.n_coarse_dofs)
        z_c = self._full_apply(li + 1, r_c)
        v_b, e_av = np.empty(n), []
        for g, y_g in zip(level.groups, y):
            z_g = z_c[g.dofs]
            e = y_g - np.matmul(g.u, z_g[..., None])[..., 0]
            v_b[g.own] = g.w * z_g
            v_b[g.kept] = e
            if g.master is not None:
                e_av.append(e.ravel())
        if e_av:
            v_b -= np.bincount(level.masters, np.concatenate(e_av), n + 1)[:n]
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


def _take_kc(g: ShapeGroup) -> np.ndarray:
    """Take g's coarse element matrices out of it: the assembly that reads
    them is their last reader, and frees them once it has copied them."""
    kc, g.kc = g.kc, None
    return kc


def assemble_coarse(groups, dofs_per_node: int) -> SparseMatrix:
    """Assemble a level's coarse element matrices into one sparse operator
    over all its coarse dofs (every coarse dof belongs to some subdomain):
    one (kc, dofs) block per shape group, as level 1 passes one (ke, dofs).
    Coarse dof node * dofs_per_node + c is component c of a coarse node.
    The sum takes each group's kc (`_take_kc`)."""
    return sum_elements(((_take_kc(g), g.dofs) for g in groups), dofs_per_node)[0]


def subassemble_coarse(groups, partition: Partition, n_dofs: int, dofs_per_node: int,
                       iface_dofs):
    """Assemble every subdomain of the pseudo-mesh in one call from the
    previous level's shape groups (their members are its elements): one
    block per group, over `subdomain_keys` of the coarse dofs with the
    level's interface dofs iface_dofs, so entries sum group by group, then
    member by member. Returns (K, keys), laid out in split order like
    `fem.subassemble_subdomain`'s. The sum takes each group's kc (`_take_kc`)."""
    n_subs = partition.n_subdomains
    return sum_elements(((_take_kc(g), subdomain_keys(partition.assignment[g.subs][:, None],
                                                      g.dofs, n_dofs, n_subs, iface_dofs))
                         for g in groups), dofs_per_node)


def _local_schur(splits: LevelSplits, g: ShapeGroup, slots=slice(None)):
    """Yield the dense interface Schur complement S = K_BB - K_IB^T K_II^-1 K_IB
    of each member of shape group g (or of those at `slots`) in turn, from
    the level's stacked K_IB, K_BB and K_II factor, with rows and columns in
    the member's interface order (g.order). K_II is SPD: the level's stacked
    K_II factor passed its setup check.

    A member's K_IB and K_BB are read straight from the stacked CSR arrays
    (a member has no entries outside its own columns) into dense arrays in
    interface order, by one flat index. Its K_II block is never made dense:
    S = K_BB - W^T W with W = L^-1 K_IB by a triangular solve with its own
    columns of the level's band Cholesky factor (`Factorization.lower_solve`;
    from the right, W^T = K_BI L^-T, where it takes a dense triangle), then
    one rank-k update of S's lower triangle, the only part of S formed. The
    level's factor is SuperLU only when some K_II block is beyond the band
    budget (see `factorize`), and then each member factorizes its own K_II
    block and takes S = K_BB - K_IB^T K_II^-1 K_IB by a solve for the n_B
    columns of K_IB.
    """
    nb, subs = g.order.shape[1], g.subs[slots]
    fact, k_ib, k_bb = splits.k_ii_fact, splits.k_ib, splits.k_bb
    col = np.empty(splits.iface_offsets[-1], dtype=np.int64)     # place in S's order
    col[splits.iface_offsets[subs][:, None] + g.order[slots]] = np.arange(nb)

    def dense(m, r0, r1, at, step, shape):
        # rows r0:r1 of CSR m, entry (r, c) at F-order flat index at[r] + step * col[c]
        ptr, out = m.indptr[r0:r1 + 1], np.zeros(shape[0] * shape[1])
        out[np.repeat(at, np.diff(ptr)) + step * col[m.indices[ptr[0]:ptr[-1]]]] = \
            m.data[ptr[0]:ptr[-1]]
        return out.reshape(shape, order="F")

    for i in subs.tolist():
        (lo, hi), (b0, b1) = splits.interior_offsets[i:i + 2], splits.iface_offsets[i:i + 2]
        n_i, right = hi - lo, fact.takes_dense(i)
        s = dense(k_bb, b0, b1, col[b0:b1], nb, (nb, nb))
        w = (dense(k_ib, lo, hi, nb * np.arange(n_i), 1, (nb, n_i)) if right     # K_BI
             else dense(k_ib, lo, hi, np.arange(n_i), n_i, (n_i, nb)))
        if n_i == 0 or nb == 0:
            yield s
        elif fact.method == "splu":
            own = factorize(SparseMatrix(fact.matrix.scipy_csr()[lo:hi, lo:hi], symmetric=True))
            yield s - w.T @ own.solve(w)
        else:
            yield dsyrk(-1.0, fact.lower_solve(i, w, right), beta=1.0, c=s,
                        trans=int(not right), lower=1, overwrite_c=1)


def _build_level(index: int, grid: LevelGrid, part: Partition, subassemble,
                 policy: str, strategy: str, scheme: str) -> BddcLevel:
    """One level from `subassemble`, a callable taking the level's interface
    dofs and returning its (K, keys) in split order; K lives only through
    the `build_splits` call that splits it."""
    globset = classify_interface(grid, part)
    iface = interface_dofs(globset, grid.dofs_per_node)
    splits, imap = build_splits(*subassemble(iface), iface, grid.n_dofs, part.n_subdomains)
    weights = build_weights(splits, scheme)
    corners = select_corners(globset, grid, strategy)
    coarse = build_coarse_space(globset, corners, grid, part, policy)
    groups = _shape_groups(build_constraints(coarse, splits, imap),
                           splits.iface_offsets)
    failed = []
    for g in groups:
        try:
            coarse_basis(g, _local_schur(splits, g))
        except NumericalError as exc:
            if getattr(exc, "subdomain", None) is None:
                raise
            failed.append(exc)
    if failed:
        # the first failing subdomain in index order, whichever group it is in
        exc = min(failed, key=lambda e: e.subdomain)
        raise NumericalError(f"level {index}, {exc}; the constraint set is too weak") from exc
    masters = [g.master.ravel() for g in groups if g.master is not None]
    return BddcLevel(index=index, grid=grid, partition=part, splits=splits,
                     imap=imap, weights=weights, coarse=coarse, groups=groups,
                     coarse_dofs=np.concatenate([g.dofs.ravel() for g in groups]),
                     masters=np.concatenate([np.empty(0, dtype=np.intp), *masters]))


def setup_bddc(grid: LevelGrid, partition: Partition, subassemble,
               coarse_counts=(), *, constraint_policy: str = "corners+edges+faces",
               corner_strategy: str = "default",
               weight_scheme: str = "cardinality") -> MultilevelBddc:
    """Build the full level hierarchy. subassemble is a callable that takes
    level 1's sorted interface dofs and returns its (K, keys) as
    `fem.subassemble_subdomain` does: K is block-diagonal over the
    subdomains of `partition`, and keys (`subdomain_keys`) number its rows
    in split order, interior dofs before interface dofs. Coarser levels, and
    the top matrix, are assembled from the previous level's shape-group
    stacks (`subassemble_coarse`, `assemble_coarse`). Every level's K is
    freed once split, and its coarse element matrices once summed into the
    next level's K.

    coarse_counts lists the subdomain counts of levels 2..L-1 (empty for the
    two-level method); the final coarse problem is always factorized
    directly. A count of 1 makes that level's coarse solve exact, which
    collapses it to the hierarchy without the level. A level whose coarse
    space is empty ends the hierarchy: its coarse problem, of order 0, is
    the final one, so `levels` and `coarse_sizes` report the levels built.
    Once the top factor is made, each level's K_II factor gets its inverse
    stacks where they apply (`Factorization.stack_inverses`; built last, they
    reuse pages the level sums freed), and each level, with what its
    interior solves read, and the top factor are logged at DEBUG on the
    "mlbddc" logger.
    """
    levels = []
    for depth, count in enumerate([None, *coarse_counts]):
        if depth > 0:
            prev = levels[-1]
            if prev.n_coarse_dofs == 0:
                break
            grid = build_pseudomesh(prev.coarse, prev.partition)
            partition = partition_elements(grid, count, method="auto")
            subassemble = partial(subassemble_coarse, prev.groups, partition, grid.n_dofs,
                                  grid.dofs_per_node)
        levels.append(_build_level(depth + 1, grid, partition, subassemble,
                                   constraint_policy, corner_strategy,
                                   weight_scheme))

    k_top = assemble_coarse(levels[-1].groups, levels[-1].coarse.dofs_per_node)
    try:
        top = factorize(k_top)
    except NumericalError as exc:
        raise NumericalError(
            f"final coarse matrix ({k_top.shape[0]} dofs) is not positive "
            f"definite or too ill-conditioned to solve accurately; the "
            f"constraint set is too weak") from exc
    for lv in levels:
        fact = lv.splits.k_ii_fact
        try:
            fact.stack_inverses()
        except NumericalError as exc:
            raise NumericalError(f"level {lv.index}, interior solves: {exc}") from exc
        dpn, sizes = lv.grid.dofs_per_node, lv.partition.sizes()
        per_sub = np.diff(lv.coarse.sub_ptr) * dpn
        log.debug("level %d: %d subdomains of %d to %d elements; coarse dofs (corner, edge, "
                  "face) %s, %d to %d per subdomain; shape groups (m, n_B, n_c) %s; K_II "
                  "factor %s n=%d kd=%s, solves by %s", lv.index, lv.partition.n_subdomains,
                  sizes.min(), sizes.max(),
                  tuple(int(np.count_nonzero(lv.coarse.kinds == k)) * dpn
                        for k in ("corner", "edge", "face")), per_sub.min(), per_sub.max(),
                  [g.row.shape + g.tags.shape[1:] for g in lv.groups], fact.method, fact.n,
                  fact.kd, fact.storage)
    log.debug("top factor %s n=%d", top.method, top.n)
    return MultilevelBddc(levels=levels, top=top)
