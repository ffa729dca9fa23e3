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
coarse correction. No factor of a subdomain is kept past setup.

Setup works by shape group too. The constraint rows of all subdomains of a
level come from one construction over the coarse nodes and their members
(`build_constraints`), which also decides each group's shape. For each
group, whatever does not depend on the Schur complements (dense positions
of its matrix rows, interface orders, point rows with their dofs and
values, average rows, the right-hand sides' constant blocks) is indexed
once for all of its members; only the dense factorizations (Cholesky of
K_II and triangular solves for S_i, then Bunch-Kaufman and its inverse for
the bordered matrix) and the products with their results run once per
subdomain, writing z_i, psi_i and the coarse matrices into the group's
stacks. All reductions accumulate in a fixed order (shape groups, then
subdomains), so results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
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
from .sparse import (KIND_SYMMETRIC_INDEFINITE, REFINE_TOL, Factorization, SparseMatrix,
                     factorize, probe_rhs, sum_elements)
from .substructuring import (InterfaceMap, LevelSplits, build_splits, condensed_rhs,
                             recover_interior, subdomain_keys)


@dataclass
class LevelConstraints:
    """The constraint rows of every subdomain of a level, stacked in
    subdomain order: subdomain i owns rows starts[i]:starts[i+1], one per
    local coarse dof (corner value or glob average), ordered like its coarse
    dofs (coarse nodes ascending, components fastest). The rows are sparse:
    entry e puts val[e] in row row[e] at col[e], a position in the level's
    stacked interface (`LevelSplits.iface_index` order).

    A point constraint, a row tagged "corner" with exactly one entry, fixes
    one interface dof; every other row (an average, even one over a single
    node) is a multiplier row of the constrained local problem."""

    starts: np.ndarray            # (n_subdomains + 1,)
    tags: np.ndarray              # (n_rows,) "corner" | "edge" | "face"
    dofs: np.ndarray              # (n_rows,) global coarse dof of each row
    row: np.ndarray               # (n_entries,)
    col: np.ndarray
    val: np.ndarray


def build_constraints(coarse: CoarseSpace, globset, splits: LevelSplits,
                      imap: InterfaceMap) -> LevelConstraints:
    """Constraint rows of all subdomains of a level at once: each subdomain's
    coarse nodes expand into their members (a corner into itself, a glob
    node into the glob's remaining members, each weighted 1/size), and one
    search against the sorted (subdomain, interface dof) keys of the stacked
    interface places every member dof."""
    dpn = coarse.dofs_per_node
    kinds = np.array(["corner"] * coarse.n_corners
                     + [globset.globs[g].kind for g in coarse.glob_ids.tolist()], dtype=str)
    size = np.concatenate([np.ones(coarse.n_corners, dtype=np.int64),
                           np.array([m.size for m in coarse.glob_members], dtype=np.int64)])
    members = np.concatenate([coarse.corner_nodes, *coarse.glob_members])
    per_sub = np.array([nodes.size for nodes in coarse.sub_nodes], dtype=np.int64)
    node = np.concatenate([np.zeros(0, np.int64), *coarse.sub_nodes])  # per (subdomain, node)
    sub = np.repeat(np.arange(per_sub.size), per_sub)
    # one entry per (subdomain, node, member), then per component
    pair = np.repeat(np.arange(node.size), size[node])
    start = np.cumsum(size) - size
    within = np.arange(pair.size) - np.repeat(np.cumsum(size[node]) - size[node], size[node])
    comp = np.arange(dpn)
    dof = members[start[node][pair] + within][:, None] * dpn + comp
    iface_dof = imap.dofs[splits.iface_index]
    span = int(max(dof.max(initial=-1), iface_dof.max(initial=-1))) + 1
    keys = np.repeat(np.arange(per_sub.size), np.diff(splits.iface_offsets)) * span + iface_dof
    want = sub[pair][:, None] * span + dof
    col = np.searchsorted(keys, want)
    found = col < keys.size
    found[found] = keys[col[found]] == want[found]
    if not found.all():
        raise ValueError(f"subdomain {sub[pair][np.nonzero(~found)[0][0]]}: constraint "
                         f"node outside the subdomain's interface")
    return LevelConstraints(
        starts=np.concatenate([[0], np.cumsum(per_sub * dpn)]),
        tags=np.repeat(kinds[node], dpn), dofs=(node[:, None] * dpn + comp).ravel(),
        row=(pair[:, None] * dpn + comp).ravel(), col=col.ravel(),
        val=np.repeat(1.0 / size[node][pair], dpn))


@dataclass
class ShapeGroup:
    """The subdomains of one level that share a shape (n_free, n_interface,
    n_constraints), in subdomain order, with what their setup reads and what
    it stacks for the preconditioner, so that one batched product applies
    them all.

    Member j's constraint rows are rows j * n_constraints onwards of `rows`,
    with columns ordered like its `split.interface_pos`. Its interface order
    lists its free dofs (those no point constraint fixes), then the fixed
    ones, each ascending; its Schur complement is taken in that order."""

    subs: np.ndarray              # (m,) the members' subdomain indices
    iface: np.ndarray             # (m, n_interface) positions in the stacked interface
    order: np.ndarray             # (m, n_interface) interface order, local positions
    rank: np.ndarray              # (m, n_interface) each local position's place in it
    free: np.ndarray              # (m, n_free) stacked interface positions of the free dofs
    rows: scipy.sparse.csr_matrix  # (m * n_constraints, n_interface) constraint rows
    point: np.ndarray             # (m, n_constraints) point constraint rows
    tags: np.ndarray              # (m, n_constraints)
    dofs: np.ndarray              # (m, n_constraints) global coarse dof ids
    z: np.ndarray                 # (m, n_free, n_free)
    psi: np.ndarray               # (m, n_interface, n_constraints)
    kc: np.ndarray                # (m, n_constraints, n_constraints)


def _shape_groups(cons: LevelConstraints, iface_offsets: np.ndarray) -> list:
    """Group a level's subdomains by shape (n_free, n_interface,
    n_constraints), in order of first appearance, with room for their
    operators. Subdomain i's interface is stacked interface
    iface_offsets[i]:iface_offsets[i+1]."""
    n_b, n_c = np.diff(iface_offsets), np.diff(cons.starts)
    point = (cons.tags == "corner") & (np.bincount(cons.row, minlength=cons.tags.size) == 1)
    fixed = np.zeros(iface_offsets[-1], dtype=bool)
    fixed[cons.col[point[cons.row]]] = True
    n_fixed = np.diff(np.concatenate([[0], np.cumsum(fixed)])[iface_offsets])
    shapes = np.column_stack([n_b - n_fixed, n_b, n_c])
    _, first, which = np.unique(shapes, axis=0, return_index=True, return_inverse=True)
    which = which.ravel()
    sub_of = np.repeat(np.arange(n_c.size), n_c)[cons.row]     # subdomain of each entry
    groups = []
    for g in np.argsort(first):
        subs = np.flatnonzero(which == g)
        m, (nf, nb, nc) = subs.size, shapes[subs[0]]
        iface = iface_offsets[subs][:, None] + np.arange(nb)
        order = np.argsort(fixed[iface], axis=1, kind="stable")
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(nb), axis=1)
        slot = np.full(n_c.size, -1)
        slot[subs] = np.arange(m)
        mine = np.flatnonzero(slot[sub_of] >= 0)
        s = sub_of[mine]
        rows = scipy.sparse.csr_matrix(
            (cons.val[mine], (slot[s] * nc + cons.row[mine] - cons.starts[s],
                              cons.col[mine] - iface_offsets[s])), shape=(m * nc, nb))
        row_ids = cons.starts[subs][:, None] + np.arange(nc)
        groups.append(ShapeGroup(
            subs=subs, iface=iface, order=order, rank=rank,
            free=np.take_along_axis(iface, order[:, :nf], axis=1), rows=rows,
            point=point[row_ids], tags=cons.tags[row_ids], dofs=cons.dofs[row_ids],
            z=np.empty((m, nf, nf)), psi=np.empty((m, nb, nc)), kc=np.empty((m, nc, nc))))
    return groups


@dataclass
class SubdomainConstraints:
    """One subdomain's constraint rows by origin (the rows themselves are
    its ShapeGroup's `rows`) and its free dofs (those no point constraint
    fixes), ascending positions in `split.interface_pos`."""

    tags: list                    # "corner" | "edge" | "face" per row
    free_dofs: np.ndarray

    @property
    def n_constraints(self) -> int:
        return len(self.tags)


@dataclass
class SubdomainCoarse:
    """One subdomain's coarse machinery on its interface: the record of its
    factorized reduced bordered matrix [S_ff C_af^T; C_af 0] (see
    `coarse_basis`; the factor itself is not kept), the constrained-solve
    operator z, the basis psi and its coarse element matrix (views into its
    level's ShapeGroup), and where it assembles."""

    constraints: SubdomainConstraints
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


def coarse_basis(g: ShapeGroup, schur) -> list:
    """Factorize the constrained local problems of a shape group, invert
    them, and compute their coarse bases; schur yields each member's dense
    interface Schur complement S in turn (rows and columns in the member's
    interface order, g.order).

    The basis columns solve [S C^T; C 0][psi; lam] = [0; I]. A point
    constraint fixes its dof p outright (psi_p is 1/c_p in its own column
    and 0 in the others), so only the reduced matrix B = [S_ff C_af^T; C_af 0]
    over the free dofs f and the other (average) rows a is factorized; it is
    nonsingular exactly when [S C^T; C 0] is. The fixed dofs' values g enter
    its right-hand sides as [-S_fp g; e_a - C_ap g]. The factor is turned
    into the explicit inverse B^-1, and every solve is a product with it.
    What does not depend on S (which rows are point rows, their dofs and
    values, the average rows in interface order, the right-hand sides' other
    blocks) is indexed once for the whole group; only the factorization, the
    inversion and the products with the inverse run once per member.

    Fills the group's stacks: z = (B^-1)_ff (n_free x n_free, free dofs
    ascending) is the constrained-solve operator: the free-dof values of
    the solution of [S C^T; C 0][z; mu] = [r; 0] are z r_f. psi (n_interface
    x n_constraints, in interface_pos order) holds the interface values of
    the constrained energy minimizers with unit constraint values, and the
    coarse matrix kc is the negated multiplier block (= psi^T S psi),
    symmetrized: -lam_a on the average rows and (S_pB psi + C_ap^T lam_a)/c_p
    on the point rows, from the fixed dofs' own equations. Both equal those
    of the full local problem [K C^T; C 0], whose minimizers are discrete
    harmonic inside. Returns each member's factorization record (method,
    order and bordered matrix, without the factor).

    The basis product carries the factor's setup check as one extra column,
    the check probe, and only that column's residual is checked, so the
    check covers the inverse that the preconditioner applies. A member whose
    inverse is inaccurate raises NumericalError, and one whose bordered
    matrix is singular (two point constraints on one dof, say) raises
    SingularMatrixError; either names the member's subdomain index (also
    set as the exception's `subdomain`).
    """
    m, nb, nc = g.psi.shape
    nf = g.z.shape[1]
    n_fix = nb - nf
    na = nc - n_fix
    n = nf + na
    slot = np.arange(m)[:, None]
    by_kind = np.argsort(~g.point, axis=1, kind="stable")   # point rows, then averages
    prow, avg = by_kind[:, :n_fix], by_kind[:, n_fix:]
    doubled = np.count_nonzero(g.point, axis=1) > n_fix    # two point rows on one dof
    entries = g.rows.tocoo()
    mem, row = np.divmod(entries.row, max(nc, 1))         # member and row of each entry
    on_point = g.point[mem, row]
    pdof, val = np.zeros((m, nc), dtype=np.int64), np.zeros((m, nc))
    pdof[mem[on_point], row[on_point]] = entries.col[on_point]
    val[mem[on_point], row[on_point]] = entries.data[on_point]
    pdof, val = np.take_along_axis(pdof, prow, axis=1), np.take_along_axis(val, prow, axis=1)
    fix = np.take_along_axis(g.rank, pdof, axis=1)         # each point row's dof in S
    avg_row = np.empty((m, nc), dtype=np.int64)
    avg_row[slot, avg] = np.arange(na)
    mem, row, col = mem[~on_point], row[~on_point], entries.col[~on_point]
    c_a = np.zeros((m, na, nb))                             # the average rows, in S's order
    c_a[mem, avg_row[mem, row], g.rank[mem, col]] = entries.data[~on_point]
    c_ap = np.take_along_axis(c_a, fix[:, None, :], axis=2)  # the fixed dofs' columns
    # the average rows of the right-hand sides, and the check probe
    b = probe_rhs(n)
    rhs_a = np.zeros((m, na, nc + 1))
    rhs_a[slot[..., None], np.arange(na)[:, None], prow[:, None, :]] = -c_ap / val[:, None, :]
    rhs_a[slot, np.arange(na), avg] = 1.0
    rhs_a[:, :, nc] = b[nf:]
    ax = np.empty((m, n))                                   # B times the probe's solution
    a = np.zeros((n, n))
    cols = np.broadcast_to(np.arange(n, dtype=np.int32), (n, n))
    records, stop = [], None
    for j, s in enumerate(schur):
        if doubled[j]:
            stop = SingularMatrixError("two point constraints fix the same interface dof")
            break
        a[:nf, :nf] = s[:nf, :nf]
        a[nf:, :nf] = c_a[j, :, :nf]
        a[:nf, nf:] = c_a[j, :, :nf].T
        nz = a != 0
        ptr = np.zeros(n + 1, dtype=np.int32)
        ptr[1:] = np.cumsum(np.count_nonzero(nz, axis=1))
        bordered = SparseMatrix(scipy.sparse.csr_matrix((a[nz], cols[nz], ptr), shape=(n, n)),
                                symmetric=True)
        try:
            fact = factorize(bordered, KIND_SYMMETRIC_INDEFINITE, probe=False, dense=a)
            inv = fact.inverse()
        except NumericalError as exc:
            stop = exc
            break
        records.append(fact)
        s_p = s[fix[j]]                                     # the fixed dofs' rows of S
        rhs = np.zeros((n, nc + 1))
        rhs[:nf, prow[j]] = -s_p[:, :nf].T / val[j]
        rhs[:nf, nc] = b[:nf]
        rhs[nf:] = rhs_a[j]
        sol = inv @ rhs
        ax[j] = a @ sol[:, nc]
        psi = np.zeros((nb, nc))                            # in S's order
        psi[:nf] = sol[:nf, :nc]
        psi[fix[j], prow[j]] = 1.0 / val[j]
        lam_a = sol[nf:, :nc]
        kc = np.empty((nc, nc))
        kc[avg[j]] = -lam_a
        kc[prow[j]] = (s_p @ psi + c_ap[j].T @ lam_a) / val[j][:, None]
        g.kc[j] = (kc + kc.T) / 2.0
        g.psi[j][g.order[j]] = psi
        g.z[j] = inv[:nf, :nf]
    # the setup check of every inverse made, then the failure that stopped
    # the loop: the first failing member either way
    done = len(records)
    r = b - ax[:done]
    rel = np.sqrt(np.sum(r * r, axis=1) / (b @ b)) if n else np.zeros(done)
    bad = np.flatnonzero(~(rel <= REFINE_TOL))             # a NaN fails too
    if bad.size or stop is not None:
        j = int(bad[0]) if bad.size else done
        if bad.size:
            stop = NumericalError(f"inverse is inaccurate: relative residual {rel[j]:.1e} "
                                  f"on the check probe, above {REFINE_TOL:.0e}")
        what = ("singular" if isinstance(stop, SingularMatrixError)
                else "too ill-conditioned to solve accurately")
        err = type(stop)(f"subdomain {g.subs[j]}: constrained local problem is {what} "
                         f"({nc} constraints on {nb} interface dofs)")
        err.subdomain = int(g.subs[j])
        raise err from stop
    return records


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


def _local_schur(k_csr, splits: LevelSplits, g: ShapeGroup):
    """Yield the dense interface Schur complement S = K_BB - K_IB^T K_II^-1 K_IB
    of each member of shape group g in turn, from the level's block-diagonal
    CSR k_csr, with rows and columns in the member's interface order
    (g.order). K_II is SPD: the level's stacked K_II factor passed its setup
    check.

    Every row of the group's blocks gets its dense position once for the
    whole group: interior dofs first, in order, then the interface in
    interface order. Up to sparse.DENSE_THRESHOLD local dofs, a member's
    block is read straight from the CSR arrays (it has no entries outside
    its own columns) into one dense array at those positions: S = K_BB -
    W^T W with W = L^-1 K_IB, K_II = L L^T. Larger subdomains never become
    dense: their K_II is factorized by `factorize` (SuperLU above the
    threshold) and solved for the n_B columns of K_IB only.
    """
    nb = g.iface.shape[1]
    lo = splits.offsets[g.subs]
    n_local = splits.offsets[g.subs + 1] - lo
    pos = np.empty(k_csr.shape[0], dtype=np.int64)
    int_offsets = splits.interior_offsets
    pos[splits.interior_rows] = (np.arange(int_offsets[-1])
                                 - np.repeat(int_offsets[:-1], np.diff(int_offsets)))
    pos[splits.interface_rows[g.iface]] = (n_local - nb)[:, None] + g.rank
    for a, n in zip(lo.tolist(), n_local.tolist()):
        n_i = n - nb
        if n > sparse.DENSE_THRESHOLD:
            local = np.argsort(pos[a:a + n])        # interior, then interface order
            blk = k_csr[a:a + n, a:a + n]
            rows_i = blk[local[:n_i]]
            k_ib = rows_i[:, local[n_i:]].toarray(order="F")
            k_ii = factorize(SparseMatrix.from_scipy(rows_i[:, local[:n_i]], symmetric=True))
            s = blk[local[n_i:]][:, local[n_i:]].toarray() - k_ib.T @ k_ii.solve(k_ib)
            yield (s + s.T) * 0.5
            continue
        ptr = k_csr.indptr[a:a + n + 1]
        entries = slice(ptr[0], ptr[-1])
        kd = np.zeros((n, n), order="F")
        kd[np.repeat(pos[a:a + n], np.diff(ptr)), pos[k_csr.indices[entries]]] = \
            k_csr.data[entries]
        if n_i in (0, n):
            yield kd[n_i:, n_i:]
            continue
        low, info = dpotrf(kd[:n_i, :n_i], lower=1)
        if info != 0:
            raise NotPositiveDefiniteError(
                f"interior block is not positive definite (potrf info={info})")
        w, _ = dtrtrs(low, kd[:n_i, n_i:], lower=1)
        s = kd[n_i:, n_i:] - w.T @ w
        yield (s + s.T) * 0.5


def _build_level(index: int, grid: LevelGrid, part: Partition, k: SparseMatrix, keys,
                 policy: str, strategy: str, scheme: str) -> BddcLevel:
    globset = classify_interface(grid, part)
    iface = interface_dofs(globset, grid.dofs_per_node)
    splits, imap = build_splits(k, keys, iface, grid.n_dofs)
    weights = build_weights(splits, scheme)
    corners = select_corners(globset, grid, strategy)
    coarse = build_coarse_space(globset, corners, grid, part, policy)
    groups = _shape_groups(build_constraints(coarse, globset, splits, imap),
                           splits.iface_offsets)
    k_csr = k.scipy_csr()
    subs, failed = [None] * len(splits), []
    for g in groups:
        try:
            records = coarse_basis(g, _local_schur(k_csr, splits, g))
        except NumericalError as exc:
            if getattr(exc, "subdomain", None) is None:
                raise
            failed.append(exc)
            continue
        nf = g.z.shape[1]
        for j, (i, fact) in enumerate(zip(g.subs.tolist(), records)):
            cons = SubdomainConstraints(tags=g.tags[j].tolist(), free_dofs=g.order[j, :nf])
            subs[i] = SubdomainCoarse(constraints=cons, bordered=fact, z=g.z[j], psi=g.psi[j],
                                      coarse_matrix=g.kc[j], coarse_dofs=g.dofs[j])
    if failed:
        # the first failing subdomain in index order, whichever group it is in
        exc = min(failed, key=lambda e: e.subdomain)
        raise NumericalError(f"level {index}, {exc}; the constraint set is too weak") from exc
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
