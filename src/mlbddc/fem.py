"""Structured box meshes, element stiffness, and stiffness assembly.

Meshes are tensor grids of bilinear quads (2D) or trilinear hexes (3D) with
lexicographic node numbering, x fastest. Element integrals use 2-point Gauss
per axis, exact for the affine boxes these grids produce. Dirichlet
conditions are eliminated symmetrically: fixed dofs disappear from the
assembled operator and their values move to the right-hand side. The
subdomain matrices of a partition are assembled in one call, as one
block-diagonal matrix whose rows are keyed by (subdomain, free dof).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import sum_elements
from .substructuring import subdomain_keys

BOX_FACES = ("x-", "x+", "y-", "y+", "z-", "z+")

_GAUSS = 1.0 / np.sqrt(3.0)

# an element's nodes in its local order, as offsets from its lowest corner
_CORNERS = {2: np.array([(0, 0), (1, 0), (1, 1), (0, 1)]),
            3: np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                         (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)])}


@dataclass
class ProblemSpec:
    """Scalar diffusion or isotropic linear elasticity on a box."""

    kind: str = "poisson"            # "poisson" | "elasticity"
    dim: int = 2
    young: float = 1.0
    poisson_ratio: float = 0.3
    rhs_kind: str = "constant"       # "constant" | "zero"
    dirichlet_faces: tuple = ("all",)
    dirichlet_value: float = 0.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.kind not in ("poisson", "elasticity"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.kind == "elasticity":
            if not self.young > 0:
                raise ValueError("Young's modulus must be positive")
            if not 0 < self.poisson_ratio < 0.5:
                raise ValueError("Poisson ratio must lie in (0, 0.5)")
        if self.rhs_kind not in ("constant", "zero"):
            raise ValueError(f"unknown rhs kind {self.rhs_kind!r}")
        faces = self.resolved_faces()
        for f in faces:
            if f not in BOX_FACES:
                raise ValueError(f"unknown box face {f!r}")
            if self.dim == 2 and f.startswith("z"):
                raise ValueError("z faces do not exist in 2D")

    def resolved_faces(self) -> tuple:
        if tuple(self.dirichlet_faces) == ("all",):
            return BOX_FACES[: 2 * self.dim]
        return tuple(self.dirichlet_faces)

    @property
    def dofs_per_node(self) -> int:
        return 1 if self.kind == "poisson" else self.dim


@dataclass
class Mesh:
    """Structured box mesh."""

    dim: int
    n_elems_per_axis: tuple
    lengths: tuple
    coords: np.ndarray               # (n_nodes, dim)
    elem_nodes: np.ndarray           # (n_elems, 4 or 8)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elems(self) -> int:
        return self.elem_nodes.shape[0]

    @property
    def nodes_per_axis(self) -> tuple:
        return tuple(n + 1 for n in self.n_elems_per_axis)


def generate_box_mesh(dim: int, n_elems_per_axis, length=1.0) -> Mesh:
    """Tensor grid on a box; n_elems_per_axis and length may be scalars or
    per-axis sequences."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if np.isscalar(n_elems_per_axis):
        nels = (int(n_elems_per_axis),) * dim
    else:
        nels = tuple(int(v) for v in n_elems_per_axis)
    if len(nels) != dim or any(n < 1 for n in nels):
        raise ValueError(f"bad element counts {nels} for dim {dim}")
    if np.isscalar(length):
        lens = (float(length),) * dim
    else:
        lens = tuple(float(v) for v in length)
    if len(lens) != dim or any(l <= 0 for l in lens):
        raise ValueError(f"bad box lengths {lens}")

    nps = tuple(n + 1 for n in nels)
    # nodes and elements are lexicographic, x fastest
    node = np.unravel_index(np.arange(math.prod(nps)), nps, order="F")
    coords = np.stack([np.linspace(0.0, lens[d], nps[d])[node[d]] for d in range(dim)], axis=1)
    first = np.unravel_index(np.arange(math.prod(nels)), nels, order="F")   # lowest corners
    elem_nodes = np.ravel_multi_index(
        [first[d][:, None] + _CORNERS[dim][:, d] for d in range(dim)], nps, order="F")
    return Mesh(dim=dim, n_elems_per_axis=nels, lengths=lens,
                coords=coords, elem_nodes=elem_nodes)


def node_dofs(nodes, dofs_per_node: int) -> np.ndarray:
    """Dof ids of the nodes along the trailing axis, node-major:
    (..., n) node ids -> (..., n * dofs_per_node) dof ids."""
    nodes = np.asarray(nodes, dtype=np.int64)
    dofs = nodes[..., None] * dofs_per_node + np.arange(dofs_per_node)
    return dofs.reshape(nodes.shape[:-1] + (nodes.shape[-1] * dofs_per_node,))


def dirichlet_dofs(spec: ProblemSpec, mesh: Mesh):
    """Full-dof indices and values prescribed on the problem's box faces."""
    faces = spec.resolved_faces()
    nps = mesh.nodes_per_axis
    axis_index = np.unravel_index(np.arange(mesh.n_nodes), nps, order="F")
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    for f in faces:
        d = "xyz".index(f[0])
        if d >= mesh.dim:
            raise ValueError(f"face {f!r} invalid for {mesh.dim}D mesh")
        mask |= axis_index[d] == (0 if f[1] == "-" else nps[d] - 1)
    dofs = np.sort(node_dofs(np.flatnonzero(mask), spec.dofs_per_node))
    values = np.full(dofs.shape, float(spec.dirichlet_value))
    return dofs, values


@dataclass
class DofMap:
    """Free/fixed dof bookkeeping after symmetric Dirichlet elimination, and
    the Dirichlet data: value fixed_values[i] at full dof fixed_dofs[i]."""

    n_full: int
    dofs_per_node: int
    free_dofs: np.ndarray
    full_to_free: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray
    free_nodes: np.ndarray

    @property
    def n_free(self) -> int:
        return self.free_dofs.shape[0]

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        """Free-dof vector -> full-dof vector with Dirichlet values."""
        out = np.zeros(self.n_full)
        out[self.free_dofs] = x_free
        out[self.fixed_dofs] = self.fixed_values
        return out


def build_dof_map(spec: ProblemSpec, mesh: Mesh) -> DofMap:
    fixed, values = dirichlet_dofs(spec, mesh)
    dpn = spec.dofs_per_node
    n_full = mesh.n_nodes * dpn
    if len(fixed) == 0:
        raise ValueError("no Dirichlet dofs: the operator would be singular")
    full_to_free = np.full(n_full, -1, dtype=np.int64)
    mask = np.ones(n_full, dtype=bool)
    mask[fixed] = False
    if not mask.any():
        raise ValueError("no free dofs: every dof is a Dirichlet dof")
    free = np.nonzero(mask)[0]
    full_to_free[free] = np.arange(free.shape[0])
    # nodes must be fully fixed or fully free (the partition/interface
    # machinery classifies whole nodes)
    node_free = mask.reshape(mesh.n_nodes, dpn)
    partially = np.logical_xor(node_free.any(axis=1), node_free.all(axis=1))
    if np.any(partially):
        raise ValueError("partially fixed nodes are not supported")
    free_nodes = np.nonzero(node_free.all(axis=1))[0]
    return DofMap(n_full=n_full, dofs_per_node=dpn, free_dofs=free,
                  full_to_free=full_to_free, fixed_dofs=fixed, fixed_values=values,
                  free_nodes=free_nodes)


# -- element matrices ---------------------------------------------------------

def _shape_gradients(dim: int, xi: np.ndarray) -> np.ndarray:
    """Local gradients dN/dxi at one quadrature point, (n_nodes, dim)."""
    signs = 2.0 * _CORNERS[dim] - 1.0
    n_nodes = signs.shape[0]
    grad = np.empty((n_nodes, dim))
    for d in range(dim):
        g = signs[:, d] / 2.0
        for e in range(dim):
            if e != d:
                g = g * (1.0 + signs[:, e] * xi[e]) / 2.0
        grad[:, d] = g
    return grad


def _elastic_d(spec: ProblemSpec) -> np.ndarray:
    lam = spec.young * spec.poisson_ratio / (
        (1.0 + spec.poisson_ratio) * (1.0 - 2.0 * spec.poisson_ratio))
    mu = spec.young / (2.0 * (1.0 + spec.poisson_ratio))
    if spec.dim == 2:
        # plane strain
        return np.array([[lam + 2 * mu, lam, 0.0],
                         [lam, lam + 2 * mu, 0.0],
                         [0.0, 0.0, mu]])
    d = np.zeros((6, 6))
    d[:3, :3] = lam
    d[np.diag_indices(3)] += 2 * mu
    d[3, 3] = d[4, 4] = d[5, 5] = mu
    return d


def _strain_matrix(dim: int, g: np.ndarray) -> np.ndarray:
    """Voigt strain-displacement matrix from global shape gradients."""
    n_nodes = g.shape[0]
    if dim == 2:
        b = np.zeros((3, 2 * n_nodes))
        b[0, 0::2] = g[:, 0]
        b[1, 1::2] = g[:, 1]
        b[2, 0::2] = g[:, 1]
        b[2, 1::2] = g[:, 0]
        return b
    b = np.zeros((6, 3 * n_nodes))
    b[0, 0::3] = g[:, 0]
    b[1, 1::3] = g[:, 1]
    b[2, 2::3] = g[:, 2]
    b[3, 1::3] = g[:, 2]
    b[3, 2::3] = g[:, 1]
    b[4, 0::3] = g[:, 2]
    b[4, 2::3] = g[:, 0]
    b[5, 0::3] = g[:, 1]
    b[5, 1::3] = g[:, 0]
    return b


def element_matrix(spec: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Element stiffness by 2-point Gauss per axis. All elements of a box
    mesh are congruent, so one matrix, from the first element, serves all.

    Entries that are zero up to rounding are stored as exact zeros. Each
    entry sums terms t over the n_q quadrature points: det g_i g_j over the
    dim gradient components for Poisson, det B_ki D_kl B_lj over the s^2
    pairs of the s Voigt strains for elasticity. Any one term passes
    through at most m = (terms per entry) + (factors per term) roundings
    (its products, the additions that sum it, the symmetrization), so the
    computed entry is within gamma_m Sigma|t|, gamma_m = m u / (1 - m u)
    for unit roundoff u, of the exact sum of its terms (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, §3.1 and §4.2).
    An entry with |Sigma t| <= gamma_m Sigma|t| is set to 0: on a cube,
    exactly the 24 edge couplings of 3D Poisson, whose exact value is 0.
    2D Poisson, stretched boxes and elasticity keep every entry.
    """
    dim = mesh.dim
    if spec.dim != dim:
        raise ValueError(f"problem dim {spec.dim} != mesh dim {dim}")
    x = mesh.coords[mesh.elem_nodes[0]]
    pts = [-_GAUSS, _GAUSS]
    quad = [np.array(p) for p in np.stack(
        np.meshgrid(*([pts] * dim), indexing="ij"), axis=-1).reshape(-1, dim)]
    ndof = x.shape[0] * spec.dofs_per_node
    ke = np.zeros((ndof, ndof))
    abs_sum = np.zeros((ndof, ndof))    # Sigma|t|
    d_mat = _elastic_d(spec) if spec.kind == "elasticity" else None
    m = len(quad) * dim + 3 if d_mat is None else len(quad) * d_mat.shape[0] ** 2 + 4
    for xi in quad:
        dn = _shape_gradients(dim, xi)
        jac = x.T @ dn
        det = np.linalg.det(jac)
        if det <= 0:
            raise ValueError("non-positive Jacobian")
        g = dn @ np.linalg.inv(jac)
        if spec.kind == "poisson":
            ke += det * (g @ g.T)
            abs_sum += det * (np.abs(g) @ np.abs(g).T)
        else:
            b = _strain_matrix(dim, g)
            ke += det * (b.T @ d_mat @ b)
            abs_sum += det * (np.abs(b).T @ np.abs(d_mat) @ np.abs(b))
    ke = (ke + ke.T) / 2.0
    u = np.finfo(np.float64).eps / 2
    ke[np.abs(ke) <= m * u / (1 - m * u) * (abs_sum + abs_sum.T) / 2.0] = 0.0
    return ke


# -- assembly -----------------------------------------------------------------

def assemble_global(spec: ProblemSpec, mesh: Mesh):
    """Assemble the Dirichlet-eliminated operator and load vector over the
    free dofs. Returns (K, f)."""
    dofmap = build_dof_map(spec, mesh)
    free = dofmap.full_to_free[node_dofs(mesh.elem_nodes, spec.dofs_per_node)]
    k, _ = sum_elements([(element_matrix(spec, mesh), free)], spec.dofs_per_node)
    return k, load_vector(spec, mesh, dofmap)


def load_vector(spec: ProblemSpec, mesh: Mesh, dofmap: DofMap) -> np.ndarray:
    """The load over the free dofs: the constant (or zero) body load minus
    the lift of the Dirichlet data dofmap.fixed_values."""
    f = np.full(dofmap.n_free, 1.0 if spec.rhs_kind == "constant" else 0.0)
    if np.any(dofmap.fixed_values != 0.0):
        # lift: each element's prescribed values times the element matrix
        ed = node_dofs(mesh.elem_nodes, spec.dofs_per_node)
        free = dofmap.full_to_free[ed]
        lift = dofmap.expand(np.zeros(dofmap.n_free))[ed] @ element_matrix(spec, mesh)
        f -= np.bincount(free[free >= 0], lift[free >= 0], dofmap.n_free)
    return f


def subassemble_subdomain(spec: ProblemSpec, mesh: Mesh, dofmap: DofMap, partition, iface_dofs):
    """Assemble every subdomain's stiffness over its free dofs in one call.

    Element dofs are keyed by `substructuring.subdomain_keys` with the
    level's sorted interface free dofs iface_dofs, so K is block-diagonal
    with one block per subdomain of the element partition, rows in split
    order: all interior dofs, by subdomain, then all interface dofs, by
    subdomain. Returns (K, keys): row j of K is free dof keys[j] % n_free
    of subdomain keys[j] // n_free % n_subdomains, on the interface when
    keys[j] // n_free >= n_subdomains, and keys ascend.
    """
    partition.validate()
    free = dofmap.full_to_free[node_dofs(mesh.elem_nodes, spec.dofs_per_node)]
    keys = subdomain_keys(partition.assignment[:, None], free, dofmap.n_free,
                          partition.n_subdomains, iface_dofs)
    return sum_elements([(element_matrix(spec, mesh), keys)], spec.dofs_per_node)


# -- VTK export ---------------------------------------------------------------

def export_vtk(mesh: Mesh, point_data: dict, path) -> None:
    """Legacy ASCII VTK unstructured grid. Arrays of length n_nodes are
    written as scalars, of length n_nodes*dim as vectors."""
    n = mesh.n_nodes
    dim = mesh.dim
    n_e, npe = mesh.elem_nodes.shape

    def xyz(rows):                   # 2D rows get z = 0
        return np.pad(rows, ((0, 0), (0, 3 - dim)))

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\nmlbddc output\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n")
        np.savetxt(fh, xyz(mesh.coords), fmt="%.17g")
        fh.write(f"CELLS {n_e} {n_e * (npe + 1)}\n")
        np.savetxt(fh, np.column_stack([np.full(n_e, npe), mesh.elem_nodes]), fmt="%d")
        fh.write(f"CELL_TYPES {n_e}\n")
        np.savetxt(fh, np.full(n_e, 9 if dim == 2 else 12), fmt="%d")
        if point_data:
            fh.write(f"POINT_DATA {n}\n")
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=np.float64).ravel()
                if arr.size == n:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    np.savetxt(fh, arr, fmt="%.17g")
                elif arr.size == n * dim:
                    fh.write(f"VECTORS {name} double\n")
                    np.savetxt(fh, xyz(arr.reshape(n, dim)), fmt="%.17g")
                else:
                    raise ValueError(
                        f"point data {name!r} has size {arr.size}, expected {n} or {n * dim}")
