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

from dataclasses import dataclass, field, replace

import numpy as np

from .sparse import sum_elements
from .substructuring import subdomain_keys

BOX_FACES = ("x-", "x+", "y-", "y+", "z-", "z+")

_GAUSS = 1.0 / np.sqrt(3.0)


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
    """Structured box mesh. boundary_dofs/values are filled by
    mark_dirichlet and index full (pre-elimination) dofs."""

    dim: int
    n_elems_per_axis: tuple
    lengths: tuple
    coords: np.ndarray               # (n_nodes, dim)
    elem_nodes: np.ndarray           # (n_elems, 4 or 8)
    dofs_per_node: int = 1
    boundary_dofs: np.ndarray | None = None
    boundary_values: np.ndarray | None = None
    _kmat_cache: dict = field(default_factory=dict, repr=False, compare=False)

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
    axes = [np.linspace(0.0, lens[d], nps[d]) for d in range(dim)]
    # lexicographic, x fastest
    grids = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.reshape(-1, order="F") for g in grids], axis=1)

    def node_id(idx):
        out = idx[0]
        stride = nps[0]
        for d in range(1, dim):
            out = out + stride * idx[d]
            stride *= nps[d]
        return out

    erng = [np.arange(n) for n in nels]
    eidx = np.meshgrid(*erng, indexing="ij")
    ei = [g.reshape(-1, order="F") for g in eidx]
    if dim == 2:
        offsets = [(0, 0), (1, 0), (1, 1), (0, 1)]
    else:
        offsets = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
                   (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
    cols = []
    for off in offsets:
        cols.append(node_id([ei[d] + off[d] for d in range(dim)]))
    elem_nodes = np.stack(cols, axis=1).astype(np.int64)
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
    dpn = spec.dofs_per_node
    idx = np.arange(mesh.n_nodes)
    axis_index = []
    rem = idx.copy()
    for d in range(mesh.dim):
        axis_index.append(rem % nps[d])
        rem = rem // nps[d]
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    for f in faces:
        d = "xyz".index(f[0])
        if d >= mesh.dim:
            raise ValueError(f"face {f!r} invalid for {mesh.dim}D mesh")
        mask |= axis_index[d] == (0 if f[1] == "-" else nps[d] - 1)
    dofs = np.sort(node_dofs(idx[mask], dpn))
    values = np.full(dofs.shape, float(spec.dirichlet_value))
    return dofs, values


def mark_dirichlet(spec: ProblemSpec, mesh: Mesh) -> Mesh:
    dofs, values = dirichlet_dofs(spec, mesh)
    return replace(mesh, dofs_per_node=spec.dofs_per_node,
                   boundary_dofs=dofs, boundary_values=values)


@dataclass
class DofMap:
    """Free/fixed dof bookkeeping after symmetric Dirichlet elimination."""

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
    if mesh.boundary_dofs is None:
        fixed, values = dirichlet_dofs(spec, mesh)
    else:
        fixed, values = mesh.boundary_dofs, mesh.boundary_values
    dpn = spec.dofs_per_node
    n_full = mesh.n_nodes * dpn
    if len(fixed) == 0:
        raise ValueError("no Dirichlet dofs: the operator would be singular")
    full_to_free = np.full(n_full, -1, dtype=np.int64)
    mask = np.ones(n_full, dtype=bool)
    mask[fixed] = False
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
                  full_to_free=full_to_free, fixed_dofs=np.asarray(fixed),
                  fixed_values=np.asarray(values), free_nodes=free_nodes)


# -- element matrices ---------------------------------------------------------

def _shape_gradients(dim: int, xi: np.ndarray) -> np.ndarray:
    """Local gradients dN/dxi at one quadrature point, (n_nodes, dim)."""
    if dim == 2:
        signs = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
    else:
        signs = np.array([(-1, -1, -1), (1, -1, -1), (1, 1, -1), (-1, 1, -1),
                          (-1, -1, 1), (1, -1, 1), (1, 1, 1), (-1, 1, 1)], dtype=float)
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
    mesh are congruent, so the result is cached per (mesh, problem)."""
    key = (spec.kind, spec.dim, spec.young, spec.poisson_ratio)
    cached = mesh._kmat_cache.get(key)
    if cached is not None:
        return cached
    dim = mesh.dim
    if spec.dim != dim:
        raise ValueError(f"problem dim {spec.dim} != mesh dim {dim}")
    x = mesh.coords[mesh.elem_nodes[0]]
    pts = [-_GAUSS, _GAUSS]
    quad = [np.array(p) for p in np.stack(
        np.meshgrid(*([pts] * dim), indexing="ij"), axis=-1).reshape(-1, dim)]
    ndof = x.shape[0] * spec.dofs_per_node
    ke = np.zeros((ndof, ndof))
    d_mat = _elastic_d(spec) if spec.kind == "elasticity" else None
    for xi in quad:
        dn = _shape_gradients(dim, xi)
        jac = x.T @ dn
        det = np.linalg.det(jac)
        if det <= 0:
            raise ValueError("non-positive Jacobian")
        g = dn @ np.linalg.inv(jac)
        if spec.kind == "poisson":
            ke += det * (g @ g.T)
        else:
            b = _strain_matrix(dim, g)
            ke += det * (b.T @ d_mat @ b)
    ke = (ke + ke.T) / 2.0
    mesh._kmat_cache[key] = ke
    return ke


# -- assembly -----------------------------------------------------------------

def _element_dofs(spec: ProblemSpec, mesh: Mesh, elements: np.ndarray) -> np.ndarray:
    """(n_elems, ndof_per_elem) full-dof indices, node-major per element."""
    return node_dofs(mesh.elem_nodes[elements], spec.dofs_per_node)


def assemble_global(spec: ProblemSpec, mesh: Mesh):
    """Assemble the Dirichlet-eliminated operator and load vector over the
    free dofs. Returns (K, f)."""
    dofmap = build_dof_map(spec, mesh)
    ke = element_matrix(spec, mesh)
    ed = _element_dofs(spec, mesh, np.arange(mesh.n_elems))
    free = dofmap.full_to_free[ed]
    k, _ = sum_elements([(ke, free)])

    if spec.rhs_kind == "constant":
        f = np.ones(dofmap.n_free)
    else:
        f = np.zeros(dofmap.n_free)
    if np.any(dofmap.fixed_values != 0.0):
        # lift: each element's rows of ke times its prescribed values
        vals_full = np.zeros(dofmap.n_full)
        vals_full[dofmap.fixed_dofs] = dofmap.fixed_values
        lift = vals_full[ed] @ ke
        f -= np.bincount(free[free >= 0], lift[free >= 0], dofmap.n_free)
    return k, f


def subassemble_subdomain(spec: ProblemSpec, mesh: Mesh, dofmap: DofMap, partition):
    """Assemble every subdomain's stiffness over its free dofs in one call.

    Element dofs are keyed by `substructuring.subdomain_keys`, so K is
    block-diagonal with one block per subdomain of the element partition,
    in subdomain order. Returns (K, keys): row j of K is free dof
    keys[j] % n_free of subdomain keys[j] // n_free, and keys ascend.
    """
    partition.validate()
    free = dofmap.full_to_free[_element_dofs(spec, mesh, np.arange(mesh.n_elems))]
    keys = subdomain_keys(partition.assignment[:, None], free, dofmap.n_free)
    return sum_elements([(element_matrix(spec, mesh), keys)])


# -- VTK export ---------------------------------------------------------------

def export_vtk(mesh: Mesh, point_data: dict, path) -> None:
    """Legacy ASCII VTK unstructured grid. Arrays of length n_nodes are
    written as scalars, of length n_nodes*dim as vectors."""
    n = mesh.n_nodes
    dim = mesh.dim
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("mlbddc output\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {n} double\n")
        for p in mesh.coords:
            x, y = p[0], p[1]
            z = p[2] if dim == 3 else 0.0
            fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
        npe = mesh.elem_nodes.shape[1]
        fh.write(f"CELLS {mesh.n_elems} {mesh.n_elems * (npe + 1)}\n")
        for nodes in mesh.elem_nodes:
            fh.write(str(npe) + " " + " ".join(str(v) for v in nodes) + "\n")
        fh.write(f"CELL_TYPES {mesh.n_elems}\n")
        cell_type = 9 if dim == 2 else 12
        for _ in range(mesh.n_elems):
            fh.write(f"{cell_type}\n")
        if point_data:
            fh.write(f"POINT_DATA {n}\n")
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=np.float64)
                if arr.size == n:
                    fh.write(f"SCALARS {name} double 1\n")
                    fh.write("LOOKUP_TABLE default\n")
                    for v in arr:
                        fh.write(f"{v:.17g}\n")
                elif arr.size == n * dim:
                    a = arr.reshape(n, dim)
                    fh.write(f"VECTORS {name} double\n")
                    for row in a:
                        x, y = row[0], row[1]
                        z = row[2] if dim == 3 else 0.0
                        fh.write(f"{x:.17g} {y:.17g} {z:.17g}\n")
                else:
                    raise ValueError(
                        f"point data {name!r} has size {arr.size}, expected {n} or {n * dim}")
