"""Level grids: the element/node incidence a BDDC level operates on.

Level 1 wraps the finite element mesh restricted to free nodes; higher
levels wrap pseudo-meshes whose "elements" are the previous level's
subdomains and whose "nodes" are its coarse nodes. Element node lists are
stored flat, CSR style: one node array plus per-element offsets. Grid dof
g*dpn+c for grid node g and component c coincides with the level's dof
numbering (the global free-dof numbering on level 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import DofMap, Mesh, ProblemSpec, node_dofs


@dataclass
class LevelGrid:
    n_nodes: int
    node_coords: np.ndarray            # (n_nodes, dim)
    elem_ptr: np.ndarray               # (n_elems + 1,) offsets into elem_nodes
    elem_nodes: np.ndarray             # element e: sorted dof-carrying node ids
                                       # elem_nodes[elem_ptr[e]:elem_ptr[e + 1]]
    dofs_per_node: int
    structured_shape: tuple | None = None
    # (n_elems, m) node ids for adjacency only (falls back to elem_nodes);
    # level 1 passes the mesh's element array, whose Dirichlet-fixed nodes
    # make adjacency follow the mesh, not the eliminated system
    conn_nodes: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_elems(self) -> int:
        return self.elem_ptr.shape[0] - 1

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * self.dofs_per_node

    @property
    def dim(self) -> int:
        return self.node_coords.shape[1]

    def adjacency_nodes(self) -> tuple:
        """(offsets, flat node ids) of the nodes that make elements adjacent."""
        if self.conn_nodes is None:
            return self.elem_ptr, self.elem_nodes
        n_e, m = self.conn_nodes.shape
        return np.arange(n_e + 1) * m, self.conn_nodes.ravel()


def level_grid_from_mesh(mesh: Mesh, spec: ProblemSpec, dofmap: DofMap) -> LevelGrid:
    """Level-1 grid: mesh restricted to nodes that carry free dofs."""
    free_nodes = dofmap.free_nodes
    node_map = np.full(mesh.n_nodes, -1, dtype=np.int64)
    node_map[free_nodes] = np.arange(free_nodes.shape[0])
    mapped = np.sort(node_map[mesh.elem_nodes], axis=1)
    free = mapped >= 0
    elem_ptr = np.concatenate(([0], np.cumsum(free.sum(axis=1))))
    # grid dofs must coincide with the free-dof numbering: free dofs are
    # node-major and nodes are never partially fixed
    dpn = spec.dofs_per_node
    if not np.array_equal(node_dofs(free_nodes, dpn), dofmap.free_dofs):
        raise ValueError("free-dof numbering is not node-major")
    return LevelGrid(
        n_nodes=free_nodes.shape[0],
        node_coords=mesh.coords[free_nodes],
        elem_ptr=elem_ptr,
        elem_nodes=mapped[free],
        dofs_per_node=dpn,
        structured_shape=mesh.n_elems_per_axis,
        conn_nodes=mesh.elem_nodes,
    )
