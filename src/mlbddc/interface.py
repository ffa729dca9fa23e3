"""Interface classification, corner selection, interface weights, and the
coarse space.

Interface nodes are grouped into globs by their exact set of sharing
subdomains: a glob shared by two subdomains with at least dim members is a
face, larger sharing sets give edges, and singleton globs with three or
more sharers are vertices. Corners are selected nodes that become point
constraints; the remaining glob members carry average constraints.

Every step is a few whole-array sorts and segment reductions: one lexsort
of the interface nodes' padded sharer rows makes the globs, and `GlobSet`
holds them as arrays (each node's glob, each glob's kind and sharers).
The coarse space maps each node to its one coarse node (a corner to its own
point constraint, any other member of an included glob to the glob's
average), so no interface dof is in two constraint rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import node_dofs
from .grid import LevelGrid
from .sparse import sorted_unique

CONSTRAINT_POLICIES = ("corners-only", "corners+edges", "corners+edges+faces")
WEIGHT_SCHEMES = ("cardinality", "stiffness-diagonal")
CORNER_STRATEGIES = ("default", "vertices-only", "all-interface")


@dataclass
class GlobSet:
    node_glob: np.ndarray     # node -> glob index, -1 off the interface
    kinds: np.ndarray         # per glob: its kind
    sharers: np.ndarray       # (n_globs, max sharers): sorted sharers, -1 padded

    def interface_nodes(self) -> np.ndarray:
        return np.nonzero(self.node_glob >= 0)[0]

    def members(self) -> tuple:
        """(interface nodes grouped by glob, ascending in each; their globs)."""
        nodes = self.interface_nodes()
        order = np.argsort(self.node_glob[nodes], kind="stable")
        return nodes[order], self.node_glob[nodes[order]]

    def counts_by_kind(self) -> dict:
        return {k: int(np.count_nonzero(self.kinds == k)) for k in ("face", "edge", "vertex")}


def classify_interface(grid: LevelGrid, partition) -> GlobSet:
    """Group interface nodes by exact sharing set and classify the groups."""
    # distinct (node, subdomain) pairs, sorted: each node's sharers in a run
    n_subs = partition.n_subdomains
    sub_of = np.repeat(partition.assignment, np.diff(grid.elem_ptr))
    node, sub = np.divmod(sorted_unique(grid.elem_nodes * n_subs + sub_of), n_subs)
    count = np.bincount(node, minlength=grid.n_nodes)
    iface = np.nonzero(count >= 2)[0]
    node_glob = np.full(grid.n_nodes, -1, dtype=np.int64)
    # one row per node: its sharers, -1 padded (one column at least, for
    # lexsort); equal rows form one glob
    table = np.full((grid.n_nodes, count.max(initial=1)), -1, dtype=np.int64)
    table[node, np.arange(node.size) - (np.cumsum(count) - count)[node]] = sub
    table = table[iface]
    order = np.lexsort(table.T[::-1])        # stable: members stay ascending
    rows = table[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    # deterministic glob order: by smallest member node
    by_first = np.argsort(iface[order[new]])
    node_glob[iface[order]] = np.argsort(by_first)[np.cumsum(new) - 1]
    sharers = rows[new][by_first]
    size = np.bincount(node_glob[iface])
    n_share = np.count_nonzero(sharers >= 0, axis=1)
    kinds = np.where(n_share == 2, np.where(size >= grid.dim, "face", "edge"),
                     np.where(size == 1, "vertex", "edge"))
    return GlobSet(node_glob=node_glob, kinds=kinds, sharers=sharers)


def select_corners(globset: GlobSet, grid: LevelGrid,
                   strategy: str = "default") -> np.ndarray:
    """Corner node selection.

    "default": all vertex globs plus, per face glob, the two extremal members
    along its longest axis and, in 3D, the member farthest from the line
    through them (ties to the lowest node id); "vertices-only": vertex globs
    alone; "all-interface": every interface node becomes a corner.
    """
    if strategy not in CORNER_STRATEGIES:
        raise ValueError(f"unknown corner strategy {strategy!r}")
    if strategy == "all-interface":
        return globset.interface_nodes()
    members, glob = globset.members()
    kind = globset.kinds[glob]
    corners = [members[kind == "vertex"]]
    if strategy == "default" and np.any(kind == "face"):
        nodes, seg = members[kind == "face"], glob[kind == "face"]
        first = np.r_[True, seg[1:] != seg[:-1]]
        start, seg = np.nonzero(first)[0], np.cumsum(first) - 1
        pts = grid.node_coords[nodes]
        spans = np.maximum.reduceat(pts, start) - np.minimum.reduceat(pts, start)
        along = pts[np.arange(nodes.size), np.argmax(spans, axis=1)[seg]]
        lo = nodes[np.lexsort((nodes, along, seg))[start]]
        hi = nodes[np.lexsort((nodes, -along, seg))[start]]
        corners += [lo, hi]
        if grid.dim == 3:
            p0 = grid.node_coords[lo]
            u = grid.node_coords[hi] - p0
            nu = np.linalg.norm(u, axis=1)
            u = u / np.where(nu > 0, nu, 1.0)[:, None]
            rel = pts - p0[seg]
            proj = np.einsum("ij,ij->i", rel, u[seg])
            dist = np.linalg.norm(rel - proj[:, None] * u[seg], axis=1)
            at = np.lexsort((nodes, -dist, seg))[start]
            far = nodes[at]
            corners.append(far[(nu > 0) & (dist[at] > 1e-12) & (far != lo) & (far != hi)])
    return sorted_unique(np.concatenate(corners))


def interface_dofs(globset: GlobSet, dofs_per_node: int) -> np.ndarray:
    """Global interface dof ids, ordered by (node, component)."""
    return node_dofs(globset.interface_nodes(), dofs_per_node)


def build_weights(splits, scheme: str = "cardinality") -> np.ndarray:
    """Weights over the level's stacked interface (splits.iface_index order).

    Each entry is d / (sum of d over the subdomains sharing its dof), with
    d = 1 (cardinality: 1/#sharers) or the subdomain's stiffness diagonal
    (stiffness-diagonal), so the weights of one dof sum to one.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    index = splits.iface_index
    d = np.ones(index.shape[0]) if scheme == "cardinality" else splits.k_bb.diagonal()
    return d / np.bincount(index, d)[index]


# -- coarse space -------------------------------------------------------------

def _policy_kinds(policy: str, dim: int):
    # Policy names refer to the geometric dimension of the averaged objects.
    # In 2D the codimension-1 globs ("face" kind) are lines, i.e. edges, so
    # corners+edges already includes them and coincides with the full policy.
    if policy == "corners-only":
        return ()
    if policy == "corners+edges":
        return ("edge",) if dim == 3 else ("edge", "face")
    return ("edge", "face")


@dataclass
class CoarseSpace:
    """A level's coarse nodes, the corners by node id, then the included globs
    in classify order. node_coarse names each previous-level node's coarse
    node: a corner its own, a non-corner member of an included glob its
    glob's, any other node -1. Subdomain i has coarse nodes
    sub_node[sub_ptr[i]:sub_ptr[i + 1]], ascending: the next level's
    element -> node incidence (`partition.build_pseudomesh`)."""

    dofs_per_node: int
    node_coarse: np.ndarray        # (previous-level n_nodes,) coarse node, or -1
    kinds: np.ndarray              # (n_nodes,) "corner" | "edge" | "face"
    node_coords: np.ndarray        # (n_nodes, dim) the members' centroids
    sub_ptr: np.ndarray            # (n_subdomains + 1,)
    sub_node: np.ndarray           # coarse node ids

    @property
    def n_nodes(self) -> int:
        return self.kinds.shape[0]

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * self.dofs_per_node


def build_coarse_space(globset: GlobSet, corners: np.ndarray, grid: LevelGrid,
                       partition, policy: str = "corners+edges+faces") -> CoarseSpace:
    """One coarse node per corner and per glob of the policy's kinds that
    keeps a non-corner member; each subdomain takes the coarse nodes whose
    sharing set holds it, from one sort."""
    if policy not in CONSTRAINT_POLICIES:
        raise ValueError(f"unknown constraint policy {policy!r}")
    corners = np.sort(np.asarray(corners, dtype=np.int64))
    off = corners[globset.node_glob[corners] < 0]
    if off.size:
        raise ValueError(f"corner node {off[0]} is not an interface node")
    # non-corner members of included globs (off the interface: the appended False)
    glob = globset.node_glob
    member = np.append(np.isin(globset.kinds, _policy_kinds(policy, grid.dim)), False)[glob]
    member[corners] = False
    globs = np.flatnonzero(np.bincount(glob[member], minlength=globset.kinds.size))
    node_coarse = np.full(glob.size, -1, dtype=np.int64)
    node_coarse[corners] = np.arange(corners.size)
    node_coarse[member] = corners.size + np.searchsorted(globs, glob[member])
    kinds = np.concatenate([np.full(corners.size, "corner"), globset.kinds[globs]])
    n = kinds.size
    # centroids, summed member by member in node order, as mean() does
    nodes = np.flatnonzero(node_coarse >= 0)
    coords = np.zeros((n, grid.dim))
    np.add.at(coords, node_coarse[nodes], grid.node_coords[nodes])
    coords /= np.bincount(node_coarse[nodes], minlength=n)[:, None]
    # subdomain membership follows the sharing sets: each corner takes its
    # glob's, each included glob its own
    sharers = globset.sharers[np.concatenate([glob[corners], globs])]
    sub, node = np.divmod(np.sort((sharers * n + np.arange(n)[:, None])[sharers >= 0]), n)
    per_sub = np.bincount(sub, minlength=partition.n_subdomains)
    return CoarseSpace(dofs_per_node=grid.dofs_per_node, node_coarse=node_coarse,
                       kinds=kinds, node_coords=coords,
                       sub_ptr=np.concatenate([[0], np.cumsum(per_sub)]), sub_node=node)


def format_glob_table(globset: GlobSet) -> str:
    """ASCII report: one row per glob."""
    lines = ["glob  kind    size  sharers"]
    size = np.bincount(globset.members()[1], minlength=globset.kinds.size)
    for i, (kind, n, row) in enumerate(zip(globset.kinds.tolist(), size.tolist(),
                                           globset.sharers.tolist())):
        sharers = ",".join(str(s) for s in row if s >= 0)
        lines.append(f"{i:<5d} {kind:<7s} {n:<5d} {sharers}")
    counts = globset.counts_by_kind()
    lines.append(f"total: {counts['face']} faces, {counts['edge']} edges, "
                 f"{counts['vertex']} vertices")
    return "\n".join(lines)
