"""Interface classification, corner selection, interface weights, and the
coarse space.

Interface nodes are grouped into globs by their exact set of sharing
subdomains: a glob shared by two subdomains with at least dim members is a
face, larger sharing sets give edges, and singleton globs with three or
more sharers are vertices. Corners are selected nodes that become point
constraints; the remaining glob members carry average constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import node_dofs
from .grid import LevelGrid

CONSTRAINT_POLICIES = ("corners-only", "corners+edges", "corners+edges+faces")
WEIGHT_SCHEMES = ("cardinality", "stiffness-diagonal")
CORNER_STRATEGIES = ("default", "vertices-only", "all-interface")


@dataclass
class Glob:
    index: int
    kind: str                 # "face" | "edge" | "vertex"
    nodes: np.ndarray         # sorted member node ids
    sharers: tuple            # sorted subdomain ids


@dataclass
class GlobSet:
    globs: list
    node_glob: np.ndarray     # node -> glob index, -1 off the interface

    def interface_nodes(self) -> np.ndarray:
        return np.nonzero(self.node_glob >= 0)[0]

    def counts_by_kind(self) -> dict:
        out = {"face": 0, "edge": 0, "vertex": 0}
        for g in self.globs:
            out[g.kind] += 1
        return out


def classify_interface(grid: LevelGrid, partition) -> GlobSet:
    """Group interface nodes by exact sharing set and classify the groups."""
    # distinct (node, subdomain) pairs, sorted: each node's sharers in a run
    n_subs = partition.n_subdomains
    sub_of = np.repeat(partition.assignment, [len(n) for n in grid.elem_nodes])
    pairs = np.unique(np.concatenate(grid.elem_nodes).astype(np.int64) * n_subs + sub_of)
    node, sub = np.divmod(pairs, n_subs)
    count = np.bincount(node, minlength=grid.n_nodes)
    start = np.cumsum(count) - count
    groups: dict = {}
    for nd in np.nonzero(count >= 2)[0].tolist():
        groups.setdefault(tuple(sub[start[nd]:start[nd] + count[nd]].tolist()), []).append(nd)
    dim = grid.dim
    globs = []
    node_glob = np.full(grid.n_nodes, -1, dtype=np.int64)
    # deterministic glob order: by smallest member node
    for key in sorted(groups, key=lambda k: groups[k][0]):
        members = np.array(groups[key], dtype=np.int64)
        n_share = len(key)
        if n_share == 2:
            kind = "face" if members.size >= dim else "edge"
        else:
            kind = "vertex" if members.size == 1 else "edge"
        idx = len(globs)
        globs.append(Glob(index=idx, kind=kind, nodes=members, sharers=key))
        node_glob[members] = idx
    return GlobSet(globs=globs, node_glob=node_glob)


def _face_corner_nodes(glob: Glob, coords: np.ndarray, dim: int) -> list:
    """Two extremal members along the glob's longest axis; in 3D also the
    member farthest from the line through them."""
    pts = coords[glob.nodes]
    spans = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(spans))
    lo = int(glob.nodes[np.lexsort((glob.nodes, pts[:, axis]))[0]])
    hi = int(glob.nodes[np.lexsort((glob.nodes, -pts[:, axis]))[0]])
    picked = [lo] if hi == lo else [lo, hi]
    if dim == 3 and len(picked) == 2:
        p0 = coords[lo]
        u = coords[hi] - p0
        nu = np.linalg.norm(u)
        if nu > 0:
            u = u / nu
            rel = pts - p0
            dist = np.linalg.norm(rel - np.outer(rel @ u, u), axis=1)
            far = int(glob.nodes[np.lexsort((glob.nodes, -dist))[0]])
            if dist[np.nonzero(glob.nodes == far)[0][0]] > 1e-12 and far not in picked:
                picked.append(far)
    return picked


def select_corners(globset: GlobSet, grid: LevelGrid,
                   strategy: str = "default") -> np.ndarray:
    """Corner node selection.

    "default": all vertex globs plus extremal nodes of every face glob;
    "vertices-only": vertex globs alone; "all-interface": every interface
    node becomes a corner.
    """
    if strategy not in CORNER_STRATEGIES:
        raise ValueError(f"unknown corner strategy {strategy!r}")
    if strategy == "all-interface":
        return globset.interface_nodes()
    corners = []
    for g in globset.globs:
        if g.kind == "vertex":
            corners.extend(int(n) for n in g.nodes)
        elif g.kind == "face" and strategy == "default":
            corners.extend(_face_corner_nodes(g, grid.node_coords, grid.dim))
    return np.unique(np.array(sorted(corners), dtype=np.int64))


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
    """Global coarse-node ordering (corners first, then globs) plus the
    per-subdomain restriction maps the levels are glued with."""

    dofs_per_node: int
    corner_nodes: np.ndarray       # sorted previous-level node ids
    glob_ids: np.ndarray           # included glob indices, classify order
    glob_members: list             # remaining (non-corner) members per glob
    node_coords: np.ndarray        # (n_coarse_nodes, dim)
    sub_nodes: list                # per subdomain: local coarse node ids

    @property
    def n_corners(self) -> int:
        return self.corner_nodes.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.n_corners + len(self.glob_ids)

    @property
    def n_dofs(self) -> int:
        return self.n_nodes * self.dofs_per_node


def build_coarse_space(globset: GlobSet, corners: np.ndarray, grid: LevelGrid,
                       partition, policy: str = "corners+edges+faces") -> CoarseSpace:
    if policy not in CONSTRAINT_POLICIES:
        raise ValueError(f"unknown constraint policy {policy!r}")
    kinds = _policy_kinds(policy, grid.dim)
    corners = np.asarray(sorted(int(c) for c in corners), dtype=np.int64)
    corner_set = set(corners.tolist())
    for c in corners:
        if globset.node_glob[c] < 0:
            raise ValueError(f"corner node {c} is not an interface node")
    glob_ids = []
    glob_members = []
    for g in globset.globs:
        if g.kind not in kinds:
            continue
        rest = np.array([n for n in g.nodes if int(n) not in corner_set],
                        dtype=np.int64)
        if rest.size == 0:
            continue
        glob_ids.append(g.index)
        glob_members.append(rest)
    glob_ids = np.array(glob_ids, dtype=np.int64)

    coords = np.zeros((len(corners) + len(glob_ids), grid.dim))
    coords[: len(corners)] = grid.node_coords[corners]
    for j, members in enumerate(glob_members):
        coords[len(corners) + j] = grid.node_coords[members].mean(axis=0)

    # subdomain membership follows the sharing sets
    n_subs = partition.n_subdomains
    sub_sets = [[] for _ in range(n_subs)]
    for j, c in enumerate(corners):
        g = globset.globs[globset.node_glob[c]]
        for s in g.sharers:
            sub_sets[s].append(j)
    for j, gid in enumerate(glob_ids):
        g = globset.globs[gid]
        for s in g.sharers:
            sub_sets[s].append(len(corners) + j)
    sub_nodes = [np.array(sorted(v), dtype=np.int64) for v in sub_sets]
    return CoarseSpace(dofs_per_node=grid.dofs_per_node, corner_nodes=corners,
                       glob_ids=glob_ids, glob_members=glob_members,
                       node_coords=coords, sub_nodes=sub_nodes)


def format_glob_table(globset: GlobSet) -> str:
    """ASCII report: one row per glob."""
    lines = ["glob  kind    size  sharers"]
    for g in globset.globs:
        sharers = ",".join(str(s) for s in g.sharers)
        lines.append(f"{g.index:<5d} {g.kind:<7s} {g.nodes.size:<5d} {sharers}")
    counts = globset.counts_by_kind()
    lines.append(f"total: {counts['face']} faces, {counts['edge']} edges, "
                 f"{counts['vertex']} vertices")
    return "\n".join(lines)
