"""Element partitioning and pseudo-mesh construction.

Level-1 box meshes get regular block partitions; pseudo-meshes (and
non-factorable counts) go through greedy graph growing with a balance cap
and a connectivity repair pass. Everything here is deterministic: ties
break on lowest index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import LevelGrid

BALANCE_FACTOR = 1.25


@dataclass
class Partition:
    n_subdomains: int
    assignment: np.ndarray
    method: str

    def elements_of(self, s: int) -> np.ndarray:
        return np.nonzero(self.assignment == s)[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_subdomains)

    def validate(self) -> None:
        if self.assignment.min() < 0 or self.assignment.max() >= self.n_subdomains:
            raise ValueError("assignment out of range")
        if np.any(self.sizes() == 0):
            raise ValueError("empty subdomain")


def element_adjacency(grid: LevelGrid) -> list:
    """Shared node => adjacent. Returns sorted neighbor arrays."""
    node_elems: dict = {}
    conn = grid.adjacency_nodes()
    for e, nodes in enumerate(conn):
        for nd in nodes:
            node_elems.setdefault(int(nd), []).append(e)
    neigh = [set() for _ in range(grid.n_elems)]
    for elems in node_elems.values():
        for a in elems:
            for b in elems:
                if a != b:
                    neigh[a].add(b)
    return [np.array(sorted(s), dtype=np.int64) for s in neigh]


def _block_axis_counts(shape, n_subdomains):
    """Deterministic choice of per-axis block counts whose product is
    n_subdomains and which divide the element counts exactly. Prefers the
    most cube-like blocks (smallest longest side)."""
    dim = len(shape)
    best = None
    def rec(prefix, remaining, d):
        nonlocal best
        if d == dim - 1:
            if shape[d] % remaining == 0 and remaining <= shape[d]:
                cand = prefix + (remaining,)
                extents = tuple(na // ca for na, ca in zip(shape, cand))
                key = (max(extents), cand)
                if best is None or key < best:
                    best = key
            return
        for c in range(1, remaining + 1):
            if remaining % c == 0 and shape[d] % c == 0 and c <= shape[d]:
                rec(prefix + (c,), remaining // c, d + 1)
    rec((), n_subdomains, 0)
    return None if best is None else best[1]


def partition_regular_blocks(grid: LevelGrid, n_subdomains: int) -> Partition:
    shape = grid.structured_shape
    if shape is None:
        raise ConfigError("regular-blocks needs a structured box mesh")
    axis_counts = _block_axis_counts(shape, n_subdomains)
    if axis_counts is None:
        raise ConfigError(
            f"{n_subdomains} subdomains do not factor into per-axis counts "
            f"dividing the {shape} element grid")
    dim = len(shape)
    idx = np.arange(grid.n_elems)
    assignment = np.zeros(grid.n_elems, dtype=np.int64)
    rem = idx.copy()
    stride = 1
    for d in range(dim):
        axis_i = rem % shape[d]
        rem = rem // shape[d]
        block = axis_i // (shape[d] // axis_counts[d])
        assignment += stride * block
        stride *= axis_counts[d]
    return Partition(n_subdomains=n_subdomains, assignment=assignment,
                     method="regular-blocks")


def _components(elems, adjacency):
    """Connected components of an element set, each sorted, ordered by
    smallest element."""
    elems = sorted(int(e) for e in elems)
    inset = set(elems)
    seen = set()
    comps = []
    for start in elems:
        if start in seen:
            continue
        comp = []
        queue = deque([start])
        seen.add(start)
        while queue:
            e = queue.popleft()
            comp.append(e)
            for nb in adjacency[e]:
                nb = int(nb)
                if nb in inset and nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        comps.append(sorted(comp))
    return comps


def partition_greedy(grid: LevelGrid, n_subdomains: int) -> Partition:
    n = grid.n_elems
    adjacency = element_adjacency(grid)
    assignment = np.full(n, -1, dtype=np.int64)
    unassigned = n

    for s in range(n_subdomains):
        parts_left = n_subdomains - s
        target = math.ceil(unassigned / parts_left)
        # never starve the remaining subdomains
        target = min(target, unassigned - (parts_left - 1))
        target = max(target, 1)
        seed = int(np.nonzero(assignment < 0)[0][0])
        queue = deque([seed])
        queued = {seed}
        size = 0
        while queue and size < target:
            e = queue.popleft()
            if assignment[e] >= 0:
                continue
            assignment[e] = s
            size += 1
            unassigned -= 1
            for nb in adjacency[e]:
                nb = int(nb)
                if assignment[nb] < 0 and nb not in queued:
                    queued.add(nb)
                    queue.append(nb)

    # stragglers (exhausted frontiers): hand each to the adjacent subdomain
    # sharing the most nodes, lowest index on ties
    while np.any(assignment < 0):
        moved = False
        for e in np.nonzero(assignment < 0)[0]:
            counts = _shared_node_counts(int(e), grid, assignment)
            if counts:
                best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
                assignment[int(e)] = best
                moved = True
        if not moved:
            # isolated elements with no assigned neighbors: give them to
            # subdomain 0 outright
            assignment[assignment < 0] = 0
            break

    part = Partition(n_subdomains=n_subdomains, assignment=assignment,
                     method="greedy-graph-growing")
    _repair_connectivity(part, grid, adjacency)
    _repair_balance(part, grid, adjacency)
    part.validate()
    return part


def _shared_node_counts(e, grid, assignment, exclude=None):
    """How many grid nodes element e shares with each other subdomain."""
    conn = grid.adjacency_nodes()
    counts: dict = {}
    target_nodes = set(int(x) for x in conn[e])
    for other, nodes in enumerate(conn):
        s = int(assignment[other])
        if other == e or s < 0 or s == exclude:
            continue
        overlap = target_nodes.intersection(int(x) for x in nodes)
        if overlap:
            counts[s] = counts.get(s, 0) + len(overlap)
    return counts


def _repair_connectivity(part: Partition, grid: LevelGrid, adjacency) -> None:
    """Reassign non-principal fragments to the neighbor subdomain with the
    most shared nodes until every subdomain is connected."""
    for _ in range(grid.n_elems):
        changed = False
        for s in range(part.n_subdomains):
            elems = part.elements_of(s)
            if elems.size == 0:
                continue
            comps = _components(elems, adjacency)
            if len(comps) == 1:
                continue
            comps.sort(key=lambda c: (-len(c), c[0]))
            for frag in comps[1:]:
                counts: dict = {}
                for e in frag:
                    for other, cnt in _shared_node_counts(e, grid, part.assignment,
                                                          exclude=s).items():
                        counts[other] = counts.get(other, 0) + cnt
                if not counts:
                    continue
                best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
                part.assignment[np.asarray(frag, dtype=np.int64)] = best
                changed = True
        if not changed:
            return


def _repair_balance(part: Partition, grid: LevelGrid, adjacency) -> None:
    """Move border elements off oversized subdomains while preserving donor
    connectivity. Best effort with a hard iteration cap."""
    n = grid.n_elems
    cap = math.ceil(n / part.n_subdomains) * BALANCE_FACTOR
    for _ in range(n):
        sizes = part.sizes()
        worst = int(np.argmax(sizes))
        if sizes[worst] <= cap:
            return
        moved = False
        for e in part.elements_of(worst):
            e = int(e)
            counts = _shared_node_counts(e, grid, part.assignment, exclude=worst)
            candidates = [s for s in counts if sizes[s] + 1 < sizes[worst]]
            if not candidates:
                continue
            rest = [x for x in part.elements_of(worst) if x != e]
            if rest and len(_components(rest, adjacency)) > 1:
                continue
            dest = min(candidates, key=lambda s: (sizes[s], s))
            part.assignment[e] = dest
            moved = True
            break
        if not moved:
            return


def partition_elements(grid: LevelGrid, n_subdomains: int,
                       method: str = "regular-blocks") -> Partition:
    """Split the grid's elements into connected, balanced subdomains."""
    if n_subdomains < 1 or n_subdomains > grid.n_elems:
        raise ConfigError(
            f"n_subdomains must lie in [1, {grid.n_elems}], got {n_subdomains}")
    if method == "regular-blocks":
        part = partition_regular_blocks(grid, n_subdomains)
    elif method == "greedy-graph-growing":
        part = partition_greedy(grid, n_subdomains)
    elif method == "auto":
        if grid.structured_shape is not None and \
                _block_axis_counts(grid.structured_shape, n_subdomains) is not None:
            part = partition_regular_blocks(grid, n_subdomains)
        else:
            part = partition_greedy(grid, n_subdomains)
    else:
        raise ConfigError(f"unknown partition method {method!r}")
    part.validate()
    return part


def build_pseudomesh(coarse_space, partition: Partition, dim: int) -> LevelGrid:
    """Next-level grid: subdomains become elements, coarse nodes become
    nodes. Ordering and coordinates come from the coarse space."""
    elem_nodes = [np.asarray(nodes, dtype=np.int64) for nodes in coarse_space.sub_nodes]
    if len(elem_nodes) != partition.n_subdomains:
        raise ValueError("coarse space subdomain count disagrees with partition")
    return LevelGrid(
        n_nodes=coarse_space.n_nodes,
        node_coords=coarse_space.node_coords.reshape(-1, dim),
        elem_nodes=elem_nodes,
        dofs_per_node=coarse_space.dofs_per_node,
        structured_shape=None,
    )
