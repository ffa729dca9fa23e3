"""Element partitioning and pseudo-mesh construction.

Level-1 box meshes get regular block partitions; pseudo-meshes (and
non-factorable counts) go through greedy graph growing, which makes
connected subdomains, and a balance pass that keeps them connected.
Everything here is deterministic: ties break on lowest index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import LevelGrid
from .sparse import sorted_unique

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


def _ranges(lo, hi) -> np.ndarray:
    """np.arange(lo[i], hi[i]) for every i, concatenated."""
    size = hi - lo
    return np.arange(size.sum()) + np.repeat(lo - (np.cumsum(size) - size), size)


def _node_elements(grid: LevelGrid) -> tuple:
    """Node -> element incidence of the adjacency nodes: (offsets, element
    ids, ascending per node), from one stable sort of the element lists."""
    ptr, nodes = grid.adjacency_nodes()
    node_ptr = np.concatenate(([0], np.cumsum(np.bincount(nodes))))
    elems = np.repeat(np.arange(grid.n_elems), np.diff(ptr))
    return node_ptr, elems[np.argsort(nodes, kind="stable")]


def element_adjacency(grid: LevelGrid) -> list:
    """Shared node => adjacent. Returns one ascending list of neighbour ids
    (Python ints) per element, for the greedy loops to walk."""
    node_ptr, elems = _node_elements(grid)
    # pair every (node, element) entry with each entry of its node
    size = np.diff(node_ptr)
    lo, hi = np.repeat(node_ptr[:-1], size), np.repeat(node_ptr[1:], size)
    a, b = np.repeat(elems, hi - lo), elems[_ranges(lo, hi)]
    n = grid.n_elems
    a, b = np.divmod(sorted_unique(a[a != b] * n + b[a != b]), n)
    ptr, b = np.cumsum(np.bincount(a, minlength=n)).tolist(), b.tolist()
    return [b[lo:hi] for lo, hi in zip([0] + ptr[:-1], ptr)]


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
    elems = np.sort(np.asarray(elems, dtype=np.int64)).tolist()
    unseen = set(elems)
    comps = []
    for start in elems:
        if start not in unseen:
            continue
        unseen.remove(start)
        comp = [start]
        for e in comp:              # breadth first: comp is the queue
            for nb in adjacency[e]:
                if nb in unseen:
                    unseen.remove(nb)
                    comp.append(nb)
        comps.append(sorted(comp))
    return comps


def partition_greedy(grid: LevelGrid, n_subdomains: int) -> Partition:
    """Greedy graph growing (Farhat 1988; Karypis & Kumar 1998), then the
    balance pass. On a connected grid each subdomain is connected when it is
    made: it grows breadth first from one seed and takes an element only
    after a neighbour of it is in; each element is queued at most once, and
    only while unassigned; a straggler joins a subdomain it shares a node
    with. On a disconnected grid, components that no growth reached go to
    subdomain 0, and no reassignment could make that subdomain connected."""
    n = grid.n_elems
    adjacency = element_adjacency(grid)
    shared = _shared_node_counter(grid)
    assignment = [-1] * n
    unassigned = n
    seed = 0

    for s in range(n_subdomains):
        parts_left = n_subdomains - s
        target = math.ceil(unassigned / parts_left)
        # never starve the remaining subdomains
        target = min(target, unassigned - (parts_left - 1))
        target = max(target, 1)
        while assignment[seed] >= 0:       # the lowest unassigned element
            seed += 1
        queue = deque([seed])
        queued = {seed}
        size = 0
        while queue and size < target:
            e = queue.popleft()
            assignment[e] = s
            size += 1
            unassigned -= 1
            for nb in adjacency[e]:
                if assignment[nb] < 0 and nb not in queued:
                    queued.add(nb)
                    queue.append(nb)
    assignment = np.array(assignment, dtype=np.int64)

    # stragglers (exhausted frontiers): hand each to the adjacent subdomain
    # sharing the most nodes, lowest index on ties
    while np.any(assignment < 0):
        moved = False
        for e in np.nonzero(assignment < 0)[0]:
            counts = shared(int(e), assignment)
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
    _repair_balance(part, adjacency, shared)
    part.validate()
    return part


def _shared_node_counter(grid: LevelGrid):
    """counts(e, assignment, exclude) -> {s: how many grid nodes element e
    shares with the other elements of subdomain s}, for every s other than
    exclude; node -> element incidence is built once."""
    ptr, nodes = grid.adjacency_nodes()
    node_ptr, elems = _node_elements(grid)

    def counts(e, assignment, exclude=-1) -> dict:
        on = nodes[ptr[e]:ptr[e + 1]]
        others = elems[_ranges(node_ptr[on], node_ptr[on + 1])]
        subs = assignment[others]
        c = np.bincount(subs[(others != e) & (subs >= 0) & (subs != exclude)])
        return dict(zip(np.nonzero(c)[0].tolist(), c[c > 0].tolist()))
    return counts


def _repair_balance(part: Partition, adjacency, shared) -> None:
    """Move border elements off oversized subdomains while preserving donor
    connectivity. Best effort with a hard iteration cap."""
    n = part.assignment.size
    cap = math.ceil(n / part.n_subdomains) * BALANCE_FACTOR
    for _ in range(n):
        sizes = part.sizes()
        worst = int(np.argmax(sizes))
        if sizes[worst] <= cap:
            return
        moved = False
        for e in part.elements_of(worst).tolist():
            counts = shared(e, part.assignment, exclude=worst)
            candidates = [s for s in counts if sizes[s] + 1 < sizes[worst]]
            if not candidates:
                continue
            rest = [x for x in part.elements_of(worst).tolist() if x != e]
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


def build_pseudomesh(coarse_space, partition: Partition) -> LevelGrid:
    """Next-level grid: subdomains become elements, coarse nodes become
    nodes. The coarse space's subdomain -> coarse node offsets are the
    element -> node incidence, and its coordinates are the nodes'."""
    if coarse_space.sub_ptr.size != partition.n_subdomains + 1:
        raise ValueError("coarse space subdomain count disagrees with partition")
    return LevelGrid(
        n_nodes=coarse_space.n_nodes,
        node_coords=coarse_space.node_coords,
        elem_ptr=coarse_space.sub_ptr,
        elem_nodes=coarse_space.sub_node,
        dofs_per_node=coarse_space.dofs_per_node,
        structured_shape=None,
    )
