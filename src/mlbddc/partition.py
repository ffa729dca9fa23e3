"""Element partitioning and pseudo-mesh construction.

Level-1 box meshes get regular block partitions; pseudo-meshes (and
non-factorable counts) go through greedy graph growing, which makes
connected subdomains, and a balance pass that keeps them connected. Both
read one graph of the elements that share a node (`element_graph`).
Everything here is deterministic: ties break on lowest index.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import ConfigError
from .grid import LevelGrid

BALANCE_FACTOR = 1.25
PARTITION_METHODS = ("regular-blocks", "greedy-graph-growing", "auto")


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


def element_graph(grid: LevelGrid) -> scipy.sparse.csr_array:
    """Elements that share a node, as an (n_elems, n_elems) CSR matrix:
    entry (e, o), o != e, counts the nodes e and o share, and each row's
    columns ascend. It is the element-node incidence times its transpose,
    off the diagonal."""
    ptr, nodes = grid.adjacency_nodes()
    # level 1's adjacency nodes are mesh node ids, beyond grid.n_nodes
    incidence = scipy.sparse.csr_array((np.ones(nodes.size, dtype=np.int64), nodes, ptr),
                                       shape=(grid.n_elems, nodes.max(initial=-1) + 1))
    graph = (incidence @ incidence.T).tocoo()
    off = graph.row != graph.col
    # through COO: the product's columns are unsorted, the conversion sorts them
    return scipy.sparse.csr_array((graph.data[off], (graph.row[off], graph.col[off])),
                                  shape=graph.shape)


def _block_axis_counts(shape, n_subdomains):
    """Deterministic choice of per-axis block counts whose product is
    n_subdomains and which divide the element counts exactly. Prefers the
    most cube-like blocks (smallest longest side)."""
    divisors = ([c for c in range(1, n + 1) if n % c == 0 and n_subdomains % c == 0]
                for n in shape)
    counts = [c for c in itertools.product(*divisors) if math.prod(c) == n_subdomains]
    return min(counts, key=lambda c: (max(n // k for n, k in zip(shape, c)), c), default=None)


def partition_regular_blocks(grid: LevelGrid, n_subdomains: int) -> Partition:
    shape = grid.structured_shape
    if shape is None:
        raise ConfigError("regular-blocks needs a structured box mesh")
    axis_counts = _block_axis_counts(shape, n_subdomains)
    if axis_counts is None:
        raise ConfigError(
            f"{n_subdomains} subdomains do not factor into per-axis counts "
            f"dividing the {shape} element grid")
    # element and block indices are lexicographic, x fastest
    axis_index = np.unravel_index(np.arange(grid.n_elems), shape, order="F")
    block = [i // (n // c) for i, n, c in zip(axis_index, shape, axis_counts)]
    assignment = np.ravel_multi_index(block, axis_counts, order="F")
    return Partition(n_subdomains=n_subdomains, assignment=assignment,
                     method="regular-blocks")


def partition_greedy(grid: LevelGrid, n_subdomains: int) -> Partition:
    """Greedy graph growing (Farhat 1988; Karypis & Kumar 1998), then the
    balance pass. On a connected grid each subdomain is connected when it is
    made: it grows breadth first from one seed and takes an element only
    after a neighbour of it is in; each element is queued at most once, and
    only while unassigned; a straggler joins a subdomain it shares a node
    with. On a disconnected grid, components that no growth reached go to
    subdomain 0, and no reassignment could make that subdomain connected."""
    n = grid.n_elems
    graph = element_graph(grid)
    ptr, neighbours = graph.indptr.tolist(), graph.indices.tolist()
    adjacency = [neighbours[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]
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
        for e in np.flatnonzero(assignment < 0).tolist():
            counts = _shared_counts(graph, e, assignment)
            if counts:
                assignment[e] = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
                moved = True
        if not moved:
            # isolated elements with no assigned neighbors: give them to
            # subdomain 0 outright
            assignment[assignment < 0] = 0
            break

    part = Partition(n_subdomains=n_subdomains, assignment=assignment,
                     method="greedy-graph-growing")
    _repair_balance(part, graph)
    part.validate()
    return part


def _shared_counts(graph, e, assignment, exclude=-1) -> dict:
    """{s: how many nodes element e shares with the other elements of
    subdomain s}, for every assigned s other than exclude, from the rows of
    `element_graph`."""
    row = slice(graph.indptr[e], graph.indptr[e + 1])
    subs = np.repeat(assignment[graph.indices[row]], graph.data[row])
    c = np.bincount(subs[(subs >= 0) & (subs != exclude)])
    return dict(zip(np.nonzero(c)[0].tolist(), c[c > 0].tolist()))


def _repair_balance(part: Partition, graph) -> None:
    """Move border elements off oversized subdomains while preserving donor
    connectivity. Best effort with a hard iteration cap."""
    n = part.assignment.size
    cap = math.ceil(n / part.n_subdomains) * BALANCE_FACTOR
    for _ in range(n):
        sizes = part.sizes()
        worst = int(np.argmax(sizes))
        if sizes[worst] <= cap:
            return
        # loaded here: about 2 MB of resident memory, and most runs move nothing
        from scipy.sparse.csgraph import connected_components
        moved = False
        for e in part.elements_of(worst).tolist():
            counts = _shared_counts(graph, e, part.assignment, exclude=worst)
            candidates = [s for s in counts if sizes[s] + 1 < sizes[worst]]
            if not candidates:
                continue
            rest = part.elements_of(worst)
            rest = rest[rest != e]
            if rest.size and connected_components(graph[rest][:, rest], directed=False)[0] > 1:
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
    if method not in PARTITION_METHODS:
        raise ConfigError(f"unknown partition method {method!r}")
    if n_subdomains < 1 or n_subdomains > grid.n_elems:
        raise ConfigError(
            f"n_subdomains must lie in [1, {grid.n_elems}], got {n_subdomains}")
    if method == "auto":
        shape = grid.structured_shape
        blocks = shape is not None and _block_axis_counts(shape, n_subdomains) is not None
        method = "regular-blocks" if blocks else "greedy-graph-growing"
    if method == "regular-blocks":
        part = partition_regular_blocks(grid, n_subdomains)
    else:
        part = partition_greedy(grid, n_subdomains)
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
