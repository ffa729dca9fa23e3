"""Partitioning: regular blocks, greedy graph growing, pseudo-meshes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_level1, elements_of, grid_from_lists, level2_pseudomesh
from mlbddc import partition
from mlbddc.errors import ConfigError
from mlbddc.fem import ProblemSpec, build_dof_map, generate_box_mesh
from mlbddc.grid import level_grid_from_mesh
from mlbddc.partition import (
    BALANCE_FACTOR,
    _block_axis_counts,
    _shared_counts,
    element_graph,
    partition_elements,
    partition_greedy,
    partition_regular_blocks,
)


def raw_grid(dim, n):
    """Level grid straight from a box mesh, no Dirichlet filtering."""
    mesh = generate_box_mesh(dim, n)
    return grid_from_lists(mesh.coords, np.sort(mesh.elem_nodes, axis=1),
                           structured_shape=mesh.n_elems_per_axis)


def assert_connected(part, grid):
    graph = element_graph(grid)
    adjacency = np.split(graph.indices, graph.indptr[1:-1])
    for s in range(part.n_subdomains):
        elems = part.elements_of(s)
        assert elems.size > 0
        seen = {int(elems[0])}
        stack = [int(elems[0])]
        inset = set(int(e) for e in elems)
        while stack:
            e = stack.pop()
            for nb in adjacency[e]:
                nb = int(nb)
                if nb in inset and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        assert seen == inset, f"subdomain {s} is disconnected"


# -- regular blocks -----------------------------------------------------------

def test_blocks_2x2_on_4x4():
    part = partition_regular_blocks(raw_grid(2, 4), 4)
    # element (i, j) -> block (i // 2) + 2 * (j // 2)
    expected = [(e % 4) // 2 + 2 * ((e // 4) // 2) for e in range(16)]
    assert part.assignment.tolist() == expected
    assert part.sizes().tolist() == [4, 4, 4, 4]
    assert part.method == "regular-blocks"


def test_blocks_prefer_cubelike():
    assert _block_axis_counts((8, 8), 4) == (2, 2)
    assert _block_axis_counts((16, 16), 16) == (4, 4)
    assert _block_axis_counts((16, 4), 8) == (4, 2)
    assert _block_axis_counts((12, 12, 12), 64) == (4, 4, 4)
    assert _block_axis_counts((3, 3), 2) is None


def test_blocks_3d():
    part = partition_regular_blocks(raw_grid(3, 4), 8)
    assert part.sizes().tolist() == [8] * 8
    assert_connected(part, raw_grid(3, 4))
    # element (0,0,0) and (3,3,3) land in the first and last block
    assert part.assignment[0] == 0
    assert part.assignment[-1] == 7


@pytest.mark.parametrize("count", [1, 2, 3, 5, 6, 10, 15, 30])
def test_blocks_match_loop_on_anisotropic_box(count):
    # element (i, j, k) of the (2, 3, 5) box lies in block (i // bx, j // by,
    # k // bz) for block sides b = shape // counts, blocks numbered x fastest
    shape = (2, 3, 5)
    counts = _block_axis_counts(shape, count)
    side = [n // c for n, c in zip(shape, counts)]
    expected = [i // side[0] + counts[0] * (j // side[1] + counts[1] * (k // side[2]))
                for k in range(5) for j in range(3) for i in range(2)]
    assert partition_regular_blocks(raw_grid(3, shape), count).assignment.tolist() == expected


def test_blocks_rejects_non_dividing():
    with pytest.raises(ConfigError):
        partition_regular_blocks(raw_grid(2, 3), 2)


def test_blocks_needs_structured_grid():
    grid = raw_grid(2, 4)
    grid.structured_shape = None
    with pytest.raises(ConfigError):
        partition_regular_blocks(grid, 4)


# -- greedy graph growing -----------------------------------------------------

def test_greedy_2x2_layout():
    grid = raw_grid(2, 2)
    part = partition_greedy(grid, 2)
    assert part.assignment.tolist() == [0, 0, 1, 1]
    assert_connected(part, grid)


def test_greedy_balanced_and_connected():
    grid = raw_grid(2, 6)
    part = partition_greedy(grid, 5)
    sizes = part.sizes()
    assert sizes.sum() == 36
    assert sizes.min() >= 1
    assert sizes.max() <= math.ceil(36 / 5) * BALANCE_FACTOR
    assert_connected(part, grid)


def test_greedy_3d():
    grid = raw_grid(3, 2)
    part = partition_greedy(grid, 3)
    assert part.sizes().sum() == 8
    assert part.sizes().min() >= 1
    assert_connected(part, grid)


def test_greedy_deterministic():
    grid = raw_grid(2, 6)
    a = partition_greedy(grid, 5).assignment
    b = partition_greedy(grid, 5).assignment
    assert np.array_equal(a, b)


def test_balance_pass_moves_elements_and_keeps_them_connected(monkeypatch):
    # 25 elements in 13 parts: growth alone leaves a subdomain of 3 above the
    # cap ceil(25 / 13) * 1.25 = 2.5, and the balance pass moves it down
    grid = raw_grid(2, 5)
    part = partition_greedy(grid, 13)
    assert_connected(part, grid)
    assert part.sizes().max() <= math.ceil(25 / 13) * BALANCE_FACTOR
    monkeypatch.setattr(partition, "_repair_balance", lambda *args: None)
    assert partition_greedy(grid, 13).sizes().max() == 3


@pytest.mark.parametrize("dim,largest", [(2, 12), (3, 5)])
def test_greedy_growth_alone_is_connected(monkeypatch, dim, largest):
    # each subdomain grows from one seed through neighbours only, and a
    # straggler joins a subdomain it shares a node with, so every part is
    # connected before the balance pass (which keeps donors connected) runs
    monkeypatch.setattr(partition, "_repair_balance", lambda *args: None)
    for n in range(1, largest + 1):
        grid = raw_grid(dim, n)
        for count in range(1, min(40, grid.n_elems) + 1):
            part = partition_greedy(grid, count)
            assert_connected(part, grid)


def test_greedy_all_singletons():
    grid = raw_grid(2, 2)
    part = partition_greedy(grid, 4)
    assert sorted(part.assignment.tolist()) == [0, 1, 2, 3]


# -- dispatch -----------------------------------------------------------------

def test_partition_elements_range_checks():
    grid = raw_grid(2, 2)
    with pytest.raises(ConfigError):
        partition_elements(grid, 0)
    with pytest.raises(ConfigError):
        partition_elements(grid, 5)
    with pytest.raises(ConfigError):
        partition_elements(grid, 2, method="no-such-method")


def test_auto_prefers_blocks_then_falls_back():
    part = partition_elements(raw_grid(2, 4), 4, method="auto")
    assert part.method == "regular-blocks"
    part = partition_elements(raw_grid(2, 3), 2, method="auto")
    assert part.method == "greedy-graph-growing"
    assert_connected(part, raw_grid(2, 3))


def test_single_subdomain():
    part = partition_elements(raw_grid(2, 4), 1)
    assert np.all(part.assignment == 0)


def test_level1_adjacency_runs_through_dirichlet_nodes():
    # all faces Dirichlet: the level-1 grid drops the boundary nodes, but
    # greedy growth still sees elements as adjacent through them
    spec = ProblemSpec(kind="poisson", dim=2)
    mesh = generate_box_mesh(2, 8)
    grid = level_grid_from_mesh(mesh, spec, build_dof_map(spec, mesh))
    part = partition_elements(grid, 6, method="greedy-graph-growing")
    assert np.array_equal(part.assignment, partition_greedy(raw_grid(2, 8), 6).assignment)
    free_only = partition_greedy(replace(grid, conn_nodes=None), 6)
    assert not np.array_equal(part.assignment, free_only.assignment)


def adjacency_grids():
    spec = ProblemSpec(kind="poisson", dim=2)
    mesh = generate_box_mesh(2, 6)
    level1 = level_grid_from_mesh(mesh, spec, build_dof_map(spec, mesh))
    return [raw_grid(2, 5), level1, level2_pseudomesh()]


@pytest.mark.parametrize("which", [0, 1, 2])
def test_adjacency_and_shared_counts_match_loop_reference(which):
    # plain loops over the element lists: row e of the graph lists, ascending,
    # the elements o != e that share a node with e, each with the count
    # |nodes(e) & nodes(o)|, and e shares the sum of those counts with o's
    # subdomain
    grid = adjacency_grids()[which]
    conn = (elements_of(grid) if grid.conn_nodes is None
            else [sorted(nodes) for nodes in grid.conn_nodes.tolist()])
    graph = element_graph(grid)
    assert graph.shape == (grid.n_elems, grid.n_elems)
    for e, nodes in enumerate(conn):
        row = slice(graph.indptr[e], graph.indptr[e + 1])
        expected = {o: len(set(nodes) & set(other)) for o, other in enumerate(conn)
                    if o != e and set(nodes) & set(other)}
        assert graph.indices[row].tolist() == sorted(expected)
        assert graph.data[row].tolist() == [expected[o] for o in sorted(expected)]
    assignment = np.arange(grid.n_elems) % 3 - 1          # -1: unassigned
    for e, nodes in enumerate(conn):
        for exclude in (-1, 0):
            expected: dict = {}
            for o, other in enumerate(conn):
                s = int(assignment[o])
                if o != e and s >= 0 and s != exclude and set(nodes) & set(other):
                    expected[s] = expected.get(s, 0) + len(set(nodes) & set(other))
            assert _shared_counts(graph, e, assignment, exclude) == expected


def test_greedy_on_pseudomesh_is_connected_and_balanced():
    grid = level2_pseudomesh()
    part = partition_greedy(grid, 4)
    assert_connected(part, grid)
    assert part.sizes().max() <= math.ceil(grid.n_elems / 4) * BALANCE_FACTOR


@pytest.mark.parametrize("make,match", [
    (lambda cs: partition.Partition(2, np.array([0, 1, 2, 1]), "test").validate(),
     "assignment out of range"),
    (lambda cs: partition.Partition(2, np.array([0, -1, 1, 1]), "test").validate(),
     "assignment out of range"),
    (lambda cs: partition.build_pseudomesh(cs, partition.Partition(
        3, np.array([0, 1, 2, 2]), "test")), "subdomain count disagrees"),
], ids=["above", "below", "pseudomesh-count"])
def test_partition_inputs_are_checked(make, match):
    coarse = build_level1(ProblemSpec(kind="poisson", dim=2), 4, 4).coarse_space()
    with pytest.raises(ValueError, match=match):
        make(coarse)
