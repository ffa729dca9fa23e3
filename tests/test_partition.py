"""Partitioning: regular blocks, greedy graph growing, pseudo-meshes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mlbddc.errors import ConfigError
from mlbddc.fem import ProblemSpec, build_dof_map, generate_box_mesh
from mlbddc.grid import LevelGrid, level_grid_from_mesh
from mlbddc.partition import (
    BALANCE_FACTOR,
    _block_axis_counts,
    element_adjacency,
    partition_elements,
    partition_greedy,
    partition_regular_blocks,
)


def raw_grid(dim, n):
    """Level grid straight from a box mesh, no Dirichlet filtering."""
    mesh = generate_box_mesh(dim, n)
    return LevelGrid(
        n_nodes=mesh.n_nodes,
        node_coords=mesh.coords,
        elem_nodes=[np.sort(mesh.elem_nodes[e]) for e in range(mesh.n_elems)],
        dofs_per_node=1,
        structured_shape=mesh.n_elems_per_axis,
    )


def assert_connected(part, grid):
    adjacency = element_adjacency(grid)
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
