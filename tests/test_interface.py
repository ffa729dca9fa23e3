"""Interface classification, corners, weights, and the coarse space.

The 2x2-subdomain Poisson fixture on an 8x8 grid is worked out by hand:
free nodes form a 7x7 grid (free id = (x-1) + 7*(y-1) for full node (x, y)),
the interface is the cross x=4 / y=4 with 13 free nodes, and the four arms
plus the center give 4 face globs and 1 vertex glob.
"""

import numpy as np
import pytest

from conftest import build_level1
from mlbddc.fem import ProblemSpec, build_dof_map, generate_box_mesh
from mlbddc.grid import LevelGrid, level_grid_from_mesh
from mlbddc.interface import (
    build_coarse_space,
    build_weights,
    classify_interface,
    format_glob_table,
    interface_dofs,
    select_corners,
)
from mlbddc.partition import Partition, build_pseudomesh, partition_elements

ARM_A = [3, 10, 17]      # x=4, y in {1,2,3}
ARM_B = [21, 22, 23]     # y=4, x in {1,2,3}
ARM_C = [31, 38, 45]     # x=4, y in {5,6,7}
ARM_D = [25, 26, 27]     # y=4, x in {5,6,7}
CENTER = 24
CROSS = sorted(ARM_A + ARM_B + ARM_C + ARM_D + [CENTER])


@pytest.fixture(scope="module")
def cross2d():
    return build_level1(ProblemSpec(kind="poisson", dim=2), 8, 4, method="regular-blocks")


@pytest.fixture(scope="module")
def box3d():
    return build_level1(ProblemSpec(kind="poisson", dim=3), 6, 8, method="regular-blocks")


# -- classification -----------------------------------------------------------

def test_single_interface_line():
    lv = build_level1(ProblemSpec(kind="poisson", dim=2), 8, 2, method="regular-blocks")
    gs = lv.globset
    assert len(gs.globs) == 1
    g = gs.globs[0]
    assert g.kind == "face"
    assert g.nodes.size == 7
    assert g.sharers == (0, 1)


def test_cross_globs(cross2d):
    gs = cross2d.globset
    assert gs.counts_by_kind() == {"face": 4, "edge": 0, "vertex": 1}
    assert gs.interface_nodes().tolist() == CROSS
    kinds = [g.kind for g in gs.globs]
    members = [g.nodes.tolist() for g in gs.globs]
    sharers = [g.sharers for g in gs.globs]
    # ordered by smallest member node
    assert kinds == ["face", "face", "vertex", "face", "face"]
    assert members == [ARM_A, ARM_B, [CENTER], ARM_D, ARM_C]
    assert sharers == [(0, 1), (0, 2), (0, 1, 2, 3), (1, 3), (2, 3)]


def test_3d_globs(box3d):
    # 3-element-wide blocks: each split plane carries four 2x2 pair-faces,
    # the split lines carry two 2-node edges each
    gs = box3d.globset
    assert gs.counts_by_kind() == {"face": 12, "edge": 6, "vertex": 1}
    sizes = {g.kind: set() for g in gs.globs}
    for g in gs.globs:
        sizes[g.kind].add(g.nodes.size)
    assert sizes["face"] == {4}
    assert sizes["edge"] == {2}
    assert sizes["vertex"] == {1}
    assert gs.interface_nodes().size == 12 * 4 + 6 * 2 + 1
    for g in gs.globs:
        assert len(g.sharers) == {"face": 2, "edge": 4, "vertex": 8}[g.kind]


def test_two_sharers_single_node_is_edge():
    # two triangles touching in one point: too few members for a face
    coords = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]], dtype=float)
    grid = LevelGrid(n_nodes=5, node_coords=coords,
                     elem_nodes=[np.array([0, 1, 2]), np.array([2, 3, 4])],
                     dofs_per_node=1)
    part = Partition(n_subdomains=2, assignment=np.array([0, 1]), method="greedy-graph-growing")
    gs = classify_interface(grid, part)
    assert len(gs.globs) == 1
    assert gs.globs[0].kind == "edge"
    assert gs.globs[0].nodes.tolist() == [2]


def test_many_sharers_multi_node_is_edge():
    coords = np.zeros((5, 2))
    coords[:, 0] = np.arange(5)
    grid = LevelGrid(n_nodes=5, node_coords=coords,
                     elem_nodes=[np.array([0, 1, 2]), np.array([1, 2, 3]),
                                 np.array([1, 2, 4])],
                     dofs_per_node=1)
    part = Partition(n_subdomains=3, assignment=np.array([0, 1, 2]), method="greedy-graph-growing")
    gs = classify_interface(grid, part)
    shared_all = [g for g in gs.globs if g.sharers == (0, 1, 2)]
    assert len(shared_all) == 1
    assert shared_all[0].kind == "edge"
    assert shared_all[0].nodes.tolist() == [1, 2]


@pytest.mark.parametrize("dim,n,n_subs", [(2, 9, 7), (3, 5, 6)])
def test_classification_matches_loop_reference(dim, n, n_subs):
    # plain-loop references for the level-1 element node lists and the
    # sharer-set grouping, on greedy partitions with ragged interfaces
    spec = ProblemSpec(kind="poisson", dim=dim)
    mesh = generate_box_mesh(dim, n)
    dofmap = build_dof_map(spec, mesh)
    grid = level_grid_from_mesh(mesh, spec, dofmap)
    free_id = {int(nd): i for i, nd in enumerate(dofmap.free_nodes)}
    elems = [sorted(free_id[int(nd)] for nd in nodes if int(nd) in free_id)
             for nodes in mesh.elem_nodes]
    assert [e.tolist() for e in grid.elem_nodes] == elems
    part = partition_elements(grid, n_subs, method="greedy-graph-growing")
    sharers = [set() for _ in range(grid.n_nodes)]
    for e, nodes in enumerate(elems):
        for nd in nodes:
            sharers[nd].add(int(part.assignment[e]))
    groups: dict = {}
    for nd, subs in enumerate(sharers):
        if len(subs) >= 2:
            groups.setdefault(tuple(sorted(subs)), []).append(nd)
    globs = classify_interface(grid, part).globs
    assert [(g.sharers, g.nodes.tolist()) for g in globs] == sorted(
        groups.items(), key=lambda kv: kv[1][0])


def test_glob_table(cross2d):
    table = format_glob_table(cross2d.globset)
    assert "4 faces, 0 edges, 1 vertices" in table
    assert table.count("face") >= 4


# -- corner selection ---------------------------------------------------------

def test_default_corners_2d(cross2d):
    corners = cross2d.corners()
    assert corners.tolist() == [3, 17, 21, 23, 24, 25, 27, 31, 45]


def test_vertices_only_corners(cross2d):
    assert cross2d.corners("vertices-only").tolist() == [CENTER]


def test_all_interface_corners(cross2d):
    assert cross2d.corners("all-interface").tolist() == CROSS


def test_default_corners_3d(box3d):
    corners = box3d.corners()
    gs = box3d.globset
    # vertex + three per face glob, and the face triples are not collinear
    assert corners.size == 1 + 3 * 12
    coords = box3d.grid.node_coords
    for g in gs.globs:
        if g.kind != "face":
            continue
        picked = np.intersect1d(g.nodes, corners)
        assert picked.size == 3
        p = coords[picked]
        area = np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
        assert area > 1e-8


def test_unknown_strategy(cross2d):
    with pytest.raises(ValueError):
        cross2d.corners("rank-revealing")


# -- weights ------------------------------------------------------------------

def test_cardinality_weights(cross2d):
    weights = cross2d.weights("cardinality")
    imap = cross2d.imap
    assert weights.shape == cross2d.splits.iface_index.shape
    nodes = imap.dofs[cross2d.splits.iface_index]
    expected = np.where(nodes == CENTER, 0.25, 0.5)
    assert np.array_equal(weights, expected)


def sum_to_one(weights, lv):
    return lv.splits.gather(weights, lv.imap.n)


def test_weights_partition_of_unity(cross2d, box3d):
    for lv in (cross2d, box3d):
        for scheme in ("cardinality", "stiffness-diagonal"):
            acc = sum_to_one(lv.weights(scheme), lv)
            assert np.max(np.abs(acc - 1.0)) < 1e-15


def test_stiffness_weights_match_cardinality_when_homogeneous(cross2d):
    card = cross2d.weights("cardinality")
    stiff = cross2d.weights("stiffness-diagonal")
    assert np.max(np.abs(card - stiff)) < 1e-14


def test_weights_elasticity_components():
    lv = build_level1(ProblemSpec(kind="elasticity", dim=2), 8, 4, method="regular-blocks")
    weights = lv.weights("cardinality")
    imap = lv.imap
    assert imap.dofs.size == 2 * len(CROSS)
    acc = sum_to_one(weights, lv)
    assert np.max(np.abs(acc - 1.0)) < 1e-15
    # both components of one node carry the same weight
    assert np.array_equal(weights[0::2], weights[1::2])


def test_unknown_scheme(cross2d):
    with pytest.raises(ValueError):
        cross2d.weights("volume")


def test_interface_dofs_order(cross2d):
    dofs = interface_dofs(cross2d.globset, 2)
    nodes = np.array(CROSS)
    expected = np.stack([2 * nodes, 2 * nodes + 1], axis=1).reshape(-1)
    assert np.array_equal(dofs, expected)


# -- coarse space -------------------------------------------------------------

def test_coarse_space_default(cross2d):
    cs = cross2d.coarse_space()
    assert cs.n_corners == 9
    assert cs.n_nodes == 13
    assert cs.n_dofs == 13
    assert cs.glob_ids.tolist() == [0, 1, 3, 4]
    assert [m.tolist() for m in cs.glob_members] == [[10], [22], [26], [38]]
    assert [len(s) for s in cs.sub_nodes] == [7, 7, 7, 7]
    assert cs.sub_nodes[0].tolist() == [0, 1, 2, 3, 4, 9, 10]
    assert cs.sub_nodes[3].tolist() == [4, 5, 6, 7, 8, 11, 12]


def test_coarse_space_vertices_only(cross2d):
    cs = cross2d.coarse_space(strategy="vertices-only")
    assert cs.n_corners == 1
    assert cs.n_nodes == 5
    assert [len(s) for s in cs.sub_nodes] == [3, 3, 3, 3]
    assert cs.sub_nodes[0].tolist() == [0, 1, 2]


def test_coarse_space_corners_only_policy(cross2d):
    cs = cross2d.coarse_space(policy="corners-only")
    assert cs.n_nodes == cs.n_corners == 9
    assert cs.glob_ids.size == 0
    assert cs.sub_nodes[0].tolist() == [0, 1, 2, 3, 4]


def test_coarse_space_policy_dim_aware(box3d):
    # 3D: corners+edges keeps edge globs but not face globs.
    ce = box3d.coarse_space(policy="corners+edges")
    full = box3d.coarse_space(policy="corners+edges+faces")
    kinds = [box3d.globset.globs[g].kind for g in ce.glob_ids]
    assert set(kinds) == {"edge"}
    assert ce.n_nodes < full.n_nodes


def test_coarse_space_two_subdomain_strip_policies():
    # 2D 1x2 split: one codim-1 glob (a line of nodes, i.e. an edge in 2D
    # speech).  corners-only -> its 2 endpoint corners; corners+edges adds
    # the average over the remaining line -> 3 coarse nodes.
    lv = build_level1(ProblemSpec(), n_elems=4, n_subs=2)
    assert [g.kind for g in lv.globset.globs] == ["face"]
    only = lv.coarse_space(policy="corners-only")
    assert only.n_nodes == only.n_corners == 2
    ce = lv.coarse_space(policy="corners+edges")
    assert ce.n_corners == 2
    assert ce.n_nodes == 3
    full = lv.coarse_space(policy="corners+edges+faces")
    assert full.n_nodes == 3


def test_coarse_space_all_corners_drops_globs(cross2d):
    cs = cross2d.coarse_space(strategy="all-interface")
    assert cs.n_corners == 13
    assert cs.n_nodes == 13
    assert cs.glob_ids.size == 0


def test_coarse_space_coords(cross2d):
    cs = cross2d.coarse_space()
    grid = cross2d.grid
    assert np.array_equal(cs.node_coords[:9], grid.node_coords[cs.corner_nodes])
    # single-member remainder: centroid is the node itself
    assert np.allclose(cs.node_coords[9], grid.node_coords[10])


def test_coarse_space_dofs_per_node():
    lv = build_level1(ProblemSpec(kind="elasticity", dim=2), 8, 4, method="regular-blocks")
    cs = lv.coarse_space(strategy="vertices-only")
    assert cs.dofs_per_node == 2
    assert cs.n_dofs == 10
    assert cs.sub_dofs(0).tolist() == [0, 1, 2, 3, 4, 5]


def test_coarse_space_rejects_off_interface_corner(cross2d):
    with pytest.raises(ValueError):
        build_coarse_space(cross2d.globset, np.array([0]), cross2d.grid,
                           cross2d.part)


def test_coarse_space_3d(box3d):
    cs = box3d.coarse_space()
    # 37 corners; every face keeps 4-3 members, every edge keeps its 2
    assert cs.n_corners == 37
    assert cs.n_nodes == 37 + 12 + 6
    lens = sorted(len(m) for m in cs.glob_members)
    assert lens == [1] * 12 + [2] * 6


def test_pseudomesh(cross2d):
    cs = cross2d.coarse_space()
    pm = build_pseudomesh(cs, cross2d.part, dim=2)
    assert pm.n_nodes == 13
    assert pm.n_elems == 4
    assert pm.dofs_per_node == 1
    assert pm.structured_shape is None
    assert pm.elem_nodes[0].tolist() == cs.sub_nodes[0].tolist()
    # the pseudo-mesh classifies again: all four pseudo-elements share the
    # vertex-derived coarse node
    part2 = Partition(n_subdomains=2, assignment=np.array([0, 0, 1, 1]),
                      method="greedy-graph-growing")
    gs2 = classify_interface(pm, part2)
    assert gs2.interface_nodes().size > 0
