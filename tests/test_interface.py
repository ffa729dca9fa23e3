"""Interface classification, corners, weights, and the coarse space.

The 2x2-subdomain Poisson fixture on an 8x8 grid is worked out by hand:
free nodes form a 7x7 grid (free id = (x-1) + 7*(y-1) for full node (x, y)),
the interface is the cross x=4 / y=4 with 13 free nodes, and the four arms
plus the center give 4 face globs and 1 vertex glob.
"""

import numpy as np
import pytest

from conftest import build_level1, elements_of, grid_from_lists, level2_pseudomesh, segments
from mlbddc.fem import ProblemSpec, build_dof_map, generate_box_mesh, node_dofs
from mlbddc.grid import level_grid_from_mesh
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


def glob_list(gs):
    """(kind, member nodes, sharers) of each glob, in glob order, from the
    glob set's arrays."""
    nodes, glob = gs.members()
    members = np.split(nodes, np.cumsum(np.bincount(glob, minlength=gs.kinds.size))[:-1])
    return [(kind, m, tuple(s for s in row if s >= 0))
            for kind, m, row in zip(gs.kinds.tolist(), members, gs.sharers.tolist())]


@pytest.fixture(scope="module")
def cross2d():
    return build_level1(ProblemSpec(kind="poisson", dim=2), 8, 4, method="regular-blocks")


@pytest.fixture(scope="module")
def box3d():
    return build_level1(ProblemSpec(kind="poisson", dim=3), 6, 8, method="regular-blocks")


# -- classification -----------------------------------------------------------

def test_single_interface_line():
    lv = build_level1(ProblemSpec(kind="poisson", dim=2), 8, 2, method="regular-blocks")
    (kind, nodes, sharers), = glob_list(lv.globset)
    assert kind == "face"
    assert nodes.size == 7
    assert sharers == (0, 1)


def test_cross_globs(cross2d):
    gs = cross2d.globset
    assert gs.counts_by_kind() == {"face": 4, "edge": 0, "vertex": 1}
    assert gs.interface_nodes().tolist() == CROSS
    # ordered by smallest member node
    assert [(kind, nodes.tolist(), sharers) for kind, nodes, sharers in glob_list(gs)] == [
        ("face", ARM_A, (0, 1)), ("face", ARM_B, (0, 2)), ("vertex", [CENTER], (0, 1, 2, 3)),
        ("face", ARM_D, (1, 3)), ("face", ARM_C, (2, 3))]


def test_3d_globs(box3d):
    # 3-element-wide blocks: each split plane carries four 2x2 pair-faces,
    # the split lines carry two 2-node edges each
    gs = box3d.globset
    assert gs.counts_by_kind() == {"face": 12, "edge": 6, "vertex": 1}
    sizes = {kind: set() for kind in gs.kinds.tolist()}
    for kind, nodes, _ in glob_list(gs):
        sizes[kind].add(nodes.size)
    assert sizes["face"] == {4}
    assert sizes["edge"] == {2}
    assert sizes["vertex"] == {1}
    assert gs.interface_nodes().size == 12 * 4 + 6 * 2 + 1
    for kind, _, sharers in glob_list(gs):
        assert len(sharers) == {"face": 2, "edge": 4, "vertex": 8}[kind]


def test_two_sharers_single_node_is_edge():
    # two triangles touching in one point: too few members for a face
    coords = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]], dtype=float)
    grid = grid_from_lists(coords, [[0, 1, 2], [2, 3, 4]])
    part = Partition(n_subdomains=2, assignment=np.array([0, 1]), method="greedy-graph-growing")
    (kind, nodes, _), = glob_list(classify_interface(grid, part))
    assert kind == "edge"
    assert nodes.tolist() == [2]


def test_many_sharers_multi_node_is_edge():
    coords = np.zeros((5, 2))
    coords[:, 0] = np.arange(5)
    grid = grid_from_lists(coords, [[0, 1, 2], [1, 2, 3], [1, 2, 4]])
    part = Partition(n_subdomains=3, assignment=np.array([0, 1, 2]), method="greedy-graph-growing")
    gs = classify_interface(grid, part)
    shared_all = [(kind, nodes) for kind, nodes, sharers in glob_list(gs)
                  if sharers == (0, 1, 2)]
    assert len(shared_all) == 1
    assert shared_all[0][0] == "edge"
    assert shared_all[0][1].tolist() == [1, 2]


def loop_globs(elems, assignment, n_nodes):
    """Plain-loop reference: (sharers, members) of every glob, ordered by
    smallest member."""
    sharers = [set() for _ in range(n_nodes)]
    for e, nodes in enumerate(elems):
        for nd in nodes:
            sharers[nd].add(int(assignment[e]))
    groups: dict = {}
    for nd, subs in enumerate(sharers):
        if len(subs) >= 2:
            groups.setdefault(tuple(sorted(subs)), []).append(nd)
    return sorted(groups.items(), key=lambda kv: kv[1][0])


@pytest.mark.parametrize("dim,n,n_subs", [(2, 9, 7), (3, 5, 6), (2, 4, 1)])
def test_classification_matches_loop_reference(dim, n, n_subs):
    # plain-loop references for the level-1 element node lists (stored CSR
    # style) and the sharer-set grouping, on greedy partitions with ragged
    # interfaces; one subdomain has an empty interface
    spec = ProblemSpec(kind="poisson", dim=dim)
    mesh = generate_box_mesh(dim, n)
    dofmap = build_dof_map(spec, mesh)
    grid = level_grid_from_mesh(mesh, spec, dofmap)
    free_id = {int(nd): i for i, nd in enumerate(dofmap.free_nodes)}
    elems = [sorted(free_id[int(nd)] for nd in nodes if int(nd) in free_id)
             for nodes in mesh.elem_nodes]
    assert grid.elem_ptr.tolist() == np.cumsum([0] + [len(e) for e in elems]).tolist()
    assert grid.elem_nodes.tolist() == sum(elems, [])
    assert elements_of(grid) == elems
    part = partition_elements(grid, n_subs, method="greedy-graph-growing")
    gs = classify_interface(grid, part)
    expected = loop_globs(elems, part.assignment, grid.n_nodes)
    assert [(sharers, nodes.tolist()) for _, nodes, sharers in glob_list(gs)] == expected
    assert gs.kinds.size == gs.sharers.shape[0] == len(expected)
    node_glob = np.full(grid.n_nodes, -1)
    for i, (_, members) in enumerate(expected):
        node_glob[members] = i
    assert np.array_equal(gs.node_glob, node_glob)
    if n_subs == 1:
        assert gs.kinds.size == 0 and gs.interface_nodes().size == 0
        assert select_corners(gs, grid).size == 0
        cs = build_coarse_space(gs, select_corners(gs, grid), grid, part)
        assert cs.n_nodes == 0 and cs.sub_ptr.tolist() == [0, 0] and cs.sub_node.size == 0


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
    for kind, nodes, _ in glob_list(gs):
        if kind != "face":
            continue
        picked = np.intersect1d(nodes, corners)
        assert picked.size == 3
        p = coords[picked]
        area = np.linalg.norm(np.cross(p[1] - p[0], p[2] - p[0]))
        assert area > 1e-8


def face_corner_nodes(nodes, coords, dim):
    """Plain-loop reference for the corners of one face glob with members
    nodes: two extremal members along its longest axis and, in 3D, the
    member farthest from the line through them; ties go to the lowest node
    id."""
    pts = coords[nodes]
    spans = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(spans))
    lo = int(nodes[np.lexsort((nodes, pts[:, axis]))[0]])
    hi = int(nodes[np.lexsort((nodes, -pts[:, axis]))[0]])
    picked = [lo] if hi == lo else [lo, hi]
    if dim == 3 and len(picked) == 2:
        p0 = coords[lo]
        u = coords[hi] - p0
        nu = np.linalg.norm(u)
        if nu > 0:
            u = u / nu
            rel = pts - p0
            dist = np.linalg.norm(rel - np.outer(rel @ u, u), axis=1)
            far = int(nodes[np.lexsort((nodes, -dist))[0]])
            if dist[np.nonzero(nodes == far)[0][0]] > 1e-12 and far not in picked:
                picked.append(far)
    return picked


def greedy_level(dim, n, n_subs, length=1.0):
    return build_level1(ProblemSpec(kind="poisson", dim=dim), n, n_subs,
                        method="greedy-graph-growing", length=length)


@pytest.mark.parametrize("case", ["greedy-2d", "greedy-3d", "pseudomesh", "stretched"])
def test_default_corners_match_loop_reference(case):
    if case == "pseudomesh":
        grid = level2_pseudomesh()
        gs = classify_interface(grid, partition_elements(grid, 4, "greedy-graph-growing"))
    else:
        lv = {"greedy-2d": lambda: greedy_level(2, 9, 7),
              "greedy-3d": lambda: greedy_level(3, 5, 6),
              "stretched": lambda: greedy_level(3, 6, 5, length=(3.0, 1.0, 1.0))}[case]()
        grid, gs = lv.grid, lv.globset
    expected = []
    for kind, nodes, _ in glob_list(gs):
        if kind == "vertex":
            expected.extend(int(n) for n in nodes)
        elif kind == "face":
            expected.extend(face_corner_nodes(nodes, grid.node_coords, grid.dim))
    assert gs.counts_by_kind()["face"] > 0
    corners = select_corners(gs, grid, "default")
    assert corners.dtype == np.int64
    assert corners.tolist() == sorted(set(expected))


def test_collinear_3d_face_gets_two_corners():
    # two 3D elements sharing three collinear nodes: a face glob whose
    # members all lie on the line through its extremes, so no third corner
    coords = np.array([[0, 1, 0], [0, 0, 0], [1, 0, 0], [2, 0, 0], [0, -1, 0]], dtype=float)
    grid = grid_from_lists(coords, [[0, 1, 2, 3], [1, 2, 3, 4]])
    part = Partition(n_subdomains=2, assignment=np.array([0, 1]), method="greedy-graph-growing")
    gs = classify_interface(grid, part)
    assert [(kind, m.tolist()) for kind, m, _ in glob_list(gs)] == [("face", [1, 2, 3])]
    assert select_corners(gs, grid).tolist() == [1, 3]


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
    return np.bincount(lv.splits.iface_index, weights, lv.imap.n)


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

def n_corners(cs) -> int:
    return int(np.count_nonzero(cs.kinds == "corner"))


def members(cs) -> list:
    """Each coarse node's members: the nodes that name it, ascending."""
    return [np.flatnonzero(cs.node_coarse == c).tolist() for c in range(cs.n_nodes)]


def test_coarse_space_default(cross2d):
    cs = cross2d.coarse_space()
    assert cs.kinds.tolist() == ["corner"] * 9 + ["face"] * 4
    assert cs.n_nodes == 13
    assert cs.n_dofs == 13
    # a corner is its own one member; a glob has its non-corner members,
    # globs in classify order; every other node names no coarse node
    assert members(cs) == [[c] for c in cross2d.corners().tolist()] + [[10], [22], [26], [38]]
    assert cross2d.globset.node_glob[[10, 22, 26, 38]].tolist() == [0, 1, 3, 4]
    assert np.count_nonzero(cs.node_coarse >= 0) == 13
    assert cs.sub_ptr.tolist() == [0, 7, 14, 21, 28]
    sub_nodes = segments(cs.sub_ptr, cs.sub_node)
    assert sub_nodes[0].tolist() == [0, 1, 2, 3, 4, 9, 10]
    assert sub_nodes[3].tolist() == [4, 5, 6, 7, 8, 11, 12]


def test_coarse_space_vertices_only(cross2d):
    cs = cross2d.coarse_space(strategy="vertices-only")
    assert n_corners(cs) == 1
    assert cs.n_nodes == 5
    assert cs.sub_ptr.tolist() == [0, 3, 6, 9, 12]
    assert cs.sub_node[:3].tolist() == [0, 1, 2]


def test_coarse_space_corners_only_policy(cross2d):
    cs = cross2d.coarse_space(policy="corners-only")
    assert cs.n_nodes == n_corners(cs) == 9
    assert cs.sub_node[cs.sub_ptr[0]:cs.sub_ptr[1]].tolist() == [0, 1, 2, 3, 4]


def test_coarse_space_policy_dim_aware(box3d):
    # 3D: corners+edges keeps edge globs but not face globs.
    ce = box3d.coarse_space(policy="corners+edges")
    full = box3d.coarse_space(policy="corners+edges+faces")
    assert set(ce.kinds.tolist()) == {"corner", "edge"}
    assert set(full.kinds.tolist()) == {"corner", "edge", "face"}
    assert ce.n_nodes < full.n_nodes


def test_coarse_space_two_subdomain_strip_policies():
    # 2D 1x2 split: one codim-1 glob (a line of nodes, i.e. an edge in 2D
    # speech).  corners-only -> its 2 endpoint corners; corners+edges adds
    # the average over the remaining line -> 3 coarse nodes.
    lv = build_level1(ProblemSpec(), n_elems=4, n_subs=2)
    assert lv.globset.kinds.tolist() == ["face"]
    only = lv.coarse_space(policy="corners-only")
    assert only.n_nodes == n_corners(only) == 2
    ce = lv.coarse_space(policy="corners+edges")
    assert n_corners(ce) == 2
    assert ce.n_nodes == 3
    full = lv.coarse_space(policy="corners+edges+faces")
    assert full.n_nodes == 3


def test_coarse_space_all_corners_drops_globs(cross2d):
    cs = cross2d.coarse_space(strategy="all-interface")
    assert n_corners(cs) == 13
    assert cs.n_nodes == 13


def test_coarse_space_coords(cross2d):
    cs = cross2d.coarse_space()
    grid = cross2d.grid
    assert np.array_equal(cs.node_coords[:9], grid.node_coords[cross2d.corners()])
    # single-member remainder: centroid is the node itself
    assert np.allclose(cs.node_coords[9], grid.node_coords[10])


def test_coarse_space_dofs_per_node():
    lv = build_level1(ProblemSpec(kind="elasticity", dim=2), 8, 4, method="regular-blocks")
    cs = lv.coarse_space(strategy="vertices-only")
    assert cs.dofs_per_node == 2
    assert cs.n_dofs == 10
    assert node_dofs(cs.sub_node[cs.sub_ptr[0]:cs.sub_ptr[1]],
                     cs.dofs_per_node).tolist() == [0, 1, 2, 3, 4, 5]


def test_coarse_space_rejects_off_interface_corner(cross2d):
    with pytest.raises(ValueError):
        build_coarse_space(cross2d.globset, np.array([0]), cross2d.grid,
                           cross2d.part)


@pytest.mark.parametrize("policy", ["corners", "edges+faces", ""])
def test_coarse_space_rejects_unknown_policy(cross2d, policy):
    with pytest.raises(ValueError, match="unknown constraint policy"):
        build_coarse_space(cross2d.globset, cross2d.corners(), cross2d.grid,
                           cross2d.part, policy)


def test_coarse_space_3d(box3d):
    cs = box3d.coarse_space()
    # 37 corners; every face keeps 4-3 members, every edge keeps its 2
    assert n_corners(cs) == 37
    assert cs.n_nodes == 37 + 12 + 6
    assert members(cs)[:37] == [[c] for c in box3d.corners().tolist()]
    lens = sorted(len(m) for m in members(cs)[37:])
    assert lens == [1] * 12 + [2] * 6


def test_pseudomesh(cross2d):
    cs = cross2d.coarse_space()
    pm = build_pseudomesh(cs, cross2d.part)
    assert pm.n_nodes == 13
    assert pm.n_elems == 4
    assert pm.dofs_per_node == 1
    assert pm.structured_shape is None
    assert elements_of(pm) == [nodes.tolist() for nodes in segments(cs.sub_ptr, cs.sub_node)]
    assert pm.dim == 2 and np.array_equal(pm.node_coords, cs.node_coords)
    # the pseudo-mesh classifies again: all four pseudo-elements share the
    # vertex-derived coarse node
    part2 = Partition(n_subdomains=2, assignment=np.array([0, 0, 1, 1]),
                      method="greedy-graph-growing")
    gs2 = classify_interface(pm, part2)
    assert gs2.interface_nodes().size > 0
