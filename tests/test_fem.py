"""Mesh generation, element matrices, assembly, and VTK export tests."""

from dataclasses import replace

import numpy as np
import pytest

from mlbddc.fem import (
    Mesh,
    ProblemSpec,
    assemble_global,
    build_dof_map,
    dirichlet_dofs,
    element_matrix,
    export_vtk,
    generate_box_mesh,
    load_vector,
    node_dofs,
    subassemble_subdomain,
)
from mlbddc.grid import level_grid_from_mesh
from mlbddc.interface import classify_interface, interface_dofs
from mlbddc.partition import Partition, partition_elements
from mlbddc.sparse import factorize, sum_elements
from test_substructuring import stacked


def poisson(dim=2, **kw):
    return ProblemSpec(kind="poisson", dim=dim, **kw)


def elasticity(dim=2, **kw):
    return ProblemSpec(kind="elasticity", dim=dim, **kw)


# -- mesh generation ----------------------------------------------------------

def test_box_mesh_2d_counts():
    mesh = generate_box_mesh(2, 2)
    assert mesh.n_nodes == 9
    assert mesh.n_elems == 4
    assert mesh.elem_nodes.size == 16


def test_box_mesh_3d_counts():
    mesh = generate_box_mesh(3, 2)
    assert mesh.n_nodes == 27
    assert mesh.n_elems == 8
    assert mesh.elem_nodes.size == 64


def test_box_mesh_lexicographic_coords():
    mesh = generate_box_mesh(2, 2, length=1.0)
    # x fastest
    assert np.allclose(mesh.coords[0], [0.0, 0.0])
    assert np.allclose(mesh.coords[1], [0.5, 0.0])
    assert np.allclose(mesh.coords[3], [0.0, 0.5])
    assert np.allclose(mesh.coords[8], [1.0, 1.0])


def test_box_mesh_element_connectivity():
    mesh = generate_box_mesh(2, 2)
    # element 0 is the lower-left quad, counterclockwise
    assert list(mesh.elem_nodes[0]) == [0, 1, 4, 3]
    assert list(mesh.elem_nodes[3]) == [4, 5, 8, 7]


BOX = (2, 3, 5)                  # elements per axis of an anisotropic 3D box


def box_node(i, j, k):
    """Node (i, j, k) of the BOX mesh, lexicographic with x fastest."""
    return i + (BOX[0] + 1) * (j + (BOX[1] + 1) * k)


def test_box_mesh_numbering_matches_loops():
    # coordinates node by node, x fastest; each hex's nodes go round its
    # bottom face counterclockwise, then round its top face
    lens = (1.0, 2.0, 0.3)
    mesh = generate_box_mesh(3, BOX, lens)
    axes = [np.linspace(0.0, lens[d], BOX[d] + 1) for d in range(3)]
    coords = [[axes[0][i], axes[1][j], axes[2][k]] for k in range(BOX[2] + 1)
              for j in range(BOX[1] + 1) for i in range(BOX[0] + 1)]
    elems = []
    for k in range(BOX[2]):
        for j in range(BOX[1]):
            for i in range(BOX[0]):
                face = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                elems.append([box_node(a, b, k + up) for up in (0, 1) for a, b in face])
    assert mesh.coords.tolist() == coords
    assert mesh.elem_nodes.tolist() == elems
    assert mesh.elem_nodes.dtype == np.int64


@pytest.mark.parametrize("spec,on_face", [
    (poisson(dim=3), lambda i, j, k: i in (0, BOX[0]) or j in (0, BOX[1]) or k in (0, BOX[2])),
    (elasticity(dim=3, dirichlet_faces=("x-", "z+"), dirichlet_value=0.25),
     lambda i, j, k: i == 0 or k == BOX[2]),
    (poisson(dim=3, dirichlet_faces=("y+",)), lambda i, j, k: j == BOX[1]),
], ids=["poisson-all", "elasticity-x-z+", "poisson-y+"])
def test_dirichlet_dofs_match_loops(spec, on_face):
    dpn = spec.dofs_per_node
    dofs = sorted(box_node(i, j, k) * dpn + c for k in range(BOX[2] + 1)
                  for j in range(BOX[1] + 1) for i in range(BOX[0] + 1)
                  if on_face(i, j, k) for c in range(dpn))
    got, values = dirichlet_dofs(spec, generate_box_mesh(3, BOX))
    assert got.tolist() == dofs
    assert values.tolist() == [spec.dirichlet_value] * len(dofs)


def test_box_mesh_rejects_bad_input():
    with pytest.raises(ValueError):
        generate_box_mesh(1, 4)
    with pytest.raises(ValueError):
        generate_box_mesh(2, 0)
    with pytest.raises(ValueError):
        generate_box_mesh(2, 4, length=-1.0)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(kind="stokes")
    with pytest.raises(ValueError):
        ProblemSpec(kind="elasticity", poisson_ratio=0.5)
    with pytest.raises(ValueError):
        ProblemSpec(dim=2, dirichlet_faces=("z-",))
    with pytest.raises(ValueError):
        ProblemSpec(dirichlet_faces=("front",))


# -- element matrices ---------------------------------------------------------

def tensor_laplacian_oracle(dim, h):
    """Independent element-stiffness oracle from 1D stiffness/mass tensor
    products, permuted from tensor to counterclockwise node order."""
    k1 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    m1 = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    if dim == 2:
        kx = np.kron(m1 * h[1], k1 / h[0])
        ky = np.kron(k1 / h[1], m1 * h[0])
        k = kx + ky
        perm = [0, 1, 3, 2]
    else:
        def kron3(a, b, c):
            return np.kron(c, np.kron(b, a))
        kx = kron3(k1 / h[0], m1 * h[1], m1 * h[2])
        ky = kron3(m1 * h[0], k1 / h[1], m1 * h[2])
        kz = kron3(m1 * h[0], m1 * h[1], k1 / h[2])
        k = kx + ky + kz
        perm = [0, 1, 3, 2, 4, 5, 7, 6]
    return k[np.ix_(perm, perm)]


def test_poisson_unit_square_element_values():
    mesh = generate_box_mesh(2, 1, length=1.0)
    ke = element_matrix(poisson(), mesh)
    assert np.allclose(np.diag(ke), 2.0 / 3.0, rtol=0, atol=1e-14)
    # opposite corners
    assert abs(ke[0, 2] + 1.0 / 3.0) < 1e-14
    assert abs(ke[1, 3] + 1.0 / 3.0) < 1e-14
    # edge neighbors
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        assert abs(ke[a, b] + 1.0 / 6.0) < 1e-14


def test_poisson_element_matches_tensor_oracle():
    mesh = generate_box_mesh(2, (2, 4), length=(1.0, 1.0))
    ke = element_matrix(poisson(), mesh)
    assert np.allclose(ke, tensor_laplacian_oracle(2, (0.5, 0.25)), rtol=0, atol=1e-14)
    mesh3 = generate_box_mesh(3, (2, 2, 1), length=(1.0, 2.0, 0.5))
    ke3 = element_matrix(poisson(3), mesh3)
    assert np.allclose(ke3, tensor_laplacian_oracle(3, (0.5, 1.0, 0.5)), rtol=0, atol=1e-14)


def test_poisson_element_row_sums_vanish():
    for dim in (2, 3):
        mesh = generate_box_mesh(dim, 2, length=1.3)
        ke = element_matrix(poisson(dim), mesh)
        assert np.max(np.abs(ke.sum(axis=1))) < 1e-13


def test_poisson_3d_cube_element_stores_its_edge_couplings_as_exact_zeros():
    # the trilinear Laplacian on a cube of side h: h/3 on the diagonal, -h/12
    # across a face or the body diagonal, and exactly 0 along an edge, which
    # quadrature leaves at ~1e-17 and the rounding rule stores as 0
    h = 0.25
    mesh = generate_box_mesh(3, 4)
    ke = element_matrix(poisson(3), mesh)
    x = mesh.coords[mesh.elem_nodes[0]]
    differ = np.sum(~np.isclose(x[:, None, :], x[None, :, :]), axis=2)   # axes apart
    assert np.count_nonzero(ke == 0) == 24
    assert np.array_equal(ke == 0, differ == 1)
    other = differ != 1
    assert np.allclose(ke[other], np.where(differ == 0, h / 3, -h / 12)[other],
                       rtol=1e-15, atol=0)


@pytest.mark.parametrize("spec,length", [
    (poisson(3), (1.0, 2.0, 3.0)), (poisson(2), 1.0), (elasticity(2), 1.0),
    (elasticity(3), 1.0), (elasticity(3), (1.0, 2.0, 3.0))],
    ids=["poisson3d-stretched", "poisson2d", "elasticity2d", "elasticity3d",
         "elasticity3d-stretched"])
def test_element_matrix_has_no_zero_where_nothing_cancels(spec, length):
    ke = element_matrix(spec, generate_box_mesh(spec.dim, 3, length))
    assert np.all(ke != 0)


def test_poisson_3d_level_matrix_stores_no_round_off():
    # an interior row couples to the 27-point stencil less its 6 edge
    # neighbours, and no stored entry is round-off
    spec = poisson(3)
    mesh = generate_box_mesh(3, 8)
    dm = build_dof_map(spec, mesh)
    part = partition_elements(level_grid_from_mesh(mesh, spec, dm), 8)
    k, _ = subassemble_subdomain(spec, mesh, dm, part, interface_of(spec, mesh, dm, part))
    csr = k.scipy_csr()
    assert np.diff(csr.indptr).max() == 21
    assert np.all(np.abs(csr.data) > 1e-14 * np.abs(csr.data).max())


def rigid_modes(dim, coords):
    modes = []
    n = coords.shape[0]
    for d in range(dim):
        m = np.zeros((n, dim))
        m[:, d] = 1.0
        modes.append(m.reshape(-1))
    if dim == 2:
        m = np.zeros((n, 2))
        m[:, 0] = -coords[:, 1]
        m[:, 1] = coords[:, 0]
        modes.append(m.reshape(-1))
    else:
        for a, b in ((0, 1), (1, 2), (0, 2)):
            m = np.zeros((n, 3))
            m[:, a] = -coords[:, b]
            m[:, b] = coords[:, a]
            modes.append(m.reshape(-1))
    return modes


def test_elasticity_element_annihilates_rigid_modes():
    for dim, expected_rank_def in ((2, 3), (3, 6)):
        mesh = generate_box_mesh(dim, 1, length=1.0)
        spec = elasticity(dim, young=2.0, poisson_ratio=0.3)
        ke = element_matrix(spec, mesh)
        assert np.allclose(ke, ke.T, rtol=0, atol=0)
        coords = mesh.coords[mesh.elem_nodes[0]]
        for m in rigid_modes(dim, coords):
            assert np.linalg.norm(ke @ m) < 1e-10 * np.linalg.norm(ke)
        ev = np.linalg.eigvalsh(ke)
        assert np.sum(np.abs(ev) < 1e-10) == expected_rank_def
        assert ev[expected_rank_def] > 1e-8


# -- assembly -----------------------------------------------------------------

def test_assemble_n2_full_dirichlet_single_dof():
    mesh = generate_box_mesh(2, 2)
    k, f = assemble_global(poisson(), mesh)
    assert k.shape[0] == 1
    assert np.allclose(k.scipy_csr().toarray(), [[8.0 / 3.0]], rtol=0, atol=1e-14)
    assert np.array_equal(f, [1.0])


def test_assemble_matches_dense_oracle():
    # independent dense assembly with python loops
    mesh = generate_box_mesh(2, 4)
    spec = poisson()
    ke = element_matrix(spec, mesh)
    dm = build_dof_map(spec, mesh)
    dense = np.zeros((dm.n_free, dm.n_free))
    for e in range(mesh.n_elems):
        dofs = dm.full_to_free[mesh.elem_nodes[e]]
        for a in range(4):
            for b in range(4):
                if dofs[a] >= 0 and dofs[b] >= 0:
                    dense[dofs[a], dofs[b]] += ke[a, b]
    k, f = assemble_global(spec, mesh)
    assert np.allclose(k.scipy_csr().toarray(), dense, rtol=0, atol=1e-14)
    assert np.array_equal(f, np.ones(dm.n_free))


def test_assembled_operator_is_spd():
    for spec, n in ((poisson(2), 4), (poisson(3), 3),
                    (elasticity(2), 4), (elasticity(3), 2)):
        mesh = generate_box_mesh(spec.dim, n)
        k, _ = assemble_global(spec, mesh)
        assert k.scipy_csr().has_canonical_format
        assert k.symmetric
        factorize(k)  # raises if not SPD


def test_assemble_requires_dirichlet():
    mesh = generate_box_mesh(2, 2)
    spec = poisson()
    spec.dirichlet_faces = ()
    with pytest.raises(ValueError):
        assemble_global(spec, mesh)


def test_partial_dirichlet_faces():
    spec = poisson(dirichlet_faces=("x-",))
    mesh = generate_box_mesh(2, 2)
    k, f = assemble_global(spec, mesh)
    # one face fixed: 3 of 9 nodes eliminated
    assert k.shape[0] == 6
    factorize(k)


def test_nonzero_dirichlet_constant_solution():
    # zero rhs with constant boundary value c: discrete solution is c
    spec = poisson(rhs_kind="zero", dirichlet_value=2.5)
    mesh = generate_box_mesh(2, 4)
    k, f = assemble_global(spec, mesh)
    x = factorize(k).solve(f)
    assert np.allclose(x, 2.5, rtol=0, atol=1e-12)


def test_elasticity_patch_test_linear_field():
    # prescribe a linear displacement on the whole boundary; the interior
    # must reproduce it exactly (zero body force)
    spec = elasticity(2, young=3.0, poisson_ratio=0.25, rhs_kind="zero")
    mesh = generate_box_mesh(2, 3)
    grad = np.array([[0.3, -0.1], [0.2, 0.4]])
    disp = (mesh.coords @ grad.T).reshape(-1)
    dm = build_dof_map(spec, mesh)
    dm = replace(dm, fixed_values=disp[dm.fixed_dofs])
    k = assemble_global(spec, mesh)[0]
    x = factorize(k).solve(load_vector(spec, mesh, dm))
    assert np.allclose(x, disp[dm.free_dofs], rtol=0, atol=1e-10)


def test_poisson_patch_test_linear_field():
    spec = poisson(rhs_kind="zero")
    mesh = generate_box_mesh(2, 3)
    vals = 1.0 + 0.5 * mesh.coords[:, 0] - 0.25 * mesh.coords[:, 1]
    dm = build_dof_map(spec, mesh)
    dm = replace(dm, fixed_values=vals[dm.fixed_dofs])
    k = assemble_global(spec, mesh)[0]
    x = factorize(k).solve(load_vector(spec, mesh, dm))
    assert np.allclose(x, vals[dm.free_dofs], rtol=0, atol=1e-12)


LOAD_SPECS = [poisson(2), poisson(3), elasticity(2), elasticity(3, poisson_ratio=0.2)]


@pytest.mark.parametrize("values", ["uniform", "nonuniform"])
@pytest.mark.parametrize("rhs_kind", ["constant", "zero"])
@pytest.mark.parametrize("base", LOAD_SPECS, ids=["p2d", "p3d", "e2d", "e3d"])
def test_load_vector_matches_dense_oracle(base, rhs_kind, values):
    # f = load - K_fF u_F over the free dofs f, with K_fF the free rows and
    # fixed columns of the full (not eliminated) operator, summed by loops
    spec = replace(base, rhs_kind=rhs_kind, dirichlet_value=1.5 if values == "uniform" else 0.0)
    mesh = generate_box_mesh(spec.dim, (3, 2, 2)[:spec.dim], length=(1.0, 0.5, 2.0)[:spec.dim])
    dm = build_dof_map(spec, mesh)
    if values == "nonuniform":
        rng = np.random.default_rng(7)
        dm = replace(dm, fixed_values=rng.standard_normal(dm.fixed_dofs.size))
    ke = element_matrix(spec, mesh)
    ed = node_dofs(mesh.elem_nodes, spec.dofs_per_node)
    full = np.zeros((dm.n_full, dm.n_full))
    for e in range(mesh.n_elems):
        for a in range(ed.shape[1]):
            for b in range(ed.shape[1]):
                full[ed[e, a], ed[e, b]] += ke[a, b]
    load = np.full(dm.n_free, 1.0 if rhs_kind == "constant" else 0.0)
    expected = load - full[np.ix_(dm.free_dofs, dm.fixed_dofs)] @ dm.fixed_values
    f = load_vector(spec, mesh, dm)
    assert np.allclose(f, expected, rtol=0, atol=1e-12 * max(1.0, np.abs(expected).max()))
    if values == "uniform":
        # the harness's load, from the assembly with the spec's own dof map
        assert np.array_equal(assemble_global(spec, mesh)[1], f)


def interface_of(spec, mesh, dm, part):
    """The sorted interface free dofs of the element partition part."""
    grid = level_grid_from_mesh(mesh, spec, dm)
    return interface_dofs(classify_interface(grid, part), spec.dofs_per_node)


def test_subassembly_identity():
    # sum of prolongated subdomain matrices equals the global operator
    rng = np.random.default_rng(41)
    for spec, n in ((poisson(2), 4), (elasticity(3, poisson_ratio=0.2), 2)):
        mesh = generate_box_mesh(spec.dim, n)
        k, _ = assemble_global(spec, mesh)
        dm = build_dof_map(spec, mesh)
        part = Partition(3, rng.integers(0, 3, size=mesh.n_elems), "random")
        iface = interface_of(spec, mesh, dm, part)
        k_sub, keys = subassemble_subdomain(spec, mesh, dm, part, iface)
        block, dofs = np.divmod(keys, dm.n_free)
        assert np.array_equal(block >= 3, np.isin(dofs, iface)) and iface.size
        sub = block % 3
        blocks = k_sub.scipy_csr().toarray()
        total = np.zeros(k.shape)
        for s in range(3):
            rows = np.nonzero(sub == s)[0]
            total[np.ix_(dofs[rows], dofs[rows])] += blocks[np.ix_(rows, rows)]
        assert np.allclose(total, k.scipy_csr().toarray(), rtol=0, atol=1e-12)


STACKED_CASES = [(poisson(2), 8, 4), (elasticity(3), 4, 8)]


@pytest.mark.parametrize("spec,n,n_subs", STACKED_CASES, ids=["poisson2d", "elasticity3d"])
def test_stacked_subassembly_is_block_diag_of_subdomains(spec, n, n_subs):
    # one call equals scipy's block_diag of per-subdomain sums entry for
    # entry, rows and columns permuted to split order: keys are (is
    # interface, subdomain, free dof), interior dofs before interface dofs
    mesh = generate_box_mesh(spec.dim, n)
    dm = build_dof_map(spec, mesh)
    part = partition_elements(level_grid_from_mesh(mesh, spec, dm), n_subs)
    iface = interface_of(spec, mesh, dm, part)
    k, keys = subassemble_subdomain(spec, mesh, dm, part, iface)
    ke = element_matrix(spec, mesh)
    ed = node_dofs(mesh.elem_nodes, spec.dofs_per_node)
    per_sub = [sum_elements([(ke, dm.full_to_free[ed[part.elements_of(s)]])], spec.dofs_per_node)
               for s in range(n_subs)]
    ref, ref_keys = stacked([k_s.scipy_csr() for k_s, _ in per_sub],
                            [ltg for _, ltg in per_sub], dm.n_free, iface)
    csr, ref = k.scipy_csr(), ref.scipy_csr()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(csr, attr), getattr(ref, attr))
    assert k.symmetric
    assert np.array_equal(keys, ref_keys)
    block, dofs = np.divmod(keys, dm.n_free)
    assert np.all(np.diff(block) >= 0) and np.array_equal(block >= n_subs, np.isin(dofs, iface))


def test_q1_elements_as_coarse_style_blocks_match_global_assembly():
    # one (ke, dofs[None]) block per element, in place of one block shared
    # by all elements, gives the operator of assemble_global bitwise, stored
    # pattern included
    for spec, n in ((poisson(2), 4), (elasticity(3), 2)):
        mesh = generate_box_mesh(spec.dim, n)
        dm = build_dof_map(spec, mesh)
        ke = element_matrix(spec, mesh)
        dpn = spec.dofs_per_node
        ed = (mesh.elem_nodes[:, :, None] * dpn + np.arange(dpn)).reshape(mesh.n_elems, -1)
        k, ltg = sum_elements([(ke, d[None]) for d in dm.full_to_free[ed]], dpn)
        assert np.array_equal(ltg, np.arange(dm.n_free))
        k_global = assemble_global(spec, mesh)[0]
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(k.scipy_csr(), attr),
                                  getattr(k_global.scipy_csr(), attr))


def test_subassembly_local_map_sorted():
    mesh = generate_box_mesh(2, 4)
    part = Partition(2, np.isin(np.arange(16), [0, 1, 4, 5]).astype(np.int64), "test")
    dm = build_dof_map(poisson(), mesh)
    k, keys = subassemble_subdomain(poisson(), mesh, dm, part,
                                    interface_of(poisson(), mesh, dm, part))
    assert np.all(np.diff(keys) > 0)
    assert k.shape == (keys.size, keys.size)
    assert k.scipy_csr().has_canonical_format


def test_subassembly_rejects_empty():
    mesh = generate_box_mesh(2, 2)
    part = Partition(3, np.array([0, 0, 2, 2]), "test")
    with pytest.raises(ValueError):
        subassemble_subdomain(poisson(), mesh, build_dof_map(poisson(), mesh), part,
                              np.zeros(0, dtype=np.int64))


def test_dofmap_expand():
    spec = poisson(dirichlet_value=1.5)
    mesh = generate_box_mesh(2, 2)
    dm = build_dof_map(spec, mesh)
    full = dm.expand(np.array([7.0]))
    assert full.shape == (9,)
    assert full[4] == 7.0
    assert np.allclose(np.delete(full, 4), 1.5)


# -- VTK ----------------------------------------------------------------------

def test_vtk_export_smoke(tmp_path):
    mesh = generate_box_mesh(2, 2)
    path = tmp_path / "out.vtk"
    export_vtk(mesh, {"solution": np.arange(9.0)}, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "POINTS 9 double" in text
    assert "CELL_TYPES 4" in text
    assert "SCALARS solution double 1" in text


def test_vtk_export_vectors_3d(tmp_path):
    mesh = generate_box_mesh(3, 1)
    path = tmp_path / "out3.vtk"
    export_vtk(mesh, {"displacement": np.zeros(8 * 3)}, path)
    text = path.read_text()
    assert "VECTORS displacement double" in text
    assert "CELL_TYPES 1" in text


VTK_2D_SCALARS = """# vtk DataFile Version 3.0
mlbddc output
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 6 double
0 0 0
0.5 0 0
1 0 0
0 0.29999999999999999 0
0.5 0.29999999999999999 0
1 0.29999999999999999 0
CELLS 2 10
4 0 1 4 3
4 1 2 5 4
CELL_TYPES 2
9
9
POINT_DATA 6
SCALARS u double 1
LOOKUP_TABLE default
0.10000000000000001
-2.5
3
9.9999999999999995e-21
-0
7
"""

VTK_3D_VECTORS = """# vtk DataFile Version 3.0
mlbddc output
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 8 double
0 0 0
0.5 0 0
0 0.5 0
0.5 0.5 0
0 0 0.5
0.5 0 0.5
0 0.5 0.5
0.5 0.5 0.5
CELLS 1 9
8 0 1 3 2 4 5 7 6
CELL_TYPES 1
12
POINT_DATA 8
VECTORS d double
-4 -3.6666666666666665 -3.3333333333333335
-3 -2.666666666666667 -2.333333333333333
-2 -1.6666666666666665 -1.3333333333333335
-1 -0.66666666666666652 -0.33333333333333348
0 0.33333333333333304 0.66666666666666696
1 1.333333333333333 1.666666666666667
2 2.333333333333333 2.666666666666667
3 3.333333333333333 3.666666666666667
"""


@pytest.mark.parametrize("dim,n,length,data,text", [
    (2, (2, 1), (1.0, 0.3), {"u": [0.1, -2.5, 3.0, 1e-20, -0.0, 7.0]}, VTK_2D_SCALARS),
    (3, 1, 0.5, {"d": np.arange(24) / 3.0 - 4}, VTK_3D_VECTORS),
], ids=["2d-scalars", "3d-vectors"])
def test_vtk_export_exact_text(tmp_path, dim, n, length, data, text):
    # every value round-trips (%.17g), 2D points and vectors get z = 0
    path = tmp_path / "out.vtk"
    export_vtk(generate_box_mesh(dim, n, length), data, path)
    assert path.read_text() == text


def test_vtk_rejects_bad_data_size(tmp_path):
    mesh = generate_box_mesh(2, 1)
    with pytest.raises(ValueError):
        export_vtk(mesh, {"x": np.zeros(5)}, tmp_path / "bad.vtk")


@pytest.mark.parametrize("fn,spec,match", [
    (element_matrix, poisson(dim=3), "problem dim 3 != mesh dim 2"),
    (dirichlet_dofs, poisson(dim=3, dirichlet_faces=("z-",)), "face 'z-' invalid for 2D mesh"),
], ids=["element_matrix", "dirichlet_dofs"])
def test_3d_spec_on_a_2d_mesh_is_rejected(fn, spec, match):
    with pytest.raises(ValueError, match=match):
        fn(spec, generate_box_mesh(2, 2))
