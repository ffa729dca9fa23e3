"""Mesh generation, element matrices, assembly, and VTK export tests."""

import numpy as np
import pytest
import scipy.sparse

from mlbddc.fem import (
    Mesh,
    ProblemSpec,
    assemble_global,
    build_dof_map,
    element_matrix,
    export_vtk,
    generate_box_mesh,
    mark_dirichlet,
    node_dofs,
    subassemble_subdomain,
)
from mlbddc.grid import level_grid_from_mesh
from mlbddc.partition import Partition, partition_elements
from mlbddc.sparse import factorize, sum_elements


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
        factorize(k, "spd")  # raises if not SPD


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
    factorize(k, "spd")


def test_nonzero_dirichlet_constant_solution():
    # zero rhs with constant boundary value c: discrete solution is c
    spec = poisson(rhs_kind="zero", dirichlet_value=2.5)
    mesh = generate_box_mesh(2, 4)
    k, f = assemble_global(spec, mesh)
    x = factorize(k, "spd").solve(f)
    assert np.allclose(x, 2.5, rtol=0, atol=1e-12)


def test_elasticity_patch_test_linear_field():
    # prescribe a linear displacement on the whole boundary; the interior
    # must reproduce it exactly (zero body force)
    spec = elasticity(2, young=3.0, poisson_ratio=0.25, rhs_kind="zero")
    mesh = generate_box_mesh(2, 3)
    mesh = mark_dirichlet(spec, mesh)
    grad = np.array([[0.3, -0.1], [0.2, 0.4]])
    disp = (mesh.coords @ grad.T).reshape(-1)
    mesh.boundary_values = disp[mesh.boundary_dofs]
    k, f = assemble_global(spec, mesh)
    dm = build_dof_map(spec, mesh)
    x = factorize(k, "spd").solve(f)
    assert np.allclose(x, disp[dm.free_dofs], rtol=0, atol=1e-10)


def test_poisson_patch_test_linear_field():
    spec = poisson(rhs_kind="zero")
    mesh = generate_box_mesh(2, 3)
    mesh = mark_dirichlet(spec, mesh)
    vals = 1.0 + 0.5 * mesh.coords[:, 0] - 0.25 * mesh.coords[:, 1]
    mesh.boundary_values = vals[mesh.boundary_dofs]
    k, f = assemble_global(spec, mesh)
    dm = build_dof_map(spec, mesh)
    x = factorize(k, "spd").solve(f)
    assert np.allclose(x, vals[dm.free_dofs], rtol=0, atol=1e-12)


def test_subassembly_identity():
    # sum of prolongated subdomain matrices equals the global operator
    rng = np.random.default_rng(41)
    for spec, n in ((poisson(2), 4), (elasticity(3, poisson_ratio=0.2), 2)):
        mesh = generate_box_mesh(spec.dim, n)
        k, _ = assemble_global(spec, mesh)
        dm = build_dof_map(spec, mesh)
        part = Partition(3, rng.integers(0, 3, size=mesh.n_elems), "random")
        k_sub, keys = subassemble_subdomain(spec, mesh, dm, part)
        sub, dofs = np.divmod(keys, dm.n_free)
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
    # entry, and its keys are (subdomain, free dof) in subdomain order
    mesh = generate_box_mesh(spec.dim, n)
    dm = build_dof_map(spec, mesh)
    part = partition_elements(level_grid_from_mesh(mesh, spec, dm), n_subs)
    k, keys = subassemble_subdomain(spec, mesh, dm, part)
    ke = element_matrix(spec, mesh)
    ed = node_dofs(mesh.elem_nodes, spec.dofs_per_node)
    per_sub = [sum_elements([(ke, dm.full_to_free[ed[part.elements_of(s)]])])
               for s in range(n_subs)]
    ref = scipy.sparse.block_diag([k_s.scipy_csr() for k_s, _ in per_sub], format="csr")
    csr = k.scipy_csr()
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(csr, attr), getattr(ref, attr))
    assert k.symmetric
    sub, dofs = np.divmod(keys, dm.n_free)
    assert np.array_equal(sub, np.repeat(np.arange(n_subs), [ltg.size for _, ltg in per_sub]))
    assert np.array_equal(dofs, np.concatenate([ltg for _, ltg in per_sub]))
    assert np.array_equal(keys, sub * dm.n_free + dofs)


def test_q1_elements_as_coarse_style_blocks_match_global_assembly():
    # one (ke, dofs[None]) block per element, the way assemble_coarse sums
    # subdomains, gives the operator of assemble_global bitwise, stored
    # pattern included
    for spec, n in ((poisson(2), 4), (elasticity(3), 2)):
        mesh = generate_box_mesh(spec.dim, n)
        dm = build_dof_map(spec, mesh)
        ke = element_matrix(spec, mesh)
        dpn = spec.dofs_per_node
        ed = (mesh.elem_nodes[:, :, None] * dpn + np.arange(dpn)).reshape(mesh.n_elems, -1)
        k, ltg = sum_elements([(ke, d[None]) for d in dm.full_to_free[ed]])
        assert np.array_equal(ltg, np.arange(dm.n_free))
        k_global = assemble_global(spec, mesh)[0]
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(k.scipy_csr(), attr),
                                  getattr(k_global.scipy_csr(), attr))


def test_subassembly_local_map_sorted():
    mesh = generate_box_mesh(2, 4)
    part = Partition(2, np.isin(np.arange(16), [0, 1, 4, 5]).astype(np.int64), "test")
    k, keys = subassemble_subdomain(poisson(), mesh, build_dof_map(poisson(), mesh), part)
    assert np.all(np.diff(keys) > 0)
    assert k.shape == (keys.size, keys.size)
    assert k.scipy_csr().has_canonical_format


def test_subassembly_rejects_empty():
    mesh = generate_box_mesh(2, 2)
    part = Partition(3, np.array([0, 0, 2, 2]), "test")
    with pytest.raises(ValueError):
        subassemble_subdomain(poisson(), mesh, build_dof_map(poisson(), mesh), part)


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


def test_vtk_rejects_bad_data_size(tmp_path):
    mesh = generate_box_mesh(2, 1)
    with pytest.raises(ValueError):
        export_vtk(mesh, {"x": np.zeros(5)}, tmp_path / "bad.vtk")
