"""Shared fixtures: the level-1 wiring used across module tests."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse

from mlbddc import bddc
from mlbddc.fem import (
    ProblemSpec,
    assemble_global,
    build_dof_map,
    generate_box_mesh,
    subassemble_subdomain,
)
from mlbddc.grid import LevelGrid, level_grid_from_mesh
from mlbddc.interface import (
    build_coarse_space,
    build_weights,
    classify_interface,
    interface_dofs,
    select_corners,
)
from mlbddc.partition import build_pseudomesh, partition_elements
from mlbddc.sparse import SparseMatrix
from mlbddc.substructuring import build_splits


def canonical(mat, symmetric: bool = False) -> SparseMatrix:
    """A SparseMatrix of a dense or scipy matrix: a float64 CSR copy with
    duplicates summed, indices sorted and stored zeros dropped, the
    canonical form every SparseMatrix holds."""
    csr = scipy.sparse.csr_matrix(mat, dtype=np.float64, copy=True)
    csr.sum_duplicates()
    csr.eliminate_zeros()
    return SparseMatrix(csr, symmetric)


def dense_schur(splits, n_iface: int) -> np.ndarray:
    """A level's interface Schur complement R^T K_BB R - K_IG^T K_II^-1 K_IG,
    dense, from its splits (K_BB stored as its lower triangle, mirrored
    here), at any level, with or without K_GG."""
    low = splits.k_bb.toarray()
    r = np.eye(n_iface)[splits.iface_index]
    k_ig = splits.k_ig.toarray()
    return r.T @ (low + low.T - np.diag(low.diagonal())) @ r - k_ig.T @ splits.k_ii_fact.solve(k_ig)


@dataclass
class Level1:
    spec: object
    mesh: object
    dofmap: object
    grid: LevelGrid
    part: object
    k_global: object
    f_global: np.ndarray
    k: object                   # block-diagonal subdomain matrices
    keys: np.ndarray            # subdomain_keys of each row of k, interface-last
    globset: object
    splits: list
    imap: object

    def k_local(self, i):
        """Subdomain i's diagonal block of k, dense, rows ascending by free dof."""
        block, dofs = np.divmod(self.keys, self.dofmap.n_free)
        rows = np.nonzero(block % self.part.n_subdomains == i)[0]
        rows = rows[np.argsort(dofs[rows])]
        return self.k.scipy_csr()[rows][:, rows].toarray()

    def weights(self, scheme="cardinality"):
        return build_weights(self.splits, scheme)

    def corners(self, strategy="default"):
        return select_corners(self.globset, self.grid, strategy)

    def coarse_space(self, policy="corners+edges+faces", strategy="default"):
        return build_coarse_space(self.globset, self.corners(strategy),
                                  self.grid, self.part, policy)


@pytest.fixture
def coarse_stacks(monkeypatch):
    """Copies of each shape group's coarse matrices as `coarse_basis` leaves
    them, by id of the group, for every setup the test runs: setup hands the
    stacks themselves over to the next level's assembly, which frees them,
    so a built preconditioner keeps none."""
    copies, basis = {}, bddc.coarse_basis

    def copying(g, schur):
        basis(g, schur)
        copies[id(g)] = g.kc.copy()

    monkeypatch.setattr(bddc, "coarse_basis", copying)
    return copies


def holding(groups, stacks) -> list:
    """Stand-ins for shape groups that hold their coarse matrices again, from
    the `coarse_stacks` copies: what the coarse assemblies read of a group.
    Each call gives fresh ones, since an assembly takes their kc."""
    return [SimpleNamespace(subs=g.subs, dofs=g.dofs, kc=stacks[id(g)]) for g in groups]


def grid_from_lists(coords, elements, **fields) -> LevelGrid:
    """A level grid from per-element node lists (stored CSR style)."""
    elem_ptr = np.cumsum([0] + [len(e) for e in elements])
    elem_nodes = np.concatenate([np.asarray(e, dtype=np.int64) for e in elements])
    return LevelGrid(n_nodes=coords.shape[0], node_coords=coords, elem_ptr=elem_ptr,
                     elem_nodes=elem_nodes, dofs_per_node=fields.pop("dofs_per_node", 1),
                     **fields)


def segments(ptr, values) -> list:
    """values[ptr[i]:ptr[i + 1]] for each i: the per-item arrays of an
    offsets + flat array pair (a coarse space's sub_ptr/sub_node, say)."""
    return [values[a:b] for a, b in zip(ptr[:-1], ptr[1:])]


def split_positions(splits, imap, i) -> tuple:
    """Subdomain i's level dofs, ascending, and the positions of its interior
    and of its interface dofs among them, from the level's LevelSplits
    offsets: (local dofs, interior positions, interface positions)."""
    interior = splits.interior_dofs[splits.interior_offsets[i]:splits.interior_offsets[i + 1]]
    iface = imap.dofs[splits.iface_index[splits.iface_offsets[i]:splits.iface_offsets[i + 1]]]
    local = np.union1d(interior, iface)
    return local, np.searchsorted(local, interior), np.searchsorted(local, iface)


def elements_of(grid: LevelGrid) -> list:
    """The grid's element node lists, one Python list per element."""
    return [nodes.tolist() for nodes in segments(grid.elem_ptr, grid.elem_nodes)]


def build_level1(spec: ProblemSpec, n_elems, n_subs, method="auto",
                 length=1.0) -> Level1:
    mesh = generate_box_mesh(spec.dim, n_elems, length=length)
    dofmap = build_dof_map(spec, mesh)
    grid = level_grid_from_mesh(mesh, spec, dofmap)
    part = partition_elements(grid, n_subs, method=method)
    k_global, f_global = assemble_global(spec, mesh)
    globset = classify_interface(grid, part)
    ifdofs = interface_dofs(globset, spec.dofs_per_node)
    k, keys = subassemble_subdomain(spec, mesh, dofmap, part, ifdofs)
    splits, imap = build_splits(k, keys, ifdofs, dofmap.n_free, part.n_subdomains)
    return Level1(spec=spec, mesh=mesh, dofmap=dofmap, grid=grid, part=part,
                  k_global=k_global, f_global=f_global, k=k, keys=keys,
                  globset=globset, splits=splits, imap=imap)


def level2_pseudomesh() -> LevelGrid:
    """Level-2 grid of a 3D hierarchy: the pseudo-mesh of 27 subdomains."""
    lv = build_level1(ProblemSpec(kind="poisson", dim=3), 6, 27, method="regular-blocks")
    return build_pseudomesh(lv.coarse_space(), lv.part)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    reps = []
    for key in ("passed", "failed"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(rep, "when", None) == "call":
                reps.append(rep)
    if not reps:
        return
    reps.sort(key=lambda r: r.nodeid)
    terminalreporter.write_sep("-", "acceptance criteria")
    for rep in reps:
        name = rep.nodeid.split("::")[-1]
        terminalreporter.write_line(
            f"{'PASS' if rep.passed else 'FAIL'}  {name}")
