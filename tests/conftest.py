"""Shared fixtures: the level-1 wiring used across module tests."""

from dataclasses import dataclass

import numpy as np

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
from mlbddc.partition import partition_elements
from mlbddc.substructuring import build_splits


@dataclass
class Level1:
    spec: object
    mesh: object
    dofmap: object
    grid: LevelGrid
    part: object
    k_global: object
    f_global: np.ndarray
    k_list: list
    ltg_list: list
    globset: object
    splits: list
    imap: object

    def weights(self, scheme="cardinality"):
        return build_weights(self.splits, scheme)

    def corners(self, strategy="default"):
        return select_corners(self.globset, self.grid, strategy)

    def coarse_space(self, policy="corners+edges+faces", strategy="default"):
        return build_coarse_space(self.globset, self.corners(strategy),
                                  self.grid, self.part, policy)


def build_level1(spec: ProblemSpec, n_elems, n_subs, axis_counts=None,
                 method="auto", length=1.0) -> Level1:
    mesh = generate_box_mesh(spec.dim, n_elems, length=length)
    dofmap = build_dof_map(spec, mesh)
    grid = level_grid_from_mesh(mesh, spec, dofmap)
    part = partition_elements(grid, n_subs, method=method, axis_counts=axis_counts)
    k_global, f_global = assemble_global(spec, mesh)
    k_list, ltg_list = [], []
    for s in range(n_subs):
        k_i, ltg = subassemble_subdomain(spec, mesh, dofmap, part.elements_of(s))
        k_list.append(k_i)
        ltg_list.append(ltg)
    globset = classify_interface(grid, part)
    ifdofs = interface_dofs(globset, spec.dofs_per_node)
    splits, imap = build_splits(k_list, ltg_list, ifdofs)
    return Level1(spec=spec, mesh=mesh, dofmap=dofmap, grid=grid, part=part,
                  k_global=k_global, f_global=f_global, k_list=k_list,
                  ltg_list=ltg_list, globset=globset, splits=splits, imap=imap)


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
