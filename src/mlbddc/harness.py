"""Experiment harness: run configuration, the solve pipeline, and the
delimited report writer.

A run configuration comes from an optional key=value file plus override
pairs (CLI flags win over the file, which wins over the defaults).
The hierarchy string "N1/N2/.../1" lists subdomain counts per level; the
final direct solve is the trailing 1 and may be omitted. Counts must
decrease strictly until they reach 1.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .bddc import MultilevelBddc, setup_bddc
from .errors import ConfigError, MlbddcError
from .fem import (
    ProblemSpec,
    assemble_global,
    build_dof_map,
    export_vtk,
    generate_box_mesh,
    subassemble_subdomain,
)
from .grid import level_grid_from_mesh
from .interface import (
    CONSTRAINT_POLICIES,
    CORNER_STRATEGIES,
    WEIGHT_SCHEMES,
    classify_interface,
    format_glob_table,
    select_corners,
)
from .krylov import SolveReport, bicgstab, pcg
from .partition import PARTITION_METHODS, partition_elements
from .substructuring import condensed_rhs, recover_interior, schur_apply

CSV_COLUMNS = ("levels", "subdomains", "n_dofs", "coarse_sizes",
               "condition_estimate", "iterations", "true_residual", "setup_seconds",
               "krylov_seconds", "converged", "error")

# columns that may differ between byte-identical reruns
TIMING_COLUMNS = ("setup_seconds", "krylov_seconds")


def parse_hierarchy(text: str) -> list:
    """Subdomain counts for levels 1..L-1 from a slash-joined string.

    "64/8/1" -> [64, 8]; "64" -> [64]; "1" -> [1] (direct solve).
    """
    parts = [p.strip() for p in str(text).split("/")]
    if not parts or any(not p for p in parts):
        raise ConfigError(f"malformed hierarchy {text!r}")
    try:
        entries = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"malformed hierarchy {text!r}: counts must be integers")
    if any(e < 1 for e in entries):
        raise ConfigError(f"hierarchy {text!r}: counts must be positive")
    if entries[-1] != 1:
        entries.append(1)
    for a, b in zip(entries, entries[1:]):
        if not (b < a or (a == 1 and b == 1)):
            raise ConfigError(
                f"hierarchy {text!r}: counts must decrease strictly until "
                f"they reach 1")
    counts = entries[:-1]
    return counts if counts else [1]


@dataclass
class RunConfig:
    """Everything one experiment needs. Field names double as config keys."""

    problem: str = "poisson"
    dim: int = 2
    elements: tuple = (8,)
    length: tuple = (1.0,)
    young: float = 1.0
    poisson_ratio: float = 0.3
    rhs: str = "constant"
    dirichlet_faces: tuple = ("all",)
    dirichlet_value: float = 0.0
    hierarchy: str = "4"
    partition: str = "auto"
    constraint_policy: str = "corners+edges+faces"
    corner_strategy: str = "default"
    weight_scheme: str = "cardinality"
    krylov: str = "pcg"
    tolerance: float = 1e-6
    max_iterations: int = 1000
    workers: int = 1              # accepted for compatibility; no effect

    def validate(self) -> "RunConfig":
        self.problem_spec()
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if not self.tolerance > 0:
            raise ConfigError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        nels, lens = self.elements_per_axis(), self.lengths_per_axis()
        if len(nels) != self.dim or any(n < 1 for n in nels):
            raise ConfigError(f"elements must be {self.dim} positive counts, got {nels}")
        if len(lens) != self.dim or not all(l > 0 for l in lens):
            raise ConfigError(f"length must be {self.dim} positive lengths, got {lens}")
        parse_hierarchy(self.hierarchy)
        return self

    def elements_per_axis(self) -> tuple:
        e = self.elements
        return e * self.dim if len(e) == 1 else e

    def lengths_per_axis(self) -> tuple:
        l = self.length
        return l * self.dim if len(l) == 1 else l

    def problem_spec(self) -> ProblemSpec:
        try:
            return ProblemSpec(kind=self.problem, dim=self.dim, young=self.young,
                               poisson_ratio=self.poisson_ratio, rhs_kind=self.rhs,
                               dirichlet_faces=self.dirichlet_faces,
                               dirichlet_value=self.dirichlet_value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_CHOICES = {"krylov": ("pcg", "bicgstab"), "constraint_policy": CONSTRAINT_POLICIES,
            "corner_strategy": CORNER_STRATEGIES, "weight_scheme": WEIGHT_SCHEMES,
            "partition": PARTITION_METHODS}


def _parser(default):
    """Parser of an option's text: its default's type, item by item in a comma list
    (blank items skipped) for a tuple default."""
    if isinstance(default, tuple):
        cast = type(default[0])
        return lambda v: tuple(cast(p.strip()) for p in v.split(",") if p.strip())
    return type(default)


_PARSERS = {f.name: _parser(f.default) for f in fields(RunConfig)}


def _parse_option(item: str, where: str = "") -> tuple:
    """(key, value) of one key=value item; `where` prefixes the errors."""
    if "=" not in item:
        raise ConfigError(f"{where}expected key = value, got {item!r}")
    key, value = (s.strip() for s in item.split("=", 1))
    if key not in _PARSERS:
        raise ConfigError(f"{where}unknown option {key!r}")
    try:
        return key, _PARSERS[key](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}bad value for {key}: {exc}") from exc


def config_lines(text: str) -> list:
    """(line number, content) of each line that holds more than a # comment."""
    lines = ((ln, raw.split("#", 1)[0].strip()) for ln, raw in enumerate(text.splitlines(), 1))
    return [(ln, line) for ln, line in lines if line]


def parse_config_text(text: str, origin: str = "<config>") -> dict:
    """key = value lines; # comments; unknown keys are errors."""
    return dict(_parse_option(line, f"{origin}:{ln}: ") for ln, line in config_lines(text))


def load_config(path=None, overrides=()) -> RunConfig:
    """Build a RunConfig from an optional file plus key=value override
    strings (later sources win)."""
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        values.update(parse_config_text(text, origin=str(path)))
    values.update(_parse_option(item) for item in overrides)
    return RunConfig(**values).validate()


@dataclass
class RunResult:
    """One experiment's outcome plus the pieces downstream consumers need."""

    config: RunConfig
    levels: int
    subdomain_counts: list
    n_dofs: int
    coarse_sizes: list
    report: SolveReport
    setup_seconds: float
    krylov_seconds: float
    solution: np.ndarray          # free-dof solution vector
    mesh: object = field(repr=False, default=None)
    spec: object = field(repr=False, default=None)
    dofmap: object = field(repr=False, default=None)
    preconditioner: MultilevelBddc | None = field(repr=False, default=None)
    error: str = ""               # why the run failed, "" if it ran

    def csv_row(self) -> dict:
        rep = self.report
        kappa, true = rep.condition_estimate, rep.true_residual
        return {
            "levels": str(self.levels),
            "subdomains": "/".join(str(c) for c in self.subdomain_counts),
            "n_dofs": str(self.n_dofs),
            "coarse_sizes": "/".join(str(s) for s in self.coarse_sizes),
            "condition_estimate": "" if kappa is None else f"{kappa:.6e}",
            "iterations": str(rep.iterations),
            "true_residual": "" if true is None else f"{true:.6e}",
            "setup_seconds": f"{self.setup_seconds:.3f}",
            "krylov_seconds": f"{self.krylov_seconds:.3f}",
            "converged": "true" if rep.converged else "false",
            "error": self.error,
        }


def _partitioned_mesh(config: RunConfig):
    """Validate the config, build its mesh, dof map and level grid, and
    partition the first level. Returns (counts, spec, mesh, dofmap, grid,
    partition)."""
    config.validate()
    counts = parse_hierarchy(config.hierarchy)
    spec = config.problem_spec()
    mesh = generate_box_mesh(config.dim, config.elements_per_axis(),
                             config.lengths_per_axis())
    try:
        dofmap = build_dof_map(spec, mesh)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = level_grid_from_mesh(mesh, spec, dofmap)
    part = partition_elements(grid, counts[0], method=config.partition)
    return counts, spec, mesh, dofmap, grid, part


def run_experiment(config: RunConfig) -> RunResult:
    """Assemble, build the preconditioner, solve, recover. The clock splits
    at the end of setup: condensation, iteration, and interior recovery all
    count as Krylov time."""
    t0 = time.perf_counter()
    counts, spec, mesh, dofmap, grid, part = _partitioned_mesh(config)
    f = assemble_global(spec, mesh)[1]
    prec = setup_bddc(grid, part, partial(subassemble_subdomain, spec, mesh, dofmap, part),
                      counts[1:], constraint_policy=config.constraint_policy,
                      corner_strategy=config.corner_strategy,
                      weight_scheme=config.weight_scheme)
    t1 = time.perf_counter()

    level1 = prec.levels[0]
    splits, imap = level1.splits, level1.imap
    g = condensed_rhs(splits, imap, f)
    if imap.n == 0:
        # one subdomain: the interior solve already is the direct solution;
        # reported as a single unit-condition iteration
        u_hat = np.zeros(0)
        report = SolveReport(converged=True, iterations=1, relative_residuals=[0.0],
                             condition_estimate=1.0, true_residual=0.0)
    else:
        def apply_s(x):
            return schur_apply(splits, imap, x)

        solver = pcg if config.krylov == "pcg" else bicgstab
        u_hat, report = solver(apply_s, g, apply_m=prec.apply, tol=config.tolerance,
                               max_iterations=config.max_iterations)
    x = recover_interior(splits, imap, u_hat, f, dofmap.n_free)
    t2 = time.perf_counter()

    return RunResult(config=config, levels=prec.n_levels,
                     subdomain_counts=[lv.partition.n_subdomains for lv in prec.levels],
                     n_dofs=dofmap.n_free, coarse_sizes=prec.coarse_sizes(), report=report,
                     setup_seconds=t1 - t0, krylov_seconds=t2 - t1,
                     solution=x, mesh=mesh, spec=spec, dofmap=dofmap,
                     preconditioner=prec)


def run_configs(configs) -> list:
    """Run each configuration in order, one report row each. All configs
    are validated up front; a runtime failure marks its row converged=false,
    names the error in its error column, and the sweep continues."""
    configs = list(configs)
    if not configs:
        raise ConfigError("sweep needs at least one configuration")
    for cfg in configs:
        cfg.validate()
    results = []
    for cfg in configs:
        try:
            results.append(run_experiment(cfg))
        except MlbddcError as exc:
            counts = parse_hierarchy(cfg.hierarchy)
            results.append(RunResult(
                config=cfg, levels=len(counts) + 1, subdomain_counts=counts,
                n_dofs=0, coarse_sizes=[],
                report=SolveReport(converged=False, iterations=0),
                setup_seconds=0.0, krylov_seconds=0.0, solution=np.zeros(0),
                error=f"{type(exc).__name__}: {exc}"))
    return results


def run_sweep(config: RunConfig, hierarchies) -> list:
    """Run one experiment per hierarchy string, in order."""
    hierarchies = list(hierarchies)
    if not hierarchies:
        raise ConfigError("sweep needs at least one hierarchy")
    return run_configs(replace(config, hierarchy=str(h)) for h in hierarchies)


def format_report(results) -> str:
    """CSV text: header plus one row per experiment, quoted where needed."""
    out = io.StringIO()
    writer = csv.DictWriter(out, CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(res.csv_row() for res in results)
    return out.getvalue()


def write_report(results, path=None) -> str:
    text = format_report(results)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def analyze_globs(config: RunConfig) -> str:
    """Classification report for the level-1 interface of a configuration."""
    _, _, _, _, grid, part = _partitioned_mesh(config)
    globset = classify_interface(grid, part)
    corners = select_corners(globset, grid, config.corner_strategy)
    lines = [format_glob_table(globset),
             f"corners ({config.corner_strategy}): {corners.size}"]
    return "\n".join(lines) + "\n"


def export_solution_vtk(config: RunConfig, path) -> RunResult:
    """Solve and write the full-mesh solution as a legacy VTK file."""
    result = run_experiment(config)
    full = result.dofmap.expand(result.solution)
    name = "solution" if result.spec.kind == "poisson" else "displacement"
    export_vtk(result.mesh, {name: full}, path)
    return result
