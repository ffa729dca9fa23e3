"""Spans around the public functions of each mlbddc module.

The tracer patches module attributes and class methods from outside the
package: every module that imported a function by name gets the wrapper,
so calls through any import path are recorded. Spans stay in memory, one
list per trace, and are written out by the caller when the benchmark ends.

Per-layer metrics are derived per trace (one `run_experiment` call):
`<layer>_s` is the inclusive time of that layer's spans, `<layer>_calls`
their count, and `*.self_s` a span's duration minus the part of its
interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute path, span name); attribute paths with a dot are methods
TARGETS = (
    ("fem", "generate_box_mesh", "fem.generate_box_mesh"),
    ("fem", "build_dof_map", "fem.build_dof_map"),
    ("fem", "assemble_global", "fem.assemble_global"),
    ("fem", "subassemble_subdomain", "fem.subassemble"),
    ("grid", "level_grid_from_mesh", "grid.level_grid"),
    ("partition", "partition_elements", "partition.partition"),
    ("partition", "build_pseudomesh", "partition.pseudomesh"),
    ("interface", "classify_interface", "interface.classify"),
    ("interface", "select_corners", "interface.corners"),
    ("interface", "build_coarse_space", "interface.coarse_space"),
    ("interface", "build_weights", "interface.weights"),
    ("substructuring", "build_splits", "substructuring.build_splits"),
    ("substructuring", "schur_apply", "substructuring.schur_apply"),
    ("substructuring", "condensed_rhs", "substructuring.condensed_rhs"),
    ("substructuring", "recover_interior", "substructuring.recover_interior"),
    ("bddc", "setup_bddc", "bddc.setup"),
    ("bddc", "build_constraints", "bddc.constraints"),
    ("bddc", "coarse_basis", "bddc.coarse_basis"),
    ("bddc", "subassemble_coarse", "bddc.subassemble_coarse"),
    ("bddc", "assemble_coarse", "bddc.assemble_coarse"),
    ("bddc", "interior_precorrection", "bddc.interior_precorrection"),
    ("bddc", "interior_postcorrection", "bddc.interior_postcorrection"),
    ("bddc", "MultilevelBddc.apply", "bddc.apply"),
    ("bddc", "SubdomainCoarse.constrained_solve", "bddc.constrained_solve"),
    ("sparse", "factorize", "sparse.factorize"),
    ("sparse", "Factorization.solve", "sparse.solve"),
    ("krylov", "pcg", "krylov.pcg"),
    ("krylov", "bicgstab", "krylov.bicgstab"),
)

PACKAGE = "mlbddc"
FACTOR_METHODS = ("cholesky", "bunch-kaufman", "splu")


@dataclass
class Span:
    name: str
    parent: int          # index into the span list, -1 at top level
    start: float
    end: float
    method: str | None = None   # factorization method, sparse.factorize only

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed. Each trace (one benchmark solve)
    keeps its own span list; parent indices point into that list."""

    def __init__(self):
        self.traces: list = []
        self._stack: list = []

    def begin_trace(self) -> list:
        self.traces.append([])
        self._stack = []
        return self.traces[-1]

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.traces[-1]
            span = Span(name, tracer._stack[-1] if tracer._stack else -1, 0.0, 0.0)
            idx = len(spans)
            spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if name == "sparse.factorize":
                span.method = out.method
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, so that calls
        outside it run the program unwrapped."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        undo = []
        try:
            for mod_name, attr, span_name in TARGETS:
                owner = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(orig, span_name))
                    continue
                orig = getattr(owner, attr)
                wrapped = self.wrap(orig, span_name)
                for mod in modules:
                    if getattr(mod, attr, None) is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
            yield self
        finally:
            for obj, attr, orig in reversed(undo):
                setattr(obj, attr, orig)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that children cover."""
    kids: dict = {}
    for i, s in enumerate(spans):
        kids.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        cov = covered((max(spans[c].start, s.start), min(spans[c].end, s.end))
                      for c in kids.get(i, ()))
        out.append(s.duration - cov)
    return out


# per-layer metric -> span names whose inclusive time it sums
INCLUSIVE = {
    "fem.assemble_global": ("fem.assemble_global",),
    "fem.subassemble": ("fem.subassemble",),
    "fem.build_dof_map": ("fem.build_dof_map",),
    "grid.level_grid": ("grid.level_grid",),
    "partition.partition": ("partition.partition",),
    "partition.pseudomesh": ("partition.pseudomesh",),
    "interface.classify": ("interface.classify",),
    "interface.corners": ("interface.corners",),
    "interface.coarse_space": ("interface.coarse_space", "interface.weights"),
    "substructuring.build_splits": ("substructuring.build_splits",),
    "substructuring.schur_apply": ("substructuring.schur_apply",),
    "substructuring.condense_recover": ("substructuring.condensed_rhs",
                                        "substructuring.recover_interior"),
    "bddc.constraints": ("bddc.constraints",),
    "bddc.coarse_basis": ("bddc.coarse_basis",),
    "bddc.coarse_assembly": ("bddc.subassemble_coarse", "bddc.assemble_coarse"),
    "bddc.apply": ("bddc.apply",),
    "sparse.factorize": ("sparse.factorize",),
    "sparse.solve": ("sparse.solve",),
}
COUNTED = ("fem.build_dof_map", "substructuring.schur_apply",
           "bddc.coarse_basis", "bddc.apply", "sparse.solve")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one trace (spans of a single run).

    No traced function calls itself, so inclusive sums never double-count
    a span within one metric.
    """
    self_t = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    out = {}
    for metric, names in INCLUSIVE.items():
        out[f"{metric}_s"] = sum(spans[i].duration
                                 for n in names for i in by_name.get(n, ()))
    for name in COUNTED:
        out[f"{name}_calls"] = len(by_name.get(name, ()))
    for m in FACTOR_METHODS:
        out[f"sparse.factorize_calls.{m}"] = sum(
            1 for i in by_name.get("sparse.factorize", ()) if spans[i].method == m)

    # split of the preconditioner apply by what it calls
    apply_ids = set(by_name.get("bddc.apply", ()))
    split = {"local_solve": 0.0, "interior_correction": 0.0, "top_solve": 0.0}
    for i, s in enumerate(spans):
        if not _under(spans, i, apply_ids):
            continue
        if s.name == "bddc.constrained_solve":
            split["local_solve"] += s.duration
        elif s.name in ("bddc.interior_precorrection", "bddc.interior_postcorrection"):
            split["interior_correction"] += s.duration
        elif s.name == "sparse.solve" and s.parent in apply_ids:
            split["top_solve"] += s.duration
    for k, v in split.items():
        out[f"bddc.apply.{k}_s"] = v
    out["bddc.apply.self_s"] = sum(self_t[i] for i in apply_ids)
    out["krylov.self_s"] = sum(self_t[i] for n in ("krylov.pcg", "krylov.bicgstab")
                               for i in by_name.get(n, ()))
    return out


def _under(spans, i: int, ancestors: set) -> bool:
    p = spans[i].parent
    while p >= 0:
        if p in ancestors:
            return True
        p = spans[p].parent
    return False


def top_level_coverage(spans) -> float:
    """Time covered by the spans that have no traced parent."""
    return covered((s.start, s.end) for s in spans if s.parent < 0)
