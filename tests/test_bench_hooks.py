"""The hooks the benchmark reaches into the package by.

bench/tracing.py patches module functions and class methods by name, and
bench/census.py reads the preconditioner's attributes. Both are loaded
read-only from the bench directory, so a renamed or deleted hook fails
here and not only in the benchmark's own self-tests. The setup kernels the
benchmark times are guarded here too, so a silent return to a slower path
fails tier-1 as well.
"""

import importlib
import importlib.util
import logging
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg.lapack import dpotrf

from mlbddc import bddc, load_config, run_experiment
from mlbddc.fem import ProblemSpec, assemble_global, generate_box_mesh
from mlbddc.sparse import factorize
from mlbddc.substructuring import build_splits

BENCH = Path(__file__).resolve().parents[1] / "bench"
THREE_LEVEL = ["problem=elasticity", "dim=3", "elements=6", "hierarchy=27/8"]
CORNERS_2D = ["problem=poisson", "dim=2", "elements=32", "hierarchy=16/4",
              "constraint_policy=corners-only"]
CORNERS_3D = ["problem=poisson", "dim=3", "elements=8", "hierarchy=64/8",
              "constraint_policy=corners-only"]


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    tracing = load_bench("tracing")
    missing = []
    for mod_name, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_interior_corrections_are_traced_under_apply():
    # the coarse levels' corrections must be called by their hook names
    tracing = load_bench("tracing")
    tracer = tracing.Tracer()
    with tracer.installed():
        spans = tracer.begin_trace()
        run_experiment(load_config(overrides=THREE_LEVEL))
    names = {s.name for s in spans}
    assert {"bddc.interior_precorrection", "bddc.interior_postcorrection"} <= names
    metrics = tracing.layer_metrics(spans)
    assert metrics["bddc.apply.interior_correction_s"] > 0.0


def test_setup_log_counts_coarse_dofs_as_the_census_does(caplog):
    # each level's DEBUG record gives its coarse dofs by kind, taken from
    # the coarse space; the census counts the same from the subdomains'
    # constraint tags
    census = load_bench("census")
    with caplog.at_level(logging.DEBUG, logger="mlbddc"):
        prec = run_experiment(load_config(overrides=THREE_LEVEL)).preconditioner
    records = [r.getMessage() for r in caplog.records if r.name == "mlbddc"]
    counts = census.census(prec)
    assert len(records) == prec.n_levels == 3
    for n, message in enumerate(records[:-1], start=1):
        logged = re.search(r"coarse dofs \(corner, edge, face\) \((\d+), (\d+), (\d+)\)",
                           message).groups()
        assert [int(c) for c in logged] == [
            counts[f"interface.L{n}.constraints.{kind}"] for kind in census.CONSTRAINT_KINDS]
    # every kind is counted somewhere
    assert counts["interface.L1.constraints.edge"] > 0 < counts["interface.L2.constraints.face"]


def test_census_runs_on_three_levels():
    census = load_bench("census")
    prec = run_experiment(load_config(overrides=THREE_LEVEL)).preconditioner
    assert prec.n_levels == 3
    counts = census.census(prec)
    assert counts["bddc.L1.coarse_dofs"] > counts["bddc.L2.coarse_dofs"] > 0
    assert counts["bddc.L3.coarse_dofs"] == 0
    assert counts["interface.L1.constraints.corner"] > 0
    assert counts["interface.L1.constraints.edge"] > 0
    facts = census.factorizations(prec)
    assert {(level, role) for level, role, *_ in facts} == {
        (1, "k_ii"), (1, "bordered"), (2, "k_ii"), (2, "bordered"), (3, "top")}
    # the bordered records now hold each member's SPD constrained problem A
    assert all(method in (("cholesky", "empty") if role == "bordered" else
                          census.ROLE_METHODS[role]) for _, role, _, method, *_ in facts)
    assert "cholesky" in {method for _, role, _, method, *_ in facts if role == "bordered"}
    # every level's stacked K_II and the top matrix fit the band budget, so
    # a fall back to SuperLU fails here and not only in the benchmark
    assert [lv.splits.k_ii_fact.method for lv in prec.levels] == ["cholesky"] * 2
    assert prec.top.method == "cholesky"


def test_setup_takes_the_level_factor_and_reduced_cholesky(monkeypatch):
    # at the default budget every level's stacked K_II is a band factor, so
    # _local_schur factorizes no member (the one factorize call of setup is
    # the top matrix), and each member's constrained problem goes to potrf
    # at order n_B - n_c, every constraint having eliminated a dof: a return
    # to per-member factors or to a bordered matrix fails here and not only
    # in the benchmark
    orders, potrf = [], []

    def counted_factorize(a, *args, **kwargs):
        orders.append(a.shape[0])
        return factorize(a, *args, **kwargs)

    def recorded_dpotrf(a, **kwargs):
        potrf.append(a.shape[0])
        return dpotrf(a, **kwargs)

    monkeypatch.setattr(bddc, "factorize", counted_factorize)
    monkeypatch.setattr(bddc, "dpotrf", recorded_dpotrf)
    prec = run_experiment(load_config(overrides=THREE_LEVEL)).preconditioner
    assert orders == [prec.top.n]
    shapes = [(g.order.shape[1], g.u.shape[2]) for lv in prec.levels for g in lv.groups
              for _ in g.subs]
    assert potrf == [nb - nc for nb, nc in shapes if nb > nc] and potrf
    assert not [name for name in vars(bddc) if name.startswith("dsytr")]


def test_groups_store_only_the_reduced_operators():
    # N = [I; G] and X have one nonzero per column, so each shape group
    # keeps them as index stacks (and X's weights, one per row), and the
    # only matrices it stores per member are A^-1 (n_k x n_k, n_k = n_B -
    # n_c) and U = A^-1 V (n_k x n_c): neither the free-dof solve operator
    # (n_f x n_f) nor the basis psi (n_B x n_c) is stored, and the coarse
    # matrices went to the next level's assembly, so a return to any of
    # these stacks fails here and not only in the benchmark's memory figures
    prec = run_experiment(load_config(overrides=THREE_LEVEL)).preconditioner
    averaged = 0
    for lv in prec.levels:
        for g in lv.groups:
            (m, nb), nc = g.order.shape, g.tags.shape[1]
            nk = nb - nc
            size = np.bincount(g.row[0][g.row[0] >= 0], minlength=nc)
            nf = nb - np.count_nonzero((g.tags[0] == "corner") & (size == 1))
            arrays = {name: a for name, a in vars(g).items() if isinstance(a, np.ndarray)}
            stacks = {name: a.shape for name, a in arrays.items()
                      if a.dtype.kind == "f" and a.ndim == 3}
            assert stacks == {"ainv": (m, nk, nk), "u": (m, nk, nc)} and g.kc is None
            # X's weights, and N's and X's nonzeros times the level weights
            assert [name for name, a in arrays.items() if a.dtype.kind == "f" and a.ndim < 3] \
                == ["w", "kept_w", *([] if g.master is None else ["master_w"]), "own_w"]
            shapes = {a.shape for a in arrays.values()}
            # a kept dof has a master, not the sentinel, exactly where a row
            # covers it; a group where none does keeps no master stack
            covered = g.row[:, :nk] >= 0
            assert (g.master is None) == (g.master_w is None) == (not covered.any())
            assert g.master is None or np.array_equal(g.master < lv.imap.n, covered)
            assert nf == nk or (m, nf, nf) not in shapes
            assert nk == 0 or nc == 0 or (m, nb, nc) not in shapes
            averaged += nf > nk
    assert averaged


def reachable_bytes(*roots) -> int:
    """Bytes of the arrays reachable from roots through instance fields and
    containers (scipy matrices are walked as their fields), never through
    properties, so nothing is formed on the way; each base buffer once."""
    seen, bases, todo = set(), {}, list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj.nbytes
            continue
        if isinstance(obj, dict):
            todo += obj.values()
        elif isinstance(obj, (list, tuple)):
            todo += obj
        if hasattr(obj, "__dict__"):            # a list subclass has fields too
            todo += vars(obj).values()
    return sum(bases.values())


def csr_arrays(m) -> list:
    return [m.data, m.indices, m.indptr]


@pytest.mark.parametrize("overrides", [THREE_LEVEL, CORNERS_2D], ids=["elasticity3d", "poisson2d"])
def test_preconditioner_holds_only_what_it_keeps(overrides):
    # the bytes reachable from a built preconditioner are those of what it
    # keeps, named here: per level the shape groups' stacks and index maps,
    # the splits (K_IG, K_BB's lower triangle, level 1's K_GG, the band K_II
    # factor, its inverse stacks and its CSR, the stacked index arrays), the
    # level's arrays (weights, coarse dofs, scatter positions, interface map,
    # coarse space, partition) and its grid; then the top factor and its
    # CSR. The margin, 1% of that, is for
    # arrays not named here. State that setup keeps per member fails here
    # and not only in the benchmark's peak memory: the records of A with one
    # object per member came to 2.8% and 14.9% of the kept bytes of these
    # two configs
    prec = run_experiment(load_config(overrides=overrides)).preconditioner
    top = prec.top
    kept = [top._payload, top.offsets, *csr_arrays(top.matrix.scipy_csr())]
    for lv in prec.levels:
        sp, fact, cs, grid = lv.splits, lv.splits.k_ii_fact, lv.coarse, lv.grid
        kept += [a for g in lv.groups for a in vars(g).values() if isinstance(a, np.ndarray)]
        kept += csr_arrays(sp.k_ig) + csr_arrays(sp.k_bb) + csr_arrays(fact.matrix.scipy_csr())
        kept += [] if sp.k_gg is None else csr_arrays(sp.k_gg)
        kept += [a for stack in fact._stacks or () for a in stack if isinstance(a, np.ndarray)]
        kept += [fact._payload, fact.offsets, sp.interior_dofs, sp.iface_index,
                 sp.interior_offsets, sp.iface_offsets, lv.weights, lv.coarse_dofs, lv.scatter,
                 lv.imap.dofs, lv.partition.assignment, cs.node_coarse, cs.kinds,
                 cs.node_coords, cs.sub_ptr, cs.sub_node,
                 grid.node_coords, grid.elem_ptr, grid.elem_nodes, grid.conn_nodes]
    kept, total = reachable_bytes(kept), reachable_bytes(prec)
    assert kept <= total <= 1.01 * kept, (total, kept)


def test_elasticity_element_sort_runs_over_node_pairs(monkeypatch):
    # a Q1 hexahedron couples 8 nodes of 3 dofs: the element sum's counting
    # sorts see 8 * 8 node pairs per element, not 24 * 24 dof pairs, so a
    # return to sorting dof pairs fails here and not only in the benchmark
    sorted_entries = []
    real = scipy.sparse.csr_matrix.tocsc

    def counted_tocsc(self, *args, **kwargs):
        sorted_entries.append(self.nnz)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csr_matrix, "tocsc", counted_tocsc)
    mesh = generate_box_mesh(3, 4)
    assemble_global(ProblemSpec(kind="elasticity", dim=3), mesh)
    assert sorted_entries == [mesh.n_elems * 8 * 8]


@pytest.mark.parametrize("overrides", [THREE_LEVEL, CORNERS_3D],
                         ids=["elasticity3d", "poisson3d-corners"])
def test_split_holds_no_level_sized_temporaries(monkeypatch, overrides):
    # each level's K arrives in split order, so build_splits cuts K_II, K_IB
    # and K_BB as contiguous slices and writes the band factor in place: the
    # peak of what it allocates stays within 1.5x of what it returns (the
    # three CSR blocks and the band factor). Copying a K-sized row block
    # before selecting columns, or building the band from nnz-length int64
    # index arrays, came to 2.1-2.5x on these configs, so a return to either
    # fails here and not only in the benchmark's peak memory
    ratios = []

    def traced_build_splits(*args, **kwargs):
        tracemalloc.start()
        try:
            splits, imap = build_splits(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fact = splits.k_ii_fact
        out = sum(a.nbytes for m in (splits.k_ig, splits.k_bb, splits.k_gg,
                                     fact.matrix.scipy_csr()) if m is not None
                  for a in csr_arrays(m)) + fact._payload.nbytes
        ratios.append(peak / out)
        return splits, imap

    monkeypatch.setattr(bddc, "build_splits", traced_build_splits)
    assert run_experiment(load_config(overrides=overrides)).levels == 3
    assert len(ratios) == 2 and max(ratios) <= 1.5, ratios
