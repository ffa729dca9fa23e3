"""Interface reduction: Schur products, condensed rhs, interior recovery.

The two-spring chain is worked out by hand: K = tridiag(-1, [2,?,2], -1)
split at the middle dof gives S = 1 and g = 2 for a unit load.

A level applies S in the form it holds. `build_splits` gives level 1 the
sparse form (K_GG); `setup_bddc` switches it to the dense form (S stacks)
where `bddc.schur_form` says so. `dense_form` switches a split by hand,
with each subdomain's S_i formed densely from the split's blocks, so that
both forms are checked on the same split.
"""

import json
import threading

import numpy as np
import pytest
import scipy.sparse

from conftest import build_level1, canonical
from mlbddc import bddc, load_config, run_experiment
from mlbddc.bddc import setup_bddc
from mlbddc.fem import ProblemSpec
from mlbddc.partition import _block_axis_counts
from mlbddc.substructuring import (
    build_splits,
    condensed_rhs,
    recover_interior,
    schur_apply,
    subdomain_keys,
)
from test_bench_hooks import BENCH, CORNERS_2D, CORNERS_3D, THREE_LEVEL


def stacked(blocks, dof_lists, n_dofs, iface_dofs):
    """Block-diagonal matrix of the given subdomain matrices (subdomain i
    over level dofs dof_lists[i]) and its keys from subdomain_keys, rows
    and columns permuted to ascending keys: the split order of a level's
    subassembly, interior dofs before interface dofs."""
    keys = np.concatenate([subdomain_keys(i, d, n_dofs, len(dof_lists), iface_dofs)
                           for i, d in enumerate(dof_lists)])
    order = np.argsort(keys)
    k = scipy.sparse.block_diag(blocks, format="csr")[order][:, order]
    return canonical(k, symmetric=True), keys[order]


def chain_splits(interface_matrix=True):
    k, keys = stacked([[[2.0, -1.0], [-1.0, 1.0]], [[1.0, -1.0], [-1.0, 2.0]]],
                      [[0, 1], [1, 2]], 3, [1])
    return build_splits(k, keys, np.array([1]), 3, 2, interface_matrix)


def setup_splits(lv):
    """Level 1's splits and interface map as `setup_bddc` leaves them, in
    whichever Schur form they hold."""
    level = setup_bddc(lv.grid, lv.part, lambda iface: (lv.k, lv.keys)).levels[0]
    return level.splits, level.imap


def dense_form(splits):
    """Switch `splits` to the dense Schur form, one (1, n_B, n_B) stack per
    subdomain (empty ones too), each S_i = K_BB,i - K_IB,i^T K_II,i^-1 K_IB,i
    formed densely from the split's blocks (K_IB,i is K_IG's rows of the
    subdomain at its global positions)."""
    low = splits.k_bb.toarray()
    k_bb = low + low.T - np.diag(low.diagonal())
    k_ii, k_ig = splits.k_ii_fact.matrix.scipy_csr().toarray(), splits.k_ig.toarray()
    stacks = []
    for i0, i1, b0, b1 in zip(splits.interior_offsets[:-1], splits.interior_offsets[1:],
                              splits.iface_offsets[:-1], splits.iface_offsets[1:]):
        pos = splits.iface_index[b0:b1]
        k_ib = k_ig[i0:i1][:, pos]
        s = k_bb[b0:b1, b0:b1] - k_ib.T @ np.linalg.solve(k_ii[i0:i1, i0:i1], k_ib)
        stacks.append((pos[None], s[None]))
    splits.keep_dense(stacks)
    assert splits.form == "dense" and splits.k_gg is None


def test_chain_schur():
    # the chain's blocks give S = 1, in either form. Its subdomains' S_i,
    # 1 x 1 each, hold 2 entries against the sparse product's 8 (K_BB 2,
    # K_IG twice 4, the two 1 x 1 interior inverses 2), so setup would
    # switch it to the dense form
    splits, imap = chain_splits()
    assert imap.n == 1 and splits.form == "sparse"
    assert schur_apply(splits, imap, np.array([1.0])) == pytest.approx([1.0], abs=1e-15)
    assert bddc.schur_form(splits) == ("dense", (2, 8))
    dense_form(splits)
    assert schur_apply(splits, imap, np.array([1.0])) == pytest.approx([1.0], abs=1e-15)


def test_chain_condensed_rhs_and_recovery():
    splits, imap = chain_splits()
    f = np.ones(3)
    g = condensed_rhs(splits, imap, f)
    assert g == pytest.approx([2.0], abs=1e-15)
    u_hat = g / 1.0
    x = recover_interior(splits, imap, u_hat, f, n_dofs=3)
    k = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.allclose(x, np.linalg.solve(k, f), atol=1e-14)
    assert x == pytest.approx([1.5, 2.0, 1.5], abs=1e-14)


@pytest.mark.parametrize("n", [0, 2])
def test_recovery_rejects_interface_vector_of_wrong_length(n):
    splits, imap = chain_splits()
    with pytest.raises(ValueError, match="interface vector has length"):
        recover_interior(splits, imap, np.ones(n), np.ones(3), n_dofs=3)


def dense_schur_parts(lv):
    """Block elimination of the assembled operator: the reference S and g."""
    kd = lv.k_global.scipy_csr().toarray()
    iface = lv.imap.dofs
    interior = np.setdiff1d(np.arange(kd.shape[0]), iface)
    kbb = kd[np.ix_(iface, iface)]
    kii = kd[np.ix_(interior, interior)]
    kib = kd[np.ix_(interior, iface)]
    s_dense = kbb - kib.T @ np.linalg.solve(kii, kib)
    g_dense = lv.f_global[iface] - kib.T @ np.linalg.solve(kii, lv.f_global[interior])
    return s_dense, g_dense, interior


FIXTURES = [
    (ProblemSpec(kind="poisson", dim=2), 8, 4, (2, 2)),
    (ProblemSpec(kind="elasticity", dim=2), 6, 4, (2, 2)),
    (ProblemSpec(kind="poisson", dim=3), 4, 2, (1, 1, 2)),
]


@pytest.mark.parametrize("spec,n,subs,axes", FIXTURES)
def test_schur_matches_block_elimination(spec, n, subs, axes):
    lv = build_level1(spec, n, subs, method="regular-blocks")
    assert _block_axis_counts(lv.grid.structured_shape, subs) == axes
    s_dense, g_dense, _ = dense_schur_parts(lv)
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = rng.standard_normal(lv.imap.n)
        y = schur_apply(lv.splits, lv.imap, x)
        assert np.max(np.abs(y - s_dense @ x)) < 1e-9
    g = condensed_rhs(lv.splits, lv.imap, lv.f_global)
    assert np.max(np.abs(g - g_dense)) < 1e-9


# setup gives the first four the dense Schur form, the last two the sparse one
OPERATOR_FIXTURES = [(spec, n, subs) for spec, n, subs, _ in FIXTURES] + [
    (ProblemSpec(kind="elasticity", dim=3), 4, 2), (ProblemSpec(kind="poisson", dim=3), 6, 8),
    (ProblemSpec(kind="elasticity", dim=3), 6, 8)]


def test_operator_fixtures_take_both_schur_forms():
    forms = [bddc.schur_form(build_level1(spec, n, subs, method="regular-blocks").splits)[0]
             for spec, n, subs in OPERATOR_FIXTURES]
    assert forms == ["dense"] * 4 + ["sparse"] * 2


@pytest.mark.parametrize("spec,n,subs", OPERATOR_FIXTURES)
def test_interface_matrix_is_the_assembled_interface_block(spec, n, subs):
    # K_GG = sum_i R_i^T K_BB,i R_i, summed from the subdomain copies, is
    # the interface block of the assembled operator, canonical and bitwise
    # symmetric
    lv = build_level1(spec, n, subs, method="regular-blocks")
    k_gg = lv.splits.k_gg
    ref = lv.k_global.scipy_csr()[lv.imap.dofs][:, lv.imap.dofs].toarray()
    assert k_gg.has_canonical_format and (k_gg != k_gg.T).nnz == 0
    assert np.abs(k_gg.toarray() - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("spec,n,subs", OPERATOR_FIXTURES)
def test_schur_apply_matches_the_stacked_blocks(spec, n, subs):
    # the oracle is formed densely from the level's block-diagonal matrix in
    # split order: S = R^T (K_BB - K_IB^T K_II^-1 K_IB) R. The splits hold
    # K_IG = K_IB R and K_BB's lower triangle exactly. S is applied in the
    # sparse form the split holds, and in the form setup leaves the level in
    lv = build_level1(spec, n, subs, method="regular-blocks")
    sp, kd = lv.splits, lv.k.scipy_csr().toarray()
    n_i = sp.interior_dofs.size
    r = np.eye(lv.imap.n)[sp.iface_index]
    k_ii, k_ib, k_bb = kd[:n_i, :n_i], kd[:n_i, n_i:], kd[n_i:, n_i:]
    assert np.array_equal(sp.k_ig.toarray(), k_ib @ r)
    assert np.array_equal(sp.k_bb.toarray(), np.tril(k_bb))
    s = r.T @ (k_bb - k_ib.T @ np.linalg.solve(k_ii, k_ib)) @ r
    x = np.random.default_rng(9).standard_normal((lv.imap.n, 3))
    built, imap = setup_splits(lv)
    assert sp.form == "sparse" and built.form == bddc.schur_form(sp)[0]
    for col in x.T:
        for y in (schur_apply(sp, lv.imap, col), schur_apply(built, imap, col)):
            assert np.linalg.norm(y - s @ col) <= 1e-12 * np.linalg.norm(s @ col)


def test_coarse_level_splits_hold_no_interface_matrix():
    # only the level whose Schur operator is applied holds a Schur form
    splits, imap = chain_splits(interface_matrix=False)
    assert splits.form is None and splits.k_gg is None and splits.s_stacks is None
    # its condensation and recovery still read K_IG
    assert condensed_rhs(splits, imap, np.ones(3)) == pytest.approx([2.0], abs=1e-15)
    with pytest.raises(ValueError, match="no Schur operator"):
        schur_apply(splits, imap, np.array([1.0]))


class LevelOneSplit(Exception):
    """Carries level 1's splits out of a run, which ends there."""


# the rule's counts (sum n_B,i^2, entries of one sparse product) of level 1
# of each benchmark workload and of three tier-1 configurations
SCHUR_ENTRIES = {"p2d-256": (930364, 2090340), "e3d-24": (11448216, 3951576),
                 "p3d-32-deep": (3438728, 934200), "THREE_LEVEL": (38286, 27891),
                 "CORNERS_2D": (9228, 17172), "CORNERS_3D": (15640, 7048)}


def test_each_configuration_takes_the_schur_form_its_sizes_give(monkeypatch):
    # setup gives level 1 the dense form exactly when its subdomains' S_i
    # hold no more entries than one sparse product reads: the full K_BB,
    # K_IG twice, and what one K_II solve reads (the band twice, or the
    # inverse stacks once). The 2D runs, with wide interior bands, take it;
    # the 3D runs, whose interfaces are large next to their interiors, keep
    # K_GG. Each run ends at its level-1 split, which holds K_GG
    def first_split(*args, **kwargs):
        raise LevelOneSplit(build_splits(*args, **kwargs)[0])

    monkeypatch.setattr(bddc, "build_splits", first_split)
    workloads = json.loads((BENCH / "workloads.json").read_text())
    configs = {name: [f"{k}={v}" for k, v in w["config"].items()]
               for name, w in workloads.items()}
    configs.update(THREE_LEVEL=THREE_LEVEL, CORNERS_2D=CORNERS_2D, CORNERS_3D=CORNERS_3D)
    entries, forms = {}, {}
    for name, overrides in configs.items():
        with pytest.raises(LevelOneSplit) as caught:
            run_experiment(load_config(overrides=overrides))
        sp = caught.value.args[0]
        fact, n_b = sp.k_ii_fact, np.diff(sp.iface_offsets)
        n_i = np.diff(sp.interior_offsets)
        solve = (int(n_i @ n_i) if 2 * fact.kd + 1 >= n_i.max() else 2 * (fact.kd + 1) * fact.n)
        sparse = 2 * sp.k_bb.nnz - sp.k_bb.shape[0] + 2 * sp.k_ig.nnz + solve
        assert sp.form == "sparse", name
        forms[name], entries[name] = bddc.schur_form(sp)
        assert entries[name] == (int(n_b @ n_b), sparse), name
    assert entries == SCHUR_ENTRIES
    assert forms == {"p2d-256": "dense", "e3d-24": "sparse", "p3d-32-deep": "sparse",
                     "THREE_LEVEL": "sparse", "CORNERS_2D": "dense", "CORNERS_3D": "sparse"}


@pytest.mark.parametrize("overrides,form", [(CORNERS_2D, "dense"), (THREE_LEVEL, "sparse")],
                         ids=["dense", "sparse"])
def test_built_level_applies_the_dense_elimination(overrides, form):
    # level 1 of a full setup, in either form, applies S = R^T (K_BB -
    # K_IB^T K_II^-1 K_IB) R formed densely from the blocks its split keeps
    # (K_BB's lower triangle mirrored, K_IG = K_IB R, the CSR of K_II); the
    # dense form holds each group's stacks of exactly symmetric S_i, with
    # global positions, and no K_GG
    level = run_experiment(load_config(overrides=overrides)).preconditioner.levels[0]
    sp, n = level.splits, level.imap.n
    assert sp.form == form
    assert (sp.k_gg is None) == (sp.s_stacks is not None) == (form == "dense")
    for pos, s in sp.s_stacks or ():
        assert np.array_equal(s, s.transpose(0, 2, 1)) and pos.shape == s.shape[:2]
    low = sp.k_bb.toarray()
    r = np.eye(n)[sp.iface_index]
    k_ig = sp.k_ig.toarray()
    k_ii = sp.k_ii_fact.matrix.scipy_csr().toarray()
    s = r.T @ (low + low.T - np.diag(low.diagonal())) @ r - k_ig.T @ np.linalg.solve(k_ii, k_ig)
    got = np.column_stack([schur_apply(sp, level.imap, e) for e in np.eye(n)])
    assert np.abs(got - s).max() <= 1e-12 * np.abs(s).max()


def test_recovery_matches_full_solve():
    lv = build_level1(ProblemSpec(kind="poisson", dim=2), 8, 4, method="regular-blocks")
    s_dense, g_dense, _ = dense_schur_parts(lv)
    u_hat = np.linalg.solve(s_dense, g_dense)
    x = recover_interior(lv.splits, lv.imap, u_hat, lv.f_global,
                         n_dofs=lv.k_global.shape[0])
    x_ref = np.linalg.solve(lv.k_global.scipy_csr().toarray(), lv.f_global)
    assert np.max(np.abs(x - x_ref)) < 1e-10


def test_empty_interface_is_direct_solve():
    lv = build_level1(ProblemSpec(kind="poisson", dim=2), 4, 1)
    assert lv.imap.n == 0
    x = recover_interior(lv.splits, lv.imap, np.zeros(0), lv.f_global,
                         n_dofs=lv.k_global.shape[0])
    x_ref = np.linalg.solve(lv.k_global.scipy_csr().toarray(), lv.f_global)
    assert np.max(np.abs(x - x_ref)) < 1e-12
    assert schur_apply(lv.splits, lv.imap, np.zeros(0)).shape == (0,)


def test_workers_key_starts_no_threads(monkeypatch):
    # the solver is single-threaded: the workers key is accepted and ignored
    from mlbddc.harness import RunConfig, run_experiment
    started = []
    start = threading.Thread.start

    def record(self):
        started.append(self.name)
        start(self)

    runs = [run_experiment(RunConfig(elements=(16,), hierarchy="16/4", workers=1))]
    monkeypatch.setattr(threading.Thread, "start", record)
    runs.append(run_experiment(RunConfig(elements=(16,), hierarchy="16/4", workers=4)))
    assert started == []
    assert np.array_equal(runs[0].solution, runs[1].solution)
    assert runs[0].report.relative_residuals == runs[1].report.relative_residuals


def test_split_errors():
    k, keys = stacked([[[1.0]]], [[0]], 3, [])
    with pytest.raises(ValueError, match="sorted"):
        build_splits(k, keys, np.array([2, 1]), 3, 1)
    with pytest.raises(ValueError, match="key count"):
        build_splits(k, np.array([0, 1]), np.zeros(0, dtype=int), 3, 1)
    k, keys = stacked([[[1.0]], [[1.0]]], [[0], [0]], 3, [])
    with pytest.raises(ValueError, match="more than one"):
        build_splits(k, keys, np.zeros(0, dtype=int), 3, 2)
    splits, imap = chain_splits()
    with pytest.raises(ValueError, match="length"):
        schur_apply(splits, imap, np.zeros(3))


def test_split_rejects_keys_that_are_not_interface_last():
    # the chain's keys in subdomain-major order (subdomain * n_dofs + dof),
    # with an interface flag that disagrees with the interface dofs, out of
    # order, and past the last block: each is refused with the layout named
    k, keys = stacked([[[2.0, -1.0], [-1.0, 1.0]], [[1.0, -1.0], [-1.0, 2.0]]],
                      [[0, 1], [1, 2]], 3, [1])
    assert keys.tolist() == [0, 5, 3 * 2 + 1, 3 * 3 + 1]
    for bad, iface in (([0, 1, 3 + 1, 3 + 2], [1]), (keys, [2]), (keys[::-1], [1]),
                       (keys + 3 * 4, [1])):
        with pytest.raises(ValueError, match="not interface-last"):
            build_splits(k, np.array(bad), np.array(iface), 3, 2)


# level dofs 0..6 over four subdomains, some owning interface dofs only and
# some no dof at all, as coarse levels can have
EDGE_LEVELS = {"no-interior": [[0, 1, 2, 3], [2, 4], [], [4, 5, 6]],
               "no-dof": [[0, 1, 2, 3], [], [2, 4, 5, 6], [6]]}


@pytest.mark.parametrize("dof_lists", EDGE_LEVELS.values(), ids=EDGE_LEVELS.keys())
def test_split_matches_dense_oracle_with_empty_subdomain_parts(dof_lists):
    dof_lists = [np.asarray(d, dtype=np.int64) for d in dof_lists]
    rng = np.random.default_rng(5)
    blocks = []
    for d in dof_lists:
        q = rng.standard_normal((len(d), len(d)))
        blocks.append(q @ q.T + len(d) * np.eye(len(d)))
    n = 7
    count = np.bincount(np.concatenate(dof_lists), minlength=n)
    iface = np.nonzero(count > 1)[0]
    k, keys = stacked(blocks, dof_lists, n, iface)
    splits, imap = build_splits(k, keys, iface, n, len(dof_lists))
    interior = [np.setdiff1d(d, iface) for d in dof_lists]
    assert np.array_equal(np.diff(splits.interior_offsets), [a.size for a in interior])
    assert np.array_equal(np.diff(splits.iface_offsets),
                          [len(d) - a.size for d, a in zip(dof_lists, interior)])
    assert 0 in np.diff(splits.interior_offsets)
    # the dense oracle: assemble sum_i R_i^T K_i R_i and eliminate its interior
    kd = np.zeros((n, n))
    for d, b in zip(dof_lists, blocks):
        kd[np.ix_(d, d)] += b
    inner = np.setdiff1d(np.arange(n), iface)
    kii, kib, kbb = kd[np.ix_(inner, inner)], kd[np.ix_(inner, iface)], kd[np.ix_(iface, iface)]
    s_dense = kbb - kib.T @ np.linalg.solve(kii, kib)
    x, f = rng.standard_normal(iface.size), rng.standard_normal(n)
    # both forms, the dense one with a stack per subdomain, empty ones too
    assert np.allclose(schur_apply(splits, imap, x), s_dense @ x, rtol=0, atol=1e-12)
    dense_form(splits)
    assert 0 in [s.size for _, s in splits.s_stacks]
    assert np.allclose(schur_apply(splits, imap, x), s_dense @ x, rtol=0, atol=1e-12)
    g = condensed_rhs(splits, imap, f)
    assert np.allclose(g, f[iface] - kib.T @ np.linalg.solve(kii, f[inner]), rtol=0, atol=1e-12)
    u = recover_interior(splits, imap, np.linalg.solve(s_dense, g), f, n_dofs=n)
    assert np.allclose(u, np.linalg.solve(kd, f), rtol=0, atol=1e-12)
