"""What a built preconditioner holds, and seeded probes of its operators.

Everything here reads the public attributes of `RunResult.preconditioner`
after a run. Byte counts are computed from array shapes (labelled
"computed"), not measured allocations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from mlbddc.substructuring import schur_apply

MAX_LEVELS = 3          # BDDC levels below the top solve in any workload
CONSTRAINT_KINDS = ("corner", "edge", "face")
DENSE_METHODS = ("cholesky", "bunch-kaufman")
# methods each role can get: K_II and the top matrix are factorized as
# "spd" (dense Cholesky or splu), bordered matrices as
# "symmetric-indefinite" (dense Bunch-Kaufman or splu)
ROLE_METHODS = {"k_ii": ("cholesky", "splu"),
                "bordered": ("bunch-kaufman", "splu"),
                "top": ("cholesky", "splu")}


def factorizations(prec) -> list:
    """One record per factorized matrix: (level, role, subdomain, method,
    order, stored nnz). Roles are k_ii, bordered and top."""
    out = []
    for lv in prec.levels:
        for s in lv.splits:
            f = s.k_ii_fact
            out.append((lv.index, "k_ii", s.index, f.method, f.n, f.matrix.nnz))
        for i, sub in enumerate(lv.subs):
            f = sub.bordered
            out.append((lv.index, "bordered", i, f.method, f.n, f.matrix.nnz))
    t = prec.top
    out.append((prec.n_levels, "top", 0, t.method, t.n, t.matrix.nnz))
    return out


def census(prec) -> dict:
    """Counts and computed sizes, all of which repeat exactly between runs."""
    out = {}
    for n in range(1, MAX_LEVELS + 1):
        lv = prec.levels[n - 1] if n <= len(prec.levels) else None
        out[f"bddc.L{n}.coarse_dofs"] = lv.n_coarse_dofs if lv else 0
        kind_of = {}
        for sub in lv.subs if lv else ():
            kind_of.update(zip(sub.coarse_dofs.tolist(), sub.constraints.tags))
        for kind in CONSTRAINT_KINDS:
            out[f"interface.L{n}.constraints.{kind}"] = sum(
                1 for k in kind_of.values() if k == kind)
    out["bddc.psi_bytes"] = sum(sub.psi.nbytes for lv in prec.levels
                                for sub in lv.subs)

    facts = factorizations(prec)
    out["sparse.factor_dense_bytes"] = sum(8 * n * n for *_, m, n, _ in facts
                                           if m in DENSE_METHODS)
    for role, methods in ROLE_METHODS.items():
        mine = [(m, n, nnz) for _, r, _, m, n, nnz in facts if r == role]
        for method in methods:
            out[f"sparse.{role}.{method}"] = sum(1 for m, *_ in mine if m == method)
        out[f"sparse.{role}.max_n"] = max(n for _, n, _ in mine)
        out[f"sparse.{role}.nnz"] = sum(nnz for *_, nnz in mine)
    return out


def probe(result, rng, reps: int = 5) -> dict:
    """Time the level-1 preconditioner and Schur operator on seeded random
    interface vectors, and measure how far each is from symmetric.

    The symmetry error |y.Mx - x.My| / sqrt((x.Mx)(y.My)) is scaled by the
    energy Cauchy-Schwarz bound, so it is meaningful for any x, y; a
    non-positive x.Mx is reported as an infinite error.
    """
    prec = result.preconditioner
    level = prec.levels[0]
    n = level.imap.n
    x, y = rng.standard_normal(n), rng.standard_normal(n)

    def schur(v):
        return schur_apply(level.splits, level.imap, v)

    out = {}
    for name, op in (("bddc.apply", prec.apply), ("substructuring.schur_apply", schur)):
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            ox = op(x)
            times.append(time.perf_counter() - t0)
        oy = op(y)
        xx, yy = float(x @ ox), float(y @ oy)
        asym = abs(float(y @ ox) - float(x @ oy))
        out[f"{name}_ms"] = 1e3 * statistics.median(times)
        out[f"{name}.asymmetry"] = (asym / np.sqrt(xx * yy)
                                    if xx > 0 and yy > 0 else float("inf"))
    return out
