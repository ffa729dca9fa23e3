"""BDDC's condition number grows with the subdomain size H/h at the rates
the theory gives.

With edge averages in 3D (and in 2D, where subdomain sides are the edges)
kappa <= C (1 + log H/h)^2 (Mandel & Dohrmann, Numer. Linear Algebra Appl.
10, 2003; Mandel, Dohrmann & Tezaur, Appl. Numer. Math. 54, 2005), so the
ratio rho = kappa / (1 + log H/h)^2 must not grow as the mesh is refined
under a fixed partition. With corners only in 3D the bound is FETI-DP's
vertex bound C (H/h)(1 + log H/h)^2 (Klawonn, Widlund & Dryja, SIAM J.
Numer. Anal. 40, 2002), which BDDC shares through the common spectrum
(Mandel, Dohrmann & Tezaur 2005; Li & Widlund, Int. J. Numer. Meth. Eng.
66, 2006): rho grows, and kappa / ((H/h)(1 + log H/h)^2) does not. With more
levels the coarse levels' share of the bound stays fixed while H/h grows at
level 1, so rho must not grow there either.

kappa is PCG's Lanczos estimate on a seeded random right-hand side, which
excites the whole spectrum (`test_properties` holds it to the dense kappa
within 1%). SLACK allows for that estimate and for the constants: the
edge-averaged rho below falls by 2-24% per step, while dropping the edge
averages from corners+edges makes it rise by 26-31% per step.
"""

import math

import numpy as np
import pytest

from mlbddc import load_config, run_experiment
from mlbddc.krylov import pcg
from mlbddc.substructuring import schur_apply

SLACK = 0.10


def kappa(problem, dim, hierarchy, policy, per_subdomain):
    """Condition estimate of M S for a box of per_subdomain elements per
    subdomain side (H/h), split into regular blocks by hierarchy."""
    side = round(int(hierarchy.split("/")[0]) ** (1.0 / dim))
    prec = run_experiment(load_config(overrides=[
        f"problem={problem}", f"dim={dim}", f"elements={side * per_subdomain}",
        f"hierarchy={hierarchy}", f"constraint_policy={policy}"])).preconditioner
    level = prec.levels[0]
    g = np.random.default_rng(0).standard_normal(level.imap.n)
    _, report = pcg(lambda v: schur_apply(level.splits, level.imap, v), g,
                    apply_m=prec.apply, tol=1e-10)
    assert report.converged
    return report.condition_estimate


def rho(k, hh):
    return k / (1.0 + math.log(hh)) ** 2


@pytest.mark.parametrize("problem,dim,hierarchy,policy,sizes", [
    ("poisson", 3, "27", "corners+edges", (4, 6, 8)),
    ("poisson", 3, "27", "corners+edges+faces", (4, 6, 8)),
    ("elasticity", 3, "27", "corners+edges", (4, 6)),
    ("poisson", 3, "64/8", "corners+edges", (4, 6, 8)),         # three levels
    ("poisson", 2, "64/4", "corners+edges", (8, 16, 32)),       # three levels
], ids=["poisson-3d-edges", "poisson-3d-faces", "elasticity-3d-edges",
        "poisson-3d-three-level", "poisson-2d-three-level"])
def test_edge_averages_keep_the_polylogarithmic_bound(problem, dim, hierarchy, policy, sizes):
    rhos = [rho(kappa(problem, dim, hierarchy, policy, hh), hh) for hh in sizes]
    for coarse, fine in zip(rhos, rhos[1:]):
        assert fine <= (1 + SLACK) * coarse, rhos


def test_corners_only_in_3d_follow_the_vertex_bound():
    sizes = (4, 6, 8)
    kappas = [kappa("poisson", 3, "27", "corners-only", hh) for hh in sizes]
    rhos = [rho(k, hh) for k, hh in zip(kappas, sizes)]
    vertex = [r / hh for r, hh in zip(rhos, sizes)]
    for coarse, fine in zip(rhos, rhos[1:]):
        assert fine > (1 + SLACK) * coarse, rhos
    for coarse, fine in zip(vertex, vertex[1:]):
        assert fine <= (1 + SLACK) * coarse, vertex
