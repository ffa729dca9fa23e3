"""Krylov drivers: preconditioned CG with a Lanczos condition estimate,
and BiCGstab for the unsymmetric / sanity-check path.

CG accumulates the Lanczos tridiagonal from its own alpha/beta recurrence
(diagonal 1/a_k + b_{k-1}/a_{k-1}, off-diagonal sqrt(b_k)/a_k), so the
condition estimate of the preconditioned operator costs one small
eigenvalue solve after the iteration. Both drivers declare convergence on
the unpreconditioned relative residual: once the recursive residual (for
BiCGstab, the preconditioned one) meets the tolerance, the true residual
b - A x is computed and must meet it too. In CG, every TRUE_RESIDUAL_EVERY
steps the recursive residual is replaced by the exact one to stop drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NumericalError

BREAKDOWN_EPS = 1e-30
TRUE_RESIDUAL_EVERY = 50


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    relative_residuals: list = field(default_factory=list)
    condition_estimate: float | None = None
    breakdown_reason: str | None = None


def _identity(r: np.ndarray) -> np.ndarray:
    return r


def pcg(apply_a, b: np.ndarray, apply_m=None, tol: float = 1e-6,
        max_iterations: int = 1000):
    """Conjugate gradients on an SPD operator, starting from zero.

    Returns (x, SolveReport). It stops when the recursive residual meets
    tol and reports converged only if the true residual meets it too.
    Raises NumericalError when a search direction has non-positive energy,
    which means the operator (or the preconditioner) is not positive
    definite, and when a residual has non-positive preconditioned energy
    r^T M r, which means the preconditioner is not.
    """
    apply_m = apply_m or _identity
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, SolveReport(converged=True, iterations=0,
                              relative_residuals=[0.0], condition_estimate=None)
    r = b.copy()
    z = apply_m(r)
    p = z.copy()
    rz = _preconditioned_energy(r, z, 0)
    history = [1.0]
    alphas: list = []
    betas: list = []
    converged = False
    k = 0
    while k < max_iterations:
        q = apply_a(p)
        pq = float(p @ q)
        if pq <= 0.0:
            raise NumericalError(
                f"non-positive curvature p^T A p = {pq:.3e} in iteration {k + 1}; "
                f"the operator is not positive definite")
        alpha = rz / pq
        alphas.append(alpha)
        x += alpha * p
        k += 1
        if k % TRUE_RESIDUAL_EVERY == 0:
            r = b - apply_a(x)
        else:
            r -= alpha * q
        rel = float(np.linalg.norm(r)) / bnorm
        history.append(rel)
        if rel < tol:
            converged = float(np.linalg.norm(b - apply_a(x))) / bnorm < tol
            break
        z = apply_m(r)
        rz_new = _preconditioned_energy(r, z, k)
        beta = rz_new / rz
        betas.append(beta)
        rz = rz_new
        p = z + beta * p
    kappa = _lanczos_condition(alphas, betas)
    return x, SolveReport(converged=converged, iterations=k,
                          relative_residuals=history,
                          condition_estimate=kappa)


def _preconditioned_energy(r: np.ndarray, z: np.ndarray, k: int) -> float:
    """r^T z for z = M r; raises NumericalError unless it is positive."""
    rz = float(r @ z)
    if not rz > 0.0:
        where = f"after iteration {k}" if k else "on the initial residual"
        raise NumericalError(
            f"non-positive r^T M r = {rz:.3e} {where}; the preconditioner "
            f"is not positive definite")
    return rz


def _lanczos_condition(alphas, betas) -> float | None:
    """Condition estimate of the preconditioned operator from the CG
    coefficients."""
    m = len(alphas)
    if m == 0:
        return None
    diag = np.empty(m)
    diag[0] = 1.0 / alphas[0]
    for k in range(1, m):
        diag[k] = 1.0 / alphas[k] + betas[k - 1] / alphas[k - 1]
    off = np.array([np.sqrt(betas[k]) / alphas[k] for k in range(m - 1)])
    eigs = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if lo <= 0.0:
        return float("inf")
    return hi / lo


def bicgstab(apply_a, b: np.ndarray, apply_m=None, tol: float = 1e-6,
             max_iterations: int = 1000):
    """Left-preconditioned BiCGstab on M A x = M b, starting from zero.

    The iteration tracks the preconditioned relative residual. Once that
    meets tol, the true residual b - A x is computed, and the run reports
    converged only if it meets tol too; otherwise it keeps iterating.
    Exact breakdowns surface as breakdown_reason with converged False
    rather than an exception: the caller decides whether that is fatal.
    """
    apply_m = apply_m or _identity
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    r = apply_m(b.copy())
    bnorm = float(np.linalg.norm(r))
    if bnorm == 0.0:
        return x, SolveReport(converged=True, iterations=0,
                              relative_residuals=[0.0])
    b_true = float(np.linalg.norm(b))

    def meets_tol(y):
        return float(np.linalg.norm(b - apply_a(y))) / b_true < tol

    r_shadow = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(b)
    p = np.zeros_like(b)
    history = [1.0]
    reason = None
    converged = False
    k = 0
    while k < max_iterations:
        rho_new = float(r_shadow @ r)
        if abs(rho_new) < BREAKDOWN_EPS * bnorm * bnorm:
            reason = "rho breakdown"
            break
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        v = apply_m(apply_a(p))
        denom = float(r_shadow @ v)
        if abs(denom) < BREAKDOWN_EPS * bnorm * bnorm:
            reason = "alpha breakdown"
            break
        alpha = rho / denom
        s = r - alpha * v
        rel = float(np.linalg.norm(s)) / bnorm
        if rel < tol and meets_tol(x + alpha * p):
            x += alpha * p
            k += 1
            history.append(rel)
            converged = True
            break
        t = apply_m(apply_a(s))
        tt = float(t @ t)
        if tt < BREAKDOWN_EPS * bnorm * bnorm:
            reason = "omega breakdown"
            break
        omega = float(t @ s) / tt
        x += alpha * p + omega * s
        r = s - omega * t
        k += 1
        rel = float(np.linalg.norm(r)) / bnorm
        history.append(rel)
        if rel < tol and meets_tol(x):
            converged = True
            break
        if abs(omega) < BREAKDOWN_EPS:
            reason = "omega breakdown"
            break
    return x, SolveReport(converged=converged, iterations=k,
                          relative_residuals=history,
                          breakdown_reason=reason)
