"""Krylov drivers, the Lanczos extreme eigenvalues and condition estimate.

diag(1, 4) is worked out by hand: CG takes two steps and the Lanczos
matrix recovers both eigenvalues, so the estimate is exactly 4.
"""

import numpy as np
import pytest

from mlbddc.errors import NumericalError
from mlbddc.krylov import bicgstab, pcg


def dense_op(a):
    a = np.asarray(a, dtype=np.float64)
    return lambda v: a @ v


def test_identity_converges_immediately():
    x, rep = pcg(dense_op(np.eye(3)), np.array([1.0, 2.0, 3.0]))
    assert rep.converged
    assert rep.iterations == 1
    assert rep.condition_estimate == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)


def test_diag_condition_recovered():
    x, rep = pcg(dense_op(np.diag([1.0, 4.0])), np.array([1.0, 1.0]),
                 tol=1e-12)
    assert rep.converged
    assert rep.iterations == 2
    assert rep.condition_estimate == pytest.approx(4.0, rel=1e-10)
    assert rep.eigenvalue_bounds == pytest.approx((1.0, 4.0), rel=1e-10)
    lo, hi = rep.eigenvalue_bounds
    assert rep.condition_estimate == hi / lo
    assert np.allclose(x, [1.0, 0.25], atol=1e-10)


def test_perfect_preconditioner():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a = q @ np.diag(np.linspace(1.0, 50.0, 6)) @ q.T
    b = rng.standard_normal(6)
    ainv = np.linalg.inv(a)
    x, rep = pcg(dense_op(a), b, apply_m=dense_op(ainv))
    assert rep.converged
    assert rep.iterations == 1
    assert rep.condition_estimate == pytest.approx(1.0, rel=1e-8)
    assert np.allclose(x, ainv @ b, atol=1e-8)


def test_pcg_matches_dense_solve():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8))
    a = m @ m.T + 8 * np.eye(8)
    b = rng.standard_normal(8)
    x, rep = pcg(dense_op(a), b, tol=1e-12)
    assert rep.converged
    assert np.max(np.abs(x - np.linalg.solve(a, b))) < 1e-9
    assert rep.true_residual == np.linalg.norm(b - a @ x) / np.linalg.norm(b) < 1e-12
    assert rep.relative_residuals[0] == 1.0
    assert rep.relative_residuals[-1] < 1e-12


def test_condition_estimate_grows_with_iterations():
    # Lanczos interlacing: deeper Krylov spaces widen the eigenvalue span
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    a = q @ np.diag(np.logspace(0, 3, 30)) @ q.T
    b = rng.standard_normal(30)
    estimates = []
    for its in (3, 6, 12, 24):
        _, rep = pcg(dense_op(a), b, tol=1e-300, max_iterations=its)
        estimates.append(rep.condition_estimate)
    for lo, hi in zip(estimates, estimates[1:]):
        assert hi >= lo - 1e-8
    assert estimates[-1] <= 1e3 * (1 + 1e-6)


def test_true_residual_recompute_path():
    diag = np.logspace(0, 4, 60)
    b = np.ones(60)
    x, rep = pcg(lambda v: diag * v, b, tol=1e-10, max_iterations=500)
    assert rep.converged
    assert rep.iterations > 50
    assert np.max(np.abs(x - b / diag)) < 1e-8


def test_indefinite_operator_raises():
    with pytest.raises(NumericalError, match="positive definite"):
        pcg(dense_op(-np.eye(2)), np.array([1.0, 0.0]))


def test_negative_preconditioner_raises():
    diag = np.array([1.0, 2.0, 5.0, 10.0])
    with pytest.raises(NumericalError, match="on the initial residual"):
        pcg(lambda v: diag * v, np.ones(4), apply_m=lambda r: -r)


def test_indefinite_preconditioner_raises_mid_iteration():
    # r0^T M r0 > 0, but a later residual has negative preconditioned energy
    diag = np.array([1.0, 2.0, 5.0, 10.0])
    m = np.array([1.0, -0.5, 1.0, 1.0])
    with pytest.raises(NumericalError, match="after iteration 2"):
        pcg(lambda v: diag * v, np.ones(4), apply_m=lambda r: m * r)


def test_non_convergence_reported():
    diag = np.logspace(0, 6, 40)
    x, rep = pcg(lambda v: diag * v, np.ones(40), tol=1e-14, max_iterations=5)
    assert not rep.converged
    assert rep.iterations == 5
    assert rep.condition_estimate is not None
    # the true residual of the returned x, computed once more on this exit
    assert rep.true_residual == np.linalg.norm(1.0 - diag * x) / np.linalg.norm(np.ones(40))
    assert rep.true_residual > 1e-14


def test_zero_rhs():
    x, rep = pcg(dense_op(np.eye(2)), np.zeros(2))
    assert rep.converged
    assert rep.iterations == 0
    assert rep.true_residual == 0.0
    assert np.all(x == 0.0)


def test_bicgstab_nonsymmetric():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    b = rng.standard_normal(5)
    x, rep = bicgstab(dense_op(a), b, tol=1e-10)
    assert rep.converged
    assert rep.breakdown_reason is None
    assert rep.condition_estimate is None and rep.eigenvalue_bounds is None
    assert np.max(np.abs(x - np.linalg.solve(a, b))) < 1e-7


def test_bicgstab_preconditioned_spd():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((12, 12))
    a = m @ m.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    prec = np.diag(1.0 / np.diag(a))
    x, rep = bicgstab(dense_op(a), b, apply_m=dense_op(prec), tol=1e-10)
    assert rep.converged
    assert np.max(np.abs(x - np.linalg.solve(a, b))) < 1e-6


def test_bicgstab_converged_means_true_residual():
    # a diagonal preconditioner that shrinks half of the residual by 1e3
    # makes |M r| / |M b| meet tol long before |b - A x| / |b| does
    n = 40
    a = 4.0 * np.eye(n) - np.eye(n, k=1) - 0.5 * np.eye(n, k=-1)
    scale = np.where(np.arange(n) < n // 2, 1e-3, 1.0)
    b = np.ones(n)

    def true_residual(x):
        return np.linalg.norm(b - a @ x) / np.linalg.norm(b)

    x, rep = bicgstab(dense_op(a), b, apply_m=lambda r: scale * r, tol=1e-6)
    assert rep.converged
    assert rep.true_residual == true_residual(x) < 1e-6
    # cut off before the true residual gets there: not converged
    x, rep = bicgstab(dense_op(a), b, apply_m=lambda r: scale * r, tol=1e-6,
                      max_iterations=30)
    assert not rep.converged
    assert rep.true_residual == true_residual(x) >= 1e-6


def test_bicgstab_breakdown():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    x, rep = bicgstab(dense_op(a), np.array([1.0, 0.0]))
    assert not rep.converged
    assert rep.breakdown_reason is not None
    # computed for the returned x on this exit too
    assert rep.true_residual == np.linalg.norm(np.array([1.0, 0.0]) - a @ x)


def test_bicgstab_zero_rhs():
    x, rep = bicgstab(dense_op(np.eye(3)), np.zeros(3))
    assert rep.converged
    assert rep.iterations == 0
    assert rep.true_residual == 0.0
