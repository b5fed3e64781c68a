"""Accelerated proximal gradient descent over the row-sphere set.

Minimizes F(X) = -<C, X X^T> subject to every row of X having unit norm.
The stepsize adapts from local curvature, extrapolated trial points pass a
nonmonotone acceptance test against an averaged objective bound, and a plain
projected gradient step is the fallback.  Termination uses the infinity norm
of a first-order residual built from consecutive iterates.

The solver constants are fixed:

- ``MU0 = 0.99``, ``MU1 = 0.95``: when the curvature estimate between the
  last two iterates exceeds ``MU0 / alpha``, the next stepsize is
  ``MU1 * ||dX||^2 / curvature``.
- ``P_TILDE = 0.1``: otherwise the stepsize grows by
  ``min(1, alpha) / k^(1 + P_TILDE)``, a summable sequence.
- ``DELTA1 = 1e-4`` and δ2: the sufficient-decrease weights of the trial
  point.  δ2 is ``min(2 * DELTA1, 0.49 * (1 - MU0) / alpha_1)``, with
  alpha_1 the first grown stepsize, and stays frozen for the run; when that
  is not above ``DELTA1``, δ1 drops to δ2 / 2.
- ``SIGMA = 1.0``, ``R = 2.0``: the trial test inflates ||y - X||^2 by
  ``1 + SIGMA / k^R``.
- ``ETA = 0.8``: the weight of the averaged objective bound
  c_{k+1} = (ETA q_k c_k + F_{k+1}) / q_{k+1}, q_{k+1} = 1 + ETA q_k.

``ApgParams`` holds what a caller sets: the residual tolerance and the
iteration cap.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ApgParams",
    "ApgResult",
    "IterRecord",
    "project_rows",
    "initial_stepsize",
    "minimize",
    "seeded_features",
]

IterRecord = namedtuple("IterRecord", "iteration value alpha accepted error bound")


MU0 = 0.99
MU1 = 0.95
DELTA1 = 1e-4
ETA = 0.8
P_TILDE = 0.1
SIGMA = 1.0
R = 2.0


@dataclass
class ApgParams:
    """Solver controls: stop when the residual is at most ``epsilon`` or
    after ``max_iters`` iterations.  The other constants are fixed; see the
    module docstring.
    """

    epsilon: float = 1e-3
    max_iters: int = 3000

    def __post_init__(self):
        if not self.epsilon > 0:  # NaN too
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class ApgResult:
    X: np.ndarray
    trace: list
    iterations: int
    converged: bool
    error: float


def project_rows(X: np.ndarray) -> np.ndarray:
    """Scale each row to unit norm; an all-zero row becomes (1, 0, ..., 0)."""
    X = np.asarray(X, dtype=np.float64)
    # the sum and root np.linalg.norm(X, axis=1) computes, without its checks
    norms = np.sqrt(np.add.reduce(X * X, axis=1))
    if norms.all():
        return X / norms[:, None]
    zero = norms == 0.0
    norms[zero] = 1.0
    with np.errstate(invalid="ignore"):
        out = X / norms[:, None]
    out[zero] = 0.0
    out[zero, 0] = 1.0
    return out


def initial_stepsize(op, X0: np.ndarray, g0: np.ndarray) -> float:
    """Secant estimate between X0 and the projected gradient direction:
    ||X0 - X1|| / ||g0 - grad(X1)|| with g0 = grad(X0) and
    X1 = project(g0).  Degenerate cases fall back to 1.0.
    """
    X1 = project_rows(g0)
    g1 = op.gradient(X1)
    num = np.linalg.norm(X0 - X1)
    den = np.linalg.norm(g0 - g1)
    if den == 0.0 or not math.isfinite(den) or not math.isfinite(num) or num == 0.0:
        return 1.0
    return float(num / den)


def _grow_term(k: int) -> float:
    # summable increments; the k = 0 call reuses the k = 1 value
    return 1.0 / max(k, 1) ** (1.0 + P_TILDE)


def _check_finite(value: float, where: str, iteration: int):
    if not math.isfinite(value):
        raise FloatingPointError(
            f"non-finite objective at iteration {iteration} ({where})"
        )


def minimize(op, X0: np.ndarray, params: ApgParams | None = None) -> ApgResult:
    """Run the solver from a row-feasible X0.  ``op`` provides
    ``value_and_gradient(X)`` and ``gradient(X)``.  Every iterate stays on
    the row sphere; the trace records (iteration, F, alpha, accepted flag,
    residual, objective bound) per step.
    """
    params = params or ApgParams()
    X0 = np.asarray(X0, dtype=np.float64)
    X_cur = project_rows(X0)
    eps = params.epsilon

    F_cur, g_cur = op.value_and_gradient(X_cur)
    _check_finite(F_cur, "start", 0)
    alpha = initial_stepsize(op, X_cur, g_cur)

    # stationarity probe: a fixed point of the projected gradient map stops here
    probe = project_rows(X_cur - alpha * g_cur)
    error = float(
        np.abs((probe - X_cur) / alpha + op.gradient(probe) - g_cur).max()
    )
    trace: list[IterRecord] = []
    if error <= eps:
        return ApgResult(X_cur, trace, 0, True, error)

    # resolve delta2 from the first grown stepsize, then freeze it
    alpha1 = alpha + min(1.0, alpha) * _grow_term(0)
    delta2 = min(2.0 * DELTA1, 0.49 * (1.0 - MU0) / alpha1)
    delta1 = DELTA1 if delta2 > DELTA1 else delta2 / 2.0

    X_prev = X_cur.copy()
    F_prev = F_cur
    g_prev = g_cur.copy()
    bound = F_cur  # nonmonotone averaged objective c_k
    q = 1.0
    k = 0

    while error > eps and k < params.max_iters:
        dX = X_cur - X_prev
        dn2 = float((dX * dX).sum())
        lhs = 2.0 * (F_cur - F_prev - float((g_prev * dX).sum()))
        if dn2 > 0.0 and lhs > (MU0 / alpha) * dn2:
            alpha_next = MU1 * dn2 / lhs
        else:
            alpha_next = alpha + min(1.0, alpha) * _grow_term(k)

        beta = k / (k + 3.0)
        y = X_cur + beta * dX
        gy = op.gradient(y)
        z = project_rows(y - alpha_next * gy)

        zy2 = float(((z - y) ** 2).sum())
        zx2 = float(((z - X_cur) ** 2).sum())
        yx2 = float(((y - X_cur) ** 2).sum())
        inflate = 1.0 + SIGMA / k ** R if k >= 1 else 1.0
        phi1 = zy2 + zx2 - inflate * yx2
        phi2 = delta1 * zx2 - delta2 * (zy2 + zx2 - yx2)

        F_z, g_z = op.value_and_gradient(z)
        _check_finite(F_z, "trial", k)
        if phi1 >= 0.0 and F_z <= min(F_cur + phi2, bound):
            X_next, F_next, g_next, accepted = z, F_z, g_z, True
        else:
            X_next = project_rows(X_cur - alpha_next * g_cur)
            F_next, g_next = op.value_and_gradient(X_next)
            _check_finite(F_next, "fallback", k)
            accepted = False

        error = float(
            np.abs((X_next - X_cur) / alpha_next + g_next - g_cur).max()
        )

        bound_used = bound
        q_next = 1.0 + ETA * q
        bound = (ETA * q * bound + F_next) / q_next
        q = q_next

        X_prev, X_cur = X_cur, X_next
        F_prev, F_cur = F_cur, F_next
        g_prev, g_cur = g_cur, g_next
        alpha = alpha_next
        k += 1
        trace.append(IterRecord(k, F_next, alpha_next, accepted, error, bound_used))

    return ApgResult(X_cur, trace, k, error <= eps, error)


# ---------------------------------------------------------------------------
# deterministic feature initialization

_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)
_MIX3 = np.uint64(0x94D049BB133111EB)


def _mix(x: np.ndarray) -> np.ndarray:
    x = (x + _MIX1).astype(np.uint64)
    x ^= x >> np.uint64(30)
    x *= _MIX2
    x ^= x >> np.uint64(27)
    x *= _MIX3
    x ^= x >> np.uint64(31)
    return x


def seeded_features(n: int, k: int, stream: int = 0) -> np.ndarray:
    """Deterministic quasi-random unit-row features.  Distinct streams give
    distinct matrices; repeated calls are bit-identical on any platform.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    idx = np.arange(n * k, dtype=np.uint64).reshape(n, k)
    stream = int(stream) & 0xFFFFFFFFFFFFFFFF
    salt = np.uint64(stream * 0x51_7C_C1_B7_27_22_0A_95 & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        bits = _mix(_mix(idx + salt) + np.uint64(stream))
    # 53 high bits -> uniform in [0, 1) -> [-1, 1)
    uniforms = (bits >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return project_rows(2.0 * uniforms - 1.0)
