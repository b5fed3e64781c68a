"""Accelerated proximal gradient descent over the row-sphere set.

Minimizes F(X) = -<C, X X^T> subject to every row of X having unit norm;
F = -<C X, X> and grad F = -2 C X are formed here from the operator's C X.
The stepsize grows by a summable sequence, extrapolated trial points pass a
nonmonotone acceptance test against an averaged objective bound, and a plain
projected gradient step is the fallback.  Termination uses the infinity norm
of a first-order residual built from consecutive iterates.

Every operator the program builds is positive semidefinite (nonnegative
coefficients on PSD matrices), so F is concave and the stepsize only grows,
with no curvature shrink.  F is quadratic,
so the gradient at the extrapolated point y = X_k + beta (X_k - X_{k-1}) is
g_k + beta (g_k - g_{k-1}), as in FISTA (Beck and Teboulle, 2009).  Both
gradients are fresh applications, so rounding cannot build up, and a step
applies the operator once, at the trial point, plus once for a fallback.

The solver constants are fixed:

- ``P_TILDE = 0.1``: the stepsize grows by ``min(1, alpha) / k^(1 + P_TILDE)``
  a step, a summable sequence.
- ``DELTA1 = 1e-4``, ``MU0 = 0.99`` and δ2: the sufficient-decrease weights
  of the trial point.  δ2 is ``min(2 * DELTA1, 0.49 * (1 - MU0) / alpha_1)``,
  with alpha_1 the first grown stepsize, and stays frozen for the run; when
  that is not above ``DELTA1``, δ1 drops to δ2 / 2.
- ``SIGMA = 1.0``, ``R = 2.0``: the trial test inflates ||y - X||^2 by
  ``1 + SIGMA / k^R``.
- ``ETA = 0.8``: the weight of the averaged objective bound
  c_{k+1} = (ETA q_k c_k + F_{k+1}) / q_{k+1}, q_{k+1} = 1 + ETA q_k.

``ApgParams`` holds what a caller sets: the residual tolerance and the
iteration cap.

``minimize`` runs a stack of independent solves in lockstep, one operator
application per step for all live solves; a single solve is a stack of one.
Every solve of a stack ends bit-identical to its own run.  A step's
per-solve scalars are Python floats, which do the same IEEE double
arithmetic as numpy in the same order, and its log fields go into a compact
flat record that is copied into the log in blocks of steps.
"""

from __future__ import annotations

import math
from array import array
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
DELTA1 = 1e-4
ETA = 0.8
P_TILDE = 0.1
SIGMA = 1.0
R = 2.0
BOOLS = (bool, np.bool_)  # no count, tolerance or weight is a bool


@dataclass
class ApgParams:
    """Solver controls: stop when the residual is at most ``epsilon`` or
    after ``max_iters`` iterations.  The other constants are fixed; see the
    module docstring.
    """

    epsilon: float = 1e-3
    max_iters: int = 3000

    def __post_init__(self):
        if isinstance(self.epsilon, BOOLS) or not 0 < self.epsilon < math.inf:  # NaN fails too
            raise ValueError(f"epsilon must be a finite positive number, got {self.epsilon!r}")
        if not (_is_count(self.max_iters) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")


@dataclass
class ApgResult:
    """What ``minimize`` returns.

    ``X`` is the (S, n, c) stack of final iterates.  Per solve, ``steps``
    holds its iteration count and ``residuals`` its final residual; ``log``
    holds its step records as numeric rows (value, alpha, accepted,
    residual, bound) over a step axis, NaN past the solve's ``steps``.
    """

    X: np.ndarray
    steps: np.ndarray
    residuals: np.ndarray
    epsilon: float
    log: np.ndarray

    @property
    def iterations(self) -> int:
        """Iterations summed over the solves."""
        return int(self.steps.sum())

    @property
    def converged(self) -> bool:
        """Whether every solve stopped at a residual of at most epsilon."""
        return bool((self.residuals <= self.epsilon).all())

    @property
    def trace(self) -> list:
        """Every solve's records, solve after solve: one ``IterRecord``
        (iteration, F, alpha, accepted flag, residual, objective bound) per
        step, built from ``log`` on each read."""
        records = []
        for s, steps in enumerate(self.steps.tolist()):
            value, alpha, accepted, error, bound = self.log[:, s, :steps].tolist()
            records += map(IterRecord, range(1, steps + 1), value, alpha,
                           map(bool, accepted), error, bound)
        return records


def project_rows(X: np.ndarray) -> np.ndarray:
    """Scale each row (the last axis) to unit norm; an all-zero row becomes
    (1, 0, ..., 0)."""
    X = np.asarray(X, dtype=np.float64)
    # the sum and root np.linalg.norm(X, axis=-1) computes, without its checks;
    # numpy adds fewer than 8 terms in order, so narrow rows add their columns
    sq = X * X
    if 2 <= X.shape[-1] <= 7:
        norms = sq[..., 0] + sq[..., 1]
        for j in range(2, X.shape[-1]):
            norms += sq[..., j]
    else:
        norms = np.add.reduce(sq, axis=-1)
    norms = np.sqrt(norms)
    if norms.all():
        return X / norms[..., None]
    zero = norms == 0.0
    norms[zero] = 1.0
    with np.errstate(invalid="ignore"):
        out = X / norms[..., None]
    out[zero] = 0.0
    out[zero, 0] = 1.0
    return out


def _objective(op, X: np.ndarray):
    """F(X) = -<C X, X> per solve and grad F(X) = -2 C X, from one ``op.apply``."""
    cx = op.apply(X)
    return -(cx * X).sum(axis=(1, 2)), -2.0 * cx


def initial_stepsize(op, X0: np.ndarray, g0: np.ndarray):
    """Secant estimate between X0 and the projected gradient direction:
    ||X0 - X1|| / ||g0 - grad(X1)|| with g0 = grad(X0) and
    X1 = project(g0), one estimate per solve of the (S, n, c) stack from a
    single ``op.apply``.  Degenerate cases fall back to 1.0.
    """
    X1 = project_rows(g0)
    _, g1 = _objective(op, X1)
    return np.array([_secant(dx, dg) for dx, dg in zip(X0 - X1, g0 - g1)])


def _secant(dx: np.ndarray, dg: np.ndarray) -> float:
    num = np.linalg.norm(dx)
    den = np.linalg.norm(dg)
    if den == 0.0 or not math.isfinite(den) or not math.isfinite(num) or num == 0.0:
        return 1.0
    return float(num / den)


def _is_count(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, BOOLS)


def _grow_term(k: int) -> float:
    # summable increments; the k = 0 call reuses the k = 1 value
    return 1.0 / max(k, 1) ** (1.0 + P_TILDE)


def _check_finite(values: np.ndarray, ids: np.ndarray, where: str, iteration: int):
    bad = ~np.isfinite(values)
    if bad.any():
        raise FloatingPointError(
            f"non-finite objective in solve {ids[bad.argmax()]} at iteration "
            f"{iteration} ({where})"
        )


def minimize(op, X0: np.ndarray, params: ApgParams | None = None) -> ApgResult:
    """Run the solver from a row-feasible X0, a stack of S independent
    solves of shape (S, n, c) run in lockstep.

    ``op`` provides ``apply(X)``, the product C X of every solve's linear
    map on an (S, n, c) stack, and ``take(solves)``, the operator of some
    of its solves; F and its gradient are formed from C X.  Each solve keeps
    its own stepsize, δ1/δ2, bound, objective, residual and stop; the step
    counter and what depends on it alone (q, β, the growth term, the
    inflation factor) are shared.  A solve that stops leaves the stack, so a
    step applies the operator only to the live solves, and the fallback
    step only to the rejected ones; the gradient at the extrapolated point
    comes from the last two.  Every solve's iterates equal those of its own
    run bit for bit, and every iterate stays on the row sphere.

    The per-solve scalars (stepsize, δ1, δ2, F, bound, residual, acceptance)
    are lists of Python floats, whose arithmetic is the same IEEE double
    arithmetic in the same order as numpy's on arrays, so the tests and
    updates of a step cost no array calls.  A step's log fields go into a
    flat record, which is copied into ``log`` in blocks of steps that share
    one live set.
    """
    params = params or ApgParams()
    X_cur = project_rows(X0)
    S = X_cur.shape[0]
    eps = params.epsilon
    ids = np.arange(S)  # the live solves

    F_cur, g_cur = _objective(op, X_cur)
    _check_finite(F_cur, ids, "start", 0)
    alpha = initial_stepsize(op, X_cur, g_cur)

    # stationarity probe: a fixed point of the projected gradient map stops here
    a = alpha[:, None, None]
    probe = project_rows(X_cur - a * g_cur)
    error = np.abs((probe - X_cur) / a + _objective(op, probe)[1] - g_cur).max(axis=(1, 2))

    X_out = np.empty_like(X_cur)
    steps = np.zeros(S, dtype=np.int64)
    residuals = np.empty(S)
    log = np.empty((5, S, min(params.max_iters, 4096)))  # pages fill as steps are logged
    record = array("d")  # per step: F, alpha, accepted, residual, bound of each live solve
    logged = 0  # the steps before ``record`` are in ``log``

    # resolve delta2 from the first grown stepsize, then freeze it
    alpha1 = alpha + np.minimum(1.0, alpha) * _grow_term(0)
    delta2 = np.minimum(2.0 * DELTA1, 0.49 * (1.0 - MU0) / alpha1)
    delta1 = np.where(delta2 > DELTA1, DELTA1, delta2 / 2.0)

    alpha, delta1, delta2, F_cur, error = (
        v.tolist() for v in (alpha, delta1, delta2, F_cur, error))
    bound = F_cur  # nonmonotone averaged objective c_k
    op_live = op
    X_prev, g_prev = X_cur, g_cur
    q = 1.0
    k = 0
    live = [e > eps for e in error]

    while True:
        if not all(live):  # stopped solves leave the stack
            log, logged = _write_log(log, record, ids, logged), k
            keep = np.array(live)
            done = ids[~keep]
            X_out[done], steps[done] = X_cur[~keep], k
            residuals[done] = [e for e, on in zip(error, live) if not on]
            ids = ids[keep]
            if not ids.size:
                break
            X_prev, X_cur, g_prev, g_cur = X_prev[keep], X_cur[keep], g_prev[keep], g_cur[keep]
            F_cur, alpha, delta1, delta2, bound = (
                [x for x, on in zip(v, live) if on] for v in (F_cur, alpha, delta1, delta2, bound))
            op_live = op.take(ids)
        elif k - logged >= 64:  # so the record never grows to the log's size
            log, logged = _write_log(log, record, ids, logged), k

        grow = _grow_term(k)
        alpha = [al + (al if al < 1.0 else 1.0) * grow for al in alpha]
        a = np.array(alpha)[:, None, None]
        z, (zy2, zx2, yx2) = _trial_point(X_cur, X_prev, g_cur, g_prev, k / (k + 3.0), a)
        inflate = 1.0 + SIGMA / k ** R if k >= 1 else 1.0

        F_z, g_next = _objective(op_live, z)
        F_next = F_z.tolist()
        if not all(map(math.isfinite, F_next)):
            _check_finite(F_z, ids, "trial", k)
        # phi1 >= 0 and F <= min(F_cur + phi2, bound), tested without min()
        # so that a NaN rejects as it does in numpy
        accepted = [
            (zy + zx) - inflate * yx >= 0.0
            and f <= fc + (d1 * zx - d2 * ((zy + zx) - yx)) and f <= b
            for zy, zx, yx, f, fc, b, d1, d2
            in zip(zy2, zx2, yx2, F_next, F_cur, bound, delta1, delta2)]
        X_next = z
        if not all(accepted):
            rej = np.flatnonzero(np.logical_not(accepted))
            X_f = project_rows(X_cur[rej] - a[rej] * g_cur[rej])
            op_rej = op_live if rej.size == ids.size else op.take(ids[rej])
            F_f, g_f = _objective(op_rej, X_f)
            _check_finite(F_f, ids[rej], "fallback", k)
            X_next[rej], g_next[rej] = X_f, g_f
            for s, f in zip(rej.tolist(), F_f.tolist()):
                F_next[s] = f

        # the residual max |(X_next - X_cur) / a + g_next - g_cur| per solve
        res = np.subtract(X_next, X_cur)
        res /= a
        res += g_next
        res -= g_cur
        np.abs(res, out=res)
        error = np.maximum.reduce(res.reshape(ids.size, -1), axis=1).tolist()
        k += 1
        for field in (F_next, alpha, accepted, error, bound):
            record.extend(field)

        eq = ETA * q
        q = 1.0 + eq
        bound = [(eq * b + f) / q for b, f in zip(bound, F_next)]

        X_prev, X_cur, F_cur = X_cur, X_next, F_next
        g_prev, g_cur = g_cur, g_next
        live = [e > eps for e in error] if k < params.max_iters else [False] * ids.size

    log[:, np.arange(log.shape[2]) >= steps[:, None]] = np.nan  # past each solve's stop
    return ApgResult(X_out, steps, residuals, eps, log)


def _trial_point(X_cur, X_prev, g_cur, g_prev, beta: float, a: np.ndarray):
    """The trial point z = project(y - a gy) from the extrapolated point
    y = X_k + beta (X_k - X_{k-1}), where the gradient is
    gy = g_k + beta (g_k - g_{k-1}), and per solve the lists of
    ||z - y||^2, ||z - X_k||^2 and ||y - X_k||^2.  The work arrays are
    freed on return, before the step applies the operator."""
    y = np.subtract(X_cur, X_prev)
    y *= beta
    y += X_cur
    gy = np.subtract(g_cur, g_prev)
    gy *= beta
    gy += g_cur
    gy *= a
    z = project_rows(np.subtract(y, gy, out=gy))
    # one buffer, one square and one sum: on contiguous rows the sum over
    # the last axis adds as .sum(axis=(1, 2)) does on each (n, c) solve
    sq = np.empty((3,) + z.shape)
    np.subtract(z, y, out=sq[0])
    np.subtract(z, X_cur, out=sq[1])
    np.subtract(y, X_cur, out=sq[2])
    sq *= sq
    return z, np.add.reduce(sq.reshape(3, z.shape[0], -1), axis=2).tolist()


def _write_log(log: np.ndarray, record: array, ids: np.ndarray, start: int) -> np.ndarray:
    """``log`` with ``record``, the step records of the solves ``ids`` from
    step ``start`` on, moved in (``record`` ends empty); the step axis
    doubles until they fit."""
    if not record:
        return log
    width = len(record) // (5 * ids.size)
    end = start + width
    while log.shape[2] < end:
        log = np.concatenate((log, np.empty_like(log)), axis=2)
    log[:, ids, start:end] = np.frombuffer(record).reshape(width, 5, ids.size).transpose(1, 2, 0)
    del record[:]
    return log


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
