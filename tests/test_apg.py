"""Solver tests: projection, stepsize seeding, convergence, trace invariants."""

import numpy as np
import pytest
from scipy import sparse

from helpers import random_hypergraph
from mstpart.apg import (
    ETA,
    ApgParams,
    initial_stepsize,
    minimize,
    project_rows,
    seeded_features,
)
from mstpart.operators import ObjectiveOperator, clique_expand
from mstpart.hypergraph import Hypergraph


def random_embedding_op(rng, n_max=50):
    n = int(rng.integers(4, n_max + 1))
    m = int(rng.integers(n // 2 + 1, 2 * n))
    h = random_hypergraph(rng, n, m, weighted=True)
    lam1 = float(rng.choice([0.9, 0.5, 0.15, 0.015]))
    lam2 = float(rng.choice([1.0, 0.9, 0.8]))
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, lam1, lam2)
    k = int(rng.integers(2, 5))
    return op, n, k


# ---------------------------------------------------------------------------
# projection

def test_project_rows_scales():
    out = project_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]])


def test_project_rows_zero_row_convention():
    out = project_rows(np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    assert np.allclose(out, [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


def test_project_rows_idempotent():
    rng = np.random.default_rng(1)
    X = project_rows(rng.normal(size=(20, 3)))
    assert np.allclose(project_rows(X), X)
    assert np.allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)


def test_project_rows_bit_equals_norm_division():
    rng = np.random.default_rng(23)
    for shape in [(1, 1), (7, 1), (30, 2), (50, 3), (40, 8)]:
        X = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=(shape[0], 1))
        X[X == 0.0] = 1.0
        assert np.array_equal(project_rows(X), X / np.linalg.norm(X, axis=1)[:, None])


def test_project_rows_zero_rows_exact():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(12, 3))
    zero = np.array([0, 4, 5, 11])
    X[zero] = 0.0
    X[5] = -0.0
    X[2, 0] = 0.0  # a zero entry in a nonzero row
    out = project_rows(X)
    keep = np.setdiff1d(np.arange(12), zero)
    assert np.array_equal(out[zero], np.tile([1.0, 0.0, 0.0], (zero.size, 1)))
    assert np.array_equal(out[keep], X[keep] / np.linalg.norm(X[keep], axis=1)[:, None])


# ---------------------------------------------------------------------------
# initial stepsize

def test_initial_stepsize_identity():
    # C = I: grad(X) = -2X, X1 = project(-2X) = -X, so the secant ratio is 1/2
    X0 = project_rows(np.random.default_rng(2).normal(size=(6, 2)))
    op = ObjectiveOperator(6, abar=sparse.identity(6, format="csr"), ca=1.0)
    assert initial_stepsize(op, X0, op.gradient(X0)) == pytest.approx(0.5)


def test_initial_stepsize_degenerate_falls_back():
    # C = -I/2: grad(X) = X, already row-normalized, so X1 = X0 exactly
    X0 = project_rows(np.random.default_rng(3).normal(size=(5, 3)))
    op = ObjectiveOperator(5, abar=-0.5 * np.eye(5), ca=1.0)
    assert initial_stepsize(op, X0, op.gradient(X0)) == 1.0


def test_initial_stepsize_positive_finite():
    rng = np.random.default_rng(5)
    for _ in range(100):
        op, n, k = random_embedding_op(rng, n_max=20)
        X0 = seeded_features(n, k, stream=int(rng.integers(0, 1000)))
        a = initial_stepsize(op, X0, op.gradient(X0))
        assert np.isfinite(a) and a > 0


# ---------------------------------------------------------------------------
# minimize

def test_minimize_stationary_start_stops_at_zero_iterations():
    # every row-feasible point is a fixed point of the projected gradient map
    # for C = I, so the initial residual is zero
    X0 = project_rows(np.random.default_rng(7).normal(size=(8, 2)))
    res = minimize(ObjectiveOperator(8, abar=sparse.identity(8, format="csr"), ca=1.0), X0)
    assert res.iterations == 0
    assert res.converged
    assert np.allclose(res.X, X0, atol=1e-15)


def test_minimize_two_vertex_grid_oracle():
    # one 2-pin hyperedge, pure clique objective: F depends only on the angle
    # between the two embedded rows; the optimum aligns them
    h = Hypergraph.from_edges([[0, 1]], n=2)
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, 1.0, 1.0)
    res = minimize(op, seeded_features(2, 2, stream=0))
    assert res.converged

    # dense grid over both row angles at 0.001 rad
    thetas = np.arange(0.0, 2 * np.pi, 0.001)
    best = np.inf
    for start in range(0, thetas.size, 800):
        t1 = thetas[start:start + 800][:, None]
        t2 = thetas[None, :]
        # generic 2x2 quadratic form on unit rows:
        # <C, X X^T> = C00 + C11 + 2 C01 cos(t1 - t2)
        C = (np.diag(clique_expand(h).degree) + clique_expand(h).adjacency.toarray())
        vals = -(C[0, 0] + C[1, 1] + 2 * C[0, 1] * np.cos(t1 - t2))
        best = min(best, float(vals.min()))
    assert op.value(res.X) == pytest.approx(best, abs=1e-4)
    # rows align
    assert float(res.X[0] @ res.X[1]) == pytest.approx(1.0, abs=1e-4)


def test_minimize_trace_invariants():
    rng = np.random.default_rng(11)
    op, n, _ = random_embedding_op(rng, n_max=15)
    X0 = seeded_features(n, 3, stream=4)
    res = minimize(op, X0)
    assert np.allclose(np.linalg.norm(res.X, axis=1), 1.0, atol=1e-12)
    # replay the averaged-bound recurrence and the acceptance rule
    c = op.value(project_rows(X0))
    q = 1.0
    for rec in res.trace:
        assert rec.alpha > 0
        assert rec.bound == pytest.approx(c, rel=1e-12, abs=1e-12)
        if rec.accepted:
            assert rec.value <= rec.bound + 1e-9
        q_next = 1.0 + ETA * q
        c = (ETA * q * c + rec.value) / q_next
        q = q_next
    if res.converged:
        assert res.error <= 1e-3


def test_minimize_convergence_rate_on_randoms():
    rng = np.random.default_rng(13)
    converged = 0
    for i in range(10):
        op, n, k = random_embedding_op(rng, n_max=40)
        res = minimize(op, seeded_features(n, k, stream=i))
        converged += res.converged
    assert converged >= 8


def test_minimize_deterministic():
    rng = np.random.default_rng(17)
    op, n, k = random_embedding_op(rng, n_max=25)
    X0 = seeded_features(n, k, stream=9)
    r1 = minimize(op, X0)
    r2 = minimize(op, X0)
    assert np.array_equal(r1.X, r2.X)
    assert r1.trace == r2.trace


def counted(op):
    """Count the operator applications of ``op``, fused calls included."""
    calls = [0]
    apply = op.apply

    def wrapper(X):
        calls[0] += 1
        return apply(X)

    op.apply = wrapper
    return calls


def test_minimize_apply_count():
    # 3 applies before the loop (value and gradient at the start, the
    # stepsize secant, the stationarity probe); 2 per accepted iteration
    # (extrapolated gradient, trial point) and 1 more for a fallback step
    rng = np.random.default_rng(37)
    h = random_hypergraph(rng, 30, 40, weighted=True)
    g = clique_expand(h)
    blocks = rng.integers(0, 2, size=h.n)
    ops = [ObjectiveOperator.pair_refinement(g, h.vertex_weight, blocks, xi1, 0.5)
           for xi1 in (0.5, 0.15)]
    ops += [random_embedding_op(rng, n_max=30)[0] for _ in range(4)]
    branches = set()
    for i, op in enumerate(ops):
        calls = counted(op)
        res = minimize(op, seeded_features(op.n, 2, stream=i), ApgParams(max_iters=200))
        branches.update(rec.accepted for rec in res.trace)
        assert calls[0] == 3 + sum(2 if rec.accepted else 3 for rec in res.trace)
    assert branches == {True, False}
    # a stationary start stops after the 3 start-up applies
    op = ObjectiveOperator(8, abar=sparse.identity(8, format="csr"), ca=1.0)
    calls = counted(op)
    assert minimize(op, seeded_features(8, 2)).iterations == 0
    assert calls[0] == 3


def test_minimize_rejects_nonfinite():
    op = ObjectiveOperator(3, abar=sparse.diags([np.inf, 1.0, 1.0], format="csr"), ca=1.0)
    with pytest.raises(FloatingPointError):
        minimize(op, seeded_features(3, 2))


def test_params_validation():
    for eps in (0, float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            ApgParams(epsilon=eps)
    with pytest.raises(ValueError, match="max_iters"):
        ApgParams(max_iters=0)


# ---------------------------------------------------------------------------
# seeded features

def test_seeded_features_deterministic_unit_rows():
    a = seeded_features(40, 3, stream=2)
    b = seeded_features(40, 3, stream=2)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)


def test_seeded_features_streams_differ():
    a = seeded_features(30, 2, stream=0)
    b = seeded_features(30, 2, stream=1)
    assert not np.array_equal(a, b)
