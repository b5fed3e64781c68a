"""Solver tests: projection, stepsize seeding, convergence, trace invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from helpers import objective, random_hypergraph, reference_minimize, transpose_apply
from mstpart import apg
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
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, [(lam1, lam2)])
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
    # widths 2-7 add their columns in order, the others reduce like numpy
    rng = np.random.default_rng(23)
    for c in range(1, 10):
        for shape in [(1, c), (7, c), (50, c), (6, 800, c), (3, 1, c)]:
            X = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=shape[:-1] + (1,))
            X[X == 0.0] = 1.0
            want = X / np.linalg.norm(X, axis=-1)[..., None]
            assert np.array_equal(project_rows(X), want)
            if X.ndim == 3:
                assert all(np.array_equal(project_rows(x), w) for x, w in zip(X, want))


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
    X0 = project_rows(np.random.default_rng(2).normal(size=(1, 6, 2)))
    op = ObjectiveOperator(6, abar=sparse.identity(6, format="csr"), ca=1.0)
    assert initial_stepsize(op, X0, objective(op, X0)[1]).tolist() == [pytest.approx(0.5)]


def test_initial_stepsize_degenerate_falls_back():
    # C = -I/2: grad(X) = X, already row-normalized, so X1 = X0 exactly
    X0 = project_rows(np.random.default_rng(3).normal(size=(1, 5, 3)))
    op = ObjectiveOperator(5, abar=-0.5 * np.eye(5), ca=1.0)
    assert initial_stepsize(op, X0, objective(op, X0)[1]).tolist() == [1.0]


def test_initial_stepsize_positive_finite():
    rng = np.random.default_rng(5)
    for _ in range(100):
        op, n, k = random_embedding_op(rng, n_max=20)
        X0 = seeded_features(n, k, stream=int(rng.integers(0, 1000)))[None]
        (a,) = initial_stepsize(op, X0, objective(op, X0)[1])
        assert np.isfinite(a) and a > 0


# ---------------------------------------------------------------------------
# minimize

def test_minimize_stationary_start_stops_at_zero_iterations():
    # every row-feasible point is a fixed point of the projected gradient map
    # for C = I, so the initial residual is zero
    X0 = project_rows(np.random.default_rng(7).normal(size=(1, 8, 2)))
    res = minimize(ObjectiveOperator(8, abar=sparse.identity(8, format="csr"), ca=1.0), X0)
    assert res.iterations == 0
    assert res.converged
    assert np.allclose(res.X, X0, atol=1e-15)


def test_minimize_two_vertex_grid_oracle():
    # one 2-pin hyperedge, pure clique objective: F depends only on the angle
    # between the two embedded rows; the optimum aligns them
    h = Hypergraph.from_edges([[0, 1]], n=2)
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, [(1.0, 1.0)])
    res = minimize(op, seeded_features(2, 2, stream=0)[None])
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
    assert objective(op, res.X)[0].tolist() == [pytest.approx(best, abs=1e-4)]
    # rows align
    assert float(res.X[0, 0] @ res.X[0, 1]) == pytest.approx(1.0, abs=1e-4)


def test_minimize_trace_invariants():
    rng = np.random.default_rng(11)
    op, n, _ = random_embedding_op(rng, n_max=15)
    X0 = seeded_features(n, 3, stream=4)[None]
    res = minimize(op, X0)
    assert np.allclose(np.linalg.norm(res.X, axis=-1), 1.0, atol=1e-12)
    # replay the averaged-bound recurrence and the acceptance rule
    (c,) = objective(op, project_rows(X0))[0]
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
        assert res.residuals.max() <= 1e-3


def test_minimize_convergence_rate_on_randoms():
    rng = np.random.default_rng(13)
    converged = 0
    for i in range(10):
        op, n, k = random_embedding_op(rng, n_max=40)
        res = minimize(op, seeded_features(n, k, stream=i)[None])
        converged += res.converged
    assert converged >= 8


def test_minimize_deterministic():
    rng = np.random.default_rng(17)
    op, n, k = random_embedding_op(rng, n_max=25)
    X0 = seeded_features(n, k, stream=9)[None]
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
    # stepsize secant, the stationarity probe); 1 per accepted iteration
    # (the trial point; the extrapolated gradient comes from the last two)
    # and 1 more for a fallback step
    rng = np.random.default_rng(37)
    h = random_hypergraph(rng, 30, 40, weighted=True)
    g = clique_expand(h)
    blocks = rng.integers(0, 2, size=h.n)
    ops = [ObjectiveOperator.pair_refinement(g, h.vertex_weight, blocks, [(xi1, 0.5)])
           for xi1 in (0.5, 0.15)]
    ops += [random_embedding_op(rng, n_max=30)[0] for _ in range(4)]
    branches = set()
    for i, op in enumerate(ops):
        calls = counted(op)
        res = minimize(op, seeded_features(op.n, 2, stream=i)[None], ApgParams(max_iters=200))
        branches.update(rec.accepted for rec in res.trace)
        assert calls[0] == 3 + sum(1 if rec.accepted else 2 for rec in res.trace)
    assert branches == {True, False}
    # a stationary start stops after the 3 start-up applies
    op = ObjectiveOperator(8, abar=sparse.identity(8, format="csr"), ca=1.0)
    calls = counted(op)
    assert minimize(op, seeded_features(8, 2)[None]).iterations == 0
    assert calls[0] == 3


def embedding_stack(rng, n_max=60):
    """An embedding operator of four (lam1, lam2) solves and a start stack."""
    n = int(rng.integers(6, n_max + 1))
    h = random_hypergraph(rng, n, 2 * n, weighted=True)
    lams = [(0.9, 1.0), (0.5, 0.9), (0.15, 0.8), (0.015, 1.0)]
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, lams)
    return op, np.stack([seeded_features(n, 3, stream=s) for s in range(4)])


@pytest.mark.parametrize("kind", ["pair", "embedding"])
def test_extrapolated_gradient_equals_gradient_at_extrapolated_point(kind):
    # the loop takes grad F(y) at y = X_k + beta (X_k - X_{k-1}) as
    # g_k + beta (g_k - g_{k-1}); F is quadratic, so only rounding separates
    # them, bounded here by float64 and the gradients' size
    rng = np.random.default_rng(59)
    for _ in range(3):
        if kind == "pair":
            args, X0 = random_pair_stack(rng)
            op = ObjectiveOperator.pair_refinement(*args, GRID)
        else:
            op, X0 = embedding_stack(rng)
        for k in (1, 5, 40, 200):  # consecutive iterates: a cap stops the same run
            X_prev = project_rows(X0) if k == 1 else minimize(op, X0, ApgParams(max_iters=k - 1)).X
            X_cur = minimize(op, X0, ApgParams(max_iters=k)).X
            beta = k / (k + 3.0)
            g_prev, g_cur = objective(op, X_prev)[1], objective(op, X_cur)[1]
            gy = g_cur + beta * (g_cur - g_prev)
            want = objective(op, X_cur + beta * (X_cur - X_prev))[1]
            scale = np.maximum(np.abs(g_cur).max(axis=(1, 2)), np.abs(g_prev).max(axis=(1, 2)))
            assert (np.abs(gy - want).max(axis=(1, 2)) <= 1e-12 * scale).all()
            assert not np.array_equal(X_prev, X_cur)


def test_minimize_rejects_nonfinite():
    op = ObjectiveOperator(3, abar=sparse.diags([np.inf, 1.0, 1.0], format="csr"), ca=1.0)
    with pytest.raises(FloatingPointError):
        minimize(op, seeded_features(3, 2)[None])


# ---------------------------------------------------------------------------
# stacks of solves

GRID = [(xi1, xi2) for xi1 in (0.5, 0.15) for xi2 in (1.0, 0.8, 0.2)]


def random_pair_stack(rng, n_max=60):
    """A pair operator over GRID and a start stack where some solves begin
    at constant rows, a fixed point of every pair objective."""
    n = int(rng.integers(6, n_max + 1))
    h = random_hypergraph(rng, n, 2 * n, weighted=True)
    g = clique_expand(h)
    blocks = rng.integers(0, 2, size=n)
    X0 = np.stack([seeded_features(n, 2, stream=int(s)) for s in rng.integers(0, 999, size=6)])
    for s in np.flatnonzero(rng.uniform(size=6) < 0.25):
        X0[s] = project_rows(rng.normal(size=2))
    return (g, h.vertex_weight, blocks), X0


def one_solve_reference(op, X0, params):
    """The solver loop for one (n, c) solve in scalar arithmetic, kept as the
    oracle of the stacked solver: X, iterations, converged, error, trace.
    ``op`` holds one solve and sees each iterate as a stack of one."""

    def value_and_gradient(X):
        F, g = objective(op, X[None])
        return float(F[0]), g[0]

    X_cur = project_rows(X0)
    eps = params.epsilon
    F_cur, g_cur = value_and_gradient(X_cur)
    alpha = float(initial_stepsize(op, X_cur[None], g_cur[None])[0])
    probe = project_rows(X_cur - alpha * g_cur)
    error = float(np.abs((probe - X_cur) / alpha + objective(op, probe[None])[1][0] - g_cur).max())
    trace = []
    alpha1 = alpha + min(1.0, alpha) * apg._grow_term(0)
    delta2 = min(2.0 * apg.DELTA1, 0.49 * (1.0 - apg.MU0) / alpha1)
    delta1 = apg.DELTA1 if delta2 > apg.DELTA1 else delta2 / 2.0
    X_prev, g_prev, bound, q, k = X_cur, g_cur, F_cur, 1.0, 0
    while error > eps and k < params.max_iters:
        alpha_next = alpha + min(1.0, alpha) * apg._grow_term(k)
        beta = k / (k + 3.0)
        y = X_cur + beta * (X_cur - X_prev)
        z = project_rows(y - alpha_next * (g_cur + beta * (g_cur - g_prev)))
        zy2 = float(((z - y) ** 2).sum())
        zx2 = float(((z - X_cur) ** 2).sum())
        yx2 = float(((y - X_cur) ** 2).sum())
        inflate = 1.0 + apg.SIGMA / k ** apg.R if k >= 1 else 1.0
        phi1 = zy2 + zx2 - inflate * yx2
        phi2 = delta1 * zx2 - delta2 * (zy2 + zx2 - yx2)
        F_z, g_z = value_and_gradient(z)
        accepted = phi1 >= 0.0 and F_z <= min(F_cur + phi2, bound)
        if accepted:
            X_next, F_next, g_next = z, F_z, g_z
        else:
            X_next = project_rows(X_cur - alpha_next * g_cur)
            F_next, g_next = value_and_gradient(X_next)
        error = float(np.abs((X_next - X_cur) / alpha_next + g_next - g_cur).max())
        k += 1
        trace.append((k, F_next, alpha_next, accepted, error, bound))
        q_next = 1.0 + ETA * q
        bound = (ETA * q * bound + F_next) / q_next
        q = q_next
        X_prev, X_cur, F_cur, g_prev, g_cur = X_cur, X_next, F_next, g_cur, g_next
        alpha = alpha_next
    return X_cur, k, error <= eps, error, trace


def each_solve(res):
    """Per solve of a result: X, iterations, converged, error and trace,
    as ``one_solve_reference`` returns them."""
    trace, start = res.trace, 0
    for X, steps, residual in zip(res.X, res.steps.tolist(), res.residuals.tolist()):
        yield X, steps, residual <= res.epsilon, residual, trace[start:start + steps]
        start += steps


def assert_same_result(got, want):
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]


def test_minimize_stack_equals_each_solve_alone():
    rng = np.random.default_rng(41)
    stops = set()
    for _ in range(12):
        args, X0 = random_pair_stack(rng)
        params = ApgParams(max_iters=int(rng.integers(40, 400)))
        res = minimize(ObjectiveOperator.pair_refinement(*args, GRID), X0, params)
        singles = [ObjectiveOperator.pair_refinement(*args, [xi]) for xi in GRID]
        alone = [minimize(op, x0[None], params) for op, x0 in zip(singles, X0)]
        for got, one, op, x0 in zip(each_solve(res), alone, singles, X0):
            want = one_solve_reference(op, x0, params)
            assert_same_result(got, want)
            assert_same_result(next(each_solve(one)), want)
            stops.add("start" if one.iterations == 0 else
                      "cap" if one.iterations == params.max_iters else "converged")
        assert res.X.shape == X0.shape
        assert res.iterations == sum(one.iterations for one in alone)
        assert res.converged == all(one.converged for one in alone)
        assert res.residuals.max() == max(one.residuals.max() for one in alone)
        assert res.trace == [rec for one in alone for rec in one.trace]
        assert len({one.iterations for one in alone}) > 1
    assert stops == {"start", "cap", "converged"}


def test_minimize_custom_stack_equals_each_solve_alone():
    # a custom operator with the unit-balance term, which pair stacks lack,
    # and three columns; some solves leave a term out
    rng = np.random.default_rng(53)
    for _ in range(4):
        n = int(rng.integers(10, 50))
        g = clique_expand(random_hypergraph(rng, n, 2 * n, weighted=True))
        abar = (sparse.diags(g.degree) + g.adjacency).tocsr()
        ca, cu = rng.uniform(size=(2, 4)) * (rng.uniform(size=(2, 4)) < 0.8)
        X0 = np.stack([seeded_features(n, 3, stream=s) for s in range(4)])
        params = ApgParams(max_iters=300)
        res = minimize(ObjectiveOperator(n, abar=abar, ca=ca, cu=cu), X0, params)
        for s, got in enumerate(each_solve(res)):
            op = ObjectiveOperator(n, abar=abar, ca=ca[s], cu=cu[s])
            assert_same_result(got, one_solve_reference(op, X0[s], params))


def test_minimize_stack_applies_to_live_solves_only():
    # per solve, the single-solve count: 3 start-up applies, 1 per accepted
    # step and 2 per rejected one; stopped solves cost nothing
    rng = np.random.default_rng(47)
    sizes = []
    apply = ObjectiveOperator.apply

    def wrapper(self, X):
        sizes.append(X.shape[0])
        return apply(self, X)

    for _ in range(4):
        args, X0 = random_pair_stack(rng)
        sizes.clear()
        ObjectiveOperator.apply = wrapper
        try:
            res = minimize(ObjectiveOperator.pair_refinement(*args, GRID), X0,
                           ApgParams(max_iters=150))
        finally:
            ObjectiveOperator.apply = apply
        want = sum(3 + sum(1 if rec.accepted else 2 for rec in trace)
                   for *_, trace in each_solve(res))
        assert sum(sizes) == want
        assert sizes[:3] == [6, 6, 6]


class BareStack:
    """A stack of linear maps with only ``n``, ``apply`` and ``take``: each
    solve's matrix is held whole and applied as it is."""

    def __init__(self, mats):
        self.mats = mats
        self.n = mats[0].shape[0]

    def apply(self, X):
        return np.stack([C @ x for C, x in zip(self.mats, X)])

    def take(self, solves):
        return BareStack([self.mats[s] for s in np.atleast_1d(solves)])


def test_minimize_runs_on_apply_and_take_alone():
    # dense PSD matrices C_s = ca_s M; the powers of two make ca_s M exact, so
    # both stacks compute the same products, and the solves equal bit for bit
    rng = np.random.default_rng(67)
    ca = np.array([1.0, 0.25, 4.0, 0.5])
    for n in (12, 30):
        G = rng.normal(size=(n, n))
        M = G @ G.T / n
        X0 = np.stack([seeded_features(n, 2, stream=s) for s in range(4)])
        params = ApgParams(max_iters=300)
        want = minimize(ObjectiveOperator(n, abar=sparse.csr_matrix(M), ca=ca), X0, params)
        got = minimize(BareStack([sparse.csr_matrix(c * M) for c in ca]), X0, params)
        assert np.array_equal(got.X.view(np.int64), want.X.view(np.int64))
        assert np.array_equal(got.steps, want.steps)
        assert np.array_equal(got.residuals, want.residuals)
        assert got.trace == want.trace
        assert len(set(want.steps.tolist())) > 1  # some solves leave the stack early


class TransposeStack:
    """An operator stack seen only through ``apply`` and ``take``, with
    ``apply`` the transpose-based oracle of ``ObjectiveOperator.apply``."""

    def __init__(self, op):
        self.op = op
        self.n = op.n

    def apply(self, X):
        return transpose_apply(self.op, X)

    def take(self, solves):
        return TransposeStack(self.op.take(solves))


def test_minimize_equals_its_run_on_the_transpose_formula():
    # a (6, ~300, 2) pair stack, a (2, ~200, 2) embedding stack and a c = 4
    # stack; some solves leave the stack early and every stack takes a
    # fallback step
    rng = np.random.default_rng([71, 0])
    params = ApgParams(max_iters=200)
    stacks = []
    n = int(rng.integers(280, 320))
    h = random_hypergraph(rng, n, 2 * n, weighted=True)
    op = ObjectiveOperator.pair_refinement(
        clique_expand(h), h.vertex_weight, rng.integers(0, 2, size=n), GRID)
    stacks.append((op, 2))
    for size, lams, c in ((200, [(0.5, 0.8), (0.015, 1.0)], 2),
                          (60, [(0.9, 0.8), (0.5, 1.0), (0.15, 0.9)], 4)):
        n = int(rng.integers(size - 10, size + 20))
        h = random_hypergraph(rng, n, 2 * n, weighted=True)
        stacks.append((ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, lams), c))
    early = 0
    for op, c in stacks:
        X0 = np.stack([seeded_features(op.n, c, stream=s) for s in range(op.solves)])
        got = minimize(op, X0, params)
        want = minimize(TransposeStack(op), X0, params)
        assert np.array_equal(got.X.view(np.int64), want.X.view(np.int64))
        assert np.array_equal(got.steps, want.steps)
        assert np.array_equal(got.residuals.view(np.int64), want.residuals.view(np.int64))
        assert got.trace == want.trace
        assert np.array_equal(got.log, want.log, equal_nan=True)
        assert not all(rec.accepted for rec in got.trace)
        early += int((got.steps < params.max_iters).sum())
    assert early >= 2


def test_minimize_log_is_nan_past_each_solve():
    # np.empty memory once filled the log past a solve's stop; make that
    # memory dirty between the runs, then compare the whole log
    rng = np.random.default_rng(73)
    args, X0 = random_pair_stack(rng)
    op = ObjectiveOperator.pair_refinement(*args, GRID)
    for cap in (120, 1000):  # some solves reach 120, none reaches 1000
        first = minimize(op, X0, ApgParams(max_iters=cap))
        np.full(first.log.shape, 7.0)
        second = minimize(op, X0, ApgParams(max_iters=cap))
        assert np.array_equal(first.log, second.log, equal_nan=True)
        assert (first.steps.max() == cap) == (cap == 120)
        assert first.log.shape == (5, 6, first.steps.max())  # as wide as the longest solve
        assert len(set(first.steps.tolist())) > 1
        for s, steps in enumerate(first.steps.tolist()):
            assert np.isnan(first.log[:, s, steps:]).all()
            assert not np.isnan(first.log[:, s, :steps]).any()


def test_minimize_stack_rejects_nonfinite_solve():
    # solve 1 has an infinite objective; solve 0 alone runs fine
    op = ObjectiveOperator(5, abar=sparse.identity(5, format="csr"), ca=[1.0, np.inf])
    X0 = np.stack([seeded_features(5, 2, stream=s) for s in range(2)])
    assert np.isfinite(minimize(op.take([0]), X0[:1]).residuals).all()
    with pytest.raises(FloatingPointError, match="solve 1"):
        minimize(op, X0)


@pytest.mark.parametrize("field, value", [
    pytest.param("epsilon", 0, id="epsilon-0"),
    pytest.param("epsilon", float("nan"), id="epsilon-nan"),
    pytest.param("epsilon", float("inf"), id="epsilon-inf"),
    pytest.param("max_iters", 0, id="max_iters-0"),
    pytest.param("max_iters", 2.5, id="max_iters-2.5"),
    pytest.param("max_iters", True, id="max_iters-True"),  # a bool is not a count
    pytest.param("epsilon", True, id="epsilon-True"),  # nor a tolerance
    pytest.param("epsilon", np.True_, id="epsilon-np.True_"),
])
def test_params_validation(field, value):
    with pytest.raises(ValueError, match=field):
        ApgParams(**{field: value})


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


# ---------------------------------------------------------------------------
# the solver loop against its array-scalar oracle

class Blowup:
    """An operator stack whose solve ``bad`` returns inf from its
    ``after``-th application on (counted over the applications that include
    it, ``take`` stacks too)."""

    def __init__(self, op, bad, after, ids=None, count=None):
        self.op, self.bad, self.after = op, bad, after
        self.ids = np.arange(op.solves) if ids is None else ids
        self.count = [0] if count is None else count
        self.n = op.n

    def apply(self, X):
        out = self.op.apply(X)
        hit = self.ids == self.bad
        if hit.any():
            self.count[0] += 1
            if self.count[0] > self.after:
                out[hit] = np.inf
        return out

    def take(self, solves):
        return Blowup(self.op.take(solves), self.bad, self.after, self.ids[solves], self.count)


WEIGHTS = [1.0, 0.9, 0.5, 0.15, 0.015, 0.0]


@st.composite
def solver_cases(draw):
    """(kind, n, c, seed, still, epsilon, max_iters, blowup): an embedding
    or pair stack of len(still) solves on an n-vertex random hypergraph with
    c columns, whose solve s starts at constant rows, a fixed point, when
    still[s]; blowup is None or (solve, applications) for ``Blowup``."""
    kind = draw(st.sampled_from(["embedding", "pair"]))
    n = draw(st.integers(2, 24))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    still = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    epsilon = draw(st.sampled_from([1e-1, 1e-3, 1e-6]))
    max_iters = draw(st.integers(1, 200))
    blowup = draw(st.one_of(st.none(), st.tuples(st.integers(0, len(still) - 1),
                                                 st.integers(0, 30))))
    return kind, n, c, seed, still, epsilon, max_iters, blowup


def build_solver_case(case):
    """The operator, start stack and params of a ``solver_cases`` case."""
    kind, n, c, seed, still, epsilon, max_iters, blowup = case
    rng = np.random.default_rng(seed)
    h = random_hypergraph(rng, n, 2 * n, weighted=True)
    pairs = rng.choice(WEIGHTS, size=(len(still), 2)).tolist()
    if kind == "embedding":
        op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, pairs)
    else:
        blocks = rng.integers(0, 2, size=n)
        op = ObjectiveOperator.pair_refinement(clique_expand(h), h.vertex_weight, blocks, pairs)
    X0 = rng.normal(size=(len(still), n, c))
    for s in np.flatnonzero(still):
        X0[s] = rng.normal(size=c)
    return op, X0, ApgParams(epsilon=epsilon, max_iters=max_iters)


def run_solver_case(solve, case):
    """The result of ``solve`` on a case, or the text of the
    ``FloatingPointError`` it raised."""
    op, X0, params = build_solver_case(case)
    quiet = "ignore" if case[-1] is not None else "raise"
    if case[-1] is not None:
        op = Blowup(op, *case[-1])
    try:
        with np.errstate(invalid=quiet):  # inf - inf in a blown-up objective
            return solve(op, X0, params)
    except FloatingPointError as exc:
        return str(exc)


STILL = [False, True, False, False, False, False]
SOLVER_EXAMPLES = {
    "stops": ("pair", 20, 2, 4, STILL, 1e-3, 200, None),
    "rejects": ("embedding", 16, 4, 11, [False, True, False, False], 1e-1, 200, None),
    "cap": ("pair", 12, 3, 7, [False] * 3, 1e-6, 8, None),
    "bound": ("pair", 24, 2, 199, [False, False], 1e-6, 200, None),
    "long": ("embedding", 20, 2, 1, [False, True, False], 1e-6, 4100, None),
    "stationary": ("pair", 10, 2, 5, [True] * 3, 1e-3, 50, None),
    "single": ("pair", 16, 2, 1, [False], 1e-3, 200, None),
    "start-inf": ("pair", 8, 2, 3, [False, False], 1e-3, 50, (1, 0)),
    "trial-inf": ("pair", 20, 2, 4, STILL, 1e-3, 200, (2, 20)),
    "fallback-inf": ("pair", 20, 2, 4, STILL, 1e-3, 200, (3, 10)),
}


def test_solver_examples_take_their_paths():
    # each example of the oracle property below reaches the path it names
    got = {name: run_solver_case(minimize, case) for name, case in SOLVER_EXAMPLES.items()}
    assert len(set(got["stops"].steps.tolist())) == 6
    assert got["stops"].steps[1] == 0
    assert (got["rejects"].log[2] == 0.0).any()
    assert got["cap"].steps.tolist() == [8, 8, 8]
    # F above the averaged bound, so the bound, not F + phi2, decides a step
    value, bound = got["bound"].log[0], got["bound"].log[4]
    assert (value[:, :-1] > bound[:, 1:]).any()
    # the log is as wide as the longest solve, past 4096 steps too
    assert got["long"].steps.max() == 4100 and got["long"].log.shape[2] == 4100
    assert got["stationary"].steps.tolist() == [0, 0, 0]
    assert 0 < got["single"].steps[0] < 200
    assert got["start-inf"] == "non-finite objective in solve 1 at iteration 0 (start)"
    assert got["trial-inf"].endswith("(trial)") and "solve 2" in got["trial-inf"]
    assert got["fallback-inf"].endswith("(fallback)") and "solve 3" in got["fallback-inf"]


def examples(cases):
    """Decorate a property with one ``example`` per case."""
    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return decorate


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=solver_cases())
@examples(SOLVER_EXAMPLES.values())
def test_minimize_equals_its_array_scalar_oracle(case):
    got = run_solver_case(minimize, case)
    want = run_solver_case(reference_minimize, case)
    if isinstance(want, str):
        assert got == want
        return
    assert np.array_equal(got.X.view(np.int64), want.X.view(np.int64))
    assert np.array_equal(got.steps, want.steps)
    assert np.array_equal(got.residuals, want.residuals, equal_nan=True)
    assert np.array_equal(got.log, want.log, equal_nan=True)
