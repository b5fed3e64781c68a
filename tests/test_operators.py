"""Operator tests against dense oracles built from first principles."""

import numpy as np
import pytest
from scipy import sparse

from helpers import (
    dense_gu,
    dense_gw,
    dense_kpartite,
    max_product_compositions,
    objective,
    pairwise_product_sum,
    random_hypergraph,
    transpose_apply,
)
from mstpart.hypergraph import Hypergraph
from mstpart.operators import (
    CliqueGraph,
    ObjectiveOperator,
    clique_expand,
    laplacian,
)


def dense_clique_oracle(h):
    """Entrywise a_ij = sum over shared edges of w_e / (|e| - 1)."""
    A = np.zeros((h.n, h.n))
    for e in range(h.m):
        pins = h.edge_pins(e).tolist()
        if len(pins) < 2:
            continue
        w = h.edge_weight[e] / (len(pins) - 1)
        for i in pins:
            for j in pins:
                if i != j:
                    A[i, j] += w
    return A


def dense_embedding_matrix(h, B, lam1, lam2):
    A = dense_clique_oracle(h)
    abar = np.diag(A.sum(axis=1)) + A
    return lam1 * abar + (1 - lam1) * (lam2 * dense_gu(h.n) + (1 - lam2) * dense_gw(B))


def dense_pair_matrix(A, B, blocks, xi1, xi2):
    abar = np.diag(A.sum(axis=1)) + A
    return xi1 * abar + (1 - xi1) * (xi2 * dense_gw(B) + (1 - xi2) * dense_kpartite(blocks))


# ---------------------------------------------------------------------------
# clique expansion

def test_clique_expand_triangle_edge():
    h = Hypergraph.from_edges([[0, 1, 2]], n=3, edge_weight=[4])
    A = clique_expand(h).adjacency.toarray()
    assert A[0, 1] == pytest.approx(2.0)  # 4 / (3 - 1)
    assert A[0, 0] == 0.0
    assert np.allclose(A, A.T)


def test_clique_expand_accumulates_and_skips_singletons():
    h = Hypergraph.from_edges([[0, 1], [0, 1, 2], [2]], n=3, edge_weight=[3, 2, 9])
    g = clique_expand(h)
    A = g.adjacency.toarray()
    assert A[0, 1] == pytest.approx(3.0 + 1.0)
    assert A[0, 2] == pytest.approx(1.0)
    assert np.allclose(g.degree, A.sum(axis=1))


def test_clique_expand_matches_dense_oracle():
    rng = np.random.default_rng(61)
    for _ in range(20):
        h = random_hypergraph(rng, 10, 14, weighted=True)
        A = clique_expand(h).adjacency.toarray()
        assert np.allclose(A, dense_clique_oracle(h), atol=1e-12)


def ascending_net_sums(h):
    """Entry (u, v) summed as Python floats over the shared nets, ascending."""
    sums = {}
    for e in range(h.m):
        pins = h.edge_pins(e).tolist()
        w = float(h.edge_weight[e]) / max(len(pins) - 1, 1)
        for u in pins:
            for v in pins:
                if u != v:
                    sums[u, v] = sums.get((u, v), 0.0) + w
    return sums


def test_clique_expand_entries_equal_ascending_net_sums():
    rng = np.random.default_rng(71)
    graphs = [Hypergraph.from_edges([], n=4), Hypergraph.from_edges([[1], [2]], n=3)]
    for _ in range(300):
        n, m = int(rng.integers(1, 30)), int(rng.integers(0, 40))
        graphs.append(random_hypergraph(rng, n, m, max_edge_size=8, weighted=True))
    single = isolated = 0
    for h in graphs:
        adj = clique_expand(h).adjacency
        coo = adj.tocoo()
        got = {(int(u), int(v)): float(x) for u, v, x in zip(coo.row, coo.col, coo.data)}
        assert got == ascending_net_sums(h)  # exact, not approximate
        assert adj.has_sorted_indices
        single += bool(np.any(h.edge_sizes() == 1))
        isolated += bool(np.any(np.diff(h.inc_offsets) == 0))
    assert single >= 100 and isolated >= 50


def test_laplacian_properties():
    rng = np.random.default_rng(67)
    h = random_hypergraph(rng, 12, 16, weighted=True)
    g = clique_expand(h)
    L = laplacian(g).toarray()
    assert np.allclose(L @ np.ones(h.n), 0.0, atol=1e-9)
    # PSD via random quadratic forms
    for _ in range(20):
        x = rng.normal(size=h.n)
        assert x @ L @ x >= -1e-9
    # quadratic form equals the weighted sum of squared differences
    A = g.adjacency.toarray()
    x = rng.normal(size=h.n)
    direct = 0.5 * sum(
        A[i, j] * (x[i] - x[j]) ** 2 for i in range(h.n) for j in range(h.n)
    )
    assert x @ L @ x == pytest.approx(direct)


# ---------------------------------------------------------------------------
# matrix-free application

def test_apply_pure_clique_part():
    rng = np.random.default_rng(71)
    h = random_hypergraph(rng, 9, 12)
    g = clique_expand(h)
    op = ObjectiveOperator.embedding(g, np.ones(h.n), [(1.0, 0.9)])
    X = rng.normal(size=(1, h.n, 3))
    abar = np.diag(g.degree) + g.adjacency.toarray()
    assert np.allclose(op.apply(X), abar @ X, atol=1e-10)


def test_apply_constant_rows_kill_unit_balance():
    # Gu annihilates constant columns: Gu 1 c^T = 0
    rng = np.random.default_rng(73)
    h = random_hypergraph(rng, 8, 10)
    g = clique_expand(h)
    op = ObjectiveOperator.embedding(g, np.ones(h.n), [(0.0, 1.0)])
    X = np.tile(rng.normal(size=(1, 2)), (1, h.n, 1))
    assert np.allclose(op.apply(X), 0.0, atol=1e-9)


def test_apply_embedding_matches_dense():
    rng = np.random.default_rng(79)
    for _ in range(15):
        h = random_hypergraph(rng, 20, 25, weighted=True)
        B = h.vertex_weight
        lam1, lam2 = rng.uniform(size=2)
        op = ObjectiveOperator.embedding(clique_expand(h), B, [(lam1, lam2)])
        C = dense_embedding_matrix(h, B, lam1, lam2)
        X = rng.normal(size=(1, h.n, 3))
        got, want = op.apply(X), C @ X
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_apply_pair_matches_dense():
    rng = np.random.default_rng(83)
    for _ in range(15):
        h = random_hypergraph(rng, 18, 22, weighted=True)
        g = clique_expand(h)
        blocks = rng.integers(0, 2, size=h.n)
        xi1, xi2 = rng.uniform(size=2)
        op = ObjectiveOperator.pair_refinement(g, h.vertex_weight, blocks, [(xi1, xi2)])
        C = dense_pair_matrix(g.adjacency.toarray(), h.vertex_weight, blocks, xi1, xi2)
        X = rng.normal(size=(1, h.n, 2))
        got, want = op.apply(X), C @ X
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_multipartite_part_three_blocks():
    rng = np.random.default_rng(89)
    n = 12
    blocks = rng.integers(0, 3, size=n)
    op = ObjectiveOperator(n, abar=sparse.csr_matrix((n, n)), cp=1.0, blocks=blocks)
    K = dense_kpartite(blocks)
    X = rng.normal(size=(1, n, 4))
    assert np.allclose(op.apply(X), K @ X, atol=1e-10)


def formula_apply(op, X):
    """The documented formula for one solve, from its raw inputs:
    d X - U (coef * (U^T X)) + ca (Abar X), with the columns of U and the
    entries of d and coef in documented order and B, e_b only when given."""
    n = op.n
    d = op.cu * np.full(n, float(n))
    columns, coef = [np.ones(n)], [op.cu + op.cp]
    if op.weights is not None:
        B = op.weights
        d = d + op.cw * (B.sum() * B)
        columns.append(B)
        coef.append(op.cw)
    if op.blocks is not None:
        sizes = np.bincount(op.blocks)
        d = d + op.cp * (n - sizes[op.blocks]).astype(float)
        columns += [(op.blocks == b).astype(float) for b in range(sizes.shape[0])]
        coef += [-op.cp] * sizes.shape[0]
    U, coef = np.column_stack(columns), np.hstack(coef)
    out = d[:, None] * X
    out -= U @ (coef[:, None] * (U.T @ X))
    out += op.ca * (op.abar @ X)
    return out


def legacy_formula_apply(op, X):
    """The formula term by term, as the operator once evaluated it: a zero
    array, in-place adds, np.outer for B colsum^T and np.add.at for the
    block sums."""
    out = np.zeros_like(X)
    if op.ca:
        out += op.ca * (op.abar @ X)
    if op.cu:
        out += op.cu * (op.n * X - X.sum(axis=0, keepdims=True))
    if op.cw:
        B = op.weights
        out += op.cw * (B.sum() * (B[:, None] * X) - np.outer(B, B @ X))
    if op.cp:
        sizes = np.bincount(op.blocks)
        block_sums = np.zeros((sizes.shape[0], X.shape[1]))
        np.add.at(block_sums, op.blocks, X)
        others = X.sum(axis=0, keepdims=True) - block_sums[op.blocks]
        out += op.cp * ((op.n - sizes[op.blocks])[:, None] * X - others)
    return out


def formula_case(rng, mode, num_blocks, empty_block):
    """One single-solve operator of the given kind on a random instance,
    with its dense matrix C built term by term."""
    h = random_hypergraph(rng, 25, 30, weighted=True)
    g = clique_expand(h)
    blocks = rng.integers(0, num_blocks, size=h.n)
    if empty_block:  # block id num_blocks - 2 keeps no member
        blocks[blocks == num_blocks - 2] = num_blocks - 1
    B = rng.uniform(0.5, 3.0, size=h.n)
    c = rng.uniform(size=4)
    abar = (sparse.diags(g.degree) + g.adjacency).tocsr()
    if mode == "embedding":
        op = ObjectiveOperator.embedding(g, B, [(c[0], c[1])])
    elif mode == "pair":
        op = ObjectiveOperator.pair_refinement(g, B, blocks, [(c[0], c[1])])
    else:
        op = ObjectiveOperator(
            h.n, abar=abar, ca=c[0], cu=c[1], cw=c[2], cp=c[3],
            weights=B, blocks=blocks,
        )
    C = op.ca[0] * abar.toarray() + op.cu[0] * dense_gu(h.n) + op.cw[0] * dense_gw(B)
    if op.blocks is not None:
        C += op.cp[0] * dense_kpartite(blocks)
    return op, C


@pytest.mark.parametrize("empty_block", [False, True])
@pytest.mark.parametrize("num_blocks", [2, 3])
@pytest.mark.parametrize("mode", ["embedding", "pair", "custom"])
def test_apply_bit_equals_formula(mode, num_blocks, empty_block):
    rng = np.random.default_rng([109, num_blocks, empty_block])
    for _ in range(5):
        op, _ = formula_case(rng, mode, num_blocks, empty_block)
        # k = 2 twice: a repeated call gives the same bits
        for k in (1, 2, 4, 2):
            X = rng.normal(size=(1, op.n, k))
            want = formula_apply(op, X[0])
            assert np.array_equal(op.apply(X)[0], want)
            value, grad = objective(op, X)
            assert value.tolist() == [-float(np.sum(want * X[0]))] == objective(op, X)[0].tolist()
            assert np.array_equal(grad[0], -2.0 * want)
            assert np.array_equal(objective(op, X)[1], grad)


@pytest.mark.parametrize("c", [1, 2, 4])
@pytest.mark.parametrize("empty_block", [False, True])
@pytest.mark.parametrize("num_blocks", [2, 3])
@pytest.mark.parametrize("mode", ["embedding", "pair", "custom"])
def test_apply_stays_near_the_legacy_formula(mode, num_blocks, empty_block, c):
    """The low-rank evaluation rounds differently from the term-by-term one,
    by at most 1e-12 of max|C| max|X|."""
    rng = np.random.default_rng([131, num_blocks, empty_block, c])
    for _ in range(5):
        op, C = formula_case(rng, mode, num_blocks, empty_block)
        X = rng.normal(size=(1, op.n, c))
        drift = np.abs(op.apply(X)[0] - legacy_formula_apply(op, X[0])).max()
        assert drift <= 1e-12 * np.abs(C).max() * np.abs(X).max()
        assert np.abs(legacy_formula_apply(op, X[0]) - C @ X[0]).max() \
            <= 1e-12 * np.abs(C).max() * np.abs(X).max()


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("c", [1, 2, 3])
@pytest.mark.parametrize("kind", ["pair", "custom"])
@pytest.mark.parametrize("solves", [1, 2, 6])
def test_stacked_apply_bit_equals_each_slice(solves, kind, c):
    rng = np.random.default_rng([113, solves, c, kind == "pair"])
    for _ in range(4):
        h = random_hypergraph(rng, 30, 40, weighted=True)
        g = clique_expand(h)
        blocks = rng.integers(0, 3, size=h.n)
        B = rng.uniform(0.5, 3.0, size=h.n)
        if kind == "pair":
            # xi2 = 1 zeroes the multipartite term, xi1 = 1 all but the clique
            xis = [(1.0, 0.3), (0.5, 1.0), (0.15, 0.2), (0.5, 0.8), (0.0, 0.5), (0.15, 1.0)]
            xis = [xis[i] for i in rng.permutation(6)[:solves]]
            op = ObjectiveOperator.pair_refinement(g, B, blocks, xis)
            alone = [ObjectiveOperator.pair_refinement(g, B, blocks, [xi]) for xi in xis]
        else:
            coefs = rng.uniform(size=(4, solves)) * (rng.uniform(size=(4, solves)) < 0.7)
            abar = (sparse.diags(g.degree) + g.adjacency).tocsr()
            make = lambda ca, cu, cw, cp: ObjectiveOperator(
                h.n, abar=abar, ca=ca, cu=cu, cw=cw, cp=cp, weights=B, blocks=blocks)
            op = make(*coefs)
            alone = [make(*coefs[:, s]) for s in range(solves)]
        assert op.solves == solves
        X = rng.normal(size=(solves, h.n, c))
        got = op.apply(X)
        value, grad = objective(op, X)
        assert got.shape == X.shape and value.shape == (solves,)
        for s, one in enumerate(alone):
            want = one.apply(X[s:s + 1])[0]
            assert np.array_equal(bits(got[s]), bits(want))
            assert np.array_equal(bits(want), bits(formula_apply(one, X[s])))
            assert value[s] == objective(one, X[s:s + 1])[0][0] == objective(op, X)[0][s]
            assert np.array_equal(bits(grad[s]), bits(objective(one, X[s:s + 1])[1][0]))
        pick = rng.permutation(solves)[: max(1, solves // 2)]
        assert np.array_equal(bits(op.take(pick).apply(X[pick])), bits(got[pick]))


def random_stack(rng, kind, solves, n):
    """An operator stack of ``solves`` solves of the given kind on a random
    n-vertex instance; some weights are 0 or 1, which zero whole terms."""
    h = random_hypergraph(rng, n, 2 * n, weighted=True)
    g = clique_expand(h)
    B = rng.uniform(0.5, 3.0, size=n)
    blocks = rng.integers(0, 3, size=n)
    pairs = rng.choice([0.0, 0.15, 0.5, 0.8, 1.0], size=(solves, 2))
    if kind == "embedding":
        return ObjectiveOperator.embedding(g, B, pairs)
    if kind == "pair":
        return ObjectiveOperator.pair_refinement(g, B, blocks, pairs)
    coefs = rng.uniform(size=(4, solves)) * (rng.uniform(size=(4, solves)) < 0.7)
    abar = (sparse.diags(g.degree) + g.adjacency).tocsr()
    return ObjectiveOperator(n, abar=abar, ca=coefs[0], cu=coefs[1], cw=coefs[2],
                             cp=coefs[3], weights=B, blocks=blocks)


@pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("kind", ["embedding", "pair", "custom"])
def test_apply_bit_equals_the_transpose_formula(kind, c):
    # rows of c floats move as 8c-byte items; the oracle moves single floats
    rng = np.random.default_rng([137, c, len(kind)])
    for solves in (1, 2, 6, 10):
        for n in (1, 2, 217):
            op = random_stack(rng, kind, solves, n)
            X = rng.normal(size=(solves, n, c))
            inputs = (
                X,
                rng.normal(size=(solves, n, 2 * c))[:, :, ::2],  # strided columns
                rng.normal(size=(n, solves, c)).transpose(1, 0, 2),  # strided rows
                np.asfortranarray(X),
                X.astype(np.float32),
            )
            for Y in inputs:
                got = op.apply(Y)
                assert got.shape == Y.shape and got.dtype == np.float64
                assert got.flags.c_contiguous
                assert np.array_equal(bits(got), bits(transpose_apply(op, Y)))
            for pick in (rng.permutation(solves)[: max(1, solves // 2)], [solves - 1]):
                sub = op.take(pick)
                assert np.array_equal(bits(sub.apply(X[pick])), bits(transpose_apply(sub, X[pick])))


def test_apply_keeps_the_wide_diagonal_per_column_count():
    rng = np.random.default_rng(139)
    op = random_stack(rng, "pair", 6, 40)
    for c in (2, 3, 2, 1, 3):
        X = rng.normal(size=(6, 40, c))
        assert np.array_equal(bits(op.apply(X)), bits(transpose_apply(op, X)))
    assert sorted(op._d_wide) == [1, 2, 3]
    for c, wide in op._d_wide.items():
        assert np.array_equal(wide, np.repeat(op.d, c, axis=1))
    sub = op.take([4, 1])  # fewer solves: its own cache, empty at first
    assert sub._d_wide == {}
    X = rng.normal(size=(2, 40, 2))
    assert np.array_equal(bits(sub.apply(X)), bits(transpose_apply(sub, X)))
    assert sub._d_wide[2].shape == (2, 80)
    assert sorted(op._d_wide) == [1, 2, 3] and op._d_wide[2].shape == (6, 80)


def test_stack_shapes_are_checked():
    rng = np.random.default_rng(127)
    h = random_hypergraph(rng, 10, 12, weighted=True)
    op = ObjectiveOperator.pair_refinement(
        clique_expand(h), h.vertex_weight, rng.integers(0, 2, size=h.n), [(0.5, 0.8), (0.15, 0.2)])
    with pytest.raises(ValueError):
        op.apply(np.ones((h.n, 2)))  # an (n, c) block is no stack
    with pytest.raises(ValueError):
        op.apply(np.ones((3, h.n, 2)))
    with pytest.raises(ValueError, match="c >= 1"):
        op.apply(np.ones((2, h.n, 0)))
    with pytest.raises(ValueError):  # not even for a stack of one
        op.take([0]).apply(np.ones((h.n, 2)))
    with pytest.raises(ValueError, match="xi2"):
        ObjectiveOperator.pair_refinement(clique_expand(h), h.vertex_weight,
                                          np.zeros(h.n), [(0.5, 0.8), (0.5, 1.2)])
    with pytest.raises(ValueError, match="lam1"):
        ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, [(0.5, 0.8), (np.nan, 1.0)])
    with pytest.raises(ValueError, match="lam1, lam2"):
        ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, [])


@pytest.mark.parametrize("coef, field", [("cw", "weights"), ("cp", "blocks")])
def test_nonzero_term_without_its_input_is_rejected(coef, field):
    abar = sparse.identity(4, format="csr")
    with pytest.raises(ValueError, match=field):
        ObjectiveOperator(4, abar=abar, **{coef: 0.5})
    ObjectiveOperator(4, abar=abar, **{coef: 0.0})  # a zero term needs no input


def test_operator_needs_abar():
    with pytest.raises(TypeError, match="abar"):
        ObjectiveOperator(4, ca=0.0, cu=1.0)


@pytest.mark.parametrize("coef", ["ca", "cu", "cw", "cp"])
@pytest.mark.parametrize("bad", [-0.5, -1e-300, float("nan")])
def test_negative_coefficient_is_rejected(coef, bad):
    inputs = dict(abar=sparse.identity(4, format="csr"), weights=np.ones(4),
                  blocks=np.array([0, 0, 1, 1]))
    with pytest.raises(ValueError, match="nonnegative"):
        ObjectiveOperator(4, **{coef: bad}, **inputs)
    with pytest.raises(ValueError, match="nonnegative"):
        ObjectiveOperator(4, **{coef: [0.5, bad, 0.0]}, **inputs)
    ObjectiveOperator(4, **{coef: [0.5, -0.0, 0.0]}, **inputs)  # -0.0 is zero


# ---------------------------------------------------------------------------
# value and gradient

def test_value_zero_matrix():
    op = ObjectiveOperator(4, abar=np.zeros((4, 4)), ca=1.0)
    X = np.ones((1, 4, 2))
    assert objective(op, X)[0].tolist() == [0.0]


def test_value_identity_diagnostic():
    rng = np.random.default_rng(97)
    n = 7
    X = rng.normal(size=(1, n, 3))
    X /= np.linalg.norm(X, axis=-1, keepdims=True)
    op = ObjectiveOperator(n, abar=sparse.identity(n, format="csr"), ca=1.0)
    assert objective(op, X)[0].tolist() == [pytest.approx(-n)]


def test_gradient_is_minus_two_apply():
    rng = np.random.default_rng(101)
    h = random_hypergraph(rng, 10, 12)
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, [(0.5, 0.8)])
    X = rng.normal(size=(1, h.n, 2))
    assert np.allclose(objective(op, X)[1], -2.0 * op.apply(X))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(103)
    for _ in range(5):
        h = random_hypergraph(rng, 6, 8, weighted=True)
        op = ObjectiveOperator.embedding(
            clique_expand(h), h.vertex_weight, [(rng.uniform(), rng.uniform())]
        )
        X = rng.normal(size=(1, h.n, 2))
        grad = objective(op, X)[1]
        step = 1e-6
        for _ in range(6):
            i = int(rng.integers(0, h.n))
            j = int(rng.integers(0, 2))
            Xp, Xm = X.copy(), X.copy()
            Xp[0, i, j] += step
            Xm[0, i, j] -= step
            fd = (objective(op, Xp)[0][0] - objective(op, Xm)[0][0]) / (2 * step)
            scale = max(1.0, abs(fd))
            assert abs(grad[0, i, j] - fd) <= 1e-5 * scale


def test_value_vs_dense_inner_product():
    rng = np.random.default_rng(107)
    h = random_hypergraph(rng, 14, 18, weighted=True)
    lam1, lam2 = 0.15, 0.8
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, [(lam1, lam2)])
    C = dense_embedding_matrix(h, h.vertex_weight, lam1, lam2)
    X = rng.normal(size=(1, h.n, 3))
    assert objective(op, X)[0].tolist() == [pytest.approx(-np.sum(C * (X[0] @ X[0].T)), rel=1e-10)]


def test_operator_validates_inputs():
    with pytest.raises(ValueError):
        ObjectiveOperator.embedding(
            CliqueGraph.from_adjacency(np.zeros((3, 3))), np.ones(3), [(1.5, 0.5)]
        )
    op = ObjectiveOperator(3, abar=sparse.identity(3, format="csr"), ca=1.0)
    with pytest.raises(ValueError):
        op.apply(np.ones((1, 4, 2)))


# ---------------------------------------------------------------------------
# composition utility

def test_pairwise_product_sum():
    assert pairwise_product_sum((2, 2)) == 4
    assert pairwise_product_sum((3, 4)) == 12
    assert pairwise_product_sum((1, 2, 3)) == 2 + 3 + 6


def test_max_product_compositions_even_split():
    best, argmax = max_product_compositions(4, 2)
    assert best == 4
    assert argmax == [(2, 2)]


def test_max_product_compositions_off_by_one():
    best, argmax = max_product_compositions(7, 2)
    assert best == 12
    assert sorted(argmax) == [(3, 4), (4, 3)]


def test_max_product_compositions_three_parts():
    best, argmax = max_product_compositions(5, 3)
    assert best == pairwise_product_sum((1, 2, 2))
    for comp in argmax:
        assert max(comp) - min(comp) <= 1
