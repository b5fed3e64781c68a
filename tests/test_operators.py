"""Operator tests against dense oracles built from first principles."""

import numpy as np
import pytest
from scipy import sparse

from helpers import random_hypergraph
from mstpart.hypergraph import Hypergraph
from mstpart.operators import (
    CliqueGraph,
    ObjectiveOperator,
    clique_expand,
    laplacian,
    max_product_compositions,
    pairwise_product_sum,
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


def dense_gu(n):
    return n * np.eye(n) - np.ones((n, n))


def dense_gw(B):
    B = np.asarray(B, dtype=float)
    return B.sum() * np.diag(B) - np.outer(B, B)


def dense_kpartite(blocks):
    blocks = np.asarray(blocks)
    n = blocks.shape[0]
    A = (blocks[:, None] != blocks[None, :]).astype(float)
    return np.diag(A.sum(axis=1)) - A


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
    op = ObjectiveOperator.embedding(g, np.ones(h.n), lam1=1.0, lam2=0.9)
    X = rng.normal(size=(h.n, 3))
    abar = np.diag(g.degree) + g.adjacency.toarray()
    assert np.allclose(op.apply(X), abar @ X, atol=1e-10)


def test_apply_constant_rows_kill_unit_balance():
    # Gu annihilates constant columns: Gu 1 c^T = 0
    rng = np.random.default_rng(73)
    h = random_hypergraph(rng, 8, 10)
    g = clique_expand(h)
    op = ObjectiveOperator.embedding(g, np.ones(h.n), lam1=0.0, lam2=1.0)
    X = np.tile(rng.normal(size=(1, 2)), (h.n, 1))
    assert np.allclose(op.apply(X), 0.0, atol=1e-9)


def test_apply_embedding_matches_dense():
    rng = np.random.default_rng(79)
    for _ in range(15):
        h = random_hypergraph(rng, 20, 25, weighted=True)
        B = h.vertex_weight
        lam1, lam2 = rng.uniform(size=2)
        op = ObjectiveOperator.embedding(clique_expand(h), B, lam1, lam2)
        C = dense_embedding_matrix(h, B, lam1, lam2)
        X = rng.normal(size=(h.n, 3))
        got, want = op.apply(X), C @ X
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_apply_pair_matches_dense():
    rng = np.random.default_rng(83)
    for _ in range(15):
        h = random_hypergraph(rng, 18, 22, weighted=True)
        g = clique_expand(h)
        blocks = rng.integers(0, 2, size=h.n)
        xi1, xi2 = rng.uniform(size=2)
        op = ObjectiveOperator.pair_refinement(g, h.vertex_weight, blocks, xi1, xi2)
        C = dense_pair_matrix(g.adjacency.toarray(), h.vertex_weight, blocks, xi1, xi2)
        X = rng.normal(size=(h.n, 2))
        got, want = op.apply(X), C @ X
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_multipartite_part_three_blocks():
    rng = np.random.default_rng(89)
    n = 12
    blocks = rng.integers(0, 3, size=n)
    op = ObjectiveOperator(n, cp=1.0, blocks=blocks)
    K = dense_kpartite(blocks)
    X = rng.normal(size=(n, 4))
    assert np.allclose(op.apply(X), K @ X, atol=1e-10)


def formula_apply(op, X):
    """The documented formula term by term: a zero array, in-place adds,
    np.outer for B colsum^T and np.add.at for the block sums."""
    out = np.zeros_like(X)
    if op.matrix is not None:
        out += op.matrix @ X
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


@pytest.mark.parametrize("empty_block", [False, True])
@pytest.mark.parametrize("num_blocks", [2, 3])
@pytest.mark.parametrize("mode", ["embedding", "pair", "custom"])
def test_apply_bit_equals_formula(mode, num_blocks, empty_block):
    rng = np.random.default_rng([109, num_blocks, empty_block])
    for _ in range(5):
        h = random_hypergraph(rng, 25, 30, weighted=True)
        g = clique_expand(h)
        blocks = rng.integers(0, num_blocks, size=h.n)
        if empty_block:  # block id num_blocks - 2 keeps no member
            blocks[blocks == num_blocks - 2] = num_blocks - 1
        B = rng.uniform(0.5, 3.0, size=h.n)
        c = rng.uniform(size=4)
        if mode == "embedding":
            op = ObjectiveOperator.embedding(g, B, c[0], c[1])
        elif mode == "pair":
            op = ObjectiveOperator.pair_refinement(g, B, blocks, c[0], c[1])
        else:
            abar = (sparse.diags(g.degree) + g.adjacency).tocsr()
            op = ObjectiveOperator(
                h.n, abar=abar, ca=c[0], cu=-c[1], cw=c[2], cp=-c[3],
                weights=B, blocks=blocks, matrix=g.adjacency,
            )
        # k = 2 twice: the second call reads the cached block index
        for k in (1, 2, 4, 2):
            X = rng.normal(size=(h.n, k))
            want = formula_apply(op, X)
            assert np.array_equal(op.apply(X), want)
            value, grad = op.value_and_gradient(X)
            assert value == -float(np.sum(want * X)) == op.value(X)
            assert np.array_equal(grad, -2.0 * want)
            assert np.array_equal(op.gradient(X), grad)


@pytest.mark.parametrize("coef, field", [("ca", "abar"), ("cw", "weights"), ("cp", "blocks")])
def test_nonzero_term_without_its_input_is_rejected(coef, field):
    with pytest.raises(ValueError, match=field):
        ObjectiveOperator(4, **{coef: 0.5})
    ObjectiveOperator(4, **{coef: 0.0})  # a zero term needs no input


# ---------------------------------------------------------------------------
# value and gradient

def test_value_zero_matrix():
    op = ObjectiveOperator.from_matrix(np.zeros((4, 4)))
    X = np.ones((4, 2))
    assert op.value(X) == 0.0


def test_value_identity_diagnostic():
    rng = np.random.default_rng(97)
    n = 7
    X = rng.normal(size=(n, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    op = ObjectiveOperator.identity(n)
    assert op.value(X) == pytest.approx(-n)


def test_gradient_is_minus_two_apply():
    rng = np.random.default_rng(101)
    h = random_hypergraph(rng, 10, 12)
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, 0.5, 0.8)
    X = rng.normal(size=(h.n, 2))
    assert np.allclose(op.gradient(X), -2.0 * op.apply(X))


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(103)
    for _ in range(5):
        h = random_hypergraph(rng, 6, 8, weighted=True)
        op = ObjectiveOperator.embedding(
            clique_expand(h), h.vertex_weight, rng.uniform(), rng.uniform()
        )
        X = rng.normal(size=(h.n, 2))
        grad = op.gradient(X)
        step = 1e-6
        for _ in range(6):
            i = int(rng.integers(0, h.n))
            j = int(rng.integers(0, 2))
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += step
            Xm[i, j] -= step
            fd = (op.value(Xp) - op.value(Xm)) / (2 * step)
            scale = max(1.0, abs(fd))
            assert abs(grad[i, j] - fd) <= 1e-5 * scale


def test_value_vs_dense_inner_product():
    rng = np.random.default_rng(107)
    h = random_hypergraph(rng, 14, 18, weighted=True)
    lam1, lam2 = 0.15, 0.8
    op = ObjectiveOperator.embedding(clique_expand(h), h.vertex_weight, lam1, lam2)
    C = dense_embedding_matrix(h, h.vertex_weight, lam1, lam2)
    X = rng.normal(size=(h.n, 3))
    assert op.value(X) == pytest.approx(-np.sum(C * (X @ X.T)), rel=1e-10)


def test_operator_validates_inputs():
    with pytest.raises(ValueError):
        ObjectiveOperator.embedding(
            CliqueGraph.from_adjacency(np.zeros((3, 3))), np.ones(3), 1.5, 0.5
        )
    op = ObjectiveOperator.identity(3)
    with pytest.raises(ValueError):
        op.apply(np.ones((4, 2)))


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
