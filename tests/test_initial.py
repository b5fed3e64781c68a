"""Initial-partitioning tests: similarity graphs, Prim vs Kruskal, pruning,
cluster merging, and the pipeline's candidate builder."""

import math

import numpy as np
import pytest

from helpers import (
    UnionFind,
    dense_similarity_edges,
    kruskal_total,
    random_hypergraph,
)
from mstpart.apg import project_rows, seeded_features
from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
from mstpart.initial import (
    DisconnectedGraphError,
    build_similarity_graph,
    candidate_p_values,
    mst_partition_small,
    prim_mst,
    prune_clusters,
    representative_partition_large,
)
from mstpart.operators import clique_expand
from mstpart.pipeline import PipelineConfig, _build_candidate
from mstpart.refine import PairwiseParams


def angles_to_features(angles):
    a = np.asarray(angles, dtype=np.float64)
    return np.stack([np.cos(a), np.sin(a)], axis=1)


# ---------------------------------------------------------------------------
# similarity graph

def test_similarity_graph_matches_dense_oracle():
    rng = np.random.default_rng(211)
    X = project_rows(rng.normal(size=(30, 3)))
    got = build_similarity_graph(X, tau=0.2).tocoo()
    got_edges = {
        (min(i, j), max(i, j)): w
        for i, j, w in zip(got.row.tolist(), got.col.tolist(), got.data.tolist())
    }
    want = {(i, j): w for i, j, w in dense_similarity_edges(X, 0.2)}
    assert set(got_edges) == set(want)
    for key, w in want.items():
        assert got_edges[key] == pytest.approx(w, abs=1e-12)


def test_similarity_graph_threshold_strict():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = build_similarity_graph(X, tau=1.0)  # s == 1 is not > 1
    assert g.nnz == 0


# ---------------------------------------------------------------------------
# Prim

def test_prim_three_point_path():
    # B sits between A and C; similarities: AB = BC = 0.9, AC ~ 0.62
    step = math.acos(0.9)
    X = angles_to_features([0.0, step, 2 * step])
    tree = prim_mst(X, tau=0.5)
    pairs = {tuple(sorted((u, v))) for u, v, _ in tree.edges}
    assert pairs == {(0, 1), (1, 2)}
    assert tree.total_weight == pytest.approx(0.2, abs=1e-12)


def test_prim_two_vertices():
    X = angles_to_features([0.0, 0.3])
    tree = prim_mst(X, tau=0.2)
    assert len(tree.edges) == 1
    assert tree.total_weight == pytest.approx(1.0 - math.cos(0.3), abs=1e-12)


def test_prim_matches_kruskal_totals():
    rng = np.random.default_rng(223)
    done = 0
    while done < 20:
        X = project_rows(rng.normal(size=(int(rng.integers(5, 40)), 3)))
        edges = dense_similarity_edges(X, 0.2)
        try:
            total, weights = kruskal_total(X.shape[0], edges)
        except ValueError:
            continue  # disconnected under the threshold; covered elsewhere
        tree = prim_mst(X, tau=0.2)
        assert tree.bridges == 0
        assert float(tree.sorted_weights().sum()) == total
        assert np.array_equal(tree.sorted_weights(), weights)
        done += 1


def test_prim_disconnected_error_mode():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(DisconnectedGraphError) as exc:
        prim_mst(X, tau=0.5, on_disconnected="error")
    assert exc.value.components == 2


def test_prim_disconnected_bridges():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    tree = prim_mst(X, tau=0.5, on_disconnected="bridge")
    assert tree.bridges == 1
    assert len(tree.edges) == 3  # spans all four vertices
    touched = {v for u, v, _ in tree.edges} | {u for u, v, _ in tree.edges}
    assert touched == {0, 1, 2, 3}


def test_prim_euclidean_metric_same_tree_on_unit_rows():
    # for unit rows, ||x - y||^2 = 2 (1 - s): both metrics order edges alike
    rng = np.random.default_rng(227)
    X = project_rows(rng.normal(size=(15, 3)))
    sim = prim_mst(X, tau=-1.1)  # threshold below -1 keeps the graph complete
    euc = prim_mst(X, metric="euclidean")
    pairs_sim = {tuple(sorted((u, v))) for u, v, _ in sim.edges}
    pairs_euc = {tuple(sorted((u, v))) for u, v, _ in euc.edges}
    assert pairs_sim == pairs_euc


# ---------------------------------------------------------------------------
# pruning

def test_prune_cuts_heaviest_edge():
    # path with edge weights 0.9, 0.1, 0.5: p=2 removes the 0.9 edge
    tree_vertices = np.arange(4)
    from mstpart.initial import SpanningTree

    tree = SpanningTree(
        tree_vertices,
        [(0, 1, 0.9), (1, 2, 0.1), (2, 3, 0.5)],
        np.array([-1, 0, 1, 2]),
    )
    X = np.zeros((4, 2))
    cs = prune_clusters(tree, 2, np.ones(4, dtype=np.int64), X)
    groups = sorted(sorted(c.tolist()) for c in cs.clusters)
    assert groups == [[0], [1, 2, 3]]


def test_prune_tie_break_by_edge_index():
    from mstpart.initial import SpanningTree

    tree = SpanningTree(
        np.arange(3),
        [(0, 1, 0.5), (1, 2, 0.5)],
        np.array([-1, 0, 1]),
    )
    cs = prune_clusters(tree, 2, np.ones(3, dtype=np.int64), np.zeros((3, 2)))
    groups = sorted(sorted(c.tolist()) for c in cs.clusters)
    assert groups == [[0], [1, 2]]  # first of the tied edges is removed


def test_prune_extremes_and_oracle():
    rng = np.random.default_rng(229)
    X = project_rows(rng.normal(size=(12, 3)))
    tree = prim_mst(X, tau=-1.1)
    whole = prune_clusters(tree, 1, np.ones(12, dtype=np.int64), X)
    assert len(whole.clusters) == 1 and whole.clusters[0].shape[0] == 12

    single = prune_clusters(tree, 12, np.ones(12, dtype=np.int64), X)
    assert sorted(c.tolist()[0] for c in single.clusters) == list(range(12))

    for p in (2, 4, 7):
        cs = prune_clusters(tree, p, np.ones(12, dtype=np.int64), X)
        # oracle: union-find over the kept edges
        order = sorted(range(len(tree.edges)), key=lambda i: (-tree.edges[i][2], i))
        removed = set(order[: p - 1])
        uf = UnionFind(12)
        for i, (u, v, _) in enumerate(tree.edges):
            if i not in removed:
                uf.union(u, v)
        want = {}
        for v in range(12):
            want.setdefault(uf.find(v), set()).add(v)
        got = {frozenset(c.tolist()) for c in cs.clusters}
        assert got == {frozenset(s) for s in want.values()}
        # centroids and weights
        for c, w, cent in zip(cs.clusters, cs.weights, cs.centroids):
            assert w == len(c)
            assert np.allclose(cent, X[c].mean(axis=0))


# ---------------------------------------------------------------------------
# small-scale partitioning

def three_group_features(sizes, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    anchors = angles_to_features([0.0, 2.1, 4.2])
    feats = []
    for size, anchor in zip(sizes, anchors):
        noise = rng.normal(scale=spread, size=(size, 2))
        feats.append(project_rows(anchor[None, :] + noise))
    return np.vstack(feats)


def test_small_partition_p_equals_k():
    X = three_group_features([4, 4, 4], seed=1)
    h = Hypergraph.from_edges([[i, i + 1] for i in range(11)], n=12)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.2)
    part = mst_partition_small(X, h, spec, p=3, tau=0.2)
    blocks = [sorted(np.where(part.assignment == b)[0].tolist()) for b in range(3)]
    assert sorted(map(tuple, blocks)) == [
        tuple(range(0, 4)), tuple(range(4, 8)), tuple(range(8, 12)),
    ]


def test_small_partition_merges_into_nearest_feasible():
    # clusters of weight 5, 4, 1 under caps of 6; the light cluster sits next
    # to the heavy one and fits, so it merges there
    X = np.vstack([
        np.tile(angles_to_features([0.0]), (5, 1)),
        np.tile(angles_to_features([2.5]), (4, 1)),
        angles_to_features([0.3]),
    ])
    h = Hypergraph.from_edges([[0, 9], [5, 6]], n=10)
    spec = BalanceSpec.from_total(10, 2, 0.2)  # cap = 6
    part = mst_partition_small(X, h, spec, p=3, tau=0.2)
    b0 = part.assignment[0]
    assert part.assignment[9] == b0
    assert part.block_weight.tolist() in ([6, 4], [4, 6])


def test_small_partition_overflow_goes_to_lightest():
    # light cluster nearest the heavy one but the cap blocks the merge
    X = np.vstack([
        np.tile(angles_to_features([0.0]), (5, 1)),
        np.tile(angles_to_features([2.5]), (4, 1)),
        angles_to_features([0.3]),
    ])
    h = Hypergraph.from_edges([[0, 9], [5, 6]], n=10)
    spec = BalanceSpec.from_total(10, 2, 0.0)  # cap = 5: 5 + 1 does not fit
    part = mst_partition_small(X, h, spec, p=3, tau=0.2)
    assert part.assignment[9] == part.assignment[5]
    assert part.block_weight.tolist() == [5, 5]


def test_small_partition_rejects_p_below_k():
    X = project_rows(np.random.default_rng(0).normal(size=(6, 2)))
    h = Hypergraph.from_edges([[0, 1]], n=6)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.1)
    with pytest.raises(ValueError):
        mst_partition_small(X, h, spec, p=2)
    with pytest.raises(ValueError):
        mst_partition_small(X, h, spec, p=7)


# ---------------------------------------------------------------------------
# large-scale partitioning

def test_representatives_are_lowest_index_on_equal_weights():
    n = 50
    rng = np.random.default_rng(233)
    X = project_rows(rng.normal(size=(n, 2)))
    h = Hypergraph.from_edges([[i, (i + 1) % n] for i in range(n)], n=n)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.1)
    part = representative_partition_large(X, h, spec, p=4, tau=-1.1)
    assert part.h.n == n  # smoke: full cover
    assert np.all(part.assignment >= 0)

    # the representative rule itself: ceil(0.2 * 50) = 10 lowest indices
    B = h.vertex_weight
    by_weight = np.lexsort((np.arange(n), -B))
    assert sorted(by_weight[:10].tolist()) == list(range(10))


def test_representative_partition_two_clusters():
    # clusters interleaved over indices so the representative set (heaviest,
    # ties by index) samples both of them
    rng = np.random.default_rng(239)
    n = 50_000
    group = np.arange(n) % 2
    anchors = angles_to_features([0.0, np.pi])
    X = project_rows(anchors[group] + rng.normal(scale=0.05, size=(n, 2)))
    h = Hypergraph.from_edges([[0, 1]], n=n)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.1)
    part = representative_partition_large(X, h, spec, p=6, tau=0.2)
    even = part.assignment[group == 0]
    odd = part.assignment[group == 1]
    majority_even = np.bincount(even, minlength=2).max() / even.size
    majority_odd = np.bincount(odd, minlength=2).max() / odd.size
    agreement = (majority_even + majority_odd) / 2
    assert agreement >= 0.95
    assert int(np.bincount(even).argmax()) != int(np.bincount(odd).argmax())


def test_representative_at_cap_falls_to_lightest():
    # caps so tight that late vertices cannot fit anywhere
    n = 10
    X = np.tile(angles_to_features([0.0]), (n, 1))
    h = Hypergraph.from_edges([[0, 1]], n=n, vertex_weight=[5] * n)
    spec = BalanceSpec.from_total(50, 2, 0.0)  # cap 25 = five vertices
    part = representative_partition_large(X, h, spec, p=2, tau=-1.1)
    assert part.block_weight.tolist() == [25, 25]


# ---------------------------------------------------------------------------
# candidates

def test_candidate_p_values():
    assert candidate_p_values(5000, 2) == (50, 500)
    assert candidate_p_values(8, 2) == (2, 1)


def build_candidates(h, spec, num_init):
    """Run the pipeline's candidate builder for candidates 0..num_init-1.
    Pairwise rounds are off so only the embedding, clustering and repair run."""
    config = PipelineConfig(num_init=num_init)
    clique = clique_expand(h)
    no_pairwise = PairwiseParams(max_rounds=0)
    return [
        _build_candidate(i, h, spec, clique, config, no_pairwise)
        for i in range(num_init)
    ]


def test_generate_candidates_first_grid_entry():
    rng = np.random.default_rng(241)
    h = random_hypergraph(rng, 40, 60)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    cands = build_candidates(h, spec, 1)
    assert len(cands) == 1
    _, report = cands[0]
    assert (report.lam1, report.lam2) == (0.9, 1.0)


def test_generate_candidates_full_run():
    rng = np.random.default_rng(251)
    h = random_hypergraph(rng, 1000, 1500, max_edge_size=5)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    cands = build_candidates(h, spec, 10)
    assert len(cands) == 10
    lam_pairs = [(r.lam1, r.lam2) for _, r in cands]
    assert lam_pairs == [
        (0.9, 1.0), (0.9, 0.9), (0.9, 0.8),
        (0.5, 1.0), (0.5, 0.9), (0.5, 0.8),
        (0.15, 1.0), (0.15, 0.9), (0.15, 0.8),
        (0.015, 1.0),
    ]
    for part, report in cands:
        assert report.cutsize == part.cutsize
        assert part.h.n == h.n


def test_generate_candidates_deterministic():
    rng = np.random.default_rng(257)
    h = random_hypergraph(rng, 60, 90)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.06)
    a = build_candidates(h, spec, 3)
    b = build_candidates(h, spec, 3)
    for (x, _), (y, _) in zip(a, b):
        assert np.array_equal(x.assignment, y.assignment)
