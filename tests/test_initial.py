"""Initial-partitioning tests: Prim vs Kruskal, pruning,
cluster merging, and the pipeline's candidate builder."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    UnionFind,
    dense_similarity_edges,
    edges_of,
    kruskal_total,
    prune_clusters,
    random_hypergraph,
)
from mstpart.apg import minimize, project_rows, seeded_features
from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
import mstpart.initial as initial_module
import mstpart.pipeline as pipeline_module
from mstpart.initial import (
    P_RULES,
    SpanningTree,
    _merge_clusters,
    _p_choices,
    _route_partitions,
    _split_clusters,
    heaviest,
    mst_partition_small,
    prim_mst,
    representative_partition_large,
)
from mstpart.operators import ObjectiveOperator, clique_expand
from mstpart.pipeline import CandidateReport, PipelineConfig, _build_candidates
from mstpart.refine import kway_fm, repair_feasibility


def angles_to_features(angles):
    a = np.asarray(angles, dtype=np.float64)
    return np.stack([np.cos(a), np.sin(a)], axis=1)


# ---------------------------------------------------------------------------
# Prim

def test_prim_three_point_path():
    # B sits between A and C; similarities: AB = BC = 0.9, AC ~ 0.62
    step = math.acos(0.9)
    X = angles_to_features([0.0, step, 2 * step])
    tree = prim_mst(X)
    pairs = {tuple(sorted((u, v))) for u, v, _ in edges_of(tree)}
    assert pairs == {(0, 1), (1, 2)}
    assert sum(w for _, _, w in edges_of(tree)) == pytest.approx(0.2, abs=1e-12)


def test_prim_two_vertices():
    X = angles_to_features([0.0, 0.3])
    tree = prim_mst(X)
    assert len(edges_of(tree)) == 1
    assert sum(w for _, _, w in edges_of(tree)) == pytest.approx(1.0 - math.cos(0.3), abs=1e-12)


def assert_same_mst_weights(tree, total, weights):
    sorted_weights = np.sort([w for _, _, w in edges_of(tree)])
    assert float(sorted_weights.sum()) == total
    assert np.array_equal(sorted_weights, weights)


def test_prim_matches_kruskal_totals():
    # on a connected thresholded graph the complete graph's MST uses only
    # edges above the threshold, so Kruskal over either graph agrees
    rng = np.random.default_rng(223)
    done = 0
    while done < 20:
        X = project_rows(rng.normal(size=(int(rng.integers(5, 40)), 3)))
        try:
            total, weights = kruskal_total(X.shape[0], dense_similarity_edges(X, 0.2))
        except ValueError:
            continue  # disconnected under the threshold
        tree = prim_mst(X)
        assert_same_mst_weights(tree, total, weights)
        assert_same_mst_weights(tree, *kruskal_total(X.shape[0], dense_similarity_edges(X)))
        done += 1


def test_prim_is_the_complete_graph_mst():
    rng = np.random.default_rng(263)
    for trial in range(40):
        n = int(rng.integers(1, 40))
        X = rng.normal(size=(n, 3))
        if trial % 4 != 1:  # every fourth instance keeps non-unit rows
            X = project_rows(X)
        if trial % 4 == 2:  # duplicate rows: many tied weights
            X = X[rng.integers(0, n, size=n)]
        vertices = None
        if trial % 4 == 3 and n > 1:
            vertices = np.sort(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        local = X if vertices is None else X[vertices]
        tree = prim_mst(X, vertices=vertices)
        assert len(edges_of(tree)) == local.shape[0] - 1
        assert_same_mst_weights(tree, *kruskal_total(local.shape[0], dense_similarity_edges(local)))


def test_prim_disconnected_bridges():
    # two far-apart groups: the heaviest tree edge is the one joining them
    X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    tree = prim_mst(X)
    assert len(edges_of(tree)) == 3  # spans all four vertices
    touched = {v for u, v, _ in edges_of(tree)} | {u for u, v, _ in edges_of(tree)}
    assert touched == {0, 1, 2, 3}
    group = [0, 0, 1, 1]
    joining = [i for i, (u, v, _) in enumerate(edges_of(tree)) if group[u] != group[v]]
    assert joining == tree.heaviest_first()[:1].tolist()
    assert edges_of(tree)[joining[0]][2] == 2.0


def test_prim_euclidean_metric_same_tree_on_unit_rows():
    # for unit rows, ||x - y||^2 = 2 (1 - s): the tree and its heaviest-first
    # order are those of Kruskal under Euclidean distance
    rng = np.random.default_rng(227)
    X = project_rows(rng.normal(size=(15, 3)))
    pairs = [(i, j) for i in range(15) for j in range(i + 1, 15)]
    uf = UnionFind(15)
    euclidean = [
        (i, j) for i, j in sorted(pairs, key=lambda e: np.linalg.norm(X[e[0]] - X[e[1]]))
        if uf.union(i, j)
    ]
    tree = prim_mst(X)
    heaviest_first = [tuple(sorted(edges_of(tree)[i][:2])) for i in tree.heaviest_first()]
    assert heaviest_first == euclidean[::-1]


# ---------------------------------------------------------------------------
# pruning

def clusters_of(tree, labels):
    """The member lists of the clusters that ``labels`` gives the tree's
    positions, in label order."""
    return [tree.vertices[labels == c].tolist() for c in range(labels.max() + 1)]


def test_prune_cuts_heaviest_edge():
    # path with edge weights 0.9, 0.1, 0.5: p=2 removes the 0.9 edge
    tree = SpanningTree(
        np.arange(4),
        np.array([-1, 0, 1, 2]),
        np.array([1, 2, 3]),
        np.array([0.9, 0.1, 0.5]),
    )
    groups = sorted(clusters_of(tree, prune_clusters(tree, 2)))
    assert groups == [[0], [1, 2, 3]]


def test_prune_tie_break_by_edge_index():
    tree = SpanningTree(
        np.arange(3),
        np.array([-1, 0, 1]),
        np.array([1, 2]),
        np.array([0.5, 0.5]),
    )
    groups = sorted(clusters_of(tree, prune_clusters(tree, 2)))
    assert groups == [[0], [1, 2]]  # first of the tied edges is removed


def test_prune_extremes_and_oracle():
    rng = np.random.default_rng(229)
    for trial in range(3):
        X = project_rows(rng.normal(size=(12, 3)))
        if trial == 2:  # duplicate rows: tied tree weights
            X[6:] = X[:6]
        B = rng.integers(1, 5, size=12)
        tree = prim_mst(X)
        whole = prune_clusters(tree, 1)
        assert clusters_of(tree, whole) == [list(range(12))]

        single = prune_clusters(tree, 12)
        assert clusters_of(tree, single) == [[v] for v in range(12)]

        for p in (2, 4, 7):
            labels = prune_clusters(tree, p)
            clusters = clusters_of(tree, labels)
            # oracle: union-find over the kept edges
            edges = edges_of(tree)
            order = sorted(range(len(edges)), key=lambda i: (-edges[i][2], i))
            removed = set(order[: p - 1])
            uf = UnionFind(12)
            for i, (u, v, _) in enumerate(edges):
                if i not in removed:
                    uf.union(u, v)
            want = {}
            for v in range(12):
                want.setdefault(uf.find(v), set()).add(v)
            got = {frozenset(c) for c in clusters}
            assert got == {frozenset(s) for s in want.values()}
            # clusters come in order of their lowest member
            lowest = [min(c) for c in clusters]
            assert lowest == sorted(lowest)
            # weights and centroids: merged into k = p blocks, every cluster
            # seeds a block of its own
            block, weights, centroids, counts = _merge_clusters(
                tree.vertices, labels, B, X, p, np.inf)
            assert sorted(block.tolist()) == list(range(p))
            for c, members in zip(block, clusters):
                assert weights[c] == B[members].sum()
                assert counts[c] == len(members)
                assert np.allclose(centroids[c], X[members].mean(axis=0))


def test_spanning_tree_cut_matches_union_find():
    rng = np.random.default_rng(233)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        X = project_rows(rng.normal(size=(n, 3)))
        if rng.random() < 0.5:  # duplicate rows: tied tree weights
            X = X[rng.integers(0, n, size=n)]
        tree = prim_mst(X)
        assert tree.parent[0] == -1
        assert all(tree.parent[v] == u for u, v, _ in edges_of(tree))
        n_cut = int(rng.integers(0, len(edges_of(tree)) + 1))
        ids = rng.permutation(len(edges_of(tree)))[:n_cut].tolist()
        uf = UnionFind(n)
        for i, (u, v, _) in enumerate(edges_of(tree)):
            if i not in ids:
                uf.union(u, v)
        # components numbered in order of their lowest position
        number = {}
        want = [number.setdefault(uf.find(v), len(number)) for v in range(n)]
        assert tree.cut(ids).tolist() == want


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
    part = mst_partition_small(X, h, spec, [3])[0]
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
    part = mst_partition_small(X, h, spec, [3])[0]
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
    part = mst_partition_small(X, h, spec, [3])[0]
    assert part.assignment[9] == part.assignment[5]
    assert part.block_weight.tolist() == [5, 5]


def test_small_partition_rejects_p_below_k():
    X = project_rows(np.random.default_rng(0).normal(size=(6, 2)))
    h = Hypergraph.from_edges([[0, 1]], n=6)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.1)
    with pytest.raises(ValueError, match=r"^cluster counts must lie in k\.\.6 \(k=3\), got p=2$"):
        mst_partition_small(X, h, spec, [3, 2])
    with pytest.raises(ValueError, match=r"^cluster counts must lie in k\.\.6 \(k=3\), got p=7$"):
        mst_partition_small(X, h, spec, [7])
    # n_rep = ceil(0.2 * 6) = 2 < k, so no count fits, and none is lowered
    with pytest.raises(ValueError, match=r"^cluster counts must lie in k\.\.2 \(k=3\), got p=5$"):
        representative_partition_large(X, h, spec, [5])
    h = Hypergraph.from_edges([[0, 1]], n=20)  # n_rep = 4
    X = project_rows(np.random.default_rng(1).normal(size=(20, 2)))
    with pytest.raises(ValueError, match=r"^cluster counts must lie in k\.\.4 \(k=3\), got p=5$"):
        representative_partition_large(X, h, spec, [4, 5])


# ---------------------------------------------------------------------------
# large-scale partitioning

def test_representatives_are_lowest_index_on_equal_weights():
    n = 50
    rng = np.random.default_rng(233)
    X = project_rows(rng.normal(size=(n, 2)))
    h = Hypergraph.from_edges([[i, (i + 1) % n] for i in range(n)], n=n)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.1)
    part = representative_partition_large(X, h, spec, [4])[0]
    assert part.h.n == n  # smoke: full cover
    assert np.all(part.assignment >= 0)

    # the representative rule itself: ceil(0.2 * 50) = 10 lowest indices
    assert heaviest(h.vertex_weight, 10).tolist() == list(range(10))


def test_heaviest_ranks_by_weight_then_index_and_returns_index_order():
    B = np.array([1, 3, 3, 2, 3, 5])
    assert heaviest(B, 1).tolist() == [5]
    assert heaviest(B, 3).tolist() == [1, 2, 5]  # 4 ties with 1 and 2 but ranks after
    assert heaviest(B, 5).tolist() == [1, 2, 3, 4, 5]
    assert heaviest(B.astype(np.float64), 3).tolist() == [1, 2, 5]
    assert heaviest(B, 0).tolist() == []


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
    part = representative_partition_large(X, h, spec, [6])[0]
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
    part = representative_partition_large(X, h, spec, [2])[0]
    assert part.block_weight.tolist() == [25, 25]


def sequential_split(tree, weights, p, cap):
    """The over-cap split written out naively: cut the p - 1 heaviest edges
    (ties by lower id), then walk the rest heaviest first, recompute the
    clusters after every cut, and cut each edge whose cluster weighs more
    than ``cap`` (``weights`` per tree position)."""
    edges = edges_of(tree)
    order = sorted(range(len(edges)), key=lambda i: (-edges[i][2], i))
    cuts = order[: p - 1]
    labels = tree.cut(cuts)
    for e in order[p - 1:]:
        child = edges[e][1]
        if weights[labels == labels[child]].sum() > cap:
            cuts = cuts + [e]
            labels = tree.cut(cuts)
    return labels


def reference_small(X, h, spec, p):
    """Small-scale partition written out straight: one tree per count,
    cluster every vertex, split the clusters over the true cap, merge under
    it."""
    tree = prim_mst(X)
    labels = sequential_split(tree, h.vertex_weight, p, spec.cap)
    block, _, _, _ = _merge_clusters(tree.vertices, labels, h.vertex_weight, X, spec.k, spec.cap)
    assignment = np.empty(h.n, dtype=np.int64)
    for v, c in zip(tree.vertices, labels):
        assignment[v] = block[c]
    return assignment


def reference_large(X, h, spec, p):
    """Large-scale partition written out straight: cluster the heaviest
    fifth, split and merge under the adapted cap, then place the rest one
    by one."""
    n, B = h.n, h.vertex_weight
    n_rep = math.ceil(0.2 * n)
    reps = np.sort(np.lexsort((np.arange(n), -B))[:n_rep])
    tree = prim_mst(X, vertices=reps)
    adapted_cap = (1.0 + spec.epsilon) * int(B[reps].sum()) / spec.k
    labels = sequential_split(tree, B[reps], p, adapted_cap)
    block, weights, centroids, counts = _merge_clusters(
        tree.vertices, labels, B, X, spec.k, adapted_cap)
    assignment = np.full(n, -1, dtype=np.int64)
    for v, c in zip(tree.vertices, labels):
        assignment[v] = block[c]
    cap = spec.cap
    for v in range(n):
        if assignment[v] >= 0:
            continue
        w = int(B[v])
        d = np.linalg.norm(centroids - X[v], axis=1)
        fits = weights + w <= cap
        if np.any(fits):
            j = int(np.argmin(np.where(fits, d, np.inf)))
        else:
            j = int(np.argmin(weights))
        assignment[v] = j
        weights[j] += w
        centroids[j] = (counts[j] * centroids[j] + X[v]) / (counts[j] + 1)
        counts[j] += 1
    return assignment


def test_both_scales_match_their_written_out_references():
    rng = np.random.default_rng(331)
    for trial in range(12):
        n = int(rng.integers(15, 60))
        k = int(rng.integers(2, 5))
        h = random_hypergraph(rng, n, n, weighted=True)
        spec = BalanceSpec.for_hypergraph(h, k, float(rng.choice([0.0, 0.05, 0.3])))
        n_rep = math.ceil(0.2 * n)
        X = project_rows(rng.normal(size=(n, 3)))
        # distinct rows, then rows drawn with repeats: tied tree weights
        for X in (X, X[rng.integers(0, n, size=n)]):
            # every count from one call, each scale up to its clustered set
            ps = list(range(k, n_rep + 3))
            for p, part in zip(ps, mst_partition_small(X, h, spec, ps), strict=True):
                assert np.array_equal(part.assignment, reference_small(X, h, spec, p))
            ps = list(range(k, n_rep + 1))
            for p, part in zip(ps, representative_partition_large(X, h, spec, ps), strict=True):
                assert np.array_equal(part.assignment, reference_large(X, h, spec, p))


@st.composite
def split_cases(draw):
    """(features, vertex weights, k, epsilon): rows drawn from a small pool,
    so tree weights tie, and weights of 1..5 with at times one vertex heavier
    than the true cap."""
    n = draw(st.integers(1, 24))
    pool = draw(st.integers(1, n))
    rows = draw(st.lists(st.integers(0, pool - 1), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**16))
    X = project_rows(np.random.default_rng(seed).normal(size=(pool, 3)))[rows]
    B = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), dtype=np.int64)
    if draw(st.booleans()):
        B[draw(st.integers(0, n - 1))] = 5 * n + 1
    return X, B, draw(st.integers(1, 5)), draw(st.sampled_from([0.0, 0.05, 0.3]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=split_cases())
@example(case=(angles_to_features([0.0] * 4), np.array([1, 21, 1, 1]), 2, 0.0))
def test_split_equals_the_sequential_rule(case):
    # both caps: every vertex under the true cap, and the heaviest fifth
    # under the cap adapted to its mass; every count from 1 to nv
    X, B, k, epsilon = case
    h = Hypergraph.from_edges([], n=B.shape[0], vertex_weight=B)
    spec = BalanceSpec.for_hypergraph(h, k, epsilon)
    reps = heaviest(B, math.ceil(0.2 * h.n))
    for vertices, cap in ((np.arange(h.n), spec.cap),
                          (reps, (1.0 + epsilon) * int(B[reps].sum()) / k)):
        tree = prim_mst(X, vertices=vertices)
        weights = B[tree.vertices]
        ps = range(1, len(vertices) + 1)
        for p, labels in zip(ps, _split_clusters(tree, weights, ps, cap), strict=True):
            assert np.array_equal(labels, sequential_split(tree, weights, p, cap))
            # at least the p pruned parts; each part fits or is one vertex
            assert labels.max() + 1 >= p
            part_weights = np.bincount(labels, weights=weights)
            sizes = np.bincount(labels)
            assert np.all((part_weights <= cap) | (sizes == 1))
            # every part is a union of the pruned parts' pieces
            pruned = prune_clusters(tree, p)
            assert all(np.unique(pruned[labels == c]).size == 1 for c in range(sizes.size))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=split_cases())
@example(case=(angles_to_features([0.0] * 4), np.array([1, 21, 1, 1]), 2, 0.0))
def test_heaviest_first_and_heaviest_share_one_ranking(case):
    # tree weights tie on repeated rows, vertex weights tie among 1..5: both
    # rank heaviest first, ties by lower index
    X, B, _, _ = case
    tree = prim_mst(X)
    for weights in (tree.weight, B):
        ranking = sorted(range(weights.shape[0]), key=lambda i: (-weights[i], i))
        for m in range(weights.shape[0] + 1):
            assert heaviest(weights, m).tolist() == sorted(ranking[:m])
        if weights is tree.weight:
            assert tree.heaviest_first().tolist() == ranking


def mask_merge(vertices, labels, B, X, k, cap):
    """``_merge_clusters`` with each cluster's members taken by a boolean
    mask, its weight as an integer sum and the seeds by a Python sort: the
    bit-level oracle of the grouped statistics."""
    p = int(labels.max()) + 1
    members = [vertices[labels == c] for c in range(p)]
    weights = np.array([int(B[c].sum()) for c in members], dtype=np.int64)
    centroids = np.array([X[c].mean(axis=0) for c in members])
    sizes = np.bincount(labels)
    order = sorted(range(p), key=lambda i: (-int(weights[i]), i))
    seeds, rest = order[:k], sorted(order[k:])
    block = np.empty(p, dtype=np.int64)
    block[seeds] = np.arange(len(seeds))
    b_weights, b_centroids, b_counts = weights[seeds], centroids[seeds], sizes[seeds]
    for ci in rest:
        d = np.linalg.norm(b_centroids - centroids[ci], axis=1)
        j = int(np.argmin(d))
        if b_weights[j] + weights[ci] > cap:
            j = int(np.argmin(b_weights))
        block[ci] = j
        b_weights[j] += weights[ci]
        n_j, n_c = b_counts[j], sizes[ci]
        b_centroids[j] = (n_j * b_centroids[j] + n_c * centroids[ci]) / (n_j + n_c)
        b_counts[j] += n_c
    return block, b_weights, b_centroids, b_counts


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=split_cases(), seed=st.integers(0, 2**16))
def test_merge_statistics_equal_a_mask_per_cluster_bit_for_bit(case, seed):
    # tied rows as drawn, then distinct ones; both caps; every cluster count
    X, B, k, epsilon = case
    h = Hypergraph.from_edges([], n=B.shape[0], vertex_weight=B)
    spec = BalanceSpec.for_hypergraph(h, k, epsilon)
    reps = heaviest(B, math.ceil(0.2 * h.n))
    for X in (X, project_rows(np.random.default_rng(seed).normal(size=X.shape))):
        for vertices, cap in ((np.arange(h.n), spec.cap),
                              (reps, (1.0 + epsilon) * int(B[reps].sum()) / k)):
            tree = prim_mst(X, vertices=vertices)
            ps = range(1, len(vertices) + 1)
            for labels in _split_clusters(tree, B[tree.vertices], ps, cap):
                got = _merge_clusters(tree.vertices, labels, B, X, k, cap)
                want = mask_merge(tree.vertices, labels, B, X, k, cap)
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# candidates

def test_candidate_p_values():
    assert [rule(5000, 2) for rule in P_RULES.values()] == [50, 500]
    assert [rule(8, 2) for rule in P_RULES.values()] == [2, 1]


def build_candidates(h, spec, num_init):
    """Run the pipeline's candidate builder for candidates 0..num_init-1, as
    (partition, report) pairs."""
    config = PipelineConfig(num_init=num_init)
    return list(zip(*_build_candidates(h, spec, clique_expand(h), config)))


def candidates_one_by_one(h, spec, clique, config):
    """The candidates with one embedding operator and one solve each, in
    order, each count's partition repaired and then FM-refined when feasible:
    the builder's reference."""
    combos = [(l1, l2) for l1 in config.lambda1 for l2 in config.lambda2]
    out = []
    for i in range(config.num_init):
        lam1, lam2 = combos[i % len(combos)]
        op = ObjectiveOperator.embedding(clique, h.vertex_weight, [(lam1, lam2)])
        X = minimize(op, seeded_features(h.n, spec.k, stream=i)[None], config.apg).X[0]
        best = None
        for entry in config.p:
            part, p = _route_partitions(X, h, spec, (entry,))[0]  # a tree of its own
            part, _ = repair_feasibility(h, part, spec)
            if is_feasible(part, spec):
                part = kway_fm(h, part, spec)
            key = (not is_feasible(part, spec), part.cutsize)
            if best is None or key < best[0]:
                best = key, part, p
        _, part, p = best
        out.append((part, CandidateReport(lam1, lam2, p, part.cutsize,
                                          is_feasible(part, spec))))
    return out


@pytest.mark.parametrize("k", [2, 4])
def test_stacked_candidates_equal_one_solve_each(k):
    # 13 candidates wrap the 12 grid pairs; k = 4 lays the stack out through
    # the general transpose, k = 2 through the complex view
    rng = np.random.default_rng([263, k])
    h = random_hypergraph(rng, 90, 140, max_edge_size=5, weighted=True)
    spec = BalanceSpec.for_hypergraph(h, k, 0.05)
    config = PipelineConfig(num_init=13)
    clique = clique_expand(h)
    parts, reports = _build_candidates(h, spec, clique, config)
    want = candidates_one_by_one(h, spec, clique, config)
    assert len(parts) == len(want) == 13
    assert reports[12].lam1 == reports[0].lam1 and reports[12].lam2 == reports[0].lam2
    for part, report, (want_part, want_report) in zip(parts, reports, want):
        assert np.array_equal(part.assignment, want_part.assignment)
        assert report == want_report


def test_a_candidate_keeps_a_feasible_count_over_a_lower_infeasible_cut(monkeypatch):
    # repair is switched off, so the count of lowest cut stays over the cap;
    # FM takes the other two counts from cut 5 to cut 1, and the first is kept
    h = Hypergraph.from_edges([[i, i + 1] for i in range(5)])
    spec = BalanceSpec.for_hypergraph(h, 2, 1 / 3)
    assert spec.cap == 4
    over = Partition(h, [0, 0, 0, 0, 0, 1], 2)  # cut 1, weights 5 and 1
    routes = [(over, 2), (Partition(h, [0, 1] * 3, 2), 3), (Partition(h, [1, 0] * 3, 2), 4)]
    monkeypatch.setattr(pipeline_module, "_route_partitions", lambda *args: routes)
    monkeypatch.setattr(pipeline_module, "repair_feasibility",
                        lambda h, part, spec: (part, is_feasible(part, spec)))
    [part], [report] = _build_candidates(h, spec, clique_expand(h), PipelineConfig(num_init=1))
    assert (report.p, report.feasible, report.cutsize) == (3, True, 1)
    assert is_feasible(part, spec) and part.cutsize == 1 < routes[1][0].cutsize


def test_candidates_refine_each_distinct_partition_once(monkeypatch):
    # the three counts of candidate 0 give two distinct partitions, and those
    # of candidate 1 one partition, which candidate 0 did not give
    rng = np.random.default_rng(272)
    h = random_hypergraph(rng, 60, 90, max_edge_size=5, weighted=True)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.05)
    config = PipelineConfig(num_init=2, p=(3, 4, 5))
    clique = clique_expand(h)
    routed, refined = [], []
    route, refine = pipeline_module._route_partitions, pipeline_module._refine
    monkeypatch.setattr(pipeline_module, "_route_partitions",
                        lambda *args: routed.append(route(*args)) or routed[-1])
    monkeypatch.setattr(pipeline_module, "_refine",
                        lambda h, part, spec: refined.append(part.assignment.tobytes())
                        or refine(h, part, spec))
    parts, reports = _build_candidates(h, spec, clique, config)
    given = [[part.assignment.tobytes() for part, _ in r] for r in routed]
    assert [len(set(g)) for g in given] == [2, 1]
    assert len(refined) == len(set(refined)) == 3
    assert set(refined) == set(given[0]) | set(given[1])
    want = candidates_one_by_one(h, spec, clique, config)
    for part, report, (want_part, want_report) in zip(parts, reports, want, strict=True):
        assert np.array_equal(part.assignment, want_part.assignment)
        assert report == want_report


def test_candidates_build_one_tree_each(monkeypatch):
    rng = np.random.default_rng(269)
    h = random_hypergraph(rng, 90, 140, max_edge_size=5)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.05)
    config = PipelineConfig(num_init=3)
    assert _p_choices(h.n, spec.k, config.p, h.n) == [7, 9]  # the two rules differ
    trees = []
    prim = initial_module.prim_mst
    monkeypatch.setattr(initial_module, "prim_mst",
                        lambda *args, **kwargs: trees.append(prim(*args, **kwargs)) or trees[-1])
    _build_candidates(h, spec, clique_expand(h), config)
    assert len(trees) == 3


def test_large_scale_candidates_with_counts_clamped_alike(monkeypatch):
    # both fixed counts exceed n_rep = ceil(0.2 * 60) = 12, so both clamp to
    # 12, which is clustered once per candidate and reported as the count
    monkeypatch.setattr(initial_module, "LARGE_SCALE_THRESHOLD", 0)
    rng = np.random.default_rng(271)
    h = random_hypergraph(rng, 60, 90, weighted=True)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.05)
    config = PipelineConfig(num_init=2, p=(20, 30))
    clique = clique_expand(h)
    merges = []
    merge = initial_module._merge_clusters
    monkeypatch.setattr(initial_module, "_merge_clusters",
                        lambda *args: merges.append(args) or merge(*args))
    parts, reports = _build_candidates(h, spec, clique, config)
    assert len(merges) == 2
    monkeypatch.setattr(initial_module, "_merge_clusters", merge)
    want = candidates_one_by_one(h, spec, clique, config)
    assert [r.p for r in reports] == [12, 12]
    for part, report, (want_part, want_report) in zip(parts, reports, want, strict=True):
        assert np.array_equal(part.assignment, want_part.assignment)
        assert report == want_report


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
