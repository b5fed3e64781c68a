"""Initial-partitioning tests: Prim vs Kruskal, pruning,
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
from mstpart.apg import minimize, project_rows, seeded_features
from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
from mstpart.initial import (
    _merge_clusters,
    _p_choices,
    _route_partition,
    candidate_p_values,
    mst_partition_small,
    prim_mst,
    prune_clusters,
    representative_partition_large,
)
from mstpart.operators import ObjectiveOperator, clique_expand
from mstpart.pipeline import CandidateReport, PipelineConfig, _build_candidates
from mstpart.refine import repair_feasibility


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
    pairs = {tuple(sorted((u, v))) for u, v, _ in tree.edges}
    assert pairs == {(0, 1), (1, 2)}
    assert sum(w for _, _, w in tree.edges) == pytest.approx(0.2, abs=1e-12)


def test_prim_two_vertices():
    X = angles_to_features([0.0, 0.3])
    tree = prim_mst(X)
    assert len(tree.edges) == 1
    assert sum(w for _, _, w in tree.edges) == pytest.approx(1.0 - math.cos(0.3), abs=1e-12)


def assert_same_mst_weights(tree, total, weights):
    sorted_weights = np.sort([w for _, _, w in tree.edges])
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
        assert len(tree.edges) == local.shape[0] - 1
        assert_same_mst_weights(tree, *kruskal_total(local.shape[0], dense_similarity_edges(local)))


def test_prim_disconnected_bridges():
    # two far-apart groups: the heaviest tree edge is the one joining them
    X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
    tree = prim_mst(X)
    assert len(tree.edges) == 3  # spans all four vertices
    touched = {v for u, v, _ in tree.edges} | {u for u, v, _ in tree.edges}
    assert touched == {0, 1, 2, 3}
    group = [0, 0, 1, 1]
    joining = [i for i, (u, v, _) in enumerate(tree.edges) if group[u] != group[v]]
    assert joining == tree.heaviest_first()[:1]
    assert tree.edges[joining[0]][2] == 2.0


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
    heaviest_first = [tuple(sorted(tree.edges[i][:2])) for i in tree.heaviest_first()]
    assert heaviest_first == euclidean[::-1]


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
    for trial in range(3):
        X = project_rows(rng.normal(size=(12, 3)))
        if trial == 2:  # duplicate rows: tied tree weights
            X[6:] = X[:6]
        tree = prim_mst(X)
        whole = prune_clusters(tree, 1, np.ones(12, dtype=np.int64), X)
        assert len(whole.clusters) == 1 and whole.clusters[0].shape[0] == 12

        single = prune_clusters(tree, 12, np.ones(12, dtype=np.int64), X)
        assert [c.tolist() for c in single.clusters] == [[v] for v in range(12)]

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
            # clusters come in order of their lowest member
            lowest = [int(c.min()) for c in cs.clusters]
            assert lowest == sorted(lowest)
            # centroids and weights
            for c, w, cent in zip(cs.clusters, cs.weights, cs.centroids):
                assert w == len(c)
                assert np.allclose(cent, X[c].mean(axis=0))


def test_spanning_tree_cut_matches_union_find():
    rng = np.random.default_rng(233)
    for _ in range(60):
        n = int(rng.integers(1, 30))
        X = project_rows(rng.normal(size=(n, 3)))
        if rng.random() < 0.5:  # duplicate rows: tied tree weights
            X = X[rng.integers(0, n, size=n)]
        tree = prim_mst(X)
        assert tree.parent[0] == -1
        assert all(tree.parent[v] == u for u, v, _ in tree.edges)
        n_cut = int(rng.integers(0, len(tree.edges) + 1))
        ids = rng.permutation(len(tree.edges))[:n_cut].tolist()
        uf = UnionFind(n)
        for i, (u, v, _) in enumerate(tree.edges):
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
    part = mst_partition_small(X, h, spec, p=3)
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
    part = mst_partition_small(X, h, spec, p=3)
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
    part = mst_partition_small(X, h, spec, p=3)
    assert part.assignment[9] == part.assignment[5]
    assert part.block_weight.tolist() == [5, 5]


def test_small_partition_rejects_p_below_k():
    X = project_rows(np.random.default_rng(0).normal(size=(6, 2)))
    h = Hypergraph.from_edges([[0, 1]], n=6)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.1)
    with pytest.raises(ValueError, match=r"^need at least k=3 clusters, got p=2$"):
        mst_partition_small(X, h, spec, p=2)
    with pytest.raises(ValueError, match=r"^p=7 exceeds the vertex count 6$"):
        mst_partition_small(X, h, spec, p=7)
    # n_rep = ceil(0.2 * 6) = 2 < k, so any p is lowered below k
    with pytest.raises(ValueError, match=r"^need at least k=3 representative clusters, got p=2$"):
        representative_partition_large(X, h, spec, p=5)


# ---------------------------------------------------------------------------
# large-scale partitioning

def test_representatives_are_lowest_index_on_equal_weights():
    n = 50
    rng = np.random.default_rng(233)
    X = project_rows(rng.normal(size=(n, 2)))
    h = Hypergraph.from_edges([[i, (i + 1) % n] for i in range(n)], n=n)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.1)
    part = representative_partition_large(X, h, spec, p=4)
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
    part = representative_partition_large(X, h, spec, p=6)
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
    part = representative_partition_large(X, h, spec, p=2)
    assert part.block_weight.tolist() == [25, 25]


def reference_small(X, h, spec, p):
    """Small-scale partition written out straight: cluster every vertex,
    merge under the true cap."""
    tree = prim_mst(X)
    clusters = prune_clusters(tree, p, h.vertex_weight, X)
    members, _, _, _ = _merge_clusters(clusters, spec.k, spec.cap)
    assignment = np.empty(h.n, dtype=np.int64)
    for b, chunks in enumerate(members):
        for chunk in chunks:
            assignment[chunk] = b
    return assignment


def reference_large(X, h, spec, p):
    """Large-scale partition written out straight: cluster the heaviest
    fifth under the adapted cap, then place the rest one by one."""
    n, B = h.n, h.vertex_weight
    n_rep = math.ceil(0.2 * n)
    reps = np.sort(np.lexsort((np.arange(n), -B))[:n_rep])
    tree = prim_mst(X, vertices=reps)
    clusters = prune_clusters(tree, min(p, n_rep), B, X)
    adapted_cap = (1.0 + spec.epsilon) * int(clusters.weights.sum()) / spec.k
    members, weights, centroids, counts = _merge_clusters(clusters, spec.k, adapted_cap)
    assignment = np.full(n, -1, dtype=np.int64)
    for b, chunks in enumerate(members):
        for chunk in chunks:
            assignment[chunk] = b
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
            for p in range(k, n_rep + 3):
                assert np.array_equal(mst_partition_small(X, h, spec, p).assignment,
                                      reference_small(X, h, spec, p))
                if min(p, n_rep) >= k:
                    assert np.array_equal(
                        representative_partition_large(X, h, spec, p).assignment,
                        reference_large(X, h, spec, p))


# ---------------------------------------------------------------------------
# candidates

def test_candidate_p_values():
    assert candidate_p_values(5000, 2) == (50, 500)
    assert candidate_p_values(8, 2) == (2, 1)


def build_candidates(h, spec, num_init):
    """Run the pipeline's candidate builder for candidates 0..num_init-1, as
    (partition, report) pairs."""
    config = PipelineConfig(num_init=num_init)
    return list(zip(*_build_candidates(h, spec, clique_expand(h), config)))


def candidates_one_by_one(h, spec, clique, config):
    """The candidates with one embedding operator and one solve each, in
    order: the builder's reference."""
    combos = [(l1, l2) for l1 in config.lambda1 for l2 in config.lambda2]
    out = []
    for i in range(config.num_init):
        lam1, lam2 = combos[i % len(combos)]
        op = ObjectiveOperator.embedding(clique, h.vertex_weight, [(lam1, lam2)])
        X = minimize(op, seeded_features(h.n, spec.k, stream=i)[None], config.apg).X[0]
        best_part, best_p = None, None
        for p in _p_choices(h.n, spec.k, config.p):
            part = _route_partition(X, h, spec, p)
            if best_part is None or part.cutsize < best_part.cutsize:
                best_part, best_p = part, p
        part, _ = repair_feasibility(h, best_part, spec)
        out.append((part, CandidateReport(lam1, lam2, best_p, part.cutsize,
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
