import heapq
import itertools
import math

import numpy as np
import pytest

import mstpart.refine as refine
from mstpart.apg import ApgParams
from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition
from mstpart.initial import prim_mst
from mstpart.operators import CliqueGraph, laplacian
from mstpart.pipeline import PipelineConfig
from mstpart.refine import (
    BipartitionResult,
    block_connectivity,
    kway_fm,
    mst_bipartition,
    pair_blocks,
    pairwise_improve,
    repair_feasibility,
)

from helpers import (
    brute_force_bipartition,
    brute_force_signed_labels,
    clique_cut_oracle,
    edges_of,
    km1_oracle,
    random_hypergraph,
)


def random_adjacency(rng, n, density=0.5):
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                A[i, j] = A[j, i] = float(rng.integers(1, 5))
    return A


# ---------------------------------------------------------------------------
# mst_bipartition

def test_quarter_quadratic_form_equals_clique_cut():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(3, 20))
        A = random_adjacency(rng, n)
        L = laplacian(CliqueGraph.from_adjacency(A))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        form = 0.25 * float(y @ (L @ y))
        assert form == pytest.approx(clique_cut_oracle(A, y), abs=1e-9)


def test_bipartition_separates_two_blobs():
    rng = np.random.default_rng(5)
    n = 12
    X = np.vstack(
        [rng.normal((0.0, 0.0), 0.05, size=(6, 2)),
         rng.normal((8.0, 8.0), 0.05, size=(6, 2))]
    )
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < 6) == (j < 6)
            A[i, j] = A[j, i] = 4.0 if same else 0.5
    L = laplacian(CliqueGraph.from_adjacency(A))
    B = np.ones(n)
    res = mst_bipartition(X, B, float(n), L)
    assert res.feasible
    sides = {frozenset(np.where(res.labels > 0)[0].tolist()),
             frozenset(np.where(res.labels < 0)[0].tolist())}
    assert sides == {frozenset(range(6)), frozenset(range(6, 12))}
    cross = sum(A[i, j] for i in range(6) for j in range(6, 12))
    assert 0.25 * float(res.labels @ (L @ res.labels)) == pytest.approx(cross, abs=1e-9)


def test_bipartition_identical_features_flagged_infeasible():
    X = np.full((6, 2), 0.5)
    L = laplacian(CliqueGraph.from_adjacency(random_adjacency(np.random.default_rng(0), 6)))
    res = mst_bipartition(X, np.ones(6), 5.0, L)
    assert not res.feasible
    assert res.labels is None
    assert not any(f for _, f, _ in scored_cuts(X, np.ones(6), 5.0, L))


def scored_cuts(X, B, cap, L):
    """(score, feasible, labels) of every cut ``mst_bipartition`` scores, in
    order: cut each scored tree edge, put the child's subtree (every key
    whose parent chain reaches the child) on side 2, and label by the
    nearer center as the docstring describes."""
    n = X.shape[0]
    total = float(B.sum())
    n_key = math.ceil(refine.KEY_FRACTION * n)
    keys = np.arange(n) if n_key < 2 else np.sort(np.lexsort((np.arange(n), -B))[:n_key])
    tree = prim_mst(X, vertices=keys)
    edges = edges_of(tree)
    order = sorted(range(len(edges)), key=lambda i: (-edges[i][2], i))
    cuts = []
    for ei in order[: max(1, math.ceil(refine.CUT_FRACTION * len(edges)))]:
        child = edges[ei][1]
        side2 = np.zeros(keys.shape[0], dtype=bool)
        for v in range(keys.shape[0]):
            u = v
            while u >= 0 and u != child:
                u = int(tree.parent[u])
            side2[v] = u == child
        c1 = X[keys[~side2]].mean(axis=0)
        c2 = X[keys[side2]].mean(axis=0)
        d1 = np.sum((X - c1) ** 2, axis=1)
        d2 = np.sum((X - c2) ** 2, axis=1)
        y = np.where(d1 - d2 > 0.0, 1.0, -1.0)
        yb = float(y @ B)
        feasible = 0.5 * (total + yb) <= cap and 0.5 * (total - yb) <= cap
        cuts.append((0.25 * float(y @ (L @ y)), feasible, y))
    return cuts


def test_bipartition_candidate_envelope_and_brute_force():
    rng = np.random.default_rng(23)
    checked_feasible = 0
    for _ in range(30):
        n = int(rng.integers(6, 13))
        X = rng.normal(size=(n, 2))
        A = random_adjacency(rng, n)
        L = laplacian(CliqueGraph.from_adjacency(A))
        B = rng.integers(1, 5, size=n).astype(np.float64)
        cap = 0.75 * float(B.sum())
        res = mst_bipartition(X, B, cap, L)

        # the returned labeling is the minimum over the feasible cuts
        cuts = scored_cuts(X, B, cap, L)
        feas = [obj for obj, f, _ in cuts if f]
        if not res.feasible:
            assert not feas
            assert res.labels is None
            continue
        objective = 0.25 * float(res.labels @ (L @ res.labels))
        assert objective == min(feas)

        best = brute_force_signed_labels(L.toarray(), B, cap)
        assert best is not None
        assert objective >= best - 1e-9
        checked_feasible += 1
    assert checked_feasible >= 15


def test_bipartition_candidates_match_subtree_oracle():
    rng = np.random.default_rng(37)
    several = 0
    for _ in range(25):
        n = int(rng.integers(40, 401))
        X = rng.normal(size=(n, 2))
        A = np.triu(rng.integers(1, 5, size=(n, n)) * (rng.random((n, n)) < 0.5), 1)
        L = laplacian(CliqueGraph.from_adjacency((A + A.T).astype(np.float64)))
        B = rng.integers(1, 5, size=n).astype(np.float64)
        total = float(B.sum())
        cap = 0.6 * total
        res = mst_bipartition(X, B, cap, L)

        cuts = scored_cuts(X, B, cap, L)
        several += len(cuts) >= 2
        # the first feasible cut of least score, else no split
        pool = [i for i, (_, f, _) in enumerate(cuts) if f]
        assert res.feasible == bool(pool)
        if pool:
            best = min(pool, key=lambda i: cuts[i][0])
            assert np.array_equal(res.labels, cuts[best][2])
        else:
            assert res.labels is None
    assert several >= 10


class CountedLaplacian:
    """A Laplacian that records every vector it multiplies."""

    def __init__(self, L):
        self.L, self.vectors = L, []

    def __matmul__(self, y):
        self.vectors.append(y.copy())
        return self.L @ y


def test_bipartition_scores_only_feasible_cuts():
    # L @ y runs once per feasible cut, on that cut's labels, and never when
    # no cut fits the cap
    rng = np.random.default_rng(61)
    mixed = none = 0
    for _ in range(20):
        n = int(rng.integers(200, 401))  # 10 to 20 keys: 2 to 4 scored cuts
        X = rng.normal(size=(n, 2))
        A = np.triu(rng.integers(1, 5, size=(n, n)) * (rng.random((n, n)) < 0.05), 1)
        L = laplacian(CliqueGraph.from_adjacency((A + A.T).astype(np.float64)))
        B = rng.integers(1, 5, size=n).astype(np.float64)
        cap = float(rng.uniform(0.52, 0.62)) * float(B.sum())
        counted = CountedLaplacian(L)
        res = mst_bipartition(X, B, cap, counted)
        cuts = scored_cuts(X, B, cap, L)
        feasible = [y for _, f, y in cuts if f]
        assert len(counted.vectors) == len(feasible)
        assert all(np.array_equal(a, b) for a, b in zip(counted.vectors, feasible))
        assert (res.labels is None) == (not feasible) == (not res.feasible)
        mixed += 0 < len(feasible) < len(cuts)
        none += not feasible
    assert mixed >= 5 and none >= 2


def test_bipartition_rejects_single_vertex():
    L = laplacian(CliqueGraph.from_adjacency(np.zeros((1, 1))))
    with pytest.raises(ValueError):
        mst_bipartition(np.ones((1, 2)), np.ones(1), 1.0, L)


# ---------------------------------------------------------------------------
# pairing

def three_block_instance():
    h = Hypergraph.from_edges([[0, 1], [0, 2], [1, 2]], edge_weight=[10, 1, 2])
    p = Partition(h, [0, 1, 2], 3)
    return h, p


def test_block_connectivity_matrix():
    h, p = three_block_instance()
    S = block_connectivity(h, p)
    expected = np.array([[0, 10, 1], [10, 0, 2], [1, 2, 0]], dtype=float)
    assert np.array_equal(S, expected)

    rng = np.random.default_rng(131)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        h = random_hypergraph(rng, n, int(rng.integers(1, 20)), max_edge_size=6, weighted=True)
        k = int(rng.integers(2, 6))
        p = Partition(h, rng.integers(0, k, size=n), k)
        expected = np.zeros((k, k))
        for e in range(h.m):
            blocks = sorted({int(p.assignment[v]) for v in h.edge_pins(e)})
            for a in blocks:
                for b in blocks:
                    if a != b:
                        expected[a, b] += h.edge_weight[e]
        assert np.array_equal(block_connectivity(h, p), expected)


def unpaired(pairs, k):
    """The blocks in no pair."""
    return sorted(set(range(k)) - {b for pair in pairs for b in pair})


def test_pair_blocks_two_blocks():
    h = Hypergraph.from_edges([[0, 1]])
    assert pair_blocks(h, Partition(h, [0, 1], 2)) == [(0, 1)]


def test_pair_blocks_strongest_first_with_leftover():
    h, p = three_block_instance()
    pairs = pair_blocks(h, p)
    assert pairs == [(0, 1)]
    assert unpaired(pairs, 3) == [2]


def test_pair_blocks_even_k_covers_all():
    rng = np.random.default_rng(3)
    h = random_hypergraph(rng, 12, 20)
    p = Partition(h, rng.integers(0, 4, size=12), 4)
    pairs = pair_blocks(h, p)
    assert len(pairs) == 2 and unpaired(pairs, 4) == []
    seen = sorted(b for pair in pairs for b in pair)
    assert seen == [0, 1, 2, 3]


def test_pair_blocks_odd_k_leaves_one():
    rng = np.random.default_rng(4)
    h = random_hypergraph(rng, 15, 25)
    p = Partition(h, np.arange(15) % 5, 5)
    pairs = pair_blocks(h, p)
    assert len(pairs) == 2
    used = {b for pair in pairs for b in pair}
    assert len(unpaired(pairs, 5)) == 1 and len(used) == 4


def repeated_maximum_pairs(S, k):
    """The former pairing rule: repeatedly join the two unpaired blocks of
    largest S (ties: lexicographically smallest pair)."""
    unpaired, pairs = list(range(k)), []
    while len(unpaired) >= 2:
        best = None
        for a, b in itertools.combinations(unpaired, 2):
            key = (-S[a, b], a, b)
            if best is None or key < best:
                best = key
        _, a, b = best
        pairs.append((a, b))
        unpaired.remove(a)
        unpaired.remove(b)
    return pairs


def test_pair_blocks_matches_repeated_maximum(monkeypatch):
    rng = np.random.default_rng(151)
    tied = 0
    for k in range(1, 9):
        h = Hypergraph.from_edges([[v] for v in range(k)])
        p = Partition(h, np.arange(k), k)
        for _ in range(40):
            # few distinct strengths, so equal maxima are common
            upper = np.triu(rng.integers(0, 3, size=(k, k)), 1).astype(np.float64)
            S = upper + upper.T
            tied += len(set(S[np.triu_indices(k, 1)].tolist())) < k * (k - 1) // 2
            monkeypatch.setattr(refine, "block_connectivity", lambda h, p, S=S: S)
            assert pair_blocks(h, p) == repeated_maximum_pairs(S, k)
        monkeypatch.undo()
        for _ in range(10):  # and on real connectivity
            g = random_hypergraph(rng, 3 * k, 4 * k, weighted=bool(rng.integers(0, 2)))
            q = Partition(g, rng.integers(0, k, size=3 * k), k)
            assert pair_blocks(g, q) == repeated_maximum_pairs(block_connectivity(g, q), k)
    assert tied >= 200


# ---------------------------------------------------------------------------
# pairwise improvement

def two_group_graph(cross_weight=1):
    """Two 4-vertex cliques joined by one light edge; planted cut is obvious."""
    pins, weights = [], []
    for group in (range(4), range(4, 8)):
        for i in group:
            for j in group:
                if i < j:
                    pins.append([i, j])
                    weights.append(5)
    pins.append([3, 4])
    weights.append(cross_weight)
    return Hypergraph.from_edges(pins, edge_weight=weights)


def test_pairwise_keeps_optimal_partition():
    h = two_group_graph()
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    p = Partition(h, [0, 0, 0, 0, 1, 1, 1, 1], 2)
    out = pairwise_improve(h, p, spec, PipelineConfig())
    assert np.array_equal(out.assignment, p.assignment)
    assert out.cutsize == p.cutsize == 1


def test_pairwise_fixes_misplaced_vertex_to_brute_optimum():
    h = two_group_graph()
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    p = Partition(h, [0, 0, 0, 1, 1, 1, 1, 1], 2)
    out = pairwise_improve(h, p, spec, PipelineConfig())
    best_cut, _ = brute_force_bipartition(h, spec)
    assert out.cutsize == best_cut == 1
    assert out.cutsize < p.cutsize
    assert np.all(out.block_weight <= spec.cap)


def test_pairwise_leftover_block_untouched():
    rng = np.random.default_rng(9)
    h = Hypergraph.from_edges(
        [[0, 3], [1, 4], [2, 5], [0, 1], [3, 4], [6, 7], [7, 8]],
        edge_weight=[6, 6, 6, 2, 2, 1, 1],
    )
    p = Partition(h, [0, 0, 0, 1, 1, 1, 2, 2, 2], 3)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.1)
    assert unpaired(pair_blocks(h, p), 3) == [2]
    out = pairwise_improve(h, p, spec, PipelineConfig(pair_rounds=1))
    assert np.array_equal(np.where(out.assignment == 2)[0], np.array([6, 7, 8]))


def test_pairwise_monotone_and_feasibility_preserving():
    rng = np.random.default_rng(17)
    config = PipelineConfig(pair_rounds=2)
    for _ in range(12):
        n = int(rng.integers(8, 16))
        k = int(rng.integers(2, 4))
        h = random_hypergraph(rng, n, 2 * n, weighted=True)
        assign = rng.integers(0, k, size=n)
        p = Partition(h, assign, k)
        need = float(p.block_weight.max()) / -(-int(h.total_weight) // k) - 1.0
        spec = BalanceSpec.for_hypergraph(h, k, max(0.0, need) + 0.05)
        out = pairwise_improve(h, p, spec, config)
        assert out.cutsize <= p.cutsize
        assert out.cutsize == km1_oracle(h, out.assignment)
        assert np.all(out.block_weight <= spec.cap)


def scripted_pairwise(monkeypatch, h, start, splits):
    """One pairwise round on blocks (0, 1) of ``start`` in which the i-th
    ``mst_bipartition`` call returns ``splits[i]`` = (blocks, feasible);
    ``blocks`` lists the block of every vertex of the pair."""
    results = iter(splits)

    def stub(X, B, cap, L):
        blocks, feasible = next(results)
        labels = np.where(np.asarray(blocks) == 0, 1.0, -1.0)
        return BipartitionResult(labels if feasible else None, feasible)

    monkeypatch.setattr(refine, "mst_bipartition", stub)
    config = PipelineConfig(
        xi1=(0.5,), xi2=(1.0, 0.8, 0.2)[: len(splits)], pair_rounds=1,
        apg=ApgParams(max_iters=5),
    )
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    p = Partition(h, start, 2)
    out = pairwise_improve(h, p, spec, config)
    assert next(results, None) is None  # one call per grid point
    assert out.cutsize == km1_oracle(h, out.assignment)
    return p, out


GOOD = [0, 0, 0, 0, 1, 1, 1, 1]  # km1 1: only the light edge [3, 4] is cut
MIRROR = [1, 1, 1, 1, 0, 0, 0, 0]  # the same split, km1 1
MID = [0, 0, 0, 1, 0, 1, 1, 1]  # 3 and 4 swapped, km1 31
ALTERNATING = [0, 1, 0, 1, 0, 1, 0, 1]  # km1 41


def test_pair_split_is_chosen_by_km1_not_by_proxy(monkeypatch):
    h = two_group_graph()
    assert [km1_oracle(h, np.array(a)) for a in (GOOD, MID, ALTERNATING)] == [1, 31, 41]
    # the all-in-one-block split has km1 0 but is infeasible, so it is skipped;
    # MID comes first in the grid but GOOD has the lowest km1
    _, out = scripted_pairwise(monkeypatch, h, ALTERNATING, [
        ([0] * 8, False), (MID, True), (GOOD, True),
    ])
    assert out.assignment.tolist() == GOOD
    assert out.cutsize == 1


def test_pair_split_not_strictly_better_leaves_input(monkeypatch):
    h = two_group_graph()
    p, out = scripted_pairwise(monkeypatch, h, GOOD, [
        (MIRROR, True), (MID, True), (ALTERNATING, True),
    ])
    assert out.assignment.tolist() == GOOD
    assert out.cutsize == p.cutsize == 1
    assert np.array_equal(out.pin_count, p.pin_count)


@pytest.mark.parametrize("first, second", [(GOOD, MIRROR), (MIRROR, GOOD)])
def test_pair_split_km1_tie_keeps_first_grid_point(monkeypatch, first, second):
    h = two_group_graph()
    _, out = scripted_pairwise(monkeypatch, h, ALTERNATING, [
        (MID, True), (first, True), (second, True),
    ])
    assert out.assignment.tolist() == first
    assert out.cutsize == 1


def counted(monkeypatch, name):
    """Wrap ``refine.<name>`` so that each call appends to the returned list."""
    calls, fn = [], getattr(refine, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(refine, name, wrapper)
    return calls


def test_zero_cut_solves_no_pair_and_runs_no_fm_pass(monkeypatch):
    h = Hypergraph.from_edges([], n=40)  # m = 0
    solves, passes = counted(monkeypatch, "minimize"), counted(monkeypatch, "_fm_pass")
    for k in (2, 3):
        spec = BalanceSpec.for_hypergraph(h, k, 0.1)
        p = Partition(h, np.arange(40) % k, k)
        for out in (pairwise_improve(h, p, spec, PipelineConfig()), kway_fm(h, p, spec)):
            assert np.array_equal(out.assignment, p.assignment)
            assert out.cutsize == 0
    assert solves == passes == []


def test_pair_sharing_no_net_is_not_solved(monkeypatch):
    # blocks 0 and 1: the two 4-cliques of two_group_graph with vertex 3
    # misplaced; blocks 2 and 3: two paths, each touching block 0 only
    h0 = two_group_graph()
    nets = [h0.edge_pins(e).tolist() for e in range(h0.m)]
    nets += [[8, 9], [9, 10], [10, 11], [12, 13], [13, 14], [14, 15], [0, 8], [1, 12]]
    h = Hypergraph.from_edges(nets, edge_weight=h0.edge_weight.tolist() + [1] * 8)
    p = Partition(h, [0, 0, 0, 1, 1, 1, 1, 1] + [2] * 4 + [3] * 4, 4)
    spec = BalanceSpec.for_hypergraph(h, 4, 0.25)
    assert pair_blocks(h, p) == [(0, 1), (2, 3)]
    assert block_connectivity(h, p)[2, 3] == 0
    solves = counted(monkeypatch, "minimize")
    out = pairwise_improve(h, p, spec, PipelineConfig(pair_rounds=1))
    assert len(solves) == 1  # the (0, 1) stack only
    assert out.cutsize < p.cutsize
    # a solve of the (2, 3) stack could not have lowered the cut: no
    # feasible re-split of those blocks does
    members = np.nonzero(out.assignment >= 2)[0]
    for bits in itertools.product((2, 3), repeat=members.shape[0]):
        trial = out.assignment.copy()
        trial[members] = bits
        trial = Partition(h, trial, 4)
        if np.all(trial.block_weight <= spec.cap):
            assert trial.cutsize >= out.cutsize


# ---------------------------------------------------------------------------
# feasibility repair

def test_repair_feasible_input_is_identity():
    rng = np.random.default_rng(2)
    h = random_hypergraph(rng, 10, 15)
    p = Partition(h, np.arange(10) % 2, 2)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.5)
    out, ok = repair_feasibility(h, p, spec)
    assert ok and np.array_equal(out.assignment, p.assignment)


def test_repair_moves_min_increase_vertex():
    h = Hypergraph.from_edges(
        [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]],
        vertex_weight=[2, 1, 1, 1, 1, 1],
        edge_weight=[3, 1, 1, 1, 2],
    )
    spec = BalanceSpec.for_hypergraph(h, 2, 0.0)  # cap = ceil(7/2) = 4
    p = Partition(h, [0, 0, 0, 0, 1, 1], 2)
    assert p.block_weight.tolist() == [5, 2]

    # oracle: choose the single move minimizing (delta, weight, vertex, target)
    candidates = []
    for v in range(4):
        w = int(h.vertex_weight[v])
        if p.block_weight[1] + w <= spec.cap:
            trial = p.assignment.copy()
            trial[v] = 1
            delta = km1_oracle(h, trial) - p.cutsize
            candidates.append((delta, w, v, 1))
    expected = min(candidates)

    out, ok = repair_feasibility(h, p, spec)
    assert ok
    moved = np.where(out.assignment != p.assignment)[0]
    assert moved.tolist() == [expected[2]]
    assert out.cutsize == p.cutsize + expected[0]
    assert np.all(out.block_weight <= spec.cap)


def test_repair_swap_when_no_move_fits():
    h = Hypergraph.from_edges([], n=4, vertex_weight=[3, 3, 1, 1])
    spec = BalanceSpec.for_hypergraph(h, 2, 0.0)  # cap = 4
    p = Partition(h, [0, 0, 1, 1], 2)
    out, ok = repair_feasibility(h, p, spec)
    assert ok
    assert out.assignment.tolist() == [1, 0, 0, 1]
    assert out.block_weight.tolist() == [4, 4]


def test_repair_unresolvable_is_flagged_unchanged():
    h = Hypergraph.from_edges([[0, 1, 2]], vertex_weight=[10, 1, 1])
    spec = BalanceSpec.for_hypergraph(h, 2, 0.0)  # cap = 6 < 10
    p = Partition(h, [0, 1, 1], 2)
    out, ok = repair_feasibility(h, p, spec)
    assert not ok
    assert np.array_equal(out.assignment, p.assignment)


def test_repair_random_overloads():
    rng = np.random.default_rng(31)
    fixed = 0
    for _ in range(25):
        n = int(rng.integers(6, 14))
        k = int(rng.integers(2, 4))
        h = random_hypergraph(rng, n, 2 * n, weighted=True)
        p = Partition(h, rng.integers(0, k, size=n), k)
        spec = BalanceSpec.for_hypergraph(h, k, 0.3)
        out, ok = repair_feasibility(h, p, spec)
        assert out.cutsize == km1_oracle(h, out.assignment)
        if ok:
            assert np.all(out.block_weight <= spec.cap)
            fixed += 1
    assert fixed >= 20


def reference_repair(h, p, spec):
    """The repair_feasibility rule by trial moves on a copy; also counts swaps."""
    part = p.copy()
    cap = spec.cap
    ops = swaps = 0
    while ops < 2 * h.n:
        over = part.block_weight - cap
        src = int(np.argmax(over))
        if over[src] <= 0:
            return part, True, swaps
        members = np.where(part.assignment == src)[0].tolist()
        moves = []
        for v in members:
            bv = int(h.vertex_weight[v])
            for t in range(part.k):
                if t != src and part.block_weight[t] + bv <= cap:
                    d = part.move(v, t)
                    part.move(v, src)
                    moves.append((d, bv, v, t))
        if moves:
            _, _, v, t = min(moves)
            part.move(v, t)
            ops += 1
            continue
        trials = []
        for v in members:
            bv = int(h.vertex_weight[v])
            for t in range(part.k):
                if t == src:
                    continue
                for u in np.where(part.assignment == t)[0].tolist():
                    bu = int(h.vertex_weight[u])
                    if bu < bv and part.block_weight[t] - bu + bv <= cap:
                        d = part.move(v, t) + part.move(u, src)
                        part.move(u, t)
                        part.move(v, src)
                        trials.append((d, v, u, t))
        if not trials:
            return part, False, swaps
        _, v, u, t = min(trials)
        part.move(v, t)
        part.move(u, src)
        ops += 2
        swaps += 1
    return part, bool(np.all(part.block_weight <= cap)), swaps


def test_repair_matches_reference_rule():
    rng = np.random.default_rng(77)
    swapped = 0
    for trial in range(300):
        n = int(rng.integers(6, 16))
        k = int(rng.integers(2, 5))
        h = random_hypergraph(rng, n, 2 * n, weighted=True)
        assignment = rng.integers(0, k, size=n)
        if trial % 2:
            # pile about half the vertices onto block 0, overloading it
            assignment[rng.random(n) < 0.5] = 0
        p = Partition(h, assignment, k)
        spec = BalanceSpec.for_hypergraph(h, k, float(rng.uniform(0.0, 0.3)))
        ref, ref_ok, swaps = reference_repair(h, p, spec)
        out, ok = repair_feasibility(h, p, spec)
        assert np.array_equal(out.assignment, ref.assignment)
        assert ok == ref_ok
        assert out.cutsize == ref.cutsize == km1_oracle(h, out.assignment)
        swapped += swaps > 0
    assert swapped >= 20


def repair_edge_cases():
    """Overloaded starts with a vertex heavier than the cap, with k >= n and
    with m = 0, each as (h, p, spec)."""
    cases = []
    # vertex 0 weighs 9 against caps of 7 (k = 2) and 5 (k = 3)
    h = Hypergraph.from_edges([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
                              vertex_weight=[9, 1, 1, 1, 1])
    for k, start in ((2, [0, 0, 0, 1, 1]), (2, [1, 0, 0, 0, 0]), (3, [0, 0, 1, 1, 2])):
        cases.append((h, Partition(h, start, k), BalanceSpec.for_hypergraph(h, k, 0.0)))
    # k >= n: every vertex starts in block 0
    for n, k in ((3, 3), (3, 5), (4, 6)):
        h = Hypergraph.from_edges([[0, 1], [1, 2], [0, n - 1]], n=n)
        cases.append((h, Partition(h, [0] * n, k), BalanceSpec.for_hypergraph(h, k, 0.0)))
    # m = 0; the first start ends with a swap, as no relocation fits
    h = Hypergraph.from_edges([], n=8, vertex_weight=[3, 1, 2, 3, 1, 2, 3, 1])
    for k, start in ((2, [0] * 8), (3, [0] * 8), (2, [0, 1, 0, 1, 0, 1, 0, 0])):
        cases.append((h, Partition(h, start, k), BalanceSpec.for_hypergraph(h, k, 0.0)))
    # k = 3: a move that waits for its target block to lose weight fits
    # again later; the first repair also makes a swap
    for pins, vw, ew, start in (
        ([[6], [0, 1, 4], [3, 4, 5, 6], [1, 2, 3, 4], [0, 5], [4], [2, 5, 6]],
         [1, 3, 1, 4, 5, 2, 2], [2, 3, 2, 2, 4, 2, 3], [0, 0, 0, 2, 2, 0, 0]),
        ([[4, 5], [1, 2, 4], [1, 4, 5, 6], [0, 3, 5, 7], [1, 2, 3, 7], [2, 5], [6], [1, 3]],
         [3, 2, 5, 2, 3, 3, 1, 2], [1, 4, 4, 1, 3, 2, 1, 3], [1, 2, 2, 0, 0, 0, 2, 2]),
    ):
        h = Hypergraph.from_edges(pins, vertex_weight=vw, edge_weight=ew)
        cases.append((h, Partition(h, start, 3), BalanceSpec.for_hypergraph(h, 3, 0.0)))
    cases.append(multi_swap_instance(30, 30))
    return cases


def multi_swap_instance(n0, n1):
    """k = 2, block 0 of n0 weight-50 vertices, block 1 of n1 weight-49
    ones, cap = ceil(total / 2).  No relocation ever fits, and each swap of
    a 50 for a 49 drains block 0 by 1: at 30/30 that is 15 swap steps."""
    n = n0 + n1
    rng = np.random.default_rng(1)
    pins = [rng.choice(n, size=int(rng.integers(2, 5)), replace=False).tolist()
            for _ in range(2 * n)]
    h = Hypergraph.from_edges(pins, n=n, vertex_weight=[50] * n0 + [49] * n1)
    return h, Partition(h, [0] * n0 + [1] * n1, 2), BalanceSpec.for_hypergraph(h, 2, 0.0)


def test_repair_edge_cases_match_reference_rule():
    flags = []
    for h, p, spec in repair_edge_cases():
        ref, ref_ok, _ = reference_repair(h, p, spec)
        out, ok = repair_feasibility(h, p, spec)
        assert np.array_equal(out.assignment, ref.assignment)
        assert ok == ref_ok
        assert out.cutsize == ref.cutsize == km1_oracle(h, out.assignment)
        assert np.array_equal(out.block_weight, Partition(h, out.assignment, p.k).block_weight)
        flags.append(ok)
    assert flags[:3] == [False] * 3  # no block can hold the heavy vertex
    assert all(flags[3:])


def test_gain_table_is_read_once_per_repair_and_per_fm_call(monkeypatch):
    n, k = 2000, 4
    h, _ = planted_instance(n, 2 * k, seed=5)
    spec = BalanceSpec.for_hypergraph(h, k, 0.03)
    reads, move_deltas = [], Partition.move_deltas

    def counting(self, vertices):
        reads.append(len(vertices))
        return move_deltas(self, vertices)

    monkeypatch.setattr(Partition, "move_deltas", counting)
    # unit weights: from all-in-block-0 some relocation always fits, so no swap
    out, ok = repair_feasibility(h, Partition(h, np.zeros(n, dtype=np.int64), k), spec)
    assert ok and np.count_nonzero(out.assignment) >= n - spec.cap
    assert reads == [n]  # every relocation step takes its move from that one read

    passes = counted(monkeypatch, "_fm_pass")
    reads.clear()
    refined = kway_fm(h, out, spec)
    assert len(passes) >= 3
    assert refined.cutsize < out.cutsize
    assert reads == [n]

    reads.clear()
    again, ok = repair_feasibility(h, refined, spec)  # feasible: nothing to read
    assert ok and reads == []
    assert np.array_equal(again.assignment, refined.assignment)

    h, p, spec = multi_swap_instance(30, 30)
    assert reference_repair(h, p, spec)[2] == 15
    reads.clear()
    out, ok = repair_feasibility(h, p, spec)
    assert ok and out.block_weight.tolist() == [1485, 1485]
    assert reads == [h.n]  # the 15 swap steps score their pairs from that read


def count_move_calls(monkeypatch):
    calls = []
    original = Partition.move

    def counting(self, v, block):
        calls.append((v, block))
        return original(self, v, block)

    monkeypatch.setattr(Partition, "move", counting)
    return calls


def test_repair_swap_step_move_calls_are_bounded(monkeypatch):
    # block 0: 100 vertices of weight 3 (cap + 1); block 1: 149 of weight 2
    # (cap - 1).  Nothing fits, so the repair is one swap step and the swap.
    n = 249
    weights = [3] * 100 + [2] * 149
    rng = np.random.default_rng(5)
    pins = [rng.choice(n, size=int(rng.integers(1, 4)), replace=False).tolist()
            for _ in range(3 * n)]
    h = Hypergraph.from_edges(pins, n=n, vertex_weight=weights)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.0)  # cap = ceil(598 / 2) = 299
    p = Partition(h, [0] * 100 + [1] * 149, 2)
    assert p.block_weight.tolist() == [300, 298]

    calls = count_move_calls(monkeypatch)
    out, ok = repair_feasibility(h, p, spec)
    assert ok and out.block_weight.tolist() == [299, 299]
    assert len(calls) == 2  # the swap itself: the step scores pairs on the gain table


# ---------------------------------------------------------------------------
# k-way FM

def triangle_pair_instance():
    pins = [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5], [2, 3]]
    return Hypergraph.from_edges(pins)


def test_fm_requires_feasible_start():
    h = triangle_pair_instance()
    spec = BalanceSpec.for_hypergraph(h, 2, 0.0)  # cap = 3
    p = Partition(h, [0, 0, 1, 1, 1, 1], 2)
    with pytest.raises(ValueError):
        kway_fm(h, p, spec)


def test_fm_local_optimum_unchanged():
    h = triangle_pair_instance()
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    p = Partition(h, [0, 0, 0, 1, 1, 1], 2)
    out = kway_fm(h, p, spec)
    assert np.array_equal(out.assignment, p.assignment)
    assert out.cutsize == 1


def test_fm_moves_misplaced_vertex_with_oracle_gain():
    h = triangle_pair_instance()
    spec = BalanceSpec.for_hypergraph(h, 2, 0.34)  # cap = 4.02
    p = Partition(h, [0, 0, 1, 1, 1, 1], 2)
    trial = p.assignment.copy()
    trial[2] = 0
    gain = p.cutsize - km1_oracle(h, trial)
    assert gain == 1

    out = kway_fm(h, p, spec)
    assert out.assignment.tolist() == [0, 0, 0, 1, 1, 1]
    assert p.cutsize - out.cutsize == gain
    assert out.cutsize == km1_oracle(h, out.assignment)


def test_fm_random_instances_monotone_and_feasible():
    rng = np.random.default_rng(41)
    improved = 0
    for _ in range(100):
        n = int(rng.integers(6, 16))
        k = int(rng.integers(2, 5))
        h = random_hypergraph(rng, n, 2 * n, weighted=True)
        assign = rng.integers(0, k, size=n)
        p = Partition(h, assign, k)
        need = float(p.block_weight.max()) / -(-int(h.total_weight) // k) - 1.0
        spec = BalanceSpec.for_hypergraph(h, k, max(0.0, need) + 0.01)
        out = kway_fm(h, p, spec)
        assert out.cutsize <= p.cutsize
        assert out.cutsize == km1_oracle(h, out.assignment)
        assert np.all(out.block_weight <= spec.cap)
        if out.cutsize < p.cutsize:
            improved += 1
    assert improved >= 50


def test_fm_move_calls_are_kept_moves(monkeypatch):
    # FM keeps its moves on its gain table alone and builds the result from it
    h = triangle_pair_instance()
    calls = count_move_calls(monkeypatch)
    p = Partition(h, [0, 0, 0, 1, 1, 1], 2)
    out = kway_fm(h, p, BalanceSpec.for_hypergraph(h, 2, 0.04))
    assert calls == []  # already a local optimum: no move is kept
    assert out.assignment.tolist() == [0, 0, 0, 1, 1, 1]

    p = Partition(h, [0, 0, 1, 1, 1, 1], 2)
    out = kway_fm(h, p, BalanceSpec.for_hypergraph(h, 2, 0.34))
    assert calls == []  # the kept move (2, 0) never goes through Partition.move
    assert out.assignment.tolist() == [0, 0, 0, 1, 1, 1]
    assert p.assignment.tolist() == [0, 0, 1, 1, 1, 1]


def reference_fm(h, p, spec):
    """k-way FM as one plain pass loop: per-vertex entry versions, every gain
    of a touched pin re-read with ``move_deltas`` after each move, every
    deferred entry re-pushed after each move, the pass stopped by the
    random-walk rule on the gains since its best prefix, and the tail rolled
    back.  Also returns how many moves were applied after being deferred
    once, and how many passes the stop rule ended."""
    part = p.copy()
    if h.n == 0 or part.k < 2:
        return part, 0, 0
    n, k, cap = h.n, part.k, spec.cap
    alpha, beta = 16.0, 4.0 * math.log(n)
    revived = stopped = 0
    for _ in range(50):
        version = np.zeros(n, dtype=np.int64)
        locked = np.zeros(n, dtype=bool)
        heap = []

        def push_moves(vs):
            rows = part.move_deltas(vs).tolist()
            for v, delta in zip(vs, rows):
                for t in range(k):
                    if t != part.assignment[v]:
                        heapq.heappush(heap, (delta[t], v, t, int(version[v])))

        push_moves(list(range(n)))
        applied, deferred, waited = [], [], set()
        cum = best_cum = best_len = 0
        tail_n = tail_sum = tail_sq = 0  # gains of the moves after the best
        while heap:
            item = heapq.heappop(heap)
            delta, v, t, ver = item
            if locked[v] or ver != version[v]:
                continue
            if part.block_weight[t] + h.vertex_weight[v] > cap:
                deferred.append(item)
                waited.add(item)
                continue
            revived += item in waited
            frm = int(part.assignment[v])
            part.move(v, t)
            locked[v] = True
            applied.append((v, frm))
            cum -= delta
            if cum > best_cum:
                best_cum, best_len = cum, len(applied)
                tail_n = tail_sum = tail_sq = 0
            else:
                tail_n, tail_sum, tail_sq = tail_n + 1, tail_sum - delta, tail_sq + delta**2
                mu = tail_sum / tail_n
                sigma2 = tail_sq / tail_n - mu**2
                if mu < 0 and tail_n > beta and tail_n * mu**2 > alpha * sigma2 + beta:
                    stopped += 1
                    break
            touched = {int(u) for e in h.vertex_edges(v) for u in h.edge_pins(e)}
            fresh = sorted(u for u in touched if not locked[u])
            version[fresh] += 1
            push_moves(fresh)
            for d in deferred:
                heapq.heappush(heap, d)
            deferred = []
        for v, frm in reversed(applied[best_len:]):
            part.move(v, frm)
        if best_cum <= 0:
            break
    return part, revived, stopped


def feasible_start(rng, h, k, spec, near_cap):
    """A random assignment within the cap, or None.  With ``near_cap``
    block 0 is filled first until the next vertex would not fit."""
    cap = spec.cap
    weight = np.zeros(k)
    assign = np.zeros(h.n, dtype=np.int64)
    order = rng.permutation(h.n)
    filling = near_cap
    for v in order.tolist():
        w = h.vertex_weight[v]
        if filling and weight[0] + w <= cap:
            assign[v] = 0
        else:
            filling = False
            fits = np.nonzero(weight + w <= cap)[0]
            if fits.size == 0:
                return None
            assign[v] = int(rng.choice(fits))
        weight[assign[v]] += w
    return Partition(h, assign, k)


def fm_cases():
    rng = np.random.default_rng(2024)
    cases = []
    while len(cases) < 300:
        n = int(rng.integers(4, 30))
        k = int(rng.integers(2, 6))
        h = random_hypergraph(rng, n, int(rng.integers(n, 3 * n)),
                              max_edge_size=int(rng.integers(2, 7)), weighted=True)
        spec = BalanceSpec.for_hypergraph(h, k, float(rng.uniform(0.0, 0.1)))
        p = feasible_start(rng, h, k, spec, near_cap=len(cases) % 3 == 0)
        if p is not None:
            cases.append((h, p, spec))
    degenerate = [
        Hypergraph.from_edges([], n=7, vertex_weight=[1, 2, 3, 1, 2, 3, 1]),  # m = 0
        Hypergraph.from_edges([[0, 1], [1, 2, 3], [2, 3]], n=8),  # isolated vertices
        Hypergraph.from_edges([list(range(9))], edge_weight=[4]),  # one net over all
        Hypergraph.from_edges([[0], [1], [2], [0, 1], [3], [2, 3]], edge_weight=[5, 1, 2, 1, 3, 2]),
    ]
    for h in degenerate:
        for k in (2, 3):
            spec = BalanceSpec.for_hypergraph(h, k, 0.1)
            cases.append((h, feasible_start(rng, h, k, spec, near_cap=False), spec))
    for n, k in ((3, 3), (3, 5), (4, 6)):  # k >= n
        h = Hypergraph.from_edges([[0, 1], [1, 2], [0, n - 1]], n=n)
        spec = BalanceSpec.for_hypergraph(h, k, 0.0)
        cases.append((h, Partition(h, np.arange(n) % k, k), spec))
    return cases


def test_fm_matches_reference_pass():
    revived_on = stops = 0
    for h, p, spec in fm_cases():
        ref, revived, stopped = reference_fm(h, p, spec)
        out = kway_fm(h, p, spec)
        revived_on += revived > 0
        stops += stopped
        assert np.array_equal(out.assignment, ref.assignment)
        assert out.cutsize == ref.cutsize == km1_oracle(h, out.assignment)
        fresh = Partition(h, out.assignment, p.k)
        for got in (out, ref):
            assert np.array_equal(got.block_weight, fresh.block_weight)
            assert np.array_equal(got.pin_count, fresh.pin_count)
            assert got.cutsize == fresh.cutsize
        assert np.all(out.block_weight <= spec.cap)
    assert revived_on >= 150  # a deferred move became possible and was made
    assert stops >= 5  # the stop rule ended passes before their heaps ran dry


def planted_instance(n, groups, seed):
    """n nets of 2-5 pins, each drawn from one of ``groups`` equal groups of
    consecutive vertices, one in ten with an extra pin from anywhere."""
    rng = np.random.default_rng(seed)
    group = np.arange(n) * groups // n
    nets = []
    for _ in range(n):
        members = np.nonzero(group == rng.integers(groups))[0]
        pins = set(rng.choice(members, size=int(rng.integers(2, 6)), replace=False).tolist())
        if rng.random() < 0.1:
            pins.add(int(rng.integers(n)))
        nets.append(sorted(pins))
    return Hypergraph.from_edges(nets, n=n), group


def test_fm_pass_stops_before_its_heap_runs_dry(monkeypatch):
    n, k = 2000, 4
    h, group = planted_instance(n, 2 * k, seed=5)
    spec = BalanceSpec.for_hypergraph(h, k, 0.03)
    p = Partition(h, group * k // (2 * k), k)
    seeded, pops = [], []
    heapify, heappop = heapq.heapify, heapq.heappop

    def counting_heapify(heap):  # each pass seeds its heap once
        seeded.append(len(heap))
        pops.append(0)
        heapify(heap)

    def counting_heappop(heap):
        pops[-1] += 1
        return heappop(heap)

    monkeypatch.setattr(heapq, "heapify", counting_heapify)
    monkeypatch.setattr(heapq, "heappop", counting_heappop)
    out = kway_fm(h, p, spec)
    assert seeded[0] == n * (k - 1)
    assert pops[0] < seeded[0]  # without the stop a pass pops every entry
    assert out.cutsize < p.cutsize
    assert np.all(out.block_weight <= spec.cap)
