import numpy as np
import pytest

from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition
from mstpart.operators import CliqueGraph, laplacian
from mstpart.refine import (
    PairwiseParams,
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
    res = mst_bipartition(X, B, (float(n), float(n)), L)
    assert res.feasible
    sides = {frozenset(np.where(res.labels > 0)[0].tolist()),
             frozenset(np.where(res.labels < 0)[0].tolist())}
    assert sides == {frozenset(range(6)), frozenset(range(6, 12))}
    cross = sum(A[i, j] for i in range(6) for j in range(6, 12))
    assert res.objective == pytest.approx(cross, abs=1e-9)


def test_bipartition_identical_features_flagged_infeasible():
    X = np.full((6, 2), 0.5)
    L = laplacian(CliqueGraph.from_adjacency(random_adjacency(np.random.default_rng(0), 6)))
    res = mst_bipartition(X, np.ones(6), (5.0, 5.0), L)
    assert not res.feasible
    assert np.all(res.labels == -1.0)
    assert all(not f for _, f in res.candidates)


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
        res = mst_bipartition(X, B, (cap, cap), L)

        # the returned value is the minimum over the scored candidates
        feas = [obj for obj, f in res.candidates if f]
        if res.feasible:
            assert res.objective == min(feas)
        else:
            assert not feas
            assert res.objective == min(obj for obj, _ in res.candidates)

        best = brute_force_signed_labels(L.toarray(), B, (cap, cap))
        if res.feasible:
            assert best is not None
            assert res.objective >= best - 1e-9
            checked_feasible += 1
    assert checked_feasible >= 15


def test_bipartition_rejects_single_vertex():
    L = laplacian(CliqueGraph.from_adjacency(np.zeros((1, 1))))
    with pytest.raises(ValueError):
        mst_bipartition(np.ones((1, 2)), np.ones(1), (1.0, 1.0), L)


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


def test_pair_blocks_two_blocks():
    h = Hypergraph.from_edges([[0, 1]])
    plan = pair_blocks(h, Partition(h, [0, 1], 2))
    assert plan.pairs == [(0, 1)] and plan.leftover is None


def test_pair_blocks_strongest_first_with_leftover():
    h, p = three_block_instance()
    plan = pair_blocks(h, p)
    assert plan.pairs == [(0, 1)]
    assert plan.leftover == 2


def test_pair_blocks_even_k_covers_all():
    rng = np.random.default_rng(3)
    h = random_hypergraph(rng, 12, 20)
    p = Partition(h, rng.integers(0, 4, size=12), 4)
    plan = pair_blocks(h, p)
    assert len(plan.pairs) == 2 and plan.leftover is None
    seen = sorted(b for pair in plan.pairs for b in pair)
    assert seen == [0, 1, 2, 3]


def test_pair_blocks_odd_k_leaves_one():
    rng = np.random.default_rng(4)
    h = random_hypergraph(rng, 15, 25)
    p = Partition(h, np.arange(15) % 5, 5)
    plan = pair_blocks(h, p)
    assert len(plan.pairs) == 2
    used = {b for pair in plan.pairs for b in pair}
    assert plan.leftover not in used and len(used) == 4


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
    out = pairwise_improve(h, p, spec)
    assert np.array_equal(out.assignment, p.assignment)
    assert out.cutsize == p.cutsize == 1


def test_pairwise_fixes_misplaced_vertex_to_brute_optimum():
    h = two_group_graph()
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    p = Partition(h, [0, 0, 0, 1, 1, 1, 1, 1], 2)
    out = pairwise_improve(h, p, spec)
    best_cut, _ = brute_force_bipartition(h, spec)
    assert out.cutsize == best_cut == 1
    assert out.cutsize < p.cutsize
    assert np.all(out.block_weight <= spec.upper_bounds)


def test_pairwise_leftover_block_untouched():
    rng = np.random.default_rng(9)
    h = Hypergraph.from_edges(
        [[0, 3], [1, 4], [2, 5], [0, 1], [3, 4], [6, 7], [7, 8]],
        edge_weight=[6, 6, 6, 2, 2, 1, 1],
    )
    p = Partition(h, [0, 0, 0, 1, 1, 1, 2, 2, 2], 3)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.1)
    plan = pair_blocks(h, p)
    assert plan.leftover == 2
    out = pairwise_improve(h, p, spec, PairwiseParams(max_rounds=1))
    assert np.array_equal(np.where(out.assignment == 2)[0], np.array([6, 7, 8]))


def test_pairwise_monotone_and_feasibility_preserving():
    rng = np.random.default_rng(17)
    params = PairwiseParams(max_rounds=2)
    for _ in range(12):
        n = int(rng.integers(8, 16))
        k = int(rng.integers(2, 4))
        h = random_hypergraph(rng, n, 2 * n, weighted=True)
        assign = rng.integers(0, k, size=n)
        p = Partition(h, assign, k)
        need = float(p.block_weight.max()) / -(-int(h.total_weight) // k) - 1.0
        spec = BalanceSpec.for_hypergraph(h, k, max(0.0, need) + 0.05)
        out = pairwise_improve(h, p, spec, params)
        assert out.cutsize <= p.cutsize
        assert out.cutsize == km1_oracle(h, out.assignment)
        assert np.all(out.block_weight <= spec.upper_bounds)


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
        if p.block_weight[1] + w <= spec.upper_bounds[1]:
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
    assert np.all(out.block_weight <= spec.upper_bounds)


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
            assert np.all(out.block_weight <= spec.upper_bounds)
            fixed += 1
    assert fixed >= 20


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
        assert np.all(out.block_weight <= spec.upper_bounds)
        if out.cutsize < p.cutsize:
            improved += 1
    assert improved >= 50
