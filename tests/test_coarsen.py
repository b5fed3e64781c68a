"""Coarsening tests: scores, greedy matching, contraction, multilevel loop."""

import importlib

import numpy as np
import pytest

from helpers import km1_oracle, random_hypergraph, random_partition
from mstpart.coarsen import (
    build_matching,
    coarsen,
    contract,
    project_partition,
)
from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition
from mstpart.operators import clique_expand

# the package re-exports the function ``coarsen`` under the module's name
coarsen_module = importlib.import_module("mstpart.coarsen")


def score_table_oracle(h):
    """Brute-force all-pairs scores from the definition."""
    table = {}
    for i in range(h.n):
        for j in range(h.n):
            if i == j:
                continue
            s = 0.0
            for e in range(h.m):
                pins = set(h.edge_pins(e).tolist())
                if i in pins and j in pins:
                    s += h.edge_weight[e] / max(1, len(pins) - 1)
            table[(i, j)] = s
    return table


# ---------------------------------------------------------------------------
# matching score: the clique-expansion weight of the pair

def test_score_single_pin_edge_guard():
    # a 1-pin edge is incident to only one vertex, so it never contributes,
    # but the max(1, |e|-1) guard matters for 2-pin edges
    h = Hypergraph.from_edges([[0], [0, 1]], n=2, edge_weight=[9, 5])
    assert clique_expand(h).adjacency[0, 1] == pytest.approx(5.0)


def test_score_matches_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        h = random_hypergraph(rng, 8, 10, weighted=True)
        A = clique_expand(h).adjacency.toarray()
        table = score_table_oracle(h)
        for (i, j), s in table.items():
            assert A[i, j] == pytest.approx(s)


# ---------------------------------------------------------------------------
# greedy matching

def dict_rule_matching(h, cap):
    """The matching rule with each vertex's scores summed in a dict, pin by
    pin over its nets in ascending order."""
    order = np.lexsort((np.arange(h.n), -h.vertex_weight))
    matched = np.zeros(h.n, dtype=bool)
    sizes = h.edge_sizes()
    weights = h.vertex_weight
    pairs = []
    for vi in order.tolist():
        if matched[vi]:
            continue
        scores = {}
        for e in h.vertex_edges(vi).tolist():
            gain = float(h.edge_weight[e]) / max(1, int(sizes[e]) - 1)
            for u in h.edge_pins(e).tolist():
                if u == vi or matched[u]:
                    continue
                if weights[vi] + weights[u] > cap:
                    continue
                scores[u] = scores.get(u, 0.0) + gain
        best_u, best_s = -1, 0.0
        for u, s in scores.items():
            if s > best_s or (s == best_s and best_u != -1 and u < best_u):
                best_u, best_s = u, s
        if best_u != -1 and best_s > 0.0:
            matched[vi] = matched[best_u] = True
            pairs.append((vi, best_u))
    return pairs


def test_matching_equals_dict_rule():
    rng = np.random.default_rng(23)
    matched = 0
    for _ in range(300):
        n, m = int(rng.integers(1, 40)), int(rng.integers(0, 60))
        h = random_hypergraph(rng, n, m, max_edge_size=8, weighted=True)
        heaviest = int(h.vertex_weight.max())
        for cap in (heaviest, 2 * heaviest + 1, 1e9):
            pairs = build_matching(h, cap)
            assert pairs == dict_rule_matching(h, cap)
            matched += bool(pairs)
    assert matched >= 600


def test_matching_path():
    h = Hypergraph.from_edges([[0, 1], [1, 2]], n=3)
    assert build_matching(h, cap=100) == [(0, 1)]


def test_matching_star_lowest_leaf():
    h = Hypergraph.from_edges([[0, 1], [0, 2], [0, 3], [0, 4]], n=5)
    assert build_matching(h, cap=100) == [(0, 1)]


def test_matching_visits_heaviest_first():
    # vertex 2 is heaviest so it picks first; its best neighbour is 3 (shared
    # heavy edge), leaving 0-1 to pair afterwards
    h = Hypergraph.from_edges(
        [[0, 1], [1, 2], [2, 3]], n=4,
        vertex_weight=[1, 1, 5, 1], edge_weight=[1, 1, 3],
    )
    assert build_matching(h, cap=100) == [(2, 3), (0, 1)]


def test_matching_respects_cap():
    h = Hypergraph.from_edges([[0, 1]], n=2, vertex_weight=[8, 8])
    assert build_matching(h, cap=15) == []
    assert build_matching(h, cap=16) == [(0, 1)]


def test_matching_disjoint_and_maximal():
    rng = np.random.default_rng(17)
    for _ in range(25):
        h = random_hypergraph(rng, 14, 20, weighted=True)
        cap = float(h.vertex_weight.max() * 2 + 3)
        A = clique_expand(h).adjacency.toarray()
        seen = set()
        for a, b in build_matching(h, cap):
            assert a not in seen and b not in seen
            seen.update((a, b))
            assert h.vertex_weight[a] + h.vertex_weight[b] <= cap
            assert A[a, b] > 0
        # maximal: no unmatched pair with positive score and feasible weight
        unmatched = [v for v in range(h.n) if v not in seen]
        for i in unmatched:
            for j in unmatched:
                if i >= j:
                    continue
                if h.vertex_weight[i] + h.vertex_weight[j] > cap:
                    continue
                assert A[i, j] == 0.0


# ---------------------------------------------------------------------------
# contraction

def test_contract_merges_and_dedups():
    # contracting (0,1) makes {0,2} and {1,2} the same coarse pair
    h = Hypergraph.from_edges([[0, 2], [1, 2]], n=3)
    level = contract(h, [(0, 1)])
    ch = level.hypergraph
    assert ch.n == 2
    assert [ch.edge_pins(e).tolist() for e in range(ch.m)] == [[0, 1]]
    assert ch.edge_weight.tolist() == [2]
    assert ch.vertex_weight.tolist() == [2, 1]


def test_contract_drops_collapsed_edges():
    h = Hypergraph.from_edges([[0, 1], [0, 1, 2]], n=3)
    level = contract(h, [(0, 1)])
    ch = level.hypergraph
    # {0,1} collapsed to a single pin and is dropped; {0,1,2} became {01, 2}
    assert [ch.edge_pins(e).tolist() for e in range(ch.m)] == [[0, 1]]
    assert ch.m == 1


def test_contract_ids_follow_first_appearance():
    h = Hypergraph.from_edges([[0, 3], [2, 4], [1, 2]], n=5)
    level = contract(h, [(4, 2), (3, 0)])
    assert level.map_to_coarse.tolist() == [0, 1, 2, 0, 2]
    assert level.hypergraph.vertex_weight.tolist() == [2, 1, 2]


def test_contract_weight_conservation():
    rng = np.random.default_rng(41)
    for _ in range(20):
        h = random_hypergraph(rng, 16, 22, weighted=True)
        m = build_matching(h, cap=1e9)
        level = contract(h, m)
        assert level.hypergraph.total_weight == h.total_weight
        # map is surjective onto 0..coarse_n-1
        assert sorted(set(level.map_to_coarse.tolist())) == list(range(level.hypergraph.n))


# ---------------------------------------------------------------------------
# multilevel loop

def test_coarsen_small_graph_noop():
    h = Hypergraph.from_edges([[0, 1], [1, 2]], n=3)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    assert len(coarsen(h, spec, coarsest_factor=625)) == 0  # 3 <= 625 * 2 already


def test_coarsen_stops_on_empty_matching():
    # 1300 isolated vertices: no neighbours, so the first matching is empty
    h = Hypergraph.from_edges([[0]], n=1300)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    assert len(coarsen(h, spec, coarsest_factor=625)) == 0


def test_coarsen_chain_replay():
    n = 10_000
    h = Hypergraph.from_edges([[i, i + 1] for i in range(n - 1)], n=n)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    hier = coarsen(h, spec, coarsest_factor=625)
    sizes = [h.n] + [lvl.hypergraph.n for lvl in hier.levels]
    # replay the stop predicate against the recorded sizes
    assert len(hier) <= 20
    for i in range(len(sizes) - 1):
        assert sizes[i] > 625 * 2  # loop kept going, so the bound was not met
        if sizes[i + 1] > 0.8 * sizes[i]:
            assert i + 1 == len(sizes) - 1  # stall stops immediately
    final = hier.coarsest(h)
    stops = [
        final.n <= 625 * 2,
        len(hier) == 20,
        len(sizes) > 1 and sizes[-1] > 0.8 * sizes[-2],
        len(build_matching(final, spec.cap)) == 0,
    ]
    assert any(stops)
    assert final.total_weight == h.total_weight


def test_coarsen_respects_round_cap(monkeypatch):
    n = 6000
    h = Hypergraph.from_edges([[i, i + 1] for i in range(n - 1)], n=n)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    monkeypatch.setattr(coarsen_module, "MAX_ROUNDS", 2)
    hier = coarsen(h, spec, coarsest_factor=625)
    assert len(hier) <= 2


def test_projection_preserves_cutsize():
    rng = np.random.default_rng(53)
    for _ in range(10):
        h = random_hypergraph(rng, 80, 120, weighted=True)
        spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
        hier = coarsen(h, spec, coarsest_factor=5)
        if not hier.levels:
            continue
        coarse = hier.coarsest(h)
        p = random_partition(rng, coarse, 2)
        fine_h = h
        # walk back down the hierarchy
        hypergraphs = [h] + [lvl.hypergraph for lvl in hier.levels]
        cur = p
        for idx in range(len(hier.levels) - 1, -1, -1):
            fine_h = hypergraphs[idx]
            cur = project_partition(hier.levels[idx], cur, fine_h)
            assert cur.cutsize == p.cutsize
            assert cur.block_weight.tolist() == p.block_weight.tolist()
        assert cur.h.n == h.n
        assert cur.cutsize == km1_oracle(h, cur.assignment)
