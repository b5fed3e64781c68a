"""Multilevel coarsening: score-driven pair matching and contraction.

Two vertices are attractive partners when they share many light hyperedges:
score(u, v) = sum over shared hyperedges e of w_e / max(1, |e| - 1).
Matching is greedy over vertices in descending weight order and respects the
first block cap so contracted vertices can still fit a block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypergraph import BalanceSpec, Hypergraph, Partition

__all__ = [
    "Matching",
    "CoarseLevel",
    "Hierarchy",
    "matching_score",
    "build_matching",
    "contract",
    "coarsen",
    "project_partition",
]


@dataclass
class Matching:
    """Disjoint matched vertex pairs, in the order they were formed."""

    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self):
        return len(self.pairs)


@dataclass
class CoarseLevel:
    """One contraction step: the coarse hypergraph plus the fine-to-coarse map."""

    hypergraph: Hypergraph
    map_to_coarse: np.ndarray


@dataclass
class Hierarchy:
    """Contraction levels ordered finest to coarsest.  May be empty."""

    levels: list[CoarseLevel] = field(default_factory=list)

    def coarsest(self, original: Hypergraph) -> Hypergraph:
        return self.levels[-1].hypergraph if self.levels else original

    def __len__(self):
        return len(self.levels)


def matching_score(h: Hypergraph, vi: int, vj: int) -> float:
    """Shared-hyperedge affinity of a vertex pair."""
    if vi == vj:
        raise ValueError("matching score of a vertex with itself is undefined")
    ei = set(h.vertex_edges(vi).tolist())
    score = 0.0
    for e in h.vertex_edges(vj).tolist():
        if e in ei:
            size = int(h.pin_offsets[e + 1] - h.pin_offsets[e])
            score += float(h.edge_weight[e]) / max(1, size - 1)
    return score


def build_matching(h: Hypergraph, cap: float) -> Matching:
    """Greedy matching: heaviest unmatched vertex first (ties by index), each
    taking its best-scoring unmatched neighbour subject to combined weight <= cap
    (score ties broken by lower index).  Vertices without an eligible positive-
    score neighbour stay unmatched.
    """
    n = h.n
    order = np.lexsort((np.arange(n), -h.vertex_weight))
    matched = np.zeros(n, dtype=bool)
    sizes = h.edge_sizes()
    weights = h.vertex_weight
    pairs: list[tuple[int, int]] = []
    for vi in order.tolist():
        if matched[vi]:
            continue
        scores: dict[int, float] = {}
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
    return Matching(pairs)


def contract(h: Hypergraph, matching: Matching) -> CoarseLevel:
    """Merge matched pairs.  Pins are remapped and deduplicated, coarse edges
    that collapse to one pin are dropped, and identical pin sets merge with
    summed weights.  Coarse ids follow first appearance in fine index order.
    """
    n = h.n
    partner = np.full(n, -1, dtype=np.int64)
    for a, b in matching.pairs:
        if partner[a] != -1 or partner[b] != -1 or a == b:
            raise ValueError("matching pairs must be disjoint")
        partner[a], partner[b] = b, a

    ids = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if ids[v] != -1:
            continue
        ids[v] = next_id
        p = int(partner[v])
        if p >= 0:
            ids[p] = next_id
        next_id += 1

    coarse_vw = np.bincount(ids, weights=h.vertex_weight, minlength=next_id).astype(np.int64)

    merged: dict[tuple[int, ...], int] = {}
    for e in range(h.m):
        key = tuple(np.unique(ids[h.edge_pins(e)]).tolist())
        if len(key) < 2:
            continue  # collapsed to a single coarse pin
        merged[key] = merged.get(key, 0) + int(h.edge_weight[e])

    keys = sorted(merged)  # canonical edge order
    pins = [list(key) for key in keys]
    ew = np.array([merged[key] for key in keys], dtype=np.int64)
    coarse = Hypergraph.from_edges(
        pins, n=next_id, vertex_weight=coarse_vw,
        edge_weight=ew if len(keys) else None,
    )
    return CoarseLevel(coarse, ids)


def coarsen(
    h: Hypergraph,
    spec: BalanceSpec,
    coarsest_factor: int = 625,
    max_rounds: int = 20,
) -> Hierarchy:
    """Repeat match-and-contract until any stop condition holds: the vertex
    count is at most coarsest_factor * k, the matching comes back empty, a
    round keeps more than 80 % of the vertices, or max_rounds rounds have
    run.  The cap for pair weights is the first block bound of the original
    instance.
    """
    levels: list[CoarseLevel] = []
    cur = h
    cap = spec.cap
    for _ in range(max_rounds):
        if cur.n <= coarsest_factor * spec.k:
            break
        matching = build_matching(cur, cap)
        if not matching.pairs:
            break
        level = contract(cur, matching)
        levels.append(level)
        nxt = level.hypergraph
        stalled = nxt.n > 0.8 * cur.n
        cur = nxt
        if stalled:
            break
    return Hierarchy(levels)


def project_partition(level: CoarseLevel, coarse_p: Partition, fine: Hypergraph) -> Partition:
    """Pull a coarse partition back through one level: each fine vertex takes
    its coarse representative's block.  Cutsize is preserved exactly.
    """
    if level.map_to_coarse.shape[0] != fine.n:
        raise ValueError("level does not describe this fine hypergraph")
    assignment = coarse_p.assignment[level.map_to_coarse]
    return Partition(fine, assignment, coarse_p.k)
