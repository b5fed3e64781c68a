"""Multilevel coarsening: score-driven pair matching and contraction.

Two vertices are attractive partners when they share many light hyperedges.
The score of a pair is its clique-expansion weight (``clique_expand``):
score(u, v) = sum over shared hyperedges e of w_e / max(1, |e| - 1), the
heavy-edge rating of KaHyPar.  Matching is greedy over vertices in
descending weight order and respects the first block cap so contracted
vertices can still fit a block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hypergraph import BalanceSpec, Hypergraph, Partition
from .operators import clique_expand

__all__ = [
    "CoarseLevel",
    "Hierarchy",
    "build_matching",
    "contract",
    "coarsen",
    "project_partition",
]


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


def build_matching(h: Hypergraph, cap: float) -> list[tuple[int, int]]:
    """Greedy matching: heaviest unmatched vertex first (ties by index), each
    taking its best-scoring unmatched neighbour subject to combined weight <= cap
    (score ties broken by lower index).  Vertices without an eligible
    neighbour stay unmatched.  Returns the pairs in the order formed.

    Partners and scores are read from the vertex's row of the clique
    expansion.  Its entries are the neighbours sharing a net, all with a
    positive score since weights are >= 1, and its column indices ascend, so
    ``argmax`` takes the lower index on a tie.
    """
    adj = clique_expand(h).adjacency
    weights = h.vertex_weight
    matched = np.zeros(h.n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for vi in np.lexsort((np.arange(h.n), -weights)).tolist():
        if matched[vi]:
            continue
        lo, hi = adj.indptr[vi], adj.indptr[vi + 1]
        nbrs, scores = adj.indices[lo:hi], adj.data[lo:hi]
        ok = ~matched[nbrs] & (weights[vi] + weights[nbrs] <= cap)
        if ok.any():
            best = int(nbrs[ok][np.argmax(scores[ok])])
            matched[vi] = matched[best] = True
            pairs.append((vi, best))
    return pairs


def contract(h: Hypergraph, matching: list[tuple[int, int]]) -> CoarseLevel:
    """Merge matched pairs.  Pins are remapped and deduplicated, coarse edges
    that collapse to one pin are dropped, and identical pin sets merge with
    summed weights.  Coarse ids follow first appearance in fine index order.
    """
    n = h.n
    partner = np.full(n, -1, dtype=np.int64)
    for a, b in matching:
        if partner[a] != -1 or partner[b] != -1 or a == b:
            raise ValueError("matching pairs must be disjoint")
        partner[a], partner[b] = b, a

    # a pair first appears at its lower vertex, so ids rank the lower ends
    first = np.where(partner >= 0, np.minimum(np.arange(n), partner), np.arange(n))
    reps, ids = np.unique(first, return_inverse=True)
    next_id = reps.shape[0]

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
        if not matching:
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
