"""Partition improvement and repair.

Four tools that share the clique-expansion view of the hypergraph: a
bipartitioner that cuts a spanning tree over heavy "key" vertices and labels
everything else by proximity to the two side centers, a pairwise pass that
re-embeds two blocks at a time and re-splits them, a greedy move-and-swap
repair for overweight blocks, and a pass-based k-way FM, all held to the
one block weight cap ``BalanceSpec.cap``.  An FM pass runs on local copies
of the gain table and pin counts, updates a gain only when a move takes one
of its net's pin counts across 0/1/2, stops once the moves after its best
prefix drift downhill (the random-walk rule of Osipov & Sanders,
``STOP_ALPHA`` and ``STOP_BETA``), and applies only its best prefix of moves
to the partition.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .apg import minimize, seeded_features
from .hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
from .initial import heaviest, prim_mst
from .operators import CliqueGraph, ObjectiveOperator, clique_expand, laplacian

if TYPE_CHECKING:  # pipeline imports this module
    from .pipeline import PipelineConfig

__all__ = [
    "BipartitionResult",
    "mst_bipartition",
    "block_connectivity",
    "pair_blocks",
    "pairwise_improve",
    "repair_feasibility",
    "kway_fm",
]


@dataclass
class BipartitionResult:
    """A signed labeling whose both sides fit the cap, or None when no cut fits."""

    labels: np.ndarray | None
    feasible: bool


KEY_FRACTION = 0.05
CUT_FRACTION = 0.2


def mst_bipartition(X: np.ndarray, B: np.ndarray, cap: float, L) -> BipartitionResult:
    """Split a vertex set in two along a spanning-tree cut of its heavy nodes.

    The heaviest ceil(KEY_FRACTION * n) vertices (ties: lower index; all of
    them when fewer than 2 qualify) form a spanning tree through
    ``prim_mst``, weighted 1 - <x_i, x_j>.  ``minimize`` returns unit rows,
    and for unit rows ||x_i - x_j||^2 = 2 (1 - <x_i, x_j>), so the tree and
    its heaviest-first order are those of the Euclidean MST.
    The first max(1, ceil(CUT_FRACTION * #tree_edges)) edges of
    ``tree.heaviest_first()`` are cut one at a time; the mean features of
    the two key-node sides become centers c1 (the side holding the tree
    root) and c2, and every vertex gets label +1 when strictly farther from
    c1 than from c2, else -1.  A labeling is feasible when its heavier side
    weighs at most ``cap``, that is 0.5 (total + |y^T B|) <= cap.  Only a
    feasible labeling is scored, by 1/4 y^T L y, the clique-graph weight cut
    between the two sides, and the first of least score wins.  When no cut
    is feasible there is no split: ``labels`` is None.

    The constants are fixed: ``KEY_FRACTION = 0.05``, ``CUT_FRACTION = 0.2``.
    """
    X = np.asarray(X, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two vertices to bipartition")

    n_key = math.ceil(KEY_FRACTION * n)
    keys = heaviest(B, n_key if n_key >= 2 else n)
    tree = prim_mst(X, vertices=keys)
    m_cand = max(1, math.ceil(CUT_FRACTION * len(tree.edges)))

    total = float(B.sum())
    best = None
    for ei in tree.heaviest_first()[:m_cand]:
        side2 = tree.cut([ei]) == 1  # the root is position 0, so label 0
        c1 = X[keys[~side2]].mean(axis=0)
        c2 = X[keys[side2]].mean(axis=0)
        d1 = np.sum((X - c1) ** 2, axis=1)
        d2 = np.sum((X - c2) ** 2, axis=1)
        y = np.where(d1 - d2 > 0.0, 1.0, -1.0)

        if 0.5 * (total + abs(float(y @ B))) <= cap:
            obj = 0.25 * float(y @ (L @ y))
            if best is None or obj < best[0]:
                best = (obj, y)

    if best is None:
        return BipartitionResult(None, False)
    return BipartitionResult(best[1], True)


# ---------------------------------------------------------------------------
# pairing and pairwise re-optimization

def block_connectivity(h: Hypergraph, p: Partition) -> np.ndarray:
    """Symmetric k x k matrix: total weight of hyperedges spanning each pair."""
    spans = (p.pin_count > 0).astype(np.int64)
    S = (spans.T * h.edge_weight) @ spans
    np.fill_diagonal(S, 0)
    return S.astype(np.float64)


def pair_blocks(h: Hypergraph, p: Partition) -> list[tuple[int, int]]:
    """Greedily pair blocks by descending mutual connectivity strength.

    Scans all block pairs by (-S[a, b], a, b), S the spanning-edge weight
    of ``block_connectivity``, and keeps every pair whose two blocks are
    both still unpaired; with odd k one block stays alone.
    """
    S = block_connectivity(h, p)
    order = sorted((-S[a, b], a, b) for a, b in itertools.combinations(range(p.k), 2))
    paired: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, a, b in order:
        if a not in paired and b not in paired:
            pairs.append((a, b))
            paired.update((a, b))
    return pairs


def pairwise_improve(
    h: Hypergraph,
    p: Partition,
    spec: BalanceSpec,
    config: PipelineConfig,
    clique: CliqueGraph | None = None,
) -> Partition:
    """Re-split block pairs through fresh 2-D embeddings.

    Each round pairs the blocks, then for every pair solves the embedding
    objective over the induced sub-clique-graph on the ``config.xi1`` x
    ``config.xi2`` grid with ``config.apg``, the whole grid as one stack of
    lockstep solves, and re-bipartitions.  Every
    split that is feasible for the pair is scored by the hypergraph km1 of
    the whole partition it gives; the lowest (ties: the earlier grid point)
    is applied only when it is strictly below the current cutsize, so no
    step is ever undone.  Rounds repeat until nothing improves, at most
    ``config.pair_rounds`` times.  The input partition is untouched.
    """
    out = p.copy()
    if out.cutsize == 0:  # no split can lower it
        return out
    if clique is None:
        clique = clique_expand(h)
    for rnd in range(config.pair_rounds):
        improved = False
        for pi, (a, b) in enumerate(pair_blocks(h, out)):
            better = _refine_pair(h, out, spec, clique, a, b, rnd, pi, config)
            if better is not None:
                out, improved = better, True
        if not improved:
            break
    return out


def _refine_pair(h, part, spec, clique, a, b, rnd, pair_idx, config) -> Partition | None:
    """The best re-split of blocks a and b, or None when no feasible split
    cuts less than ``part``, as none does when no net spans both blocks."""
    if not np.any((part.pin_count[:, a] > 0) & (part.pin_count[:, b] > 0)):
        return None
    idx = np.where((part.assignment == a) | (part.assignment == b))[0]
    nbar = idx.shape[0]
    sub = clique.submatrix(idx)
    L_sub = laplacian(sub)
    B_sub = h.vertex_weight[idx]
    labels01 = (part.assignment[idx] == b).astype(np.int64)

    grid = list(itertools.product(config.xi1, config.xi2))
    op = ObjectiveOperator.pair_refinement(sub, B_sub, labels01, grid)
    X0 = np.stack([seeded_features(nbar, 2, stream=(rnd * 1024 + pair_idx) * 16 + gi)
                   for gi in range(len(grid))])
    best = None
    for X in minimize(op, X0, config.apg).X:
        res = mst_bipartition(X, B_sub, spec.cap, L_sub)
        if not res.feasible:
            continue
        trial = part.assignment.copy()
        trial[idx] = np.where(res.labels > 0, a, b)
        trial = Partition(h, trial, part.k)
        if trial.cutsize < (part if best is None else best).cutsize:
            best = trial
    return best


# ---------------------------------------------------------------------------
# feasibility repair

def repair_feasibility(
    h: Hypergraph, p: Partition, spec: BalanceSpec
) -> tuple[Partition, bool]:
    """Drain overweight blocks by cheap moves, swapping when nothing fits.

    While any block exceeds the cap: from the most-overloaded block, apply
    the single relocation into a block that stays within the cap minimizing
    (cutsize increase, vertex weight, vertex index, target).  If no vertex
    fits anywhere, try the best strictly-load-reducing swap with a vertex
    of another block that keeps the partner block within cap, minimizing
    (cutsize increase, vertex, partner, target).  Gives up once it has made
    2n elementary moves (a swap counts two).  Returns a new partition and a
    success flag.  A relocation step costs one ``move_deltas`` read; a swap
    step costs two ``move`` calls and one ``move_deltas`` read per (vertex,
    other block).
    """
    part = p.copy()
    cap = spec.cap
    B = h.vertex_weight
    ops = 0
    while ops < 2 * h.n:
        over = part.block_weight - cap
        src = int(np.argmax(over))
        if over[src] <= 0:
            return part, True
        members = np.nonzero(part.assignment == src)[0]
        # src itself never fits: it is over cap and weights are >= 1
        rows, ts = np.nonzero(part.block_weight + B[members, None] <= cap)
        if rows.size:
            vs = members[rows]
            delta = part.move_deltas(members)[rows, ts]
            i = np.lexsort((ts, vs, B[vs], delta))[0]
            part.move(int(vs[i]), int(ts[i]))
            ops += 1
            continue

        blocks = [np.nonzero(part.assignment == t)[0] for t in range(part.k)]
        best_swap = None
        for v in members.tolist():
            bv = int(B[v])
            for t, us in enumerate(blocks):
                if t == src:
                    continue
                us = us[(B[us] < bv) & (part.block_weight[t] - B[us] + bv <= cap)]
                if us.size == 0:
                    continue
                d = part.move(v, t) + part.move_deltas(us)[:, src]
                part.move(v, src)
                j = int(np.argmin(d))
                key = (int(d[j]), v, int(us[j]), t)
                if best_swap is None or key < best_swap:
                    best_swap = key
        if best_swap is None:
            return part, False
        _, v, u, t = best_swap
        part.move(v, t)
        part.move(u, src)
        ops += 2
    return part, bool(np.all(part.block_weight <= cap))


# ---------------------------------------------------------------------------
# k-way FM

STOP_ALPHA = 16
STOP_BETA = 4


def kway_fm(h: Hypergraph, p: Partition, spec: BalanceSpec) -> Partition:
    """Pass-based k-way FM refinement.

    Every pass moves each vertex at most once, always taking the highest
    gain (cutsize decrease) among moves that keep all blocks within the cap
    (ties: lower vertex, then lower target block), working through negative
    gains as well; only the pass's best prefix of moves is then applied to
    the partition.  Passes repeat while they improve, at most 50 times.  The
    result is feasible and never worse than the input, which must itself be
    feasible.

    A pass also stops early, as in Osipov & Sanders (ESA 2010): over the s
    moves made since it last set a new best prefix, with gain mean mu and
    variance sigma^2 (population form, from the running sum and sum of
    squares), it ends after a move once mu < 0, s > beta and
    s mu^2 > alpha sigma^2 + beta, where ``STOP_ALPHA`` alpha = 16 and
    beta = ``STOP_BETA`` ln n = 4 ln n.  The s > beta condition and the
    + beta term keep short or noisy downhill runs going, so a pass that
    would still reach a better prefix is seldom cut.

    A pass reads the gain table once and then keeps it exact itself: a move
    v: s -> t changes a gain only on a net e of v whose pin count
    Phi(e, t) rises to 1 or 2 or whose Phi(e, s) falls to 1 or 0.  Walking
    v's nets therefore costs O(1) per net plus O(|e|) for each net that
    crosses one of these thresholds.  A heap entry (gain, v, t) is pushed
    whenever the gain of moving v to t changes, and it is live while v is
    unlocked and the gain table still holds that gain.
    """
    if not is_feasible(p, spec):
        raise ValueError("FM refinement requires a feasible starting partition")
    part = p.copy()
    if part.cutsize == 0:  # no move can lower it
        return part
    # what every pass reads of h, as Python lists built once
    inc, inc_off = h.inc_list.tolist(), h.inc_offsets.tolist()
    pin_list, pin_off = h.pin_list.tolist(), h.pin_offsets.tolist()
    graph = (
        [inc[inc_off[v]:inc_off[v + 1]] for v in range(h.n)],
        [pin_list[pin_off[e]:pin_off[e + 1]] for e in range(h.m)],
        h.edge_weight.tolist(),
        h.vertex_weight.tolist(),
    )
    for _ in range(50):
        if _fm_pass(part, spec.cap, *graph) <= 0:
            break
    return part


def _fm_pass(part: Partition, cap: float, nets: list, pins: list,
             edge_weight: list, vertex_weight: list) -> int:
    """One FM pass on local copies of the partition's tables, ended by the
    stop rule of ``kway_fm`` or an empty heap; applies the best prefix of
    its moves to ``part`` and returns that prefix's gain.  ``nets`` holds
    each vertex's nets and ``pins`` each net's pins."""
    n, k = len(nets), part.k
    delta = part.move_deltas(np.arange(n)).tolist()  # cutsize change of (v, t)
    pin_count = part.pin_count.tolist()
    block = part.assignment.tolist()
    weight = part.block_weight.tolist()
    locked = [False] * n
    heap = [(row[t], v, t) for v, row in enumerate(delta)
            for t in range(k) if t != block[v]]
    heapq.heapify(heap)
    deferred: list[list] = [[] for _ in range(k)]  # entries by target block
    pop, push = heapq.heappop, heapq.heappush

    beta = STOP_BETA * math.log(n)
    moves: list[tuple[int, int]] = []
    cum = best_cum = best_len = 0
    steps = gain_sum = gain_sq = 0  # of the moves since the best prefix
    while heap:
        item = pop(heap)
        d, v, t = item
        if locked[v] or d != delta[v][t]:
            continue
        w = vertex_weight[v]
        if weight[t] + w > cap:
            deferred[t].append(item)  # fits only after t loses weight
            continue
        s = block[v]
        locked[v] = True
        for e in nets[v]:
            row = pin_count[e]
            ps, pt = row[s], row[t]
            row[s], row[t] = ps - 1, pt + 1
            if ps > 2 and pt > 1:
                continue
            we = edge_weight[e]
            if pt == 0:  # t newly spanned: joining t no longer costs w_e
                for u in pins[e]:
                    if not locked[u]:
                        delta[u][t] -= we
                        push(heap, (delta[u][t], u, t))
            elif pt == 1:  # the pin alone in t no longer frees e by leaving
                for u in pins[e]:
                    if block[u] == t:
                        if not locked[u]:
                            _shift_row(heap, delta[u], we, u, t)
                        break
            if ps == 1:  # s no longer spanned: joining s costs w_e
                for u in pins[e]:
                    if not locked[u]:
                        delta[u][s] += we
                        push(heap, (delta[u][s], u, s))
            elif ps == 2:  # the pin left in s now frees e by leaving
                for u in pins[e]:
                    if u != v and block[u] == s:
                        if not locked[u]:
                            _shift_row(heap, delta[u], -we, u, s)
                        break
        block[v] = t
        weight[s] -= w
        weight[t] += w
        moves.append((v, t))
        cum -= d
        if cum > best_cum:
            best_cum, best_len = cum, len(moves)
            steps = gain_sum = gain_sq = 0
        else:
            steps += 1
            gain_sum -= d
            gain_sq += d * d
            if gain_sum < 0 and steps > beta:
                mean = gain_sum / steps
                var = gain_sq / steps - mean * mean
                if steps * mean * mean > STOP_ALPHA * var + beta:
                    break
        for item in deferred[s]:  # the only block that lost weight
            push(heap, item)
        deferred[s].clear()

    for v, t in moves[:best_len]:
        part.move(v, t)
    return best_cum


def _shift_row(heap: list, row: list, by: int, u: int, own: int) -> None:
    """Add ``by`` to the delta of every move of vertex u out of block ``own``
    and push each new gain."""
    for b in range(len(row)):
        if b != own:
            row[b] += by
            heapq.heappush(heap, (row[b], u, b))
