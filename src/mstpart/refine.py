"""Partition improvement and repair.

Four tools that share the clique-expansion view of the hypergraph: a
bipartitioner that cuts a spanning tree over heavy "key" vertices and labels
everything else by proximity to the two side centers, a pairwise pass that
re-embeds two blocks at a time and re-splits them, a greedy move-and-swap
repair for overweight blocks, and a pass-based k-way FM, all held to the
one block weight cap ``BalanceSpec.cap``.  Repair and FM read the km1 gain
table once per call into one ``GainTable``, which updates a gain only when
a move takes one of its net's pin counts across 0/1/2, and take every move
gain from it: repair pops its relocations from a heap per block and scores
its swaps by trial moves on the table, and FM runs each pass on a copy,
stops it by the random-walk rule of Osipov & Sanders (``STOP_ALPHA``,
``STOP_BETA``) and applies only its best prefix of moves.
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
from .operators import ObjectiveOperator, clique_expand, laplacian

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
# the gain table that repair and FM share

class GainTable:
    """The km1 move gains of a partition, kept exact under moves.

    ``delta[v][t]`` is the cutsize change of moving vertex v to block t (0
    for v's own block), read once from ``Partition.move_deltas``;
    ``pin_count``, ``block`` and ``weight`` are Python-list copies of the
    partition's tables, and ``nets``, ``pins``, ``edge_weight`` and
    ``vertex_weight`` those of its hypergraph.  Only ``move`` changes the
    tables, and it never touches the partition.
    """

    __slots__ = ("nets", "pins", "edge_weight", "vertex_weight",
                 "delta", "pin_count", "block", "weight")

    def __init__(self, part: Partition):
        h = part.h
        inc, inc_off = h.inc_list.tolist(), h.inc_offsets.tolist()
        pin_list, pin_off = h.pin_list.tolist(), h.pin_offsets.tolist()
        # tuples, which the garbage collector stops tracking
        self.nets = [tuple(inc[inc_off[v]:inc_off[v + 1]]) for v in range(h.n)]
        self.pins = [tuple(pin_list[pin_off[e]:pin_off[e + 1]]) for e in range(h.m)]
        self.edge_weight = h.edge_weight.tolist()
        self.vertex_weight = h.vertex_weight.tolist()
        self.delta = part.move_deltas(np.arange(h.n)).tolist()
        self.pin_count = part.pin_count.tolist()
        self.block = part.assignment.tolist()
        self.weight = part.block_weight.tolist()

    def copy(self) -> GainTable:
        """A copy with tables of its own, sharing the hypergraph's lists."""
        out = GainTable.__new__(GainTable)
        out.nets, out.pins = self.nets, self.pins
        out.edge_weight, out.vertex_weight = self.edge_weight, self.vertex_weight
        out.delta = list(map(list.copy, self.delta))
        out.pin_count = list(map(list.copy, self.pin_count))
        out.block, out.weight = self.block[:], self.weight[:]
        return out

    def move(self, v: int, t: int, skip: list, push, out) -> None:
        """Move v to block t, which must not be v's own.  The row of every
        vertex u with ``skip[u]`` is left as it is (stale); every other
        entry (u, b) of a move that changes, v's own row included unless
        ``skip[v]``, is handed on as ``push(out, (delta[u][b], u, b))``
        after each change.  ``skip[v]`` is set while v's nets are walked
        and restored after.

        A move v: s -> t changes another vertex's gain only on a net e of v
        whose pin count Phi(e, t) rises to 1 or 2 or whose Phi(e, s) falls
        to 1 or 0, so walking v's nets costs O(1) per net plus O(|e|) for
        each net that crosses one of these thresholds.  v's own row drops by
        its old gain to t in every column, O(k): v's nets count the same
        pins in every other block, and its move turns exactly the nets that
        made up its gain to t into its gain back to s.
        """
        delta, block, pin_count = self.delta, self.block, self.pin_count
        pins, edge_weight = self.pins, self.edge_weight
        s = block[v]
        own = not skip[v]
        skip[v] = True  # the walk leaves v's row alone
        for e in self.nets[v]:
            row = pin_count[e]
            ps, pt = row[s], row[t]
            row[s], row[t] = ps - 1, pt + 1
            if ps > 2 and pt > 1:
                continue
            we = edge_weight[e]
            if pt == 0:  # t newly spanned: joining t no longer costs w_e
                for u in pins[e]:
                    if not skip[u]:
                        du = delta[u]
                        du[t] -= we
                        push(out, (du[t], u, t))
            elif pt == 1:  # the pin alone in t no longer frees e by leaving
                for u in pins[e]:
                    if block[u] == t:
                        if not skip[u]:
                            _shift_row(delta[u], we, u, t, push, out)
                        break
            if ps == 1:  # s no longer spanned: joining s costs w_e
                for u in pins[e]:
                    if not skip[u]:
                        du = delta[u]
                        du[s] += we
                        push(out, (du[s], u, s))
            elif ps == 2:  # the pin left in s now frees e by leaving
                for u in pins[e]:
                    if u != v and block[u] == s:
                        if not skip[u]:
                            _shift_row(delta[u], -we, u, s, push, out)
                        break
        if own:
            skip[v] = False
            dv = delta[v]
            _shift_row(dv, -dv[t], v, t, push, out)
            dv[t] = 0
        block[v] = t
        w = self.vertex_weight[v]
        self.weight[s] -= w
        self.weight[t] += w


def _shift_row(row: list, by: int, u: int, own: int, push, out) -> None:
    """Add ``by`` to the delta of every move of vertex u out of block
    ``own`` and hand on each new entry."""
    for b in range(len(row)):
        if b != own:
            row[b] += by
            push(out, (row[b], u, b))


# ---------------------------------------------------------------------------
# feasibility repair

def repair_feasibility(
    h: Hypergraph, p: Partition, spec: BalanceSpec
) -> tuple[Partition, bool]:
    """Drain overweight blocks by cheap moves, swapping when nothing fits.

    While any block exceeds the cap: from the most-overloaded block, apply
    the single relocation into a block that stays within the cap minimizing
    (cutsize increase, vertex weight, vertex index, target).  If no vertex
    fits anywhere, apply the best strictly-load-reducing swap with a vertex
    of another block that keeps the partner block within cap, minimizing
    (cutsize increase, vertex, partner, target).  Gives up once it has made
    2n elementary moves (a swap counts two).  Returns a new partition and a
    success flag.

    The gain table is read once per call, when a block is over the cap,
    into a ``GainTable`` that every move updates.  Block b's heap of
    (delta, weight, v, t), built the first time b is the most overloaded
    block, gets every changed entry of a vertex in b, the row of a vertex
    entering b included.  A popped entry is stale when v has left b or its
    delta has changed; one that does not fit waits in ``deferred[t]`` until
    block t loses weight.  So the first entry that is neither is the least
    move that fits, found without a scan.  The heaps and deferred entries
    carry across swaps, and ``_best_swap`` scores a swap from the table.
    """
    part = p.copy()
    cap = spec.cap
    if part.block_weight.max() <= cap:
        return part, True
    table = GainTable(part)
    delta, block, weight, vertex_weight = table.delta, table.block, table.weight, table.vertex_weight
    n, k = len(block), part.k
    heaps: list[list | None] = [None] * k
    deferred: list[list] = [[] for _ in range(k)]  # (its heap's block, entry)
    nobody = [False] * n
    pop, push = heapq.heappop, heapq.heappush

    def apply(v: int, t: int) -> None:
        s = block[v]
        changed: list[tuple[int, int, int]] = []
        table.move(v, t, nobody, list.append, changed)
        part.move(v, t)
        for d, u, b in changed:
            own = heaps[block[u]]
            if own is not None:
                push(own, (d, vertex_weight[u], u, b))
        for b, item in deferred[s]:  # the only block that lost weight
            push(heaps[b], item)
        deferred[s].clear()

    ops = 0
    while ops < 2 * n:
        src = max(range(k), key=weight.__getitem__)  # the first heaviest
        if weight[src] <= cap:
            return part, True
        heap = heaps[src]
        if heap is None:
            heap = heaps[src] = [(delta[v][t], vertex_weight[v], v, t)
                                 for v in range(n) if block[v] == src
                                 for t in range(k) if t != src]
            heapq.heapify(heap)
        while heap:
            item = pop(heap)
            d, w, v, t = item
            if block[v] != src or delta[v][t] != d:
                continue
            if weight[t] + w > cap:
                deferred[t].append((src, item))  # fits only after t loses weight
                continue
            apply(v, t)
            ops += 1
            break
        else:  # nothing fits: swap
            swap = _best_swap(table, src, cap)
            if swap is None:
                return part, False
            v, u, t = swap
            apply(v, t)
            apply(u, src)
            ops += 2
    return part, max(weight) <= cap


def _best_swap(table: GainTable, src: int, cap: float) -> tuple[int, int, int] | None:
    """The swap of ``repair_feasibility`` out of block ``src`` as (v, u, t):
    v leaves src for t and a lighter u of t takes its place, t staying
    within the cap, minimizing (cutsize increase, v, u, t); None when no
    swap fits.  Each (v, t) is scored by moving v to t on ``table`` and
    back, which leaves it as it was, reading u's gain to src in between."""
    delta, block, weight, vertex_weight = table.delta, table.block, table.weight, table.vertex_weight
    members = [[u for u, b in enumerate(block) if b == c] for c in range(len(weight))]
    nobody = [False] * len(block)
    partners: dict[tuple[int, int], list[int]] = {}  # by (weight of v, t)
    swaps = []
    for v in members[src]:
        wv = vertex_weight[v]
        for t, us in enumerate(members):
            if t == src:
                continue
            if (wv, t) not in partners:
                partners[wv, t] = [u for u in us if vertex_weight[u] < wv
                                   and weight[t] - vertex_weight[u] + wv <= cap]
            fitting = partners[wv, t]
            if not fitting:
                continue
            table.move(v, t, nobody, _drop, None)
            gains = [delta[u][src] for u in fitting]
            du = min(gains)  # lowest u first; v's delta back to src is minus its delta to t
            swaps.append((du - delta[v][src], v, fitting[gains.index(du)], t))
            table.move(v, src, nobody, _drop, None)
    return min(swaps)[1:] if swaps else None


def _drop(out, entry) -> None:
    """A ``GainTable.move`` push that keeps nothing."""


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

    The gain table is read once per call into a ``GainTable``.  A pass
    moves through a copy of it, on which it lets the rows of locked
    vertices go stale, and then replays its best prefix on the table
    itself, so every pass starts from the exact table without reading it
    again.  A heap entry (gain, v, t) is pushed whenever the gain of moving
    v to t changes, and it is live while v is unlocked and the table still
    holds that gain.  A live entry that does not fit waits until block t
    loses weight; then the waiting entries that fit go back on the heap, the
    stale ones are dropped and the rest wait on.
    """
    if not is_feasible(p, spec):
        raise ValueError("FM refinement requires a feasible starting partition")
    part = p.copy()
    if part.cutsize == 0:  # no move can lower it
        return part
    table = GainTable(part)
    for _ in range(50):
        if _fm_pass(part, spec.cap, table) <= 0:
            break
    return part


def _fm_pass(part: Partition, cap: float, table: GainTable) -> int:
    """One FM pass on a copy of ``table``, ended by the stop rule of
    ``kway_fm`` or an empty heap; applies the pass's best prefix of moves to
    ``table`` and ``part`` and returns that prefix's gain.  On the copy the
    rows of locked vertices go stale, as nothing reads them."""
    work = table.copy()
    delta, block, weight, vertex_weight = work.delta, work.block, work.weight, work.vertex_weight
    n, k = len(block), part.k
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
        if weight[t] + vertex_weight[v] > cap:
            deferred[t].append(item)  # fits only after t loses weight
            continue
        s = block[v]
        locked[v] = True
        work.move(v, t, locked, push, heap)
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
        if deferred[s]:  # the only block that lost weight
            wait = []
            for item in deferred[s]:
                d, u, _ = item
                if locked[u] or d != delta[u][s]:
                    continue  # stale: a fresh entry was pushed when the gain changed
                if weight[s] + vertex_weight[u] > cap:
                    wait.append(item)
                else:
                    push(heap, item)
            deferred[s] = wait

    nobody = [False] * n
    for v, t in moves[:best_len]:
        table.move(v, t, nobody, list.append, [])
        part.move(v, t)
    return best_cum
