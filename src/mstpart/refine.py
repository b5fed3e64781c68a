"""Partition improvement and repair.

Four tools that share the clique-expansion view of the hypergraph: a
bipartitioner that cuts a spanning tree over heavy "key" vertices and labels
everything else by proximity to the two side centers, a pairwise pass that
re-embeds two blocks at a time and re-splits them, a greedy move-and-swap
repair for overweight blocks, and a pass-based k-way FM with rollback.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .apg import ApgParams, minimize, seeded_features
from .hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
from .initial import prim_mst
from .operators import CliqueGraph, ObjectiveOperator, clique_expand, laplacian

__all__ = [
    "BipartitionResult",
    "PairPlan",
    "PairwiseParams",
    "mst_bipartition",
    "block_connectivity",
    "pair_blocks",
    "pairwise_improve",
    "repair_feasibility",
    "kway_fm",
]


@dataclass
class BipartitionResult:
    """Signed labeling of a vertex set.

    ``objective`` is 1/4 y^T L y, the clique-graph weight cut between the
    two sides.  ``candidates`` records (objective, feasible) for every cut
    that was scored, in evaluation order.
    """

    labels: np.ndarray
    objective: float
    feasible: bool
    candidates: list


def mst_bipartition(
    X: np.ndarray,
    B: np.ndarray,
    caps: tuple,
    L,
    key_fraction: float = 0.05,
    cut_fraction: float = 0.2,
) -> BipartitionResult:
    """Split a vertex set in two along a spanning-tree cut of its heavy nodes.

    The heaviest ceil(key_fraction * n) vertices (ties: lower index; all of
    them when fewer than 2 qualify) form a Euclidean MST in feature space.
    Each of the max(1, ceil(cut_fraction * #tree_edges)) heaviest tree edges
    is cut in turn; the mean features of the two key-node sides become
    centers c1 (the side holding the tree root) and c2, and every vertex
    gets label +1 when strictly farther from c1 than from c2, else -1.
    A labeling is feasible when the +1 side weighs at most caps[0] and the
    -1 side at most caps[1].  The feasible labeling of least objective wins;
    if none is feasible the overall best is returned flagged infeasible.
    """
    X = np.asarray(X, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two vertices to bipartition")

    n_key = math.ceil(key_fraction * n)
    if n_key < 2:
        keys = np.arange(n)
    else:
        keys = np.sort(np.lexsort((np.arange(n), -B))[:n_key])
    tree = prim_mst(X, vertices=keys, metric="euclidean")
    nk = keys.shape[0]
    children: list[list[int]] = [[] for _ in range(nk)]
    for child in range(nk):
        par = int(tree.parent[child])
        if par >= 0:
            children[par].append(child)

    order = sorted(range(len(tree.edges)), key=lambda i: (-tree.edges[i][2], i))
    m_cand = max(1, math.ceil(cut_fraction * len(tree.edges)))

    total = float(B.sum())
    best_feasible = best_any = None
    candidates: list[tuple[float, bool]] = []
    for ei in order[:m_cand]:
        _, child, _ = tree.edges[ei]
        side2 = np.zeros(nk, dtype=bool)
        stack = [child]
        while stack:
            u = stack.pop()
            side2[u] = True
            stack.extend(children[u])
        c1 = X[keys[~side2]].mean(axis=0)
        c2 = X[keys[side2]].mean(axis=0)
        d1 = np.sum((X - c1) ** 2, axis=1)
        d2 = np.sum((X - c2) ** 2, axis=1)
        y = np.where(d1 - d2 > 0.0, 1.0, -1.0)

        yb = float(y @ B)
        w_plus = 0.5 * (total + yb)
        w_minus = 0.5 * (total - yb)
        feasible = w_plus <= caps[0] and w_minus <= caps[1]
        obj = 0.25 * float(y @ (L @ y))
        candidates.append((obj, feasible))

        entry = (obj, y)
        if best_any is None or obj < best_any[0]:
            best_any = entry
        if feasible and (best_feasible is None or obj < best_feasible[0]):
            best_feasible = entry

    if best_feasible is not None:
        obj, y = best_feasible
        return BipartitionResult(y, obj, True, candidates)
    obj, y = best_any
    return BipartitionResult(y, obj, False, candidates)


# ---------------------------------------------------------------------------
# pairing and pairwise re-optimization

@dataclass
class PairPlan:
    pairs: list
    leftover: int | None = None


def block_connectivity(h: Hypergraph, p: Partition) -> np.ndarray:
    """Symmetric k x k matrix: total weight of hyperedges spanning each pair."""
    spans = (p.pin_count > 0).astype(np.int64)
    S = (spans.T * h.edge_weight) @ spans
    np.fill_diagonal(S, 0)
    return S.astype(np.float64)


def pair_blocks(h: Hypergraph, p: Partition) -> PairPlan:
    """Greedily pair blocks by descending mutual connectivity strength.

    Repeatedly joins the two unpaired blocks whose spanning-edge weight is
    largest (ties: lexicographically smallest pair); with odd k the block
    left at the end stays alone.
    """
    if p.k < 2:
        return PairPlan([], 0 if p.k == 1 else None)
    S = block_connectivity(h, p)
    unpaired = list(range(p.k))
    pairs: list[tuple[int, int]] = []
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
    leftover = unpaired[0] if unpaired else None
    return PairPlan(pairs, leftover)


@dataclass
class PairwiseParams:
    """Controls for the pairwise improvement rounds."""

    xi1_grid: tuple = (0.5, 0.15)
    xi2_grid: tuple = (1.0, 0.8, 0.2)
    max_rounds: int = 5
    key_fraction: float = 0.05
    cut_fraction: float = 0.2
    apg: ApgParams = field(default_factory=ApgParams)


def pairwise_improve(
    h: Hypergraph,
    p: Partition,
    spec: BalanceSpec,
    params: PairwiseParams | None = None,
    clique: CliqueGraph | None = None,
) -> Partition:
    """Re-split block pairs through fresh 2-D embeddings.

    Each round pairs the blocks, then for every pair solves the embedding
    objective over the induced sub-clique-graph on a small parameter grid,
    re-bipartitions, and accepts the best result only when it is feasible
    for the pair and strictly lowers the pair's clique-cut objective.  An
    accepted pair that still raises the hypergraph cutsize is rolled back.
    Rounds repeat until nothing improves.  The input partition is untouched.
    """
    params = params or PairwiseParams()
    out = p.copy()
    if p.k < 2 or h.n == 0:
        return out
    if clique is None:
        clique = clique_expand(h)
    for rnd in range(params.max_rounds):
        plan = pair_blocks(h, out)
        improved = False
        for pi, (a, b) in enumerate(plan.pairs):
            improved |= _refine_pair(h, out, spec, clique, a, b, rnd, pi, params)
        if not improved:
            break
    return out


def _refine_pair(h, part, spec, clique, a, b, rnd, pair_idx, params) -> bool:
    idx = np.where((part.assignment == a) | (part.assignment == b))[0]
    nbar = idx.shape[0]
    if nbar < 2:
        return False
    sub = clique.submatrix(idx)
    L_sub = laplacian(sub)
    B_sub = h.vertex_weight[idx]
    labels01 = (part.assignment[idx] == b).astype(np.int64)
    caps = (float(spec.upper_bounds[a]), float(spec.upper_bounds[b]))

    y_cur = np.where(labels01 == 0, 1.0, -1.0)
    obj_cur = 0.25 * float(y_cur @ (L_sub @ y_cur))

    best = None
    for gi, (xi1, xi2) in enumerate(
        itertools.product(params.xi1_grid, params.xi2_grid)
    ):
        op = ObjectiveOperator.pair_refinement(sub, B_sub, labels01, xi1, xi2)
        stream = (rnd * 1024 + pair_idx) * 16 + gi
        X = minimize(op, seeded_features(nbar, 2, stream=stream), params.apg).X
        res = mst_bipartition(
            X, B_sub, caps, L_sub, params.key_fraction, params.cut_fraction
        )
        if res.feasible and (best is None or res.objective < best.objective):
            best = res
    if best is None or not best.objective < obj_cur:
        return False

    cut_before = part.cutsize
    undo: list[tuple[int, int]] = []
    for j, v in enumerate(idx.tolist()):
        target = a if best.labels[j] > 0 else b
        if part.assignment[v] != target:
            undo.append((v, int(part.assignment[v])))
            part.move(v, target)
    if part.cutsize > cut_before:
        for v, old in reversed(undo):
            part.move(v, old)
        return False
    return bool(undo)


# ---------------------------------------------------------------------------
# feasibility repair

def repair_feasibility(
    h: Hypergraph, p: Partition, spec: BalanceSpec, max_ops: int | None = None
) -> tuple[Partition, bool]:
    """Drain overweight blocks by cheap moves, swapping when nothing fits.

    While any block exceeds its cap: from the most-overloaded block, apply
    the single relocation into a block that stays within cap minimizing
    (cutsize increase, vertex weight, vertex index, target).  If no vertex
    fits anywhere, try the best strictly-load-reducing swap with a vertex
    of another block that keeps the partner block within cap.  Gives up
    after ``max_ops`` (default 2n) elementary moves.  Returns a new
    partition and a success flag.
    """
    part = p.copy()
    caps = spec.upper_bounds
    if max_ops is None:
        max_ops = 2 * h.n
    ops = 0
    while ops < max_ops:
        over = part.block_weight - caps
        src = int(np.argmax(over))
        if over[src] <= 0:
            return part, True
        members = np.where(part.assignment == src)[0].tolist()
        delta = part.move_deltas(members)

        best = None
        for i, v in enumerate(members):
            bv = int(h.vertex_weight[v])
            for t in range(part.k):
                if t == src or part.block_weight[t] + bv > caps[t]:
                    continue
                key = (int(delta[i, t]), bv, v, t)
                if best is None or key < best:
                    best = key
        if best is not None:
            _, _, v, t = best
            part.move(v, t)
            ops += 1
            continue

        best_swap = None
        for v in members:
            bv = int(h.vertex_weight[v])
            for t in range(part.k):
                if t == src:
                    continue
                for u in np.where(part.assignment == t)[0].tolist():
                    bu = int(h.vertex_weight[u])
                    if bv <= bu or part.block_weight[t] - bu + bv > caps[t]:
                        continue
                    d1 = part.move(v, t)
                    d2 = part.move(u, src)
                    part.move(u, t)
                    part.move(v, src)
                    key = (d1 + d2, v, u, t)
                    if best_swap is None or key < best_swap:
                        best_swap = key
        if best_swap is None:
            return part, False
        _, v, u, t = best_swap
        part.move(v, t)
        part.move(u, src)
        ops += 2
    return part, bool(np.all(part.block_weight <= caps))


# ---------------------------------------------------------------------------
# k-way FM

def kway_fm(
    h: Hypergraph, p: Partition, spec: BalanceSpec, max_passes: int = 50
) -> Partition:
    """Pass-based k-way FM refinement.

    Every pass moves each vertex at most once, always taking the highest
    gain (cutsize decrease) among moves that keep all blocks within cap,
    working through negative gains as well; the pass then rolls back to its
    best prefix.  Passes repeat while they improve.  The result is feasible
    and never worse than the input, which must itself be feasible.
    """
    if not is_feasible(p, spec):
        raise ValueError("FM refinement requires a feasible starting partition")
    part = p.copy()
    if h.n == 0 or part.k < 2:
        return part
    for _ in range(max_passes):
        if _fm_pass(h, part, spec.upper_bounds) <= 0:
            break
    return part


def _fm_pass(h: Hypergraph, part: Partition, caps) -> int:
    n, k = h.n, part.k
    version = np.zeros(n, dtype=np.int64)
    locked = np.zeros(n, dtype=bool)
    heap: list[tuple[int, int, int, int]] = []

    def push_moves(vs: list[int]):
        rows = part.move_deltas(vs).tolist()
        blocks, versions = part.assignment[vs].tolist(), version[vs].tolist()
        for v, s, ver, delta in zip(vs, blocks, versions, rows):
            for t in range(k):
                if t != s:
                    heapq.heappush(heap, (delta[t], v, t, ver))

    push_moves(list(range(n)))

    applied: list[tuple[int, int, int]] = []
    cum = best_cum = best_len = 0
    deferred: list[tuple[int, int, int, int]] = []

    while heap:
        item = heapq.heappop(heap)
        neg_gain, v, t, ver = item
        if locked[v] or ver != version[v] or part.assignment[v] == t:
            continue
        if part.block_weight[t] + h.vertex_weight[v] > caps[t]:
            deferred.append(item)
            continue
        frm = int(part.assignment[v])
        part.move(v, t)
        locked[v] = True
        touched: set[int] = set()
        for e in h.vertex_edges(v):
            touched.update(h.edge_pins(e).tolist())

        cum += -neg_gain
        applied.append((v, frm, t))
        if cum > best_cum:
            best_cum, best_len = cum, len(applied)

        fresh = [u for u in touched if not locked[u]]
        version[fresh] += 1
        push_moves(fresh)
        if deferred:
            for d in deferred:
                heapq.heappush(heap, d)
            deferred = []

    for v, frm, _ in reversed(applied[best_len:]):
        part.move(v, frm)
    return best_cum
