"""Shared test utilities: instance generators and independent oracles.

Oracles here are deliberately naive re-implementations (set loops, dense
matrices, exhaustive enumeration) kept separate from the package code.
"""

from __future__ import annotations

import numpy as np

from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition


def km1_oracle(h: Hypergraph, assignment) -> int:
    """Per-edge distinct-block count, straight from the definition."""
    total = 0
    for e in range(h.m):
        blocks = {int(assignment[v]) for v in h.edge_pins(e)}
        total += int(h.edge_weight[e]) * (len(blocks) - 1)
    return total


def random_hypergraph(rng, n, m, max_edge_size=4, weighted=False):
    """Random hypergraph; every edge has between 1 and max_edge_size pins."""
    pins = []
    for _ in range(m):
        size = int(rng.integers(1, max_edge_size + 1))
        pins.append(rng.choice(n, size=min(size, n), replace=False).tolist())
    vw = rng.integers(1, 6, size=n) if weighted else None
    ew = rng.integers(1, 5, size=m) if weighted else None
    return Hypergraph.from_edges(pins, n=n, vertex_weight=vw, edge_weight=ew)


def random_partition(rng, h, k):
    return Partition(h, rng.integers(0, k, size=h.n), k)


def two_cluster_hypergraph(rng, half=20, inner=30, cross=2, seed_edges=True):
    """Two dense groups joined by a few cross edges; the planted cut is obvious."""
    n = 2 * half
    pins = []
    for _ in range(inner):
        size = int(rng.integers(2, 4))
        pins.append(rng.choice(half, size=size, replace=False).tolist())
        size = int(rng.integers(2, 4))
        pins.append((half + rng.choice(half, size=size, replace=False)).tolist())
    for _ in range(cross):
        a = int(rng.integers(0, half))
        b = int(rng.integers(half, n))
        pins.append([a, b])
    if seed_edges:
        pins.append(list(range(0, min(3, half))))
    return Hypergraph.from_edges(pins, n=n)


def brute_force_bipartition(h: Hypergraph, spec: BalanceSpec):
    """Exhaustive 2-way optimum over feasible assignments; None if none feasible.

    Only usable for small n (2**n enumeration).
    """
    assert spec.k == 2
    n = h.n
    best_cut, best_assign = None, None
    weights = h.vertex_weight.astype(np.int64)
    for mask in range(2 ** n):
        assign = np.array([(mask >> v) & 1 for v in range(n)], dtype=np.int64)
        w1 = int(weights[assign == 1].sum())
        w0 = int(weights.sum()) - w1
        if w0 > spec.cap or w1 > spec.cap:
            continue
        cut = km1_oracle(h, assign)
        if best_cut is None or cut < best_cut:
            best_cut, best_assign = cut, assign
    return best_cut, best_assign


def clique_cut_oracle(A, y):
    """Weight of adjacency edges crossing a +/-1 labeling, pair by pair."""
    n = A.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if y[i] != y[j]:
                total += float(A[i, j])
    return total


def brute_force_signed_labels(L_dense, B, cap):
    """Exhaustive min of 1/4 y^T L y over feasible +/-1 labelings.

    Feasible means the +1 side and the -1 side each weigh at most ``cap``.
    Returns None when nothing is feasible.
    """
    n = L_dense.shape[0]
    total = float(np.sum(B))
    best = None
    for mask in range(2 ** n):
        y = np.array([1.0 if (mask >> v) & 1 else -1.0 for v in range(n)])
        yb = float(y @ B)
        if (total + yb) / 2 > cap or (total - yb) / 2 > cap:
            continue
        obj = 0.25 * float(y @ L_dense @ y)
        if best is None or obj < best:
            best = obj
    return best


class UnionFind:
    """Path-compressed union-find used only as a test oracle."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal_total(n, edges):
    """Kruskal MST oracle.  edges: (u, v, w) tuples.  Returns (total, weights).

    The weight list is returned sorted so float totals can be compared exactly
    against another tree over the same graph.
    """
    uf = UnionFind(n)
    picked = []
    for u, v, w in sorted(edges, key=lambda t: (t[2], t[0], t[1])):
        if uf.union(u, v):
            picked.append(w)
    roots = {uf.find(i) for i in range(n)}
    if len(roots) != 1:
        raise ValueError(f"graph is disconnected: {len(roots)} components")
    arr = np.sort(np.array(picked, dtype=np.float64))
    return float(arr.sum()), arr


def dense_similarity_edges(X, tau=-np.inf):
    """All-pairs thresholded similarity edges: weight 1 - <x_i, x_j> if s > tau.
    The default tau keeps every pair: the complete feature graph.

    Uses one scalar dot per pair so weights are bitwise comparable with any
    other code path that does the same.
    """
    n = X.shape[0]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            s = float(np.dot(X[i], X[j]))
            if s > tau:
                edges.append((i, j, 1.0 - s))
    return edges
