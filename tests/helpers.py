"""Shared test utilities: instance generators and independent oracles.

Oracles here are deliberately naive re-implementations (set loops, dense
matrices, exhaustive enumeration) kept separate from the package code.
"""

from __future__ import annotations

import numpy as np

from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition


def objective(op, X):
    """F(X) = -<C X, X>, one value per solve, and grad F(X) = -2 C X of an
    operator stack, from one ``op.apply``."""
    cx = op.apply(X)
    return -(cx * X).sum(axis=(1, 2)), -2.0 * cx


def transpose_apply(op, X):
    """``ObjectiveOperator.apply`` as it once read, kept as its bit-level
    oracle: d X by broadcasting d over the c columns, the stack transposed
    float by float into one (n, S*c) block for the sparse product, scaled
    there by ca, and added back through a transposed view."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    S, n, c = X.shape
    out = op.d[:, :, None] * X
    out -= op.U @ (op.coef[:, :, None] * (op.U.T @ X))
    clique = op.abar @ X.transpose(1, 0, 2).reshape(n, S * c)
    clique *= np.repeat(op.ca, c)
    out += clique.reshape(n, S, c).transpose(1, 0, 2)
    return out


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


def from_edges_reference(pins, n=None, vertex_weight=None, edge_weight=None) -> Hypergraph:
    """``Hypergraph.from_edges`` as a per-net loop: each net is converted,
    sorted and deduplicated on its own, and the incidence lists come from a
    stable argsort of the pins."""
    cleaned = []
    for i, edge in enumerate(pins):
        uniq = sorted(set(int(v) for v in edge))
        if not uniq:
            raise ValueError(f"hyperedge {i} has no pins")
        if uniq[0] < 0:
            raise ValueError(f"hyperedge {i} has a negative pin")
        cleaned.append(uniq)
    m = len(cleaned)
    max_pin = max((e[-1] for e in cleaned), default=-1)
    if n is None:
        n = max_pin + 1
    elif max_pin >= n:
        raise ValueError(f"pin {max_pin} out of range for n={n}")
    vertex_weight = np.ones(n, dtype=np.int64) if vertex_weight is None \
        else np.asarray(vertex_weight, dtype=np.int64)
    if vertex_weight.shape != (n,):
        raise ValueError("vertex_weight length mismatch")
    edge_weight = np.ones(m, dtype=np.int64) if edge_weight is None \
        else np.asarray(edge_weight, dtype=np.int64)
    if edge_weight.shape != (m,):
        raise ValueError("edge_weight length mismatch")
    if np.any(vertex_weight < 1) or np.any(edge_weight < 1):
        raise ValueError("weights must be >= 1")

    pin_offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum([len(e) for e in cleaned], out=pin_offsets[1:])
    pin_list = np.array([v for e in cleaned for v in e], dtype=np.int64)
    edge_ids = np.repeat(np.arange(m, dtype=np.int64), np.diff(pin_offsets))
    order = np.argsort(pin_list, kind="stable")  # stable keeps edge ids ascending
    inc_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pin_list, minlength=n), out=inc_offsets[1:])
    return Hypergraph(n, m, vertex_weight, edge_weight, pin_offsets, pin_list,
                      inc_offsets, edge_ids[order])


def contract_reference(h: Hypergraph, matching):
    """``coarsen.contract`` as a per-net loop over sorted pin sets: the
    coarse hypergraph (built by ``from_edges_reference``) and the map."""
    rep = np.arange(h.n)
    for a, b in matching:
        rep[a] = rep[b] = min(a, b)
    reps, ids = np.unique(rep, return_inverse=True)
    vw = np.bincount(ids, weights=h.vertex_weight, minlength=reps.shape[0]).astype(np.int64)
    merged = {}
    for e in range(h.m):
        key = tuple(sorted(set(ids[h.edge_pins(e)].tolist())))
        if len(key) >= 2:
            merged[key] = merged.get(key, 0) + int(h.edge_weight[e])
    keys = sorted(merged)
    coarse = from_edges_reference(keys, n=reps.shape[0], vertex_weight=vw,
                                  edge_weight=[merged[key] for key in keys])
    return coarse, ids


def assert_same_hypergraph(got: Hypergraph, want: Hypergraph):
    """Every field equal, the arrays in dtype too."""
    assert (type(got.n), got.n, type(got.m), got.m) == (type(want.n), want.n, type(want.m), want.m)
    for name in ("vertex_weight", "edge_weight", "pin_offsets", "pin_list",
                 "inc_offsets", "inc_list"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def dense_gu(n):
    """Laplacian of the complete graph on n unit-weight vertices."""
    return n * np.eye(n) - np.ones((n, n))


def dense_gw(B):
    """Laplacian of the complete graph whose edge (i, j) weighs B_i B_j."""
    B = np.asarray(B, dtype=float)
    return B.sum() * np.diag(B) - np.outer(B, B)


def dense_kpartite(blocks):
    """Laplacian of the complete multipartite graph over the blocks."""
    blocks = np.asarray(blocks)
    n = blocks.shape[0]
    A = (blocks[:, None] != blocks[None, :]).astype(float)
    return np.diag(A.sum(axis=1)) - A


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
