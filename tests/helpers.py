"""Shared test utilities: instance generators and independent oracles.

Oracles here are deliberately naive re-implementations (set loops, dense
matrices, exhaustive enumeration) kept separate from the package code.
"""

from __future__ import annotations

import numpy as np

from mstpart.apg import (
    DELTA1,
    ETA,
    MU0,
    R,
    SIGMA,
    ApgParams,
    ApgResult,
    _check_finite,
    _grow_term,
    _objective,
    initial_stepsize,
    project_rows,
)
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


def reference_minimize(op, X0, params=None) -> ApgResult:
    """``apg.minimize`` as it read with every per-solve scalar a numpy array
    and one log write per step, kept as the bit-level oracle of the solver
    loop: the same iterates, step counts, residuals and log (``steps.max()``
    steps wide), and the same ``FloatingPointError`` text."""
    params = params or ApgParams()
    X_cur = project_rows(X0)
    S = X_cur.shape[0]
    eps = params.epsilon
    ids = np.arange(S)  # the live solves

    F_cur, g_cur = _objective(op, X_cur)
    _check_finite(F_cur, ids, "start", 0)
    alpha = initial_stepsize(op, X_cur, g_cur)

    # stationarity probe: a fixed point of the projected gradient map stops here
    a = alpha[:, None, None]
    probe = project_rows(X_cur - a * g_cur)
    error = np.abs((probe - X_cur) / a + _objective(op, probe)[1] - g_cur).max(axis=(1, 2))

    X_out = np.empty_like(X_cur)
    steps = np.zeros(S, dtype=np.int64)
    residuals = np.empty(S)
    log = np.empty((5, S, min(params.max_iters, 4096)))  # pages fill as steps are logged

    # resolve delta2 from the first grown stepsize, then freeze it
    alpha1 = alpha + np.minimum(1.0, alpha) * _grow_term(0)
    delta2 = np.minimum(2.0 * DELTA1, 0.49 * (1.0 - MU0) / alpha1)
    delta1 = np.where(delta2 > DELTA1, DELTA1, delta2 / 2.0)

    op_live = op
    X_prev, g_prev = X_cur, g_cur
    bound = F_cur  # nonmonotone averaged objective c_k
    q = 1.0
    k = 0
    live = error > eps

    while True:
        if not live.all():  # stopped solves leave the stack
            done = ids[~live]
            X_out[done], steps[done], residuals[done] = X_cur[~live], k, error[~live]
            ids = ids[live]
            if not ids.size:
                break
            X_prev, X_cur, F_cur = X_prev[live], X_cur[live], F_cur[live]
            g_prev, g_cur = g_prev[live], g_cur[live]
            alpha, delta1, delta2, bound = alpha[live], delta1[live], delta2[live], bound[live]
            op_live = op.take(ids)

        alpha_next = alpha + np.minimum(1.0, alpha) * _grow_term(k)
        beta = k / (k + 3.0)
        y = X_cur + beta * (X_cur - X_prev)
        gy = g_cur + beta * (g_cur - g_prev)  # grad F(y): the gradient is linear
        a = alpha_next[:, None, None]
        z = project_rows(y - a * gy)

        zy2 = ((z - y) ** 2).sum(axis=(1, 2))
        zx2 = ((z - X_cur) ** 2).sum(axis=(1, 2))
        yx2 = ((y - X_cur) ** 2).sum(axis=(1, 2))
        inflate = 1.0 + SIGMA / k ** R if k >= 1 else 1.0
        phi1 = zy2 + zx2 - inflate * yx2
        phi2 = delta1 * zx2 - delta2 * (zy2 + zx2 - yx2)

        F_next, g_next = _objective(op_live, z)
        _check_finite(F_next, ids, "trial", k)
        accepted = (phi1 >= 0.0) & (F_next <= np.minimum(F_cur + phi2, bound))
        X_next = z
        if not accepted.all():
            rej = np.flatnonzero(~accepted)
            X_f = project_rows(X_cur[rej] - a[rej] * g_cur[rej])
            op_rej = op_live if rej.size == ids.size else op.take(ids[rej])
            F_f, g_f = _objective(op_rej, X_f)
            _check_finite(F_f, ids[rej], "fallback", k)
            X_next[rej], F_next[rej], g_next[rej] = X_f, F_f, g_f

        error = np.abs((X_next - X_cur) / a + g_next - g_cur).max(axis=(1, 2))
        k += 1
        if k > log.shape[2]:
            log = np.concatenate((log, np.empty_like(log)), axis=2)
        log[:, ids, k - 1] = (F_next, alpha_next, accepted, error, bound)

        q_next = 1.0 + ETA * q
        bound = (ETA * q * bound + F_next) / q_next
        q = q_next

        X_prev, X_cur, F_cur = X_cur, X_next, F_next
        g_prev, g_cur = g_cur, g_next
        alpha = alpha_next
        live = error > eps if k < params.max_iters else np.zeros(ids.size, dtype=bool)

    log[:, np.arange(log.shape[2]) >= steps[:, None]] = np.nan  # past each solve's stop
    return ApgResult(X_out, steps, residuals, eps, log[:, :, :steps.max()])


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
