"""Initial partitioning from vertex embeddings.

A similarity graph connects vertices whose embedded features have dot
product above a threshold tau, with edge weight 1 - similarity.  Its MST is
pruned at the heaviest edges to form clusters, which are then merged into k
blocks.  Small instances cluster every vertex; large ones cluster only the
heaviest fifth of the vertices and place the rest by nearest centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import BalanceSpec, Hypergraph, Partition

__all__ = [
    "SpanningTree",
    "ClusterSet",
    "DisconnectedGraphError",
    "build_similarity_graph",
    "prim_mst",
    "prune_clusters",
    "mst_partition_small",
    "representative_partition_large",
    "candidate_p_values",
]

LARGE_SCALE_THRESHOLD = 35_000


class DisconnectedGraphError(RuntimeError):
    """Similarity graph fell apart under the threshold."""

    def __init__(self, components: int):
        self.components = components
        super().__init__(f"similarity graph has {components} components")


@dataclass
class SpanningTree:
    """Spanning tree over a vertex subset.

    ``vertices`` holds original ids; ``edges`` are (u, v, weight) triples and
    ``parent`` is the Prim parent pointer (-1 at the root), both positional
    into ``vertices``.  ``bridges`` counts fallback edges added to join
    components of a disconnected similarity graph.
    """

    vertices: np.ndarray
    edges: list[tuple[int, int, float]]
    parent: np.ndarray
    bridges: int = 0

    @property
    def total_weight(self) -> float:
        return float(np.sort(np.array([w for _, _, w in self.edges])).sum()) if self.edges else 0.0

    def sorted_weights(self) -> np.ndarray:
        return np.sort(np.array([w for _, _, w in self.edges], dtype=np.float64))


@dataclass
class ClusterSet:
    """Clusters of original vertex ids with weights and feature centroids."""

    clusters: list[np.ndarray]
    weights: np.ndarray
    centroids: np.ndarray


def build_similarity_graph(X: np.ndarray, tau: float = 0.2):
    """Sparse symmetric graph over thresholded feature similarities.

    Returns a scipy CSR matrix whose entries are 1 - <x_i, x_j> wherever the
    dot product exceeds tau.  Works in row blocks to bound memory.
    """
    from scipy import sparse

    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rows, cols, vals = [], [], []
    step = max(1, 20_000_000 // max(n, 1))
    for start in range(0, n, step):
        stop = min(start + step, n)
        S = X[start:stop] @ X.T
        r, c = np.nonzero(S > tau)
        keep = r + start < c  # strict upper triangle, no self loops
        r, c = r[keep], c[keep]
        rows.append(r + start)
        cols.append(c)
        vals.append(1.0 - S[r, c])
    r = np.concatenate(rows) if rows else np.empty(0, dtype=int)
    c = np.concatenate(cols) if cols else np.empty(0, dtype=int)
    v = np.concatenate(vals) if vals else np.empty(0)
    upper = sparse.coo_matrix((v, (r, c)), shape=(n, n))
    return (upper + upper.T).tocsr()


def prim_mst(
    X: np.ndarray,
    vertices: np.ndarray | None = None,
    tau: float = 0.2,
    metric: str = "similarity",
    on_disconnected: str = "bridge",
) -> SpanningTree:
    """Prim's algorithm over the implicit feature graph.

    metric "similarity": edges exist where <x_i, x_j> > tau, weighted
    1 - similarity.  metric "euclidean": complete graph under Euclidean
    distance (tau is ignored).  When the similarity graph is disconnected,
    on_disconnected "bridge" joins each stranded part through the lightest
    available crossing edge (ignoring tau); "error" raises instead.
    """
    X = np.asarray(X, dtype=np.float64)
    if vertices is None:
        vertices = np.arange(X.shape[0])
    vertices = np.asarray(vertices, dtype=np.int64)
    nv = vertices.shape[0]
    if nv == 0:
        raise ValueError("empty vertex set")
    local = X[vertices]
    euclid = metric == "euclidean"
    if metric not in ("similarity", "euclidean"):
        raise ValueError(f"unknown metric {metric!r}")

    INF = np.inf
    dist = np.full(nv, INF)
    parent = np.full(nv, -1, dtype=np.int64)
    in_tree = np.zeros(nv, dtype=bool)
    dist[0] = 0.0
    edges: list[tuple[int, int, float]] = []
    bridges = 0

    for _ in range(nv):
        masked = np.where(in_tree, INF, dist)
        u = int(np.argmin(masked))
        if masked[u] == INF:
            # stranded: no thresholded edge reaches the rest
            if on_disconnected == "error":
                comps = _count_components(local, tau, euclid)
                raise DisconnectedGraphError(comps)
            u = _bridge(local, in_tree, dist, parent, euclid)
            bridges += 1
        in_tree[u] = True
        if parent[u] >= 0:
            # recompute the weight from a canonical scalar product so equal
            # trees compare exactly against edge-list oracles
            pu = int(parent[u])
            a, b = (pu, u) if pu < u else (u, pu)
            if euclid:
                w = float(np.linalg.norm(local[a] - local[b]))
            else:
                w = 1.0 - float(np.dot(local[a], local[b]))
            edges.append((pu, u, w))
        # relax from u
        if euclid:
            w = np.linalg.norm(local - local[u], axis=1)
            eligible = ~in_tree
        else:
            s = local @ local[u]
            w = 1.0 - s
            eligible = (~in_tree) & (s > tau)
        better = eligible & (w < dist)
        dist[better] = w[better]
        parent[better] = u
    return SpanningTree(vertices, edges, parent, bridges)


def _bridge(local, in_tree, dist, parent, euclid):
    """Lightest edge from the tree to any stranded vertex, threshold ignored."""
    inside = np.where(in_tree)[0]
    outside = np.where(~in_tree)[0]
    if euclid:
        W = np.linalg.norm(local[inside][:, None, :] - local[outside][None, :, :], axis=2)
    else:
        W = 1.0 - local[inside] @ local[outside].T
    flat = int(np.argmin(W))
    i, j = divmod(flat, outside.shape[0])
    u = int(outside[j])
    dist[u] = float(W[i, j])
    parent[u] = int(inside[i])
    return u


def _count_components(local, tau, euclid):
    if euclid:
        return 1
    n = local.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        stack = [s]
        seen[s] = True
        while stack:
            u = stack.pop()
            nbrs = np.where((local @ local[u] > tau) & ~seen)[0]
            seen[nbrs] = True
            stack.extend(nbrs.tolist())
    return comps


def prune_clusters(tree: SpanningTree, p: int, vertex_weight: np.ndarray, X: np.ndarray) -> ClusterSet:
    """Remove the p - 1 heaviest tree edges (ties: larger weight first, then
    lower edge index) leaving exactly p connected parts.  Weights and feature
    centroids are computed per part over the original arrays.
    """
    nv = tree.vertices.shape[0]
    if not 1 <= p <= nv:
        raise ValueError(f"p={p} out of range 1..{nv}")
    order = sorted(range(len(tree.edges)), key=lambda i: (-tree.edges[i][2], i))
    removed = set(order[: p - 1])
    adj: list[list[int]] = [[] for _ in range(nv)]
    for i, (u, v, _) in enumerate(tree.edges):
        if i in removed:
            continue
        adj[u].append(v)
        adj[v].append(u)
    comp = np.full(nv, -1, dtype=np.int64)
    cid = 0
    for s in range(nv):
        if comp[s] >= 0:
            continue
        stack = [s]
        comp[s] = cid
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if comp[v] < 0:
                    comp[v] = cid
                    stack.append(v)
        cid += 1
    if cid != p:
        raise AssertionError(f"pruning produced {cid} parts, expected {p}")

    clusters = []
    weights = np.zeros(p, dtype=np.int64)
    centroids = np.zeros((p, X.shape[1]))
    for c in range(p):
        members = tree.vertices[comp == c]
        clusters.append(members)
        weights[c] = int(vertex_weight[members].sum())
        centroids[c] = X[members].mean(axis=0)
    return ClusterSet(clusters, weights, centroids)


def _merge_clusters(clusters: ClusterSet, k: int, caps: np.ndarray, n: int) -> tuple[list[list[np.ndarray]], np.ndarray, np.ndarray, np.ndarray]:
    """Seed blocks with the k heaviest clusters, then fold each remaining
    cluster into the centroid-nearest block when it fits the cap, else into
    the lightest block.  Returns members, weights, centroids, counts.
    """
    p = len(clusters.clusters)
    order = sorted(range(p), key=lambda i: (-int(clusters.weights[i]), i))
    seeds, rest = order[:k], sorted(order[k:])
    members: list[list[np.ndarray]] = [[clusters.clusters[s]] for s in seeds]
    weights = clusters.weights[seeds].astype(np.int64).copy()
    centroids = clusters.centroids[seeds].copy()
    counts = np.array([clusters.clusters[s].shape[0] for s in seeds], dtype=np.int64)

    for ci in rest:
        c_w = int(clusters.weights[ci])
        c_n = clusters.clusters[ci].shape[0]
        d = np.linalg.norm(centroids - clusters.centroids[ci], axis=1)
        j = int(np.argmin(d))
        if weights[j] + c_w > caps[j]:
            j = int(np.argmin(weights))  # lightest block, cap ignored
        members[j].append(clusters.clusters[ci])
        weights[j] += c_w
        centroids[j] = (counts[j] * centroids[j] + c_n * clusters.centroids[ci]) / (counts[j] + c_n)
        counts[j] += c_n
    return members, weights, centroids, counts


def mst_partition_small(X: np.ndarray, h: Hypergraph, spec: BalanceSpec, p: int, tau: float = 0.2) -> Partition:
    """Cluster every vertex through the pruned MST, then merge into k blocks."""
    if p < spec.k:
        raise ValueError(f"need at least k={spec.k} clusters, got p={p}")
    if p > h.n:
        raise ValueError(f"p={p} exceeds the vertex count {h.n}")
    tree = prim_mst(X, tau=tau)
    clusters = prune_clusters(tree, p, h.vertex_weight, X)
    members, _, _, _ = _merge_clusters(clusters, spec.k, spec.upper_bounds, h.n)
    assignment = np.empty(h.n, dtype=np.int64)
    for b, chunks in enumerate(members):
        for chunk in chunks:
            assignment[chunk] = b
    return Partition(h, assignment, spec.k)


def representative_partition_large(X: np.ndarray, h: Hypergraph, spec: BalanceSpec, p: int, tau: float = 0.2) -> Partition:
    """Cluster only the heaviest ceil(0.2 n) vertices (ties by lower index),
    merge their clusters under an adapted cap scaled to representative mass,
    then place every remaining vertex at its nearest centroid that still fits
    the true cap, falling back to the lightest block.  Centroids track
    running means as vertices arrive.
    """
    n = h.n
    B = h.vertex_weight
    n_rep = math.ceil(0.2 * n)
    by_weight = np.lexsort((np.arange(n), -B))
    reps = np.sort(by_weight[:n_rep])
    if p > n_rep:
        p = n_rep
    if p < spec.k:
        raise ValueError(f"need at least k={spec.k} representative clusters, got p={p}")

    tree = prim_mst(X, vertices=reps, tau=tau)
    clusters = prune_clusters(tree, p, B, X)
    rep_total = int(clusters.weights.sum())
    adapted_cap = (1.0 + spec.epsilon) * rep_total / spec.k
    members, weights, centroids, counts = _merge_clusters(
        clusters, spec.k, np.full(spec.k, adapted_cap), n
    )

    assignment = np.full(n, -1, dtype=np.int64)
    for b, chunks in enumerate(members):
        for chunk in chunks:
            assignment[chunk] = b

    caps = spec.upper_bounds
    for v in range(n):
        if assignment[v] >= 0:
            continue
        w = int(B[v])
        d = np.linalg.norm(centroids - X[v], axis=1)
        fits = weights + w <= caps
        if np.any(fits):
            d = np.where(fits, d, np.inf)
            j = int(np.argmin(d))
        else:
            j = int(np.argmin(weights))
        assignment[v] = j
        weights[j] += w
        centroids[j] = (counts[j] * centroids[j] + X[v]) / (counts[j] + 1)
        counts[j] += 1
    return Partition(h, assignment, spec.k)


def candidate_p_values(n: int, k: int) -> tuple[int, int]:
    """The two cluster-count rules: ceil(sqrt(n / 2)) and ceil(n / (5 k))."""
    return math.ceil(math.sqrt(n / 2.0)), math.ceil(n / (5.0 * k))


def _p_choices(n: int, k: int, p_rules, p_override) -> list[int]:
    if p_override is not None:
        raw = [p_override]
    else:
        sqrt_p, lin_p = candidate_p_values(n, k)
        chosen = {"sqrt": sqrt_p, "linear": lin_p}
        raw = [chosen[r] for r in p_rules]
    out = []
    for p in raw:
        p = min(max(p, k), n)
        if p not in out:
            out.append(p)
    return out


def _route_partition(X, h, spec, p, tau, large_threshold):
    if h.n > large_threshold:
        return representative_partition_large(X, h, spec, p, tau)
    return mst_partition_small(X, h, spec, p, tau)
