"""Initial partitioning from vertex embeddings.

The complete feature graph joins every pair of vertices with an edge of
weight 1 - <x_i, x_j>.  Its MST is pruned at the heaviest edges to form
clusters, which are then merged into k blocks.  Both scales run one
routine, ``_cluster_partition``: small instances cluster every vertex under
the true block caps; large ones cluster only the heaviest fifth of the
vertices under a cap adapted to their mass, and the routine then places the
rest by nearest centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import BalanceSpec, Hypergraph, Partition

__all__ = [
    "SpanningTree",
    "ClusterSet",
    "prim_mst",
    "prune_clusters",
    "mst_partition_small",
    "representative_partition_large",
    "candidate_p_values",
]

LARGE_SCALE_THRESHOLD = 35_000


@dataclass
class SpanningTree:
    """Spanning tree over a vertex subset.

    ``vertices`` holds original ids; ``edges`` are (u, v, weight) triples and
    ``parent`` is the Prim parent pointer (-1 at the root), both positional
    into ``vertices``.  Position 0 is the root, and every edge joins a
    vertex to its parent: ``u == parent[v]``.
    """

    vertices: np.ndarray
    edges: list[tuple[int, int, float]]
    parent: np.ndarray

    def heaviest_first(self) -> list[int]:
        """Edge ids from the heaviest edge down, ties by lower id: the order
        in which pruning and re-bisection cut the tree."""
        return sorted(range(len(self.edges)), key=lambda i: (-self.edges[i][2], i))

    def cut(self, edge_ids) -> np.ndarray:
        """Component of every tree position once the listed edges are removed.

        Components are numbered in order of their lowest position, so the
        root's component is 0.  Reads ``parent`` only: each position points
        at its parent unless it is the root or the child end of a removed
        edge, and pointer jumping then reaches every component's top.
        """
        head = np.where(self.parent < 0, np.arange(self.parent.shape[0]), self.parent)
        children = [self.edges[i][1] for i in edge_ids]
        head[children] = children
        while True:
            nxt = head[head]
            if np.array_equal(nxt, head):
                break
            head = nxt
        _, first, labels = np.unique(head, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.shape[0])
        return rank[labels]


@dataclass
class ClusterSet:
    """Clusters of original vertex ids with weights and feature centroids."""

    clusters: list[np.ndarray]
    weights: np.ndarray
    centroids: np.ndarray


def prim_mst(X: np.ndarray, vertices: np.ndarray | None = None) -> SpanningTree:
    """Prim's algorithm over the complete graph of the feature rows of
    ``vertices``, each edge weighted 1 - <x_i, x_j>.
    """
    X = np.asarray(X, dtype=np.float64)
    if vertices is None:
        vertices = np.arange(X.shape[0])
    vertices = np.asarray(vertices, dtype=np.int64)
    nv = vertices.shape[0]
    if nv == 0:
        raise ValueError("empty vertex set")
    local = X[vertices]

    INF = np.inf
    dist = np.full(nv, INF)
    parent = np.full(nv, -1, dtype=np.int64)
    in_tree = np.zeros(nv, dtype=bool)
    dist[0] = 0.0
    edges: list[tuple[int, int, float]] = []

    for _ in range(nv):
        u = int(np.argmin(np.where(in_tree, INF, dist)))
        in_tree[u] = True
        if parent[u] >= 0:
            # recompute the weight from a canonical scalar product so equal
            # trees compare exactly against edge-list oracles
            pu = int(parent[u])
            a, b = (pu, u) if pu < u else (u, pu)
            edges.append((pu, u, 1.0 - float(np.dot(local[a], local[b]))))
        # relax from u
        w = 1.0 - local @ local[u]
        better = ~in_tree & (w < dist)
        dist[better] = w[better]
        parent[better] = u
    return SpanningTree(vertices, edges, parent)


def prune_clusters(tree: SpanningTree, p: int, vertex_weight: np.ndarray, X: np.ndarray) -> ClusterSet:
    """Remove the first p - 1 edges of ``tree.heaviest_first()``, leaving
    exactly p connected parts.  Weights and feature centroids are computed
    per part over the original arrays.
    """
    nv = tree.vertices.shape[0]
    if not 1 <= p <= nv:
        raise ValueError(f"p={p} out of range 1..{nv}")
    comp = tree.cut(tree.heaviest_first()[: p - 1])
    clusters = []
    weights = np.zeros(p, dtype=np.int64)
    centroids = np.zeros((p, X.shape[1]))
    for c in range(p):
        members = tree.vertices[comp == c]
        clusters.append(members)
        weights[c] = int(vertex_weight[members].sum())
        centroids[c] = X[members].mean(axis=0)
    return ClusterSet(clusters, weights, centroids)


def _merge_clusters(clusters: ClusterSet, k: int, caps: np.ndarray) -> tuple[list[list[np.ndarray]], np.ndarray, np.ndarray, np.ndarray]:
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


def mst_partition_small(X: np.ndarray, h: Hypergraph, spec: BalanceSpec, p: int) -> Partition:
    """Cluster every vertex through the pruned MST, then merge into k blocks."""
    if p < spec.k:
        raise ValueError(f"need at least k={spec.k} clusters, got p={p}")
    if p > h.n:
        raise ValueError(f"p={p} exceeds the vertex count {h.n}")
    return _cluster_partition(X, h, spec, np.arange(h.n), p, spec.upper_bounds)


def representative_partition_large(X: np.ndarray, h: Hypergraph, spec: BalanceSpec, p: int) -> Partition:
    """Cluster only the heaviest ceil(0.2 n) vertices (ties by lower index)
    into min(p, n_rep) clusters, merged under the cap adapted to their mass,
    (1 + epsilon) * rep_weight / k; every other vertex is then placed by
    nearest centroid.
    """
    B = h.vertex_weight
    n_rep = math.ceil(0.2 * h.n)
    reps = np.sort(np.lexsort((np.arange(h.n), -B))[:n_rep])
    p = min(p, n_rep)
    if p < spec.k:
        raise ValueError(f"need at least k={spec.k} representative clusters, got p={p}")
    adapted_cap = (1.0 + spec.epsilon) * int(B[reps].sum()) / spec.k
    return _cluster_partition(X, h, spec, reps, p, np.full(spec.k, adapted_cap))


def _cluster_partition(X, h, spec, vertices, p, merge_caps) -> Partition:
    """Prim over ``vertices``, prune to p clusters and merge them into k
    blocks under ``merge_caps``.  Each vertex left out of ``vertices`` is
    then placed, in index order, at its nearest block centroid among the
    blocks that still fit it under the true caps, else in the lightest
    block; centroids track running means as vertices arrive.
    """
    B = h.vertex_weight
    tree = prim_mst(X, vertices=vertices)
    clusters = prune_clusters(tree, p, B, X)
    members, weights, centroids, counts = _merge_clusters(clusters, spec.k, merge_caps)
    assignment = np.full(h.n, -1, dtype=np.int64)
    for b, chunks in enumerate(members):
        for chunk in chunks:
            assignment[chunk] = b

    caps = spec.upper_bounds
    for v in np.flatnonzero(assignment < 0).tolist():
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


def _p_choices(n: int, k: int, p) -> list[int]:
    """Distinct cluster counts to try on an n-vertex level, each in k..n.

    ``p`` is ``PipelineConfig.p``: each entry is the rule "sqrt" or
    "linear" of ``candidate_p_values``, or a fixed count.  The config check
    rejects a fixed count below k, so only the rules can fall under k here;
    any count above n is lowered to n, because the caller cannot know the
    coarsest level's size.
    """
    rules = dict(zip(("sqrt", "linear"), candidate_p_values(n, k)))
    out = []
    for entry in p:
        count = min(max(rules.get(entry, entry), k), n)
        if count not in out:
            out.append(count)
    return out


def _route_partition(X, h, spec, p):
    if h.n > LARGE_SCALE_THRESHOLD:
        return representative_partition_large(X, h, spec, p)
    return mst_partition_small(X, h, spec, p)
