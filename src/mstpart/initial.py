"""Initial partitioning from vertex embeddings.

The complete feature graph joins every pair of vertices with an edge of
weight 1 - <x_i, x_j>.  Its MST is pruned at the heaviest edges to form
clusters, labelled per tree position, which are then merged into k blocks.
Both scales run one routine, ``_cluster_partitions``, which builds one tree
per embedding and cuts a partition per cluster count from it: small
instances cluster every vertex under the true block cap; large ones cluster
only the heaviest fifth of the vertices under a cap adapted to their mass,
and then places the rest by nearest centroid.  ``_route_partitions`` alone
resolves a level's cluster counts, each in k..(size of the clustered set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import BalanceSpec, Hypergraph, Partition

__all__ = [
    "SpanningTree",
    "P_RULES",
    "heaviest",
    "prim_mst",
    "prune_clusters",
    "mst_partition_small",
    "representative_partition_large",
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


def heaviest(weights: np.ndarray, m: int) -> np.ndarray:
    """The indices of the m heaviest entries of ``weights`` (ties by lower
    index), in index order."""
    return np.sort(np.lexsort((np.arange(weights.shape[0]), -weights))[:m])


def prune_clusters(tree: SpanningTree, p: int) -> np.ndarray:
    """Remove the first p - 1 edges of ``tree.heaviest_first()``, leaving
    exactly p connected parts, and label each tree position with its part
    as ``SpanningTree.cut`` does (in order of the lowest position)."""
    nv = tree.vertices.shape[0]
    if not 1 <= p <= nv:
        raise ValueError(f"p={p} out of range 1..{nv}")
    return tree.cut(tree.heaviest_first()[: p - 1])


def _merge_clusters(vertices: np.ndarray, labels: np.ndarray, B, X, k: int, cap: float):
    """Seed blocks with the k heaviest clusters, then fold each remaining
    cluster into the centroid-nearest block when it fits the cap, else into
    the lightest block.  Cluster ``labels[i]`` holds ``vertices[i]``.
    Returns each cluster's block and the blocks' weights, centroids, counts.
    """
    p = int(labels.max()) + 1
    members = [vertices[labels == c] for c in range(p)]
    weights = np.array([int(B[c].sum()) for c in members], dtype=np.int64)
    centroids = np.array([X[c].mean(axis=0) for c in members])
    sizes = np.bincount(labels)
    order = sorted(range(p), key=lambda i: (-int(weights[i]), i))
    seeds, rest = order[:k], sorted(order[k:])
    block = np.empty(p, dtype=np.int64)
    block[seeds] = np.arange(len(seeds))
    b_weights, b_centroids, b_counts = weights[seeds], centroids[seeds], sizes[seeds]

    for ci in rest:
        d = np.linalg.norm(b_centroids - centroids[ci], axis=1)
        j = int(np.argmin(d))
        if b_weights[j] + weights[ci] > cap:
            j = int(np.argmin(b_weights))  # lightest block, cap ignored
        block[ci] = j
        b_weights[j] += weights[ci]
        n_j, n_c = b_counts[j], sizes[ci]
        b_centroids[j] = (n_j * b_centroids[j] + n_c * centroids[ci]) / (n_j + n_c)
        b_counts[j] += n_c
    return block, b_weights, b_centroids, b_counts


def mst_partition_small(X: np.ndarray, h: Hypergraph, spec: BalanceSpec, ps) -> list[Partition]:
    """Cluster every vertex through one pruned MST, then merge into k
    blocks: one partition per cluster count in ``ps``, each in k..n."""
    return _cluster_partitions(X, h, spec, np.arange(h.n), ps, spec.cap)


def _n_representatives(n: int) -> int:
    """How many vertices the large scale clusters on an n-vertex level."""
    return math.ceil(0.2 * n)


def representative_partition_large(X: np.ndarray, h: Hypergraph, spec: BalanceSpec, ps) -> list[Partition]:
    """Cluster only the n_rep = ceil(0.2 n) heaviest vertices (ties by lower
    index), merged under the cap adapted to their mass,
    (1 + epsilon) * rep_weight / k; every other vertex is then placed by
    nearest centroid.  One partition per cluster count in ``ps``, each in
    k..n_rep, all cut from one tree over the representatives.
    """
    B = h.vertex_weight
    reps = heaviest(B, _n_representatives(h.n))
    adapted_cap = (1.0 + spec.epsilon) * int(B[reps].sum()) / spec.k
    return _cluster_partitions(X, h, spec, reps, ps, adapted_cap)


def _cluster_partitions(X, h, spec, vertices, ps, merge_cap) -> list[Partition]:
    """Prim over ``vertices`` once; for each p in ``ps``, prune the tree to
    p clusters and merge them into k blocks under ``merge_cap``.  Each
    vertex left out of ``vertices`` is then placed, in index order, at its
    nearest block centroid among the blocks that still fit it under the true
    cap, else in the lightest block; centroids track running means as
    vertices arrive.
    """
    for p in ps:
        if not spec.k <= p <= len(vertices):
            raise ValueError(f"cluster counts must lie in k..{len(vertices)} (k={spec.k}), got p={p}")
    B = h.vertex_weight
    tree = prim_mst(X, vertices=vertices)
    parts = []
    for p in ps:
        labels = prune_clusters(tree, p)
        block, weights, centroids, counts = _merge_clusters(
            tree.vertices, labels, B, X, spec.k, merge_cap)
        assignment = np.full(h.n, -1, dtype=np.int64)
        assignment[tree.vertices] = block[labels]

        for v in np.flatnonzero(assignment < 0).tolist():
            w = int(B[v])
            d = np.linalg.norm(centroids - X[v], axis=1)
            fits = weights + w <= spec.cap
            if np.any(fits):
                d = np.where(fits, d, np.inf)
                j = int(np.argmin(d))
            else:
                j = int(np.argmin(weights))
            assignment[v] = j
            weights[j] += w
            centroids[j] = (counts[j] * centroids[j] + X[v]) / (counts[j] + 1)
            counts[j] += 1
        parts.append(Partition(h, assignment, spec.k))
    return parts


# The cluster-count rules of ``PipelineConfig.p`` by name, each a count for
# an n-vertex level and k blocks.
P_RULES = {
    "sqrt": lambda n, k: math.ceil(math.sqrt(n / 2.0)),
    "linear": lambda n, k: math.ceil(n / (5.0 * k)),
}


def _p_choices(n: int, k: int, p, most: int) -> list[int]:
    """Distinct cluster counts, in order of first appearance, to try on an
    n-vertex level that clusters ``most`` vertices, each in k..most.

    ``p`` is ``PipelineConfig.p``: each entry is a rule of ``P_RULES``,
    evaluated on n, or a fixed count (>= k, by the config check).  A count
    is raised to k and lowered to ``most``, which callers cannot know.
    """
    out = []
    for entry in p:
        count = min(max(P_RULES[entry](n, k) if entry in P_RULES else entry, k), most)
        if count not in out:
            out.append(count)
    return out


def _route_partitions(X, h, spec, p) -> list[tuple[Partition, int]]:
    """A (partition, count) pair per count that ``PipelineConfig.p`` entries
    ``p`` resolve to: large scale above ``LARGE_SCALE_THRESHOLD``, else small."""
    large = h.n > LARGE_SCALE_THRESHOLD
    ps = _p_choices(h.n, spec.k, p, _n_representatives(h.n) if large else h.n)
    route = representative_partition_large if large else mst_partition_small
    return list(zip(route(X, h, spec, ps), ps))
