"""Clique expansion and matrix-free quadratic objective operators.

The hypergraph is relaxed to a weighted graph by clique expansion: each
hyperedge e contributes w_e / (|e| - 1) to every pin pair.  Embedding
objectives are quadratic forms F(X) = -<C, X X^T> whose matrix C mixes the
reinforced adjacency with Laplacians of complete graphs (unit weights,
vertex weights, or a complete multipartite structure).  Those complete-graph
pieces are never materialized; they are applied in O(n k) via column sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import sparse

from .hypergraph import Hypergraph

__all__ = [
    "CliqueGraph",
    "ObjectiveOperator",
    "clique_expand",
    "laplacian",
    "pairwise_product_sum",
    "max_product_compositions",
]


@dataclass
class CliqueGraph:
    """Symmetric weighted adjacency with a zero diagonal, plus row sums."""

    adjacency: sparse.csr_matrix
    degree: np.ndarray

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @classmethod
    def from_adjacency(cls, adjacency) -> "CliqueGraph":
        adj = sparse.csr_matrix(adjacency)
        return cls(adj, np.asarray(adj.sum(axis=1)).ravel())

    def submatrix(self, idx: np.ndarray) -> "CliqueGraph":
        """Induced subgraph; degrees are recomputed on the subgraph."""
        sub = self.adjacency[idx][:, idx].tocsr()
        return CliqueGraph.from_adjacency(sub)


def clique_expand(h: Hypergraph) -> CliqueGraph:
    """Weighted clique expansion: entry (u, v) sums w_e / (|e| - 1) over the
    nets e holding both u and v, added up in ascending net order.

    It is the sparse product W^T H of the incidence matrices, with W^T read
    from ``inc_offsets``/``inc_list`` (data w_e / max(|e| - 1, 1)) and H from
    ``pin_offsets``/``pin_list`` (data 1).  The CSR product adds each row's
    terms in the order of that row's nets, which ascend.  The diagonal is
    dropped, so single-pin nets contribute nothing; column indices are sorted.
    """
    scale = h.edge_weight / np.maximum(h.edge_sizes() - 1, 1)
    wt = sparse.csr_matrix((scale[h.inc_list], h.inc_list, h.inc_offsets), shape=(h.n, h.m))
    hm = sparse.csr_matrix((np.ones(h.pin_list.shape[0]), h.pin_list, h.pin_offsets),
                           shape=(h.m, h.n))
    prod = wt @ hm
    adj = prod - sparse.diags(prod.diagonal(), format="csr")  # x - 0 == x
    adj.sort_indices()
    return CliqueGraph.from_adjacency(adj)


def laplacian(g: CliqueGraph) -> sparse.csr_matrix:
    """Graph Laplacian Diag(degree) - adjacency."""
    return (sparse.diags(g.degree) - g.adjacency).tocsr()


class ObjectiveOperator:
    """Symmetric operator C behind the embedding objective F(X) = -<C, X X^T>.

    Composition, with B the vertex weights and S = sum(B):
      apply(X) = ca * Abar X + cu * Gu X + cw * Gw X + cp * Kp X [+ M X]
    where Abar = Diag(degree) + A reinforces the clique adjacency,
    Gu = n I - 1 1^T is the unit complete-graph Laplacian,
    Gw = S Diag(B) - B B^T is the weighted complete-graph Laplacian, and
    Kp is the Laplacian of the complete multipartite graph over given blocks.

    The constants of the formula (S, B as a column, n minus each vertex's
    block size, the flat block index of every entry) are computed once in
    ``__init__``, and ``apply`` stays bit-equal to the formula evaluated term
    by term into a zero array: the block sums add rows in index order, like
    ``np.add.at``.  A nonzero coefficient without its input (``abar``,
    ``weights`` or ``blocks``) is a ``ValueError``.
    """

    def __init__(self, n, *, abar=None, ca=0.0, cu=0.0, cw=0.0, cp=0.0,
                 weights=None, blocks=None, matrix=None, mode="custom"):
        self.n = int(n)
        self.abar = abar
        self.ca = float(ca)
        self.cu = float(cu)
        self.cw = float(cw)
        self.cp = float(cp)
        self.mode = mode
        self.matrix = matrix
        for coef, name, given in (("ca", "abar", abar), ("cw", "weights", weights),
                                  ("cp", "blocks", blocks)):
            if getattr(self, coef) and given is None:
                raise ValueError(f"{coef} != 0 needs {name}")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (self.n,):
                raise ValueError("weights length mismatch")
            self._weight_sum = weights.sum()
            self._weight_col = weights[:, None]
        self.weights = weights
        if blocks is not None:
            blocks = np.asarray(blocks, dtype=np.int64)
            if blocks.shape != (self.n,):
                raise ValueError("blocks length mismatch")
            sizes = np.bincount(blocks)
            self._outside_counts = (self.n - sizes[blocks]).astype(np.float64)[:, None]
            self._flat_blocks = {}  # column count k -> blocks * k + column
        self.blocks = blocks

    # -- constructors -------------------------------------------------------

    @classmethod
    def embedding(cls, clique: CliqueGraph, weights, lam1: float, lam2: float):
        """Coarse-embedding objective: clique affinity plus two balance pulls
        (unit and weighted complete graphs), mixed by lam1 and lam2 in [0, 1].
        """
        _check_unit(lam1, "lam1")
        _check_unit(lam2, "lam2")
        abar = (sparse.diags(clique.degree) + clique.adjacency).tocsr()
        return cls(
            clique.n, abar=abar, ca=lam1,
            cu=(1.0 - lam1) * lam2, cw=(1.0 - lam1) * (1.0 - lam2),
            weights=weights, mode="embedding",
        )

    @classmethod
    def pair_refinement(cls, clique: CliqueGraph, weights, blocks, xi1: float, xi2: float):
        """Pair-refinement objective: clique affinity, weight balance, and a
        separation pull from the complete multipartite graph over ``blocks``.
        """
        _check_unit(xi1, "xi1")
        _check_unit(xi2, "xi2")
        abar = (sparse.diags(clique.degree) + clique.adjacency).tocsr()
        return cls(
            clique.n, abar=abar, ca=xi1,
            cw=(1.0 - xi1) * xi2, cp=(1.0 - xi1) * (1.0 - xi2),
            weights=weights, blocks=blocks, mode="pair",
        )

    @classmethod
    def from_matrix(cls, matrix):
        """Explicit symmetric matrix, used for diagnostics and tests."""
        matrix = sparse.csr_matrix(matrix)
        return cls(matrix.shape[0], matrix=matrix, mode="explicit")

    @classmethod
    def identity(cls, n: int):
        return cls.from_matrix(sparse.identity(n, format="csr"))

    # -- application --------------------------------------------------------

    def apply(self, X: np.ndarray) -> np.ndarray:
        """C @ X without materializing the complete-graph parts."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"X must be ({self.n}, k)")
        out = np.zeros_like(X)
        if self.matrix is not None:
            out += self.matrix @ X
        if self.ca:
            out += self.ca * (self.abar @ X)
        if self.cu:
            out += self.cu * (self.n * X - X.sum(axis=0, keepdims=True))
        if self.cw:
            B = self._weight_col
            colsum = self.weights @ X  # (k,)
            out += self.cw * (self._weight_sum * (B * X) - B * colsum)
        if self.cp:
            k = X.shape[1]
            flat = self._flat_blocks.get(k)
            if flat is None:
                flat = self._flat_blocks[k] = (self.blocks[:, None] * k + np.arange(k)).ravel()
            block_sums = np.bincount(flat, weights=X.ravel()).reshape(-1, k)
            others = X.sum(axis=0, keepdims=True) - block_sums[self.blocks]
            out += self.cp * (self._outside_counts * X - others)
        return out

    def value(self, X: np.ndarray) -> float:
        """F(X) = -<C, X X^T>."""
        X = np.asarray(X, dtype=np.float64)
        return -float((self.apply(X) * X).sum())

    def gradient(self, X: np.ndarray) -> np.ndarray:
        """grad F(X) = -2 C X."""
        return -2.0 * self.apply(X)

    def value_and_gradient(self, X: np.ndarray) -> tuple[float, np.ndarray]:
        """Both quantities from a single operator application."""
        X = np.asarray(X, dtype=np.float64)
        cx = self.apply(X)
        return -float((cx * X).sum()), -2.0 * cx


def _check_unit(x, name):
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1]")


# ---------------------------------------------------------------------------
# composition utility for balance sanity checks

def pairwise_product_sum(parts) -> int:
    """Sum of pairwise products of a composition's parts."""
    total = 0
    for a, b in combinations(parts, 2):
        total += a * b
    return total


def max_product_compositions(total: int, k: int):
    """Maximum pairwise-product sum over all compositions of ``total`` into k
    nonnegative parts, together with every composition attaining it.
    """
    if k < 1 or total < 0:
        raise ValueError("need k >= 1 and total >= 0")
    best, argmax = -1, []

    def rec(prefix, remaining, slots):
        nonlocal best, argmax
        if slots == 1:
            comp = prefix + (remaining,)
            val = pairwise_product_sum(comp)
            if val > best:
                best, argmax = val, [comp]
            elif val == best:
                argmax.append(comp)
            return
        for a in range(remaining + 1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), total, k)
    return best, argmax
