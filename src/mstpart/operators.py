"""Clique expansion and the matrix-free linear maps of the relaxation.

The hypergraph is relaxed to a weighted graph by clique expansion: each
hyperedge e contributes w_e / (|e| - 1) to every pin pair.  The relaxation
model is a symmetric matrix C that mixes the reinforced adjacency with
Laplacians of complete graphs (unit weights, vertex weights, or a complete
multipartite structure); ``apg.minimize`` minimizes F(X) = -<C, X X^T> with
it.  The complete-graph pieces are never materialized: each is a diagonal
plus a low-rank matrix, so C = ca Abar + Diag(d) - U Diag(coef) U^T is
applied in O(nnz + n r) for the r columns of U.  One operator holds a stack
of such matrices that share every input and differ only in their mixing
coefficients, so the solves of a weight grid apply their matrices in one
call; both constructors take such a grid as a list of weight pairs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hypergraph import Hypergraph

__all__ = [
    "CliqueGraph",
    "ObjectiveOperator",
    "clique_expand",
    "laplacian",
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
    """The symmetric linear maps C of a stack of solves, one per solve.

    With B the vertex weights, W = sum(B), n_b(i) the size of vertex i's
    block and e_b the indicator of block b, solve s mixes four terms,
      C[s] = ca[s] Abar + cu[s] Gu + cw[s] Gw + cp[s] Kp,
    where Abar = Diag(degree) + A reinforces the clique adjacency,
    Gu = n I - 1 1^T is the unit complete-graph Laplacian,
    Gw = W Diag(B) - B B^T is the weighted complete-graph Laplacian, and
    Kp = Diag(n - n_b(i)) - 1 1^T + sum_b e_b e_b^T is the Laplacian of the
    complete multipartite graph over given blocks.  Every term but Abar is a
    diagonal plus a low-rank matrix, so
      C[s] = ca[s] Abar + Diag(d[s]) - U Diag(coef[s]) U^T
    with d[s] = cu[s] n + cw[s] W B + cp[s] (n - n_b(i)), the columns
    U = [1, B, e_0, ..., e_{K-1}] and coef[s] = [cu[s] + cp[s], cw[s],
    -cp[s], ..., -cp[s]]; B and the e_b are there only when ``weights`` and
    ``blocks`` are given, and d, U and coef are computed once in
    ``__init__``; d repeated for c columns is kept per c at its first
    ``apply``, and a ``take`` stack keeps its own.  Each coefficient is a nonnegative scalar or one value per
    solve; the solves share every input and constant.  With ``abar``
    positive semidefinite, as the constructors build it, C is positive
    semidefinite, which the solver's stepsize rule relies on.

    ``apply`` and ``take`` are what the solver uses.  ``apply`` takes the
    whole (S, n, c) stack, a single solve being a stack of one, and returns
    C[s] X[s] for every solve s.  It evaluates d X - U (coef * (U^T X)) +
    ca (Abar X) in that order on the stack; U^T X and U (.) are one small
    matrix product per solve, whose order does not depend on the stack
    width.  The sparse product runs once on the whole stack, laid out as one
    (n, S*c) block: X moves there and back by copies that move each row of
    c floats as one item, and ca scales the product once it is back in
    (S, n, c) order.  So every slice is bit-equal to its solve alone.
    ``abar`` is required.  A nonzero coefficient without its input
    (``weights`` or ``blocks``) and a negative one are ``ValueError``.
    """

    def __init__(self, n, *, abar, ca=0.0, cu=0.0, cw=0.0, cp=0.0,
                 weights=None, blocks=None, mode="custom"):
        self.n = n = int(n)
        self.abar = abar
        self.ca, self.cu, self.cw, self.cp = (
            np.array(c, dtype=np.float64)
            for c in np.broadcast_arrays(*(np.atleast_1d(c) for c in (ca, cu, cw, cp)))
        )
        if self.ca.ndim != 1:
            raise ValueError("coefficients must be scalars or one value per solve")
        if not all((c >= 0.0).all() for c in (self.ca, self.cu, self.cw, self.cp)):
            raise ValueError("coefficients must be nonnegative")  # NaN too
        self.mode = mode
        for coef, name, given in (("cw", "weights", weights), ("cp", "blocks", blocks)):
            if getattr(self, coef).any() and given is None:
                raise ValueError(f"{coef} != 0 needs {name}")
        cu, cw, cp = (c[:, None] for c in (self.cu, self.cw, self.cp))
        d = cu * np.full(n, float(n))
        columns, coef = [np.ones(n)], [cu + cp]
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (n,):
                raise ValueError("weights length mismatch")
            d = d + cw * (weights.sum() * weights)
            columns.append(weights)
            coef.append(cw)
        if blocks is not None:
            blocks = np.asarray(blocks, dtype=np.int64)
            if blocks.shape != (n,):
                raise ValueError("blocks length mismatch")
            sizes = np.bincount(blocks)
            d = d + cp * (n - sizes[blocks]).astype(np.float64)
            columns.extend((blocks == b).astype(np.float64) for b in range(sizes.shape[0]))
            coef.extend([-cp] * sizes.shape[0])
        self.weights, self.blocks = weights, blocks
        self.d, self.U, self.coef = d, np.column_stack(columns), np.hstack(coef)
        self._d_wide: dict[int, np.ndarray] = {}  # d repeated c times, by c

    @property
    def solves(self) -> int:
        """The number of solves in the stack."""
        return self.ca.shape[0]

    def take(self, solves) -> "ObjectiveOperator":
        """The stack of the solves ``solves`` only, sharing every input and
        constant with this one."""
        sub = copy.copy(self)
        sub.ca, sub.cu, sub.cw, sub.cp, sub.d, sub.coef = (
            a[solves] for a in (self.ca, self.cu, self.cw, self.cp, self.d, self.coef))
        sub._d_wide = {}
        return sub

    # -- constructors -------------------------------------------------------

    @classmethod
    def embedding(cls, clique: CliqueGraph, weights, lams):
        """Coarse-embedding objectives, one solve per (lam1, lam2) pair of
        ``lams``: clique affinity plus unit and weighted balance pulls."""
        lam1, lam2 = _unit_pairs(lams, "lam")
        return cls(
            clique.n, abar=_reinforced(clique), ca=lam1,
            cu=(1.0 - lam1) * lam2, cw=(1.0 - lam1) * (1.0 - lam2),
            weights=weights, mode="embedding",
        )

    @classmethod
    def pair_refinement(cls, clique: CliqueGraph, weights, blocks, xis):
        """Pair-refinement objectives, one solve per (xi1, xi2) pair of
        ``xis``: clique affinity, weight balance, and a separation pull from
        the complete multipartite graph over ``blocks``.
        """
        xi1, xi2 = _unit_pairs(xis, "xi")
        return cls(
            clique.n, abar=_reinforced(clique), ca=xi1,
            cw=(1.0 - xi1) * xi2, cp=(1.0 - xi1) * (1.0 - xi2),
            weights=weights, blocks=blocks, mode="pair",
        )

    # -- application --------------------------------------------------------

    def apply(self, X: np.ndarray) -> np.ndarray:
        """C @ X for every solve, without materializing the complete-graph
        parts; the result has the shape of X."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 3 or X.shape[:2] != (self.solves, self.n) or not X.shape[2]:
            raise ValueError(f"X must be ({self.solves}, {self.n}, c) with c >= 1")
        S, n, c = X.shape
        d = self._d_wide.get(c)
        if d is None:
            d = self._d_wide[c] = np.repeat(self.d, c, axis=1)
        out = (X.reshape(S, n * c) * d).reshape(S, n, c)
        out -= self.U @ (self.coef[:, :, None] * (self.U.T @ X))
        if S == 1:  # the swapped layout has the bytes of X itself
            back = (self.abar @ X.reshape(n, c)).reshape(1, n, c)
        else:
            clique = self.abar @ _swap_rows(X).reshape(n, S * c)
            back = _swap_rows(clique.reshape(n, S, c))
        back *= self.ca[:, None, None]
        out += back
        return out


def _swap_rows(A: np.ndarray) -> np.ndarray:
    """A contiguous copy of A.transpose(1, 0, 2) for an (a, b, c) float64
    array A.  Each row of c floats moves as one 8c-byte void item, so the
    copy's inner loop runs over a or b items instead of c floats."""
    a, b, c = A.shape
    rows = np.ascontiguousarray(A).view(f"V{8 * c}").reshape(a, b)
    return np.ascontiguousarray(rows.T).view(np.float64).reshape(b, a, c)


def _reinforced(g: CliqueGraph) -> sparse.csr_matrix:
    """Abar = Diag(degree) + A, the reinforced clique adjacency."""
    return (sparse.diags(g.degree) + g.adjacency).tocsr()


def _unit_pairs(pairs, name):
    """The columns name1, name2 of a nonempty list of pairs in [0, 1]."""
    pairs = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        raise ValueError(f"need at least one ({name}1, {name}2) pair")
    for j, col in enumerate(pairs.T, 1):
        if not ((col >= 0.0) & (col <= 1.0)).all():  # NaN fails too
            raise ValueError(f"{name}{j} must lie in [0, 1]")
    return pairs.T
