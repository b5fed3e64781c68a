"""Clique expansion and matrix-free quadratic objective operators.

The hypergraph is relaxed to a weighted graph by clique expansion: each
hyperedge e contributes w_e / (|e| - 1) to every pin pair.  Embedding
objectives are quadratic forms F(X) = -<C, X X^T> whose matrix C mixes the
reinforced adjacency with Laplacians of complete graphs (unit weights,
vertex weights, or a complete multipartite structure).  Those complete-graph
pieces are never materialized; they are applied in O(n k) via column sums.
One operator holds a stack of such objectives that share every matrix and
differ only in their mixing coefficients, so the solves of a weight grid
apply their operators in one call.
"""

from __future__ import annotations

import copy
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
    """Symmetric operators C behind the embedding objective F(X) = -<C, X X^T>,
    one per solve of a stack.

    Composition of solve s, with B the vertex weights and W = sum(B):
      apply(X)[s] = ca[s] * Abar X[s] + cu[s] * Gu X[s] + cw[s] * Gw X[s] + cp[s] * Kp X[s]
    where Abar = Diag(degree) + A reinforces the clique adjacency,
    Gu = n I - 1 1^T is the unit complete-graph Laplacian,
    Gw = W Diag(B) - B B^T is the weighted complete-graph Laplacian, and
    Kp is the Laplacian of the complete multipartite graph over given blocks.
    Each coefficient is a nonnegative scalar or one value per solve; the
    solves share every input and constant.  With ``abar`` positive
    semidefinite, as the constructors build it, C is positive semidefinite
    and F concave, which the solver's stepsize rule relies on.

    ``apply`` takes one solve's (n, c) block when the stack holds one solve,
    or the whole (S, n, c) stack.  It lays the stack out as one (n, S*c)
    block with a coefficient per column, so the sparse product, the column
    sums and the block sums run once for all solves, and every slice stays
    bit-equal to the formula evaluated for that solve alone, term by term
    into a zero array: the block sums add rows in index order, like
    ``np.add.at``.  A zero coefficient adds an exact zero.  The constants of
    the formula (W, B as a column, n minus each vertex's block size, the flat
    block index of every entry) are computed once in ``__init__``.  A nonzero
    coefficient without its input (``abar``, ``weights`` or ``blocks``) and a
    negative one are ``ValueError``.
    """

    def __init__(self, n, *, abar=None, ca=0.0, cu=0.0, cw=0.0, cp=0.0,
                 weights=None, blocks=None, mode="custom"):
        self.n = int(n)
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
        for coef, name, given in (("ca", "abar", abar), ("cw", "weights", weights),
                                  ("cp", "blocks", blocks)):
            if getattr(self, coef).any() and given is None:
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
            self._flat_blocks = {}  # column count T -> blocks * T + column
        self.blocks = blocks
        self._columns = {}  # row width c -> per-column coefficients

    @property
    def solves(self) -> int:
        """The number of solves in the stack."""
        return self.ca.shape[0]

    def take(self, solves) -> "ObjectiveOperator":
        """The stack of the solves ``solves`` only, sharing every input and
        constant with this one."""
        sub = copy.copy(self)
        sub.ca, sub.cu, sub.cw, sub.cp = (c[solves] for c in (self.ca, self.cu, self.cw, self.cp))
        sub._columns = {}
        return sub

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
    def pair_refinement(cls, clique: CliqueGraph, weights, blocks, xis):
        """Pair-refinement objectives, one solve per (xi1, xi2) pair of
        ``xis``: clique affinity, weight balance, and a separation pull from
        the complete multipartite graph over ``blocks``.
        """
        xis = np.array(xis, dtype=np.float64).reshape(-1, 2)
        if xis.shape[0] == 0:
            raise ValueError("need at least one (xi1, xi2) pair")
        xi1, xi2 = xis.T
        for x in xi1.tolist():
            _check_unit(x, "xi1")
        for x in xi2.tolist():
            _check_unit(x, "xi2")
        abar = (sparse.diags(clique.degree) + clique.adjacency).tocsr()
        return cls(
            clique.n, abar=abar, ca=xi1,
            cw=(1.0 - xi1) * xi2, cp=(1.0 - xi1) * (1.0 - xi2),
            weights=weights, blocks=blocks, mode="pair",
        )

    # -- application --------------------------------------------------------

    def _coefficient_columns(self, c: int):
        """Each coefficient repeated over the c columns of every solve, or
        None for a term that every solve leaves out."""
        cols = self._columns.get(c)
        if cols is None:
            cols = self._columns[c] = tuple(
                np.repeat(coef, c) if coef.any() else None
                for coef in (self.ca, self.cu, self.cw, self.cp)
            )
        return cols

    def apply(self, X: np.ndarray) -> np.ndarray:
        """C @ X for every solve, without materializing the complete-graph
        parts; the result has the shape of X."""
        X = np.asarray(X, dtype=np.float64)
        stack = X[None] if X.ndim == 2 else X
        if stack.ndim != 3 or stack.shape[:2] != (self.solves, self.n):
            raise ValueError(f"X must be ({self.solves}, {self.n}, c), "
                             f"or ({self.n}, c) for a single solve")
        stack = np.ascontiguousarray(stack)
        S, n, c = stack.shape
        cols = _to_columns(stack)
        ca, cu, cw, cp = self._coefficient_columns(c)
        # each term is built in place in one temporary: the products commute
        out = np.zeros_like(cols)
        if ca is not None:
            t = self.abar @ cols
            t *= ca
            out += t
        if cu is not None or cp is not None:
            sums = cols.sum(axis=0, keepdims=True)
        if cu is not None:
            t = self.n * cols
            t -= sums
            t *= cu
            out += t
        if cw is not None:
            B = self._weight_col
            colsum = (self.weights @ stack).reshape(1, S * c)
            t = B * cols
            t *= self._weight_sum
            t -= B * colsum
            t *= cw
            out += t
        if cp is not None:
            T = S * c
            flat = self._flat_blocks.get(T)
            if flat is None:
                flat = self._flat_blocks[T] = (self.blocks[:, None] * T + np.arange(T)).ravel()
            block_sums = np.bincount(flat, weights=cols.ravel()).reshape(-1, T)
            others = block_sums[self.blocks]
            np.subtract(sums, others, out=others)
            t = self._outside_counts * cols
            t -= others
            t *= cp
            out += t
        out = _to_stack(out, S, c)
        return out[0] if X.ndim == 2 else out

    def value(self, X: np.ndarray):
        """F(X) = -<C, X X^T>: a float for one (n, c) block, one per solve
        for a stack."""
        X = np.asarray(X, dtype=np.float64)
        return -_solve_sums(self.apply(X) * X)

    def gradient(self, X: np.ndarray) -> np.ndarray:
        """grad F(X) = -2 C X."""
        return -2.0 * self.apply(X)

    def value_and_gradient(self, X: np.ndarray):
        """Both quantities from a single operator application."""
        X = np.asarray(X, dtype=np.float64)
        cx = self.apply(X)
        return -_solve_sums(cx * X), -2.0 * cx


def _solve_sums(A: np.ndarray):
    # a C-contiguous (n, c) slice sums like the whole (n, c) array
    return float(A.sum()) if A.ndim == 2 else A.sum(axis=(1, 2))


def _to_columns(stack: np.ndarray) -> np.ndarray:
    """(S, n, c) -> (n, S*c), column s*c + j holding column j of solve s.

    Column sums must add each solve's column as its own (n, c) block does:
    row by row when c > 1, which the C-ordered copy keeps, and pairwise for
    a contiguous single column, which the c = 1 result keeps by being a view
    whose columns are the solves' contiguous columns.
    """
    S, n, c = stack.shape
    if S == 1:
        return stack.reshape(n, c)
    if c == 2:  # one complex entry per row moves both columns at once
        return stack.view(np.complex128).reshape(S, n).T.copy().view(np.float64)
    return stack.transpose(1, 0, 2).reshape(n, S * c)


def _to_stack(cols: np.ndarray, S: int, c: int) -> np.ndarray:
    """The inverse of ``_to_columns``."""
    n = cols.shape[0]
    if S == 1:
        return cols.reshape(1, n, c)
    if c == 2:
        return cols.view(np.complex128).T.copy().view(np.float64).reshape(S, n, 2)
    return cols.reshape(n, S, c).transpose(1, 0, 2).copy()


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
