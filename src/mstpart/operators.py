"""Clique expansion and matrix-free quadratic objective operators.

The hypergraph is relaxed to a weighted graph by clique expansion: each
hyperedge e contributes w_e / (|e| - 1) to every pin pair.  Embedding
objectives are quadratic forms F(X) = -<C, X X^T> whose matrix C mixes the
reinforced adjacency with Laplacians of complete graphs (unit weights,
vertex weights, or a complete multipartite structure).  Those complete-graph
pieces are never materialized; they are applied in O(n k) via column sums.
One operator holds a stack of such objectives that share every matrix and
differ only in their mixing coefficients, so the solves of a weight grid
apply their operators in one call; both constructors take such a grid as
a list of weight pairs.
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

    ``apply``, ``value`` and ``gradient`` take the whole (S, n, c) stack, a
    single solve being a stack of one, and return one result per solve.
    ``apply`` lays the stack out as one (n, S*c) block with a coefficient
    per column, so the sparse product, the column sums and the block sums
    run once for all solves, and every slice stays bit-equal to the formula
    evaluated for that solve alone, term by term into a zero array: the
    block sums add rows in index order, like ``np.add.at``.  A zero
    coefficient adds an exact zero.  The constants of the formula (W, B as a
    column, n minus each vertex's block size, the flat block index of every
    entry) are computed once in ``__init__``.  A nonzero coefficient without
    its input (``abar``, ``weights`` or ``blocks``) and a negative one are
    ``ValueError``.
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
        stack = np.ascontiguousarray(X, dtype=np.float64)
        if stack.ndim != 3 or stack.shape[:2] != (self.solves, self.n):
            raise ValueError(f"X must be ({self.solves}, {self.n}, c)")
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
        return _to_stack(out, S, c)

    def value(self, X: np.ndarray) -> np.ndarray:
        """F(X) = -<C, X X^T>, one value per solve."""
        return -(self.apply(X) * X).sum(axis=(1, 2))

    def gradient(self, X: np.ndarray) -> np.ndarray:
        """grad F(X) = -2 C X."""
        return -2.0 * self.apply(X)

    def value_and_gradient(self, X: np.ndarray):
        """Both quantities from a single operator application."""
        cx = self.apply(X)
        return -(cx * X).sum(axis=(1, 2)), -2.0 * cx


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
