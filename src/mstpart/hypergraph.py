"""Hypergraph model, hMetis-format I/O, and partition quality metrics.

A partition of the vertex set into k blocks is scored by the connectivity-1
metric (km1): ``sum_e w_e * (spans_e - 1)`` where ``spans_e`` is the number
of distinct blocks touched by the pins of hyperedge ``e``.  Balance is one
weight cap for every block, derived from a relative slack epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HgrFormatError",
    "PartitionFormatError",
    "Hypergraph",
    "BalanceSpec",
    "Partition",
    "parse_hmetis",
    "write_hmetis",
    "read_partition",
    "write_partition",
    "km1_value",
    "is_feasible",
    "epsilon_from_ubfactor",
    "default_epsilon",
]


class HgrFormatError(ValueError):
    """Malformed hMetis .hgr input.  Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PartitionFormatError(ValueError):
    """Malformed partition file or assignment inconsistent with the hypergraph."""


@dataclass
class Hypergraph:
    """Weighted hypergraph in CSR-like storage, immutable after construction.

    ``pin_offsets``/``pin_list`` hold each hyperedge's sorted, duplicate-free
    pins; ``inc_offsets``/``inc_list`` are the exact transpose (ascending
    hyperedge ids per vertex).  Indices are 0-based, weights are integers >= 1.
    """

    n: int
    m: int
    vertex_weight: np.ndarray
    edge_weight: np.ndarray
    pin_offsets: np.ndarray
    pin_list: np.ndarray
    inc_offsets: np.ndarray
    inc_list: np.ndarray

    @classmethod
    def from_edges(cls, pins, n=None, vertex_weight=None, edge_weight=None) -> "Hypergraph":
        """Build from a list of pin lists.  Pins are deduplicated and sorted."""
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

        if vertex_weight is None:
            vertex_weight = np.ones(n, dtype=np.int64)
        else:
            vertex_weight = np.asarray(vertex_weight, dtype=np.int64)
            if vertex_weight.shape != (n,):
                raise ValueError("vertex_weight length mismatch")
        if edge_weight is None:
            edge_weight = np.ones(m, dtype=np.int64)
        else:
            edge_weight = np.asarray(edge_weight, dtype=np.int64)
            if edge_weight.shape != (m,):
                raise ValueError("edge_weight length mismatch")
        if np.any(vertex_weight < 1) or np.any(edge_weight < 1):
            raise ValueError("weights must be >= 1")

        sizes = np.fromiter((len(e) for e in cleaned), dtype=np.int64, count=m)
        pin_offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(sizes, out=pin_offsets[1:])
        pin_list = np.fromiter(
            (v for e in cleaned for v in e), dtype=np.int64, count=int(pin_offsets[-1])
        )
        inc_offsets, inc_list = _transpose(n, m, pin_offsets, pin_list)
        return cls(n, m, vertex_weight, edge_weight, pin_offsets, pin_list, inc_offsets, inc_list)

    def edge_pins(self, e: int) -> np.ndarray:
        return self.pin_list[self.pin_offsets[e]:self.pin_offsets[e + 1]]

    def vertex_edges(self, v: int) -> np.ndarray:
        return self.inc_list[self.inc_offsets[v]:self.inc_offsets[v + 1]]

    def edge_sizes(self) -> np.ndarray:
        return np.diff(self.pin_offsets)

    @property
    def total_weight(self) -> int:
        return int(self.vertex_weight.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and np.array_equal(self.vertex_weight, other.vertex_weight)
            and np.array_equal(self.edge_weight, other.edge_weight)
            and np.array_equal(self.pin_offsets, other.pin_offsets)
            and np.array_equal(self.pin_list, other.pin_list)
        )


def _transpose(n, m, pin_offsets, pin_list):
    """Per-vertex incidence lists from the per-edge pin lists."""
    edge_ids = np.repeat(np.arange(m, dtype=np.int64), np.diff(pin_offsets))
    order = np.argsort(pin_list, kind="stable")  # stable keeps edge ids ascending
    counts = np.bincount(pin_list, minlength=n)
    inc_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=inc_offsets[1:])
    inc_list = edge_ids[order]
    return inc_offsets, inc_list


# ---------------------------------------------------------------------------
# hMetis .hgr parsing

_VALID_FMT = {0, 1, 10, 11}


def _int_tokens(raw: str, lineno: int) -> list[int]:
    out = []
    for tok in raw.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise HgrFormatError(f"expected integer, got {tok!r}", lineno) from None
    return out


def parse_hmetis(text: str) -> Hypergraph:
    """Parse hMetis .hgr text.

    The header is ``m n [fmt]`` with fmt in {1, 10, 11}: 1 and 11 put a weight
    at the start of each hyperedge line, 10 and 11 append n vertex-weight
    lines.  File ids are 1-based; '%' lines are comments.  Duplicate pins are
    deduplicated; single-pin hyperedges are kept.  Fewer or more data lines
    than the header declares raise ``HgrFormatError``.
    """
    if isinstance(text, bytes):
        text = text.decode()
    # (lineno, content) for non-comment, non-blank lines
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if not rows:
        raise HgrFormatError("empty input")

    lineno, header = rows[0]
    head = _int_tokens(header, lineno)
    if len(head) not in (2, 3):
        raise HgrFormatError("header must be 'm n' or 'm n fmt'", lineno)
    m, n = head[0], head[1]
    fmt = head[2] if len(head) == 3 else 0
    if m < 0 or n < 0:
        raise HgrFormatError("negative counts in header", lineno)
    if fmt not in _VALID_FMT:
        raise HgrFormatError(f"unsupported fmt {fmt}", lineno)
    has_edge_weights = fmt in (1, 11)
    has_vertex_weights = fmt in (10, 11)

    body = rows[1:]
    expected = m + (n if has_vertex_weights else 0)
    if len(body) < expected:
        last = body[-1][0] if body else lineno
        raise HgrFormatError(
            f"truncated file: expected {expected} data lines, found {len(body)}", last
        )
    if len(body) > expected:
        raise HgrFormatError(
            f"surplus data: expected {expected} data lines, found {len(body)}",
            body[expected][0],
        )

    pins: list[list[int]] = []
    edge_weight = np.ones(m, dtype=np.int64)
    for e in range(m):
        lno, raw = body[e]
        vals = _int_tokens(raw, lno)
        if has_edge_weights:
            if not vals:
                raise HgrFormatError("missing hyperedge weight", lno)
            w, vals = vals[0], vals[1:]
            if w < 1:
                raise HgrFormatError(f"nonpositive hyperedge weight {w}", lno)
            edge_weight[e] = w
        if not vals:
            raise HgrFormatError("hyperedge has no pins", lno)
        for v in vals:
            if v < 1 or v > n:
                raise HgrFormatError(f"pin {v} out of range 1..{n}", lno)
        pins.append([v - 1 for v in vals])

    vertex_weight = np.ones(n, dtype=np.int64)
    if has_vertex_weights:
        for v in range(n):
            lno, raw = body[m + v]
            vals = _int_tokens(raw, lno)
            if len(vals) != 1:
                raise HgrFormatError("vertex weight line must hold one integer", lno)
            if vals[0] < 1:
                raise HgrFormatError(f"nonpositive vertex weight {vals[0]}", lno)
            vertex_weight[v] = vals[0]

    return Hypergraph.from_edges(pins, n=n, vertex_weight=vertex_weight, edge_weight=edge_weight)


def write_hmetis(h: Hypergraph) -> str:
    """Serialize back to .hgr text; parse(write(h)) reproduces h."""
    has_ew = bool(np.any(h.edge_weight != 1))
    has_vw = bool(np.any(h.vertex_weight != 1))
    fmt = (1 if has_ew else 0) + (10 if has_vw else 0)
    header = f"{h.m} {h.n}" + (f" {fmt}" if fmt else "")
    lines = [header]
    for e in range(h.m):
        pins = " ".join(str(v + 1) for v in h.edge_pins(e))
        if has_ew:
            lines.append(f"{h.edge_weight[e]} {pins}")
        else:
            lines.append(pins)
    if has_vw:
        lines.extend(str(w) for w in h.vertex_weight)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Balance constraint

@dataclass(frozen=True)
class BalanceSpec:
    """The weight cap of every block: (1 + epsilon) * ceil(total_weight / k)."""

    k: int
    epsilon: float
    cap: float

    @classmethod
    def from_total(cls, total: int, k: int, epsilon: float) -> "BalanceSpec":
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= epsilon < math.inf:  # NaN fails too
            raise ValueError("epsilon must be finite and >= 0")
        avg = -(-int(total) // k)  # integer ceiling before applying the slack
        return cls(k, float(epsilon), float((1.0 + epsilon) * avg))

    @classmethod
    def for_hypergraph(cls, h: Hypergraph, k: int, epsilon: float) -> "BalanceSpec":
        return cls.from_total(h.total_weight, k, epsilon)


def epsilon_from_ubfactor(ubfactor: float, k: int) -> float:
    """Convert an hMetis-style UBfactor into the relative slack epsilon.

    epsilon = ((50 + UBfactor) / 100) ** log2(k) * k - 1
    """
    if not 0 < ubfactor < 50:
        raise ValueError("UBfactor must lie in (0, 50)")
    if k < 2:
        raise ValueError("k must be >= 2")
    return ((50.0 + ubfactor) / 100.0) ** math.log2(k) * k - 1.0


_DEFAULT_EPS = {2: 0.04, 3: 0.06, 4: 0.08}


def default_epsilon(k: int) -> float:
    """Default balance slack: 0.04/0.06/0.08 for k=2/3/4, 0.02 beyond."""
    return _DEFAULT_EPS.get(k, 0.02)


# ---------------------------------------------------------------------------
# Partitions

class Partition:
    """Vertex-to-block assignment with cached block weights, cutsize and pin counts.

    ``pin_count[e, b]`` is the number of pins of hyperedge e in block b
    (int64, shape m x k); every km1 move gain is read from it.  All caches
    always match ``assignment``, and only ``move`` mutates them.
    """

    __slots__ = ("h", "k", "assignment", "block_weight", "cutsize", "pin_count")

    def __init__(self, h: Hypergraph, assignment, k: int):
        assignment = np.asarray(assignment, dtype=np.int64)
        if assignment.shape != (h.n,):
            raise PartitionFormatError(
                f"assignment length {assignment.shape} does not match n={h.n}"
            )
        if h.n and (assignment.min() < 0 or assignment.max() >= k):
            raise PartitionFormatError(f"block ids must lie in 0..{k - 1}")
        self.h = h
        self.k = int(k)
        self.assignment = assignment.copy()
        self.block_weight = np.bincount(
            assignment, weights=h.vertex_weight, minlength=k
        ).astype(np.int64)
        edge_ids = np.repeat(np.arange(h.m, dtype=np.int64), np.diff(h.pin_offsets))
        self.pin_count = np.bincount(
            edge_ids * k + assignment[h.pin_list], minlength=h.m * k
        ).reshape(h.m, k)
        spans = np.count_nonzero(self.pin_count, axis=1)
        self.cutsize = int(h.edge_weight @ (spans - 1))

    def move(self, v: int, block: int) -> int:
        """Move vertex v to `block`, updating caches.  Returns the cutsize delta.

        A block id outside 0..k-1 is a ``PartitionFormatError``, raised
        before any cache changes."""
        if not 0 <= block < self.k:
            raise PartitionFormatError(f"block id {block} out of range 0..{self.k - 1}")
        old = int(self.assignment[v])
        if block == old:
            return 0
        h = self.h
        delta = 0
        for e in h.vertex_edges(v).tolist():
            row = self.pin_count[e]
            if row[block] == 0:
                delta += int(h.edge_weight[e])
            if row[old] == 1:
                delta -= int(h.edge_weight[e])
            row[old] -= 1
            row[block] += 1
        self.assignment[v] = block
        w = int(h.vertex_weight[v])
        self.block_weight[old] -= w
        self.block_weight[block] += w
        self.cutsize += delta
        return delta

    def move_deltas(self, vertices) -> np.ndarray:
        """Cutsize deltas for moving each of `vertices` to every block.

        Row i, column t is sum_e w_e [pin_count(e, t) = 0] minus
        sum_e w_e [pin_count(e, src) = 1] over the nets e of vertices[i],
        where src is its current block; the src column is 0.
        """
        h = self.h
        vertices = np.asarray(vertices, dtype=np.int64)
        starts = h.inc_offsets[vertices]
        degrees = h.inc_offsets[vertices + 1] - starts
        bounds = np.zeros(vertices.shape[0] + 1, dtype=np.int64)
        np.cumsum(degrees, out=bounds[1:])
        # the incident nets of all vertices, concatenated in order
        edges = h.inc_list[np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], degrees)]
        src = np.repeat(self.assignment[vertices], degrees)
        w = h.edge_weight[edges]
        pc = self.pin_count[edges]
        per_net = w[:, None] * (pc == 0)
        per_net -= (w * (pc[np.arange(edges.shape[0]), src] == 1))[:, None]
        # per-vertex sums as differences of running sums over the nets
        running = np.zeros((edges.shape[0] + 1, self.k), dtype=np.int64)
        np.cumsum(per_net, axis=0, out=running[1:])
        out = running[bounds[1:]] - running[bounds[:-1]]
        out[np.arange(vertices.shape[0]), self.assignment[vertices]] = 0
        return out

    def copy(self) -> "Partition":
        p = Partition.__new__(Partition)
        p.h = self.h
        p.k = self.k
        p.assignment = self.assignment.copy()
        p.block_weight = self.block_weight.copy()
        p.cutsize = self.cutsize
        p.pin_count = self.pin_count.copy()
        return p


def km1_value(h: Hypergraph, assignment: np.ndarray, k: int) -> int:
    """Connectivity-1 cutsize of a raw assignment array, as ``Partition``
    computes it; a block id outside 0..k-1 is a ``PartitionFormatError``."""
    return Partition(h, assignment, k).cutsize


def is_feasible(p: Partition, spec: BalanceSpec) -> bool:
    """True when every block weight is within the cap."""
    if p.k != spec.k:
        raise ValueError("partition and balance spec disagree on k")
    return bool(np.all(p.block_weight <= spec.cap))


def read_partition(text: str, h: Hypergraph, k: int) -> Partition:
    """Read a partition file: one block id per line, n lines."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != h.n:
        raise PartitionFormatError(f"expected {h.n} lines, found {len(lines)}")
    try:
        values = [int(ln) for ln in lines]
    except ValueError as exc:
        raise PartitionFormatError(f"non-integer block id: {exc}") from None
    for i, b in enumerate(values):
        if not 0 <= b < k:
            raise PartitionFormatError(f"line {i + 1}: block id {b} out of range 0..{k - 1}")
    return Partition(h, np.array(values, dtype=np.int64), k)


def write_partition(p: Partition) -> str:
    return "\n".join(str(int(b)) for b in p.assignment) + "\n"
