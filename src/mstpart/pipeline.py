"""End-to-end k-way partitioning.

Coarsens the hypergraph, generates embedding-driven initial partitions on
the coarsest level (their embeddings solved as one stack) and repairs each,
keeps the best, pairwise-improves that one once, and projects it back up
with FM refinement at every level.  A partition that is still infeasible is
repaired after each projection, and FM runs once it is feasible; the walk
is ``_uncoarsen``, and ``improve_partition`` ends with it over no levels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .apg import ApgParams, minimize, seeded_features
from .coarsen import Hierarchy, coarsen
from .coarsen import project_partition as _project
from .hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
from .initial import _p_choices, _route_partition
from .operators import ObjectiveOperator, clique_expand
from .refine import kway_fm, pairwise_improve, repair_feasibility

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "CandidateReport",
    "run_pipeline",
    "improve_partition",
]


@dataclass
class PipelineConfig:
    """Everything the pipeline and its refiners can vary, with working defaults.

    Each entry of ``p`` is a cluster-count rule, "sqrt" for
    ceil(sqrt(n / 2)) or "linear" for ceil(n / (5 k)), or a fixed count.
    """

    num_init: int = 10
    lambda1: tuple = (0.9, 0.5, 0.15, 0.015)
    lambda2: tuple = (1.0, 0.9, 0.8)
    xi1: tuple = (0.5, 0.15)
    xi2: tuple = (1.0, 0.8, 0.2)
    p: tuple = ("sqrt", "linear")
    coarsest_factor: int = 625
    pair_rounds: int = 5
    apg: ApgParams = field(default_factory=ApgParams)

    def check(self, k: int) -> "PipelineConfig":
        """This config, once it is valid for k blocks.  A count or factor
        that is not an integer in range, an empty weight grid or one with a
        value outside [0, 1], and an empty ``p``, an unknown rule or a fixed
        count below k raise ``ValueError``."""
        for name in ("lambda1", "lambda2", "xi1", "xi2"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ValueError(f"{name} must not be empty")
            bad = [x for x in grid if not 0.0 <= x <= 1.0]  # NaN fails too
            if bad:
                raise ValueError(f"{name} values must lie in [0, 1], got {bad[0]}")
        for name, low in (("num_init", 1), ("pair_rounds", 0), ("coarsest_factor", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if len(self.p) == 0:
            raise ValueError("p must not be empty")
        for entry in self.p:
            if isinstance(entry, str):
                if entry not in ("sqrt", "linear"):
                    raise ValueError(f"p rules are 'sqrt' and 'linear', got {entry!r}")
            elif not (isinstance(entry, (int, np.integer)) and entry >= k):
                raise ValueError(f"p counts must be integers >= k ({k}), got {entry!r}")
        return self


@dataclass
class CandidateReport:
    """One initial partition: its embedding weights, its cluster count, and
    its cutsize and feasibility after ``repair_feasibility``."""

    lam1: float
    lam2: float
    p: int
    cutsize: int
    feasible: bool


@dataclass
class PipelineResult:
    partition: Partition
    feasible: bool
    cutsize: int
    timings: dict
    levels: int
    candidates: list


def _build_candidates(h, spec, clique, config):
    """The ``config.num_init`` repaired initial partitions and their reports.
    Candidate i embeds seeded start i with grid pair i (wrapping around), all
    in one stack, and keeps the first p of lowest cutsize."""
    combos = [(l1, l2) for l1 in config.lambda1 for l2 in config.lambda2]
    lams = [combos[i % len(combos)] for i in range(config.num_init)]
    op = ObjectiveOperator.embedding(clique, h.vertex_weight, lams)
    X0 = np.stack([seeded_features(h.n, spec.k, stream=i) for i in range(config.num_init)])
    ps = _p_choices(h.n, spec.k, config.p)
    parts, reports = [], []
    for (lam1, lam2), X in zip(lams, minimize(op, X0, config.apg).X):
        routed = [(_route_partition(X, h, spec, p), p) for p in ps]
        part, p = min(routed, key=lambda r: r[0].cutsize)
        part, _ = repair_feasibility(h, part, spec)
        parts.append(part)
        reports.append(CandidateReport(lam1, lam2, p, part.cutsize, is_feasible(part, spec)))
    return parts, reports


def run_pipeline(
    h: Hypergraph, spec: BalanceSpec, config: PipelineConfig | None = None
) -> PipelineResult:
    """Partition ``h`` into ``spec.k`` blocks.

    The returned partition always covers every vertex; ``feasible`` reports
    whether all block weights ended within the cap.
    """
    config = (config or PipelineConfig()).check(spec.k)
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    if spec.k == 1:
        part = Partition(h, np.zeros(h.n, dtype=np.int64), 1)
        timings["total"] = time.perf_counter() - t_start
        return PipelineResult(part, True, part.cutsize, timings, 0, [])

    t0 = time.perf_counter()
    hierarchy = coarsen(h, spec, coarsest_factor=config.coarsest_factor)
    coarse = hierarchy.coarsest(h)
    timings["coarsen"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    clique = clique_expand(coarse)

    if coarse.n <= spec.k:
        # too few supervertices to embed meaningfully; spread them out
        part = Partition(coarse, np.arange(coarse.n, dtype=np.int64), spec.k)
        part, _ = repair_feasibility(coarse, part, spec)
        parts = [part]
        reports = [
            CandidateReport(0.0, 0.0, coarse.n, part.cutsize, is_feasible(part, spec))
        ]
    else:
        parts, reports = _build_candidates(coarse, spec, clique, config)
    chosen = min(
        range(len(parts)),
        key=lambda i: (not reports[i].feasible, parts[i].cutsize, i),
    )
    part = pairwise_improve(coarse, parts[chosen], spec, config, clique=clique)
    timings["initial"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    part = _uncoarsen(h, hierarchy, part, spec)
    timings["uncoarsen"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    return PipelineResult(
        part, is_feasible(part, spec), part.cutsize, timings,
        len(hierarchy), reports,
    )


def _uncoarsen(h, hierarchy, part, spec) -> Partition:
    """Project ``part`` from the coarsest level of ``hierarchy`` down to
    ``h``.  After each projection a partition that is still infeasible is
    repaired, and FM refines it once it is feasible.  With no levels, FM
    refines ``part`` on ``h`` itself when it is feasible."""
    feasible = is_feasible(part, spec)
    levels = hierarchy.levels
    for li in range(len(levels) - 1, -1, -1):
        finer = levels[li - 1].hypergraph if li > 0 else h
        part = _project(levels[li], part, finer)
        if not feasible:
            part, feasible = repair_feasibility(finer, part, spec)
        if feasible:
            part = kway_fm(finer, part, spec)
    if not levels and feasible:
        part = kway_fm(h, part, spec)
    return part


def improve_partition(
    h: Hypergraph,
    p: Partition,
    spec: BalanceSpec,
    config: PipelineConfig | None = None,
) -> tuple[Partition, dict]:
    """Repair, pairwise-improve, and FM-refine an existing partition.

    Returns the refined partition and a report with before/after cutsizes,
    whether a repair was needed, and final feasibility.  Cutsize never
    increases when the input is already feasible.
    """
    config = (config or PipelineConfig()).check(spec.k)
    before = p.cutsize
    needed_repair = not is_feasible(p, spec)
    part, repair_ok = repair_feasibility(h, p, spec)
    part = pairwise_improve(h, part, spec, config)
    part = _uncoarsen(h, Hierarchy(), part, spec)
    report = {
        "cutsize_before": before,
        "cutsize_after": part.cutsize,
        "repaired": needed_repair,
        "repair_ok": repair_ok,
        "feasible": is_feasible(part, spec),
    }
    return part, report
