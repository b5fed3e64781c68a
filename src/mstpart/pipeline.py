"""End-to-end k-way partitioning.

Coarsens the hypergraph, generates embedding-driven initial partitions on
the coarsest level and repairs each, keeps the best, pairwise-improves that
one once, and projects it back up with FM refinement at every level.  A
partition that is still infeasible is repaired after each projection, and
FM runs once it is feasible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .apg import ApgParams, minimize, seeded_features
from .coarsen import coarsen
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
    """Everything the pipeline and its refiners can vary, with working defaults."""

    num_init: int = 10
    lambda1: tuple = (0.9, 0.5, 0.15, 0.015)
    lambda2: tuple = (1.0, 0.9, 0.8)
    xi1: tuple = (0.5, 0.15)
    xi2: tuple = (1.0, 0.8, 0.2)
    tau: float = 0.2
    p_rules: tuple = ("sqrt", "linear")
    p_override: int | None = None
    coarsest_factor: int = 625
    pair_rounds: int = 5
    apg: ApgParams = field(default_factory=ApgParams)


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


def _checked(config: PipelineConfig | None, spec: BalanceSpec) -> PipelineConfig:
    """The config, or the defaults; out-of-range counts and a NaN ``tau``
    raise ``ValueError``."""
    config = config or PipelineConfig()
    if config.num_init < 1:
        raise ValueError(f"num_init must be >= 1, got {config.num_init}")
    if config.pair_rounds < 0:
        raise ValueError(f"pair_rounds must be >= 0, got {config.pair_rounds}")
    if np.isnan(config.tau):
        raise ValueError("tau must not be NaN")
    if config.p_override is not None and config.p_override < spec.k:
        raise ValueError(
            f"p_override must be >= k ({spec.k}), got {config.p_override}"
        )
    return config


def _build_candidate(i, h, spec, clique, config):
    combos = [(l1, l2) for l1 in config.lambda1 for l2 in config.lambda2]
    lam1, lam2 = combos[i % len(combos)]
    op = ObjectiveOperator.embedding(clique, h.vertex_weight, lam1, lam2)
    X = minimize(op, seeded_features(h.n, spec.k, stream=i), config.apg).X
    best_part, best_p = None, None
    for p in _p_choices(h.n, spec.k, config.p_rules, config.p_override):
        part = _route_partition(X, h, spec, p, config.tau)
        if best_part is None or part.cutsize < best_part.cutsize:
            best_part, best_p = part, p
    part, _ = repair_feasibility(h, best_part, spec)
    return part, CandidateReport(
        lam1, lam2, best_p, part.cutsize, is_feasible(part, spec)
    )


def run_pipeline(
    h: Hypergraph, spec: BalanceSpec, config: PipelineConfig | None = None
) -> PipelineResult:
    """Partition ``h`` into ``spec.k`` blocks.

    The returned partition always covers every vertex; ``feasible`` reports
    whether all block weights ended within their caps.
    """
    config = _checked(config, spec)
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
        results = [
            _build_candidate(i, coarse, spec, clique, config)
            for i in range(config.num_init)
        ]
        parts = [r[0] for r in results]
        reports = [r[1] for r in results]
    chosen = min(
        range(len(parts)),
        key=lambda i: (not reports[i].feasible, parts[i].cutsize, i),
    )
    part = pairwise_improve(coarse, parts[chosen], spec, config, clique=clique)
    timings["initial"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    feasible = is_feasible(part, spec)
    for li in range(len(hierarchy.levels) - 1, -1, -1):
        finer = hierarchy.levels[li - 1].hypergraph if li > 0 else h
        part = _project(hierarchy.levels[li], part, finer)
        if not feasible:
            part, feasible = repair_feasibility(finer, part, spec)
        if feasible:
            part = kway_fm(finer, part, spec)
    if not hierarchy.levels and feasible:
        part = kway_fm(h, part, spec)
    timings["uncoarsen"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    return PipelineResult(
        part, is_feasible(part, spec), part.cutsize, timings,
        len(hierarchy), reports,
    )


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
    config = _checked(config, spec)
    before = p.cutsize
    needed_repair = not is_feasible(p, spec)
    part, repair_ok = repair_feasibility(h, p, spec)
    part = pairwise_improve(h, part, spec, config)
    if is_feasible(part, spec):
        part = kway_fm(h, part, spec)
    report = {
        "cutsize_before": before,
        "cutsize_after": part.cutsize,
        "repaired": needed_repair,
        "repair_ok": repair_ok,
        "feasible": is_feasible(part, spec),
    }
    return part, report
