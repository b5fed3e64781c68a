"""End-to-end k-way partitioning.

Coarsens the hypergraph, generates embedding-driven initial partitions on
the coarsest level (their embeddings solved as one stack), refines each,
keeps the best, and projects it back up, refining it again on every level.
Every refinement is one ``_refine``: repair, which returns a feasible
partition unchanged, then FM once the partition is feasible.  The walk up
is ``_uncoarsen``.  ``improve_partition``, the one caller of the pair
solves, repairs its input, re-splits block pairs and ends with FM.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .apg import BOOLS, ApgParams, _is_count, minimize, seeded_features
from .coarsen import coarsen
from .coarsen import project_partition as _project
from .hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
from .initial import P_RULES, _route_partitions
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
    p: tuple = tuple(P_RULES)
    coarsest_factor: int = 625
    pair_rounds: int = 5
    apg: ApgParams = field(default_factory=ApgParams)

    def check(self, k: int) -> "PipelineConfig":
        """This config, once it is valid for k blocks.  A count or factor
        that is not an integer in range (a bool is not one), an empty weight
        grid or one with a bool or a value outside [0, 1], and an empty
        ``p``, an unknown rule or a fixed count below k raise ``ValueError``."""
        for name in ("lambda1", "lambda2", "xi1", "xi2"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ValueError(f"{name} must not be empty")
            bad = [x for x in grid if isinstance(x, BOOLS) or not 0.0 <= x <= 1.0]  # NaN fails too
            if bad:
                raise ValueError(f"{name} values must be numbers in [0, 1], got {bad[0]!r}")
        for name, low in (("num_init", 1), ("pair_rounds", 0), ("coarsest_factor", 1)):
            value = getattr(self, name)
            if not (_is_count(value) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if len(self.p) == 0:
            raise ValueError("p must not be empty")
        for entry in self.p:
            if isinstance(entry, str):
                if entry not in P_RULES:
                    rules = " and ".join(map(repr, P_RULES))
                    raise ValueError(f"p rules are {rules}, got {entry!r}")
            elif not (_is_count(entry) and entry >= k):
                raise ValueError(f"p counts must be integers >= k ({k}), got {entry!r}")
        return self


@dataclass
class CandidateReport:
    """One initial partition: its embedding weights, its cluster count, and
    its cutsize and feasibility after repair and FM (``_refine``).

    ``p`` is the pruned count, the number of heaviest tree edges cut first
    plus one; splitting the clusters heavier than the merge cap can leave
    more clusters than that."""

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


def _refine(h, part, spec):
    """``part`` repaired and, once feasible, FM-refined, with its feasibility."""
    part, feasible = repair_feasibility(h, part, spec)
    return (kway_fm(h, part, spec) if feasible else part), feasible


def _build_candidates(h, spec, clique, config):
    """The ``config.num_init`` refined initial partitions and their reports.
    Candidate i embeds seeded start i with grid pair i (wrapping around), all in
    one stack, and keeps the first count of lowest (not feasible, cutsize).
    Each distinct partition is refined once: a count whose partition an
    earlier count already gave shares that refinement."""
    combos = [(l1, l2) for l1 in config.lambda1 for l2 in config.lambda2]
    lams = [combos[i % len(combos)] for i in range(config.num_init)]
    op = ObjectiveOperator.embedding(clique, h.vertex_weight, lams)
    X0 = np.stack([seeded_features(h.n, spec.k, stream=i) for i in range(config.num_init)])
    parts, reports, done = [], [], {}
    for (lam1, lam2), X in zip(lams, minimize(op, X0, config.apg).X):
        refined = []
        for part, p in _route_partitions(X, h, spec, config.p):
            key = part.assignment.tobytes()
            if key not in done:
                done[key] = _refine(h, part, spec)
            refined.append((*done[key], p))
        part, feasible, p = min(refined, key=lambda r: (not r[1], r[0].cutsize))
        parts.append(part)
        reports.append(CandidateReport(lam1, lam2, p, part.cutsize, feasible))
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
    if coarse.n <= spec.k:
        # too few supervertices to embed meaningfully; spread them out
        part, feasible = _refine(coarse, Partition(coarse, np.arange(coarse.n), spec.k), spec)
        parts, reports = [part], [CandidateReport(0.0, 0.0, coarse.n, part.cutsize, feasible)]
    else:
        parts, reports = _build_candidates(coarse, spec, clique_expand(coarse), config)
    # the first of the lowest (not feasible, cutsize)
    _, part = min(zip(reports, parts), key=lambda rp: (not rp[0].feasible, rp[0].cutsize))
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
    ``h``, refining it on each level with ``_refine``."""
    levels = hierarchy.levels
    for li in range(len(levels) - 1, -1, -1):
        finer = levels[li - 1].hypergraph if li > 0 else h
        part, _ = _refine(finer, _project(levels[li], part, finer), spec)
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
