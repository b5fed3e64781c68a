"""Seeded planted-block hypergraphs and the three benchmark workloads.

The generator follows the circuit statistics used by hMetis and KaHyPar:
vertices are sorted into planted groups, each net has a home group, its size
is 2 plus a geometric draw (mean about 3.6 pins, as in ISPD98 ibm01, capped
at 40) and each pin comes from the home group with probability 0.92, else
from anywhere.  Instances are written as hMetis text; the partitioner only
ever sees that text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

MEAN_NET_SIZE = 3.6
MAX_NET_SIZE = 40
HOME_PROB = 0.92


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # vertices, and as many nets
    groups: int  # planted groups of consecutive vertex ids
    k: int
    max_weight: int  # vertex weights are uniform in 1..max_weight
    entry: str  # "run_pipeline" or "improve_partition"
    config: dict  # PipelineConfig fields; "apg_max_iters" sets ApgParams
    instances: int  # distinct instances per run, solved round robin


WORKLOADS = {
    w.name: w
    for w in (
        # near-default run_pipeline: coarse-level APG pair solves dominate.
        # coarsest_factor is scaled down with n, so the small instances still
        # coarsen (over two levels) instead of stopping at 625 * k vertices
        Workload("pipeline-k2", n=700, groups=8, k=2, max_weight=1,
                 entry="run_pipeline",
                 config={"num_init": 2, "pair_rounds": 1, "coarsest_factor": 175},
                 instances=9),
        # quick settings, more blocks: fine-level FM and coarse repair dominate
        Workload("quick-k4", n=1300, groups=16, k=4, max_weight=1,
                 entry="run_pipeline",
                 config={"num_init": 1, "pair_rounds": 1, "apg_max_iters": 100,
                         "coarsest_factor": 100},
                 instances=14),
        # refining an overweight split: full-size pair solves, fine-level repair
        Workload("improve-k2", n=800, groups=8, k=2, max_weight=3,
                 entry="improve_partition", config={"pair_rounds": 1},
                 instances=6),
    )
}


@dataclass
class Instance:
    hgr: str  # hMetis text, the only thing handed to the partitioner
    n: int
    pins: list  # 0-based pin arrays, one per net, for the independent check
    vertex_weight: np.ndarray
    planted: np.ndarray  # planted block of every vertex
    start: np.ndarray | None  # starting assignment for improve_partition

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.hgr.encode()).hexdigest()

    @property
    def planted_km1(self) -> int:
        return self.km1(self.planted)

    def km1(self, assignment) -> int:
        """Connectivity-1 cutsize (unit net weights), computed from scratch."""
        return sum(len(set(assignment[p].tolist())) - 1 for p in self.pins)


def generate(w: Workload, seed: int, index: int) -> Instance:
    """Instance ``index`` of workload ``w`` for ``seed``: n nets over n vertices."""
    rng = np.random.default_rng([seed, index, w.n, w.groups, w.k])
    n = m = w.n
    group = np.arange(n) * w.groups // n
    starts = np.searchsorted(group, np.arange(w.groups + 1))
    home = rng.integers(0, w.groups, size=m)
    # 2 plus a geometric draw on 0, 1, 2, ... with mean MEAN_NET_SIZE - 2
    sizes = np.minimum(
        1 + rng.geometric(1.0 / (MEAN_NET_SIZE - 1.0), size=m), MAX_NET_SIZE
    )
    pins = []
    for e in range(m):
        lo, hi = starts[home[e]], starts[home[e] + 1]
        chosen: set[int] = set()
        while len(chosen) < sizes[e]:
            if rng.random() < HOME_PROB:
                chosen.add(int(rng.integers(lo, hi)))
            else:
                chosen.add(int(rng.integers(0, n)))
        pins.append(np.array(sorted(chosen), dtype=np.int64))
    vw = rng.integers(1, w.max_weight + 1, size=n)
    planted = group * w.k // w.groups

    lines = [f"{m} {n}" + (" 10" if w.max_weight > 1 else "")]
    lines += [" ".join(str(v + 1) for v in p) for p in pins]
    if w.max_weight > 1:
        lines += [str(int(x)) for x in vw]
    hgr = "\n".join(lines) + "\n"

    start = None
    if w.entry == "improve_partition":
        # enlarge block 0 by 10% of n/k with the lowest ids of block 1
        start = planted.copy()
        first1 = int(np.argmax(planted == 1))
        start[first1:first1 + (n // w.k) // 10] = 0
    return Instance(hgr, n, pins, vw, planted, start)

