"""What the benchmark in perfbench/ needs from the library.

perfbench/run.py builds a PipelineConfig from every workload's field table,
and perfbench/tracer.py wraps library functions by the names their callers
look up.  A renamed field or a changed import breaks the benchmark without
failing any other test, so these tests drive both files as the benchmark
does.  They only read perfbench/.
"""

import sys
from pathlib import Path

import pytest

import mstpart
from mstpart.apg import ApgParams
from mstpart.hypergraph import (
    BalanceSpec,
    Partition,
    default_epsilon,
    is_feasible,
    parse_hmetis,
)
from mstpart.pipeline import PipelineConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPANS = (
    "pipeline.run_pipeline", "coarsen", "apg.embed", "apg.pair", "initial.mst",
    "refine.repair", "refine.pairwise", "refine.bipartition", "refine.fm",
    "pipeline.improve_partition",
)
LEAVES = ("operators.apply.embed", "operators.apply.pair", "hypergraph.move")


def config_of(w):
    """The PipelineConfig that perfbench/run.py builds for workload ``w``."""
    cfg = dict(w.config)
    if "apg_max_iters" in cfg:
        cfg["apg"] = ApgParams(max_iters=cfg.pop("apg_max_iters"))
    return PipelineConfig(**cfg)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_build(name):
    w = workloads.WORKLOADS[name]
    config = config_of(w)
    for field, value in w.config.items():
        if field == "apg_max_iters":
            assert config.apg.max_iters == value
        else:
            assert getattr(config, field) == value


def small_instance(name, n, **changes):
    """A smaller instance of a benchmark workload, with its config."""
    base = workloads.WORKLOADS[name]
    w = workloads.Workload(**{**vars(base), "n": n, "instances": 1})
    inst = workloads.generate(w, seed=1, index=0)
    h = parse_hmetis(inst.hgr)
    spec = BalanceSpec.for_hypergraph(h, w.k, default_epsilon(w.k))
    config = config_of(w)
    for field, value in changes.items():
        setattr(config, field, value)
    return w, inst, h, spec, config


def _bindings():
    """Every name of the mstpart modules and of the two traced classes."""
    owners = [
        mstpart.apg, mstpart.coarsen, mstpart.hypergraph, mstpart.initial,
        mstpart.operators, mstpart.pipeline, mstpart.refine,
        mstpart.operators.ObjectiveOperator, mstpart.hypergraph.Partition,
    ]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_tracer_records_every_layer_and_uninstalls():
    # small enough to run in seconds, large enough to coarsen once at k = 2
    _, _, h, spec, config = small_instance(
        "pipeline-k2", 160, coarsest_factor=30, apg=ApgParams(max_iters=60)
    )
    w, inst, h_imp, spec_imp, config_imp = small_instance(
        "improve-k2", 120, apg=ApgParams(max_iters=60)
    )
    start = Partition(h_imp, inst.start, w.k)
    assert not is_feasible(start, spec_imp)  # repair has work to do

    before = _bindings()
    run_pipeline = mstpart.pipeline.run_pipeline
    t = tracing.Tracer()
    tracing.install(t)
    try:
        assert mstpart.pipeline.run_pipeline is not run_pipeline
        res = mstpart.pipeline.run_pipeline(h, spec, config)
        mstpart.pipeline.improve_partition(h_imp, start, spec_imp, config_imp)
    finally:
        t.uninstall()

    assert res.levels >= 1
    recorded = {span[0] for span in t.spans}
    assert set(SPANS) <= recorded, sorted(set(SPANS) - recorded)
    leaves = {name for name, _ in t.leaves}
    assert set(LEAVES) <= leaves, sorted(set(LEAVES) - leaves)

    for owner, names in before:
        rebound = [k for k, v in names.items() if vars(owner).get(k) is not v]
        assert rebound == [], (owner, rebound)
