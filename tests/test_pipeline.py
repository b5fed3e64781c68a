import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mstpart.pipeline as pipeline
from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
from mstpart.operators import ObjectiveOperator
from mstpart.pipeline import CandidateReport, PipelineConfig, improve_partition, run_pipeline

from helpers import km1_oracle, random_hypergraph, two_cluster_hypergraph


def quick_config(**kw):
    kw.setdefault("num_init", 3)
    return PipelineConfig(**kw)


def test_two_cliques_find_unit_cut():
    pins, weights = [], []
    for group in (range(5), range(5, 10)):
        members = list(group)
        pins.append(members)
        weights.append(10)
        for i in members:
            for j in members:
                if i < j:
                    pins.append([i, j])
                    weights.append(3)
    pins.append([4, 5])
    weights.append(1)
    h = Hypergraph.from_edges(pins, edge_weight=weights)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    res = run_pipeline(h, spec, quick_config())
    assert res.feasible
    assert res.cutsize == 1
    sides = {frozenset(np.where(res.partition.assignment == b)[0].tolist()) for b in (0, 1)}
    assert sides == {frozenset(range(5)), frozenset(range(5, 10))}


def test_k1_trivial():
    rng = np.random.default_rng(0)
    h = random_hypergraph(rng, 12, 18)
    spec = BalanceSpec.for_hypergraph(h, 1, 0.0)
    res = run_pipeline(h, spec)
    assert res.feasible and res.cutsize == 0
    assert np.all(res.partition.assignment == 0)
    assert res.levels == 0 and "coarsen" not in res.timings


def test_num_init_below_one_is_rejected():
    h = Hypergraph.from_edges([[0, 1], [1, 2]])
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    with pytest.raises(ValueError, match="num_init"):
        run_pipeline(h, spec, quick_config(num_init=0))


# explicit ids, so that deleting a case renames no other
@pytest.mark.parametrize("field, value", [
    pytest.param("pair_rounds", -1, id="pair_rounds--1"),
    pytest.param("p", (), id="p-empty"),
    pytest.param("p", ("cube",), id="p-cube"),
    pytest.param("p", (0,), id="p-0"),
    pytest.param("p", (-5,), id="p--5"),
    pytest.param("p", (1,), id="p-1"),  # below k = 2
    pytest.param("num_init", 0, id="num_init-0"),
    pytest.param("lambda1", (), id="lambda1-value5"),
    pytest.param("lambda2", (), id="lambda2-value6"),
    pytest.param("xi1", (), id="xi1-value7"),
    pytest.param("xi2", (), id="xi2-value8"),
    pytest.param("lambda1", (0.5, 1.5), id="lambda1-value9"),
    pytest.param("lambda2", (-0.1,), id="lambda2-value10"),
    pytest.param("lambda1", (float("nan"),), id="lambda1-value11"),
    pytest.param("xi1", (2.0,), id="xi1-value12"),
    pytest.param("xi2", (0.8, float("nan")), id="xi2-value13"),
    pytest.param("num_init", 1.5, id="num_init-1.5"),
    pytest.param("pair_rounds", 1.5, id="pair_rounds-1.5"),
    pytest.param("coarsest_factor", 0, id="coarsest_factor-0"),
    pytest.param("coarsest_factor", -3, id="coarsest_factor--3"),
    pytest.param("coarsest_factor", 2.5, id="coarsest_factor-2.5"),
    pytest.param("num_init", True, id="num_init-True"),  # a bool is not a count
    pytest.param("pair_rounds", True, id="pair_rounds-True"),
    pytest.param("pair_rounds", False, id="pair_rounds-False"),
    pytest.param("coarsest_factor", True, id="coarsest_factor-True"),
    pytest.param("p", (True,), id="p-True"),
    pytest.param("lambda1", (True,), id="lambda1-True"),  # nor a weight
    pytest.param("xi2", (False,), id="xi2-False"),
    pytest.param("lambda2", (0.5, np.True_), id="lambda2-np.True_"),
])
def test_out_of_range_config_is_rejected(field, value):
    h = Hypergraph.from_edges([[0, 1], [1, 2], [2, 3]])
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    config = quick_config(**{field: value})
    with pytest.raises(ValueError, match=field):
        run_pipeline(h, spec, config)
    with pytest.raises(ValueError, match=field):
        improve_partition(h, Partition(h, [0, 0, 1, 1], 2), spec, config)


@pytest.mark.parametrize("p", [(True,), ("sqrt", np.True_)])
def test_a_bool_is_not_a_fixed_count(p):
    # True equals 1, a count that k = 1 would accept
    assert PipelineConfig(p=(1,)).check(1).p == (1,)
    with pytest.raises(ValueError, match="p counts"):
        PipelineConfig(p=p).check(1)


@pytest.mark.parametrize("field, value", [("xi1", (2.0,)), ("lambda1", (1.5,))])
def test_weight_grids_are_checked_where_they_are_not_read(field, value):
    # no pairwise rounds, and a coarsest level that is spread, not embedded
    h = Hypergraph.from_edges([[0, 1], [1, 2]], n=3)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.0)
    config = quick_config(pair_rounds=0, **{field: value})
    with pytest.raises(ValueError, match=field):
        run_pipeline(h, spec, config)
    with pytest.raises(ValueError, match=field):
        improve_partition(h, Partition(h, [0, 1, 2], 3), spec, config)


def record_calls(monkeypatch, owner, name):
    """The arguments and result of every call to ``owner.name``, which still runs."""
    calls = []
    real = getattr(owner, name)

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(owner, name, recording)
    return calls


def candidate_instance(k):
    rng = np.random.default_rng([11, k])
    h = random_hypergraph(rng, 60, 100, max_edge_size=4)
    return h, BalanceSpec.for_hypergraph(h, k, 0.05)


@pytest.mark.parametrize("k", [2, 3])
def test_run_pipeline_runs_no_pair_solve(monkeypatch, k):
    pairwise = record_calls(monkeypatch, pipeline, "pairwise_improve")
    built = record_calls(monkeypatch, ObjectiveOperator, "pair_refinement")
    h, spec = candidate_instance(k)
    config = quick_config(pair_rounds=1)
    res = run_pipeline(h, spec, config)
    assert res.feasible and len(res.candidates) == 3
    assert pairwise == [] and built == []
    # improve_partition still re-splits block pairs, through the same hooks
    improve_partition(h, Partition(h, np.arange(h.n) % k, k), spec, config)
    assert len(pairwise) == 1 and len(built) >= 1


@pytest.mark.parametrize("k", [2, 3])
def test_the_chosen_candidate_has_the_least_refined_cut(monkeypatch, k):
    built = record_calls(monkeypatch, pipeline, "_build_candidates")
    fm = record_calls(monkeypatch, pipeline, "kway_fm")
    started = record_calls(monkeypatch, pipeline, "_uncoarsen")
    h, spec = candidate_instance(k)
    res = run_pipeline(h, spec, quick_config(num_init=6))
    [(_, (parts, reports))] = built
    assert res.candidates == reports
    assert len({r.cutsize for r in reports}) > 1  # the choice is not a tie
    refined = [out for _, out in fm]
    for part, report in zip(parts, reports, strict=True):
        assert report.cutsize == part.cutsize
        assert report.feasible == is_feasible(part, spec)
        if report.feasible:  # FM's own output, not the repaired input
            assert any(part is out for out in refined)
    chosen = min(range(len(parts)), key=lambda i: (not reports[i].feasible, reports[i].cutsize, i))
    [((_, _, start, _), _)] = started
    assert start is parts[chosen]


def test_the_chosen_candidate_is_the_first_feasible_one_of_least_cut(monkeypatch):
    h = Hypergraph.from_edges([[i, i + 1] for i in range(5)])
    spec = BalanceSpec.for_hypergraph(h, 2, 0.0)
    parts = [Partition(h, a, 2) for a in ([0] * 5 + [1], [0, 1] * 3, [1, 0] * 3)]
    reports = [CandidateReport(0.9, 1.0, 2, p.cutsize, is_feasible(p, spec)) for p in parts]
    assert [(r.cutsize, r.feasible) for r in reports] == [(1, False), (5, True), (5, True)]
    monkeypatch.setattr(pipeline, "_build_candidates", lambda *args: (parts, reports))
    started = record_calls(monkeypatch, pipeline, "_uncoarsen")
    run_pipeline(h, spec, quick_config())
    [((_, _, start, _), _)] = started
    assert start is parts[1]


@pytest.mark.parametrize("k", [2, 3])
def test_the_spread_is_fm_refined(monkeypatch, k):
    # a path of k vertices spread one per block cuts k - 1 nets; a cap of 2
    # lets FM put two neighbours together
    fm = record_calls(monkeypatch, pipeline, "kway_fm")
    h = Hypergraph.from_edges([[i, i + 1] for i in range(k - 1)], n=k)
    spec = BalanceSpec.for_hypergraph(h, k, 1.0)
    assert spec.cap == 2
    res = run_pipeline(h, spec)
    [report] = res.candidates
    assert (report.p, report.feasible) == (k, True)
    assert report.cutsize == fm[0][1].cutsize < k - 1
    assert res.cutsize <= report.cutsize
    run_pipeline(h, BalanceSpec.for_hypergraph(h, 1, 0.0))
    assert len(fm) == 2  # k = 1 refines nothing


def test_planted_clusters_and_validity():
    rng = np.random.default_rng(7)
    h = two_cluster_hypergraph(rng, half=15, inner=25, cross=2)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    res = run_pipeline(h, spec, quick_config())
    assert res.feasible
    assert res.cutsize == km1_oracle(h, res.partition.assignment)
    assert np.all(res.partition.block_weight <= spec.cap)
    assert res.cutsize <= 4  # planted cut is 2: allow slack but demand locality


def test_random_instances_valid_and_reported_accurately():
    rng = np.random.default_rng(13)
    for _ in range(6):
        n = int(rng.integers(10, 40))
        k = int(rng.integers(2, 5))
        h = random_hypergraph(rng, n, 2 * n, weighted=True)
        spec = BalanceSpec.for_hypergraph(h, k, 0.1)
        res = run_pipeline(h, spec, quick_config(num_init=2))
        assert res.partition.assignment.shape == (n,)
        assert res.partition.assignment.min() >= 0
        assert res.partition.assignment.max() < k
        assert res.cutsize == km1_oracle(h, res.partition.assignment)
        assert res.feasible == bool(
            np.all(res.partition.block_weight <= spec.cap)
        )
        assert len(res.candidates) == 2


def test_multilevel_path_runs_fm_each_level():
    rng = np.random.default_rng(29)
    h = two_cluster_hypergraph(rng, half=40, inner=70, cross=3)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    res = run_pipeline(h, spec, quick_config(num_init=2, coarsest_factor=10))
    assert res.levels >= 1
    assert res.feasible
    assert res.cutsize == km1_oracle(h, res.partition.assignment)


def test_determinism_across_runs():
    rng = np.random.default_rng(51)
    h = random_hypergraph(rng, 30, 60, weighted=True)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.1)
    a = run_pipeline(h, spec, quick_config())
    b = run_pipeline(h, spec, quick_config())
    assert np.array_equal(a.partition.assignment, b.partition.assignment)
    assert a.cutsize == b.cutsize


def test_spread_fallback_when_coarse_fits_in_blocks():
    h = Hypergraph.from_edges([[0, 1], [1, 2]], n=3)
    spec = BalanceSpec.for_hypergraph(h, 3, 0.0)
    res = run_pipeline(h, spec)
    assert res.feasible
    assert sorted(res.partition.assignment.tolist()) == [0, 1, 2]


def test_improve_partition_monotone_when_feasible():
    rng = np.random.default_rng(3)
    h = two_cluster_hypergraph(rng, half=10, inner=20, cross=2)
    bad = np.arange(h.n) % 2  # alternating: badly cut but perfectly balanced
    p = Partition(h, bad, 2)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    out, report = improve_partition(h, p, spec)
    assert report["cutsize_before"] == p.cutsize
    assert out.cutsize <= p.cutsize
    assert report["cutsize_after"] == out.cutsize
    assert not report["repaired"]
    assert report["feasible"]


def test_improve_partition_repairs_infeasible_input():
    rng = np.random.default_rng(4)
    h = random_hypergraph(rng, 14, 25)
    p = Partition(h, np.zeros(14, dtype=np.int64), 2)  # everything in block 0
    spec = BalanceSpec.for_hypergraph(h, 2, 0.1)
    assert not is_feasible(p, spec)
    out, report = improve_partition(h, p, spec)
    assert report["repaired"]
    assert report["feasible"] == is_feasible(out, spec)
    assert report["feasible"]


@pytest.mark.parametrize("k, cut", [(2, 2), (4, 8)])
def test_unbalanced_coarsest_level_is_repaired_on_the_way_up(k, cut):
    # every coarse vertex weighs 32, so no coarse k-way split fits the caps;
    # a fine-level repair does, and FM then runs on the feasible partition
    n = 300
    h = Hypergraph.from_edges([list(range(n))] + [[i, i + 1] for i in range(n - 1)], n=n)
    spec = BalanceSpec.for_hypergraph(h, k, 0.04)
    res = run_pipeline(h, spec, PipelineConfig(num_init=2, pair_rounds=1, coarsest_factor=5))
    assert res.levels > 0
    assert res.feasible and is_feasible(res.partition, spec)
    assert res.cutsize == cut == km1_oracle(h, res.partition.assignment)


LEAVES_CSGRAPH_UNLOADED = """
import sys
import mstpart
from mstpart import BalanceSpec, Hypergraph, Partition, PipelineConfig
loaded = ["scipy.sparse.csgraph" in sys.modules]
h = Hypergraph.from_edges([[i, i + 1] for i in range(29)] + [[0, 15, 29]], n=30)
spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
mstpart.run_pipeline(h, spec, PipelineConfig(num_init=1))
loaded.append("scipy.sparse.csgraph" in sys.modules)
mstpart.improve_partition(h, Partition(h, [0] * 20 + [1] * 10, 2), spec, PipelineConfig())
loaded.append("scipy.sparse.csgraph" in sys.modules)
print(loaded)
"""


def test_library_runs_leave_csgraph_unloaded():
    # scipy.sparse.csgraph loads scipy.linalg, about 10 MB of resident memory
    # that no partitioner code path needs
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", LEAVES_CSGRAPH_UNLOADED],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"
