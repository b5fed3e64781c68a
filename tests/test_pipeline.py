import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mstpart.pipeline as pipeline
from mstpart.hypergraph import BalanceSpec, Hypergraph, Partition, is_feasible
from mstpart.pipeline import PipelineConfig, improve_partition, run_pipeline

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
])
def test_out_of_range_config_is_rejected(field, value):
    h = Hypergraph.from_edges([[0, 1], [1, 2], [2, 3]])
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    config = quick_config(**{field: value})
    with pytest.raises(ValueError, match=field):
        run_pipeline(h, spec, config)
    with pytest.raises(ValueError, match=field):
        improve_partition(h, Partition(h, [0, 0, 1, 1], 2), spec, config)


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


def count_pairwise_calls(monkeypatch):
    calls = []
    real = pipeline.pairwise_improve

    def counting(h, p, *args, **kwargs):
        calls.append(p.cutsize)
        return real(h, p, *args, **kwargs)

    monkeypatch.setattr(pipeline, "pairwise_improve", counting)
    return calls


@pytest.mark.parametrize("num_init", [1, 3])
def test_pairwise_runs_once_on_the_chosen_candidate(monkeypatch, num_init):
    calls = count_pairwise_calls(monkeypatch)
    rng = np.random.default_rng(7)
    h = two_cluster_hypergraph(rng, half=15, inner=25, cross=2)
    spec = BalanceSpec.for_hypergraph(h, 2, 0.04)
    res = run_pipeline(h, spec, quick_config(num_init=num_init, pair_rounds=1))
    assert len(res.candidates) == num_init
    _, chosen_cut = min((not r.feasible, r.cutsize) for r in res.candidates)
    assert calls == [chosen_cut]


def test_pairwise_runs_once_on_the_spread_and_never_for_k1(monkeypatch):
    calls = count_pairwise_calls(monkeypatch)
    h = Hypergraph.from_edges([[0, 1], [1, 2]], n=3)
    run_pipeline(h, BalanceSpec.for_hypergraph(h, 3, 0.0))
    assert len(calls) == 1
    run_pipeline(h, BalanceSpec.for_hypergraph(h, 1, 0.0), quick_config(num_init=3))
    assert len(calls) == 1


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
