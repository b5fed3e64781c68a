"""Property tests on generated small hypergraphs.

The generated instances include no nets, isolated vertices, a net over all
vertices, single-pin nets and k >= n; the ``example`` cases pin each of these
down so that every run covers them, and a vertex heavier than the cap too.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mstpart.apg import ApgParams
from mstpart.cli import main
from mstpart.hypergraph import (
    BalanceSpec,
    Hypergraph,
    Partition,
    PartitionFormatError,
    is_feasible,
    read_partition,
    write_hmetis,
    write_partition,
)
from mstpart.pipeline import PipelineConfig, improve_partition, run_pipeline
from mstpart.refine import kway_fm

from helpers import km1_oracle

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def instances(draw):
    """(nets, n, vertex weights, edge weights, k, epsilon, wanted blocks)."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(2, 8))
    nets = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 5)),
                         max_size=2 * n))
    if draw(st.booleans()):
        nets.append(list(range(n)))
    vw = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ew = draw(st.lists(st.integers(1, 4), min_size=len(nets), max_size=len(nets)))
    epsilon = draw(st.sampled_from([0.0, 0.03, 0.1, 0.5]))
    wants = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return nets, n, vw, ew, k, epsilon, wants


def build(case):
    """The hypergraph, its balance spec and a start within the caps that
    keeps each vertex in its wanted block while that fits, else puts it in
    the lightest block; None when even that block is full."""
    nets, n, vw, ew, k, epsilon, wants = case
    h = Hypergraph.from_edges(nets, n=n, vertex_weight=vw, edge_weight=ew)
    spec = BalanceSpec.for_hypergraph(h, k, epsilon)
    weight = np.zeros(k)
    assign = []
    for v, b in enumerate(wants):
        if weight[b] + vw[v] > spec.cap:
            b = int(np.argmin(weight))
            if weight[b] + vw[v] > spec.cap:
                return h, spec, None
        weight[b] += vw[v]
        assign.append(b)
    return h, spec, Partition(h, assign, k)


def assert_caches_fresh(h, p):
    fresh = Partition(h, p.assignment, p.k)
    assert np.array_equal(p.pin_count, fresh.pin_count)
    assert np.array_equal(p.block_weight, fresh.block_weight)
    assert p.cutsize == fresh.cutsize == km1_oracle(h, p.assignment)


@SETTINGS
@given(case=instances())
@example(case=([], 6, [1, 2, 1, 3, 1, 2], [], 2, 0.1, [0, 1, 0, 1, 0, 1]))  # m = 0
@example(case=([[0, 1], [1, 2]], 6, [1] * 6, [2, 1], 3, 0.0, [0, 1, 2, 0, 1, 2]))  # isolated
@example(case=([list(range(7))], 7, [1] * 7, [3], 2, 0.2, [0, 1, 0, 1, 0, 1, 0]))  # one net over all
@example(case=([[0], [1], [0, 1], [2], [2, 3]], 4, [1, 1, 2, 1], [5, 1, 2, 3, 1], 2, 0.2,
               [0, 1, 0, 1]))  # single-pin nets
@example(case=([[0, 1], [1, 2], [0, 2]], 3, [1, 1, 1], [1, 1, 1], 5, 0.0, [0, 1, 2]))  # k >= n
def test_fm_output_is_feasible_no_worse_and_consistent(case):
    h, spec, p = build(case)
    assume(p is not None)
    out = kway_fm(h, p, spec)
    assert is_feasible(out, spec)
    assert out.cutsize <= p.cutsize
    assert_caches_fresh(h, out)
    assert_caches_fresh(h, p)  # the input is untouched


@SETTINGS
@given(case=instances(), moves=st.lists(st.tuples(st.integers(0, 11), st.integers(-1, 8)),
                                        max_size=20))
def test_moves_keep_every_cache_fresh(case, moves):
    h, _, p = build(case)
    assume(p is not None)
    for v, b in moves:
        v %= h.n
        if 0 <= b < p.k:
            before = p.cutsize
            assert p.move(v, b) == p.cutsize - before
        else:
            with pytest.raises(PartitionFormatError):
                p.move(v, b)
        assert_caches_fresh(h, p)


QUICK = PipelineConfig(num_init=2, pair_rounds=1, apg=ApgParams(max_iters=50))


def assert_reported_accurately(h, spec, part, feasible, cutsize):
    assert part.assignment.shape == (h.n,)
    assert np.all((part.assignment >= 0) & (part.assignment < spec.k))
    assert feasible == is_feasible(part, spec)
    assert cutsize == part.cutsize == km1_oracle(h, part.assignment)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=instances())
@example(case=([], 6, [1, 2, 1, 3, 1, 2], [], 2, 0.1, [0, 1, 0, 1, 0, 1]))  # m = 0
@example(case=([[0, 1], [1, 2], [0, 2]], 3, [1, 1, 1], [1, 1, 1], 5, 0.0, [0, 1, 2]))  # k >= n
@example(case=([[0, 1], [1, 2, 3], [3, 4]], 5, [9, 1, 1, 1, 1], [2, 1, 3], 2, 0.0,
               [0, 1, 1, 0, 1]))  # vertex 0 outweighs the cap of 7
def test_pipeline_and_improve_report_their_partitions_accurately(case):
    nets, n, vw, ew, k, epsilon, wants = case
    h = Hypergraph.from_edges(nets, n=n, vertex_weight=vw, edge_weight=ew)
    spec = BalanceSpec.for_hypergraph(h, k, epsilon)
    res = run_pipeline(h, spec, QUICK)
    assert_reported_accurately(h, spec, res.partition, res.feasible, res.cutsize)

    start = Partition(h, wants, k)
    out, report = improve_partition(h, start, spec, QUICK)
    assert_reported_accurately(h, spec, out, report["feasible"], report["cutsize_after"])
    assert report["cutsize_before"] == km1_oracle(h, start.assignment)
    if is_feasible(start, spec):
        assert report["cutsize_after"] <= report["cutsize_before"]


QUICK_FLAGS = ["--pair-rounds", "1", "--apg-max-iters", "50"]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=instances())
@example(case=([[0, 1], [1, 2, 3], [3, 4]], 5, [9, 1, 1, 1, 1], [2, 1, 3], 2, 0.0,
               [0, 1, 1, 0, 1]))  # vertex 0 outweighs the cap of 7: exit 2
def test_cli_exit_code_and_cutsize_match_the_written_partition(case):
    """``partition`` and ``improve`` exit 0 exactly when the partition they
    write is feasible, else 2, and print that partition's km1."""
    nets, n, vw, ew, k, epsilon, wants = case
    h = Hypergraph.from_edges(nets, n=n, vertex_weight=vw, edge_weight=ew)
    spec = BalanceSpec.for_hypergraph(h, k, epsilon)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "in.hgr").write_text(write_hmetis(h))
        (d / "start.part").write_text(write_partition(Partition(h, wants, k)))
        common = ["--input", str(d / "in.hgr"), "--k", str(k), "--epsilon", str(epsilon),
                  "--output", str(d / "out.part"), "--metrics", str(d / "metrics"), *QUICK_FLAGS]
        for command, extra, key in (
            ("partition", ["--num-init", "2"], "cutsize"),
            ("improve", ["--partition", str(d / "start.part")], "cutsize_after"),
        ):
            code = main([command, *common, *extra])
            part = read_partition((d / "out.part").read_text(), h, k)
            metrics = dict(line.split("=", 1) for line in (d / "metrics").read_text().splitlines())
            assert code == (0 if is_feasible(part, spec) else 2)
            assert int(metrics[key]) == km1_oracle(h, part.assignment)
