"""Property tests on generated small hypergraphs.

The generated instances include no nets, isolated vertices, a net over all
vertices, single-pin nets and k >= n; the ``example`` cases pin each of these
down so that every run covers them, and a vertex heavier than the cap too.
The operator cases add unused block ids and stacks of 1 to 6 solves.
"""

import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from mstpart.apg import ApgParams
from mstpart.cli import main
from mstpart.coarsen import contract
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
from mstpart.initial import _p_choices
from mstpart.operators import ObjectiveOperator, clique_expand
from mstpart.pipeline import PipelineConfig, improve_partition, run_pipeline
from mstpart import refine
from mstpart.refine import GainTable, kway_fm

from helpers import (
    assert_same_hypergraph,
    contract_reference,
    dense_gu,
    dense_gw,
    dense_kpartite,
    from_edges_reference,
    km1_oracle,
)

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


def fresh_read(p):
    """What a ``GainTable`` of ``p`` holds, read from ``p`` itself."""
    return (p.move_deltas(np.arange(p.h.n)).tolist(), p.pin_count.tolist(),
            p.assignment.tolist(), p.block_weight.tolist())


def table_state(table):
    return table.delta, table.pin_count, table.block, table.weight


@SETTINGS
@given(case=instances(), moves=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 7)),
                                        max_size=20),
       frozen=st.lists(st.integers(0, 11), max_size=4))
@example(case=([], 6, [1, 2, 1, 3, 1, 2], [], 2, 0.1, [0, 1, 0, 1, 0, 1]),  # m = 0
         moves=[(0, 1), (3, 0), (5, 0)], frozen=[])
@example(case=([[0, 1], [1, 2]], 6, [1] * 6, [2, 1], 3, 0.0, [0, 1, 2, 0, 1, 2]),  # isolated
         moves=[(1, 2), (4, 0), (2, 1), (1, 0), (0, 2)], frozen=[5])
@example(case=([list(range(7))], 7, [1] * 7, [3], 2, 0.2, [0, 1, 0, 1, 0, 1, 0]),  # one net over all
         moves=[(1, 0), (3, 0), (5, 0), (0, 1), (1, 1)], frozen=[])
@example(case=([[0, 1], [1, 2], [0, 2]], 3, [1, 1, 1], [1, 1, 1], 5, 0.0, [0, 1, 2]),  # k >= n
         moves=[(0, 3), (1, 3), (2, 4), (0, 1), (2, 0)], frozen=[1])
def test_gain_table_moves_match_a_fresh_read(case, moves, frozen):
    # rows of ``frozen`` vertices are skipped, as FM skips locked ones:
    # they keep their first values while every other row stays exact
    h, _, p = build(case)
    assume(p is not None)
    table = GainTable(p)
    assert table_state(table) == fresh_read(p)
    skip = [False] * h.n
    for u in frozen:
        skip[u % h.n] = True
    start = [row[:] for row in table.delta]

    def assert_fresh():
        delta, *rest = fresh_read(p)
        assert table_state(table)[1:] == tuple(rest)
        for u in range(h.n):
            assert table.delta[u] == (start[u] if skip[u] else delta[u])

    for v, b in moves:
        v, b = v % h.n, b % p.k
        s = table.block[v]
        if b == s:
            continue
        # a trial move there and back, as a repair swap step makes, restores the table
        table.move(v, b, skip, lambda out, entry: None, None)
        table.move(v, s, skip, lambda out, entry: None, None)
        assert_fresh()
        before, handed = [row[:] for row in table.delta], {}
        table.move(v, b, skip, lambda out, entry: out.__setitem__(entry[1:], entry[0]), handed)
        p.move(v, b)
        assert_fresh()
        for u in range(h.n):
            for c in range(p.k):  # each changed move was handed on, last at its value
                if c != table.block[u] and table.delta[u][c] != before[u][c]:
                    assert handed[u, c] == table.delta[u][c]
        for (u, c), d in handed.items():
            assert not skip[u] and table.delta[u][c] == d
        assert sum(skip) == len({u % h.n for u in frozen})  # skip[v] was restored
    assert_caches_fresh(h, p)


@SETTINGS
@given(case=instances())
@example(case=([], 6, [1, 2, 1, 3, 1, 2], [], 2, 0.1, [0, 1, 0, 1, 0, 1]))  # m = 0
@example(case=([[0, 1], [1, 2]], 6, [1] * 6, [2, 1], 3, 0.0, [0, 1, 2, 0, 1, 2]))  # isolated
@example(case=([list(range(7))], 7, [1] * 7, [3], 2, 0.2, [0, 1, 0, 1, 0, 1, 0]))  # one net over all
@example(case=([[0, 1], [1, 2], [0, 2]], 3, [1, 1, 1], [1, 1, 1], 5, 0.0, [0, 1, 2]))  # k >= n
def test_every_fm_pass_starts_from_a_fresh_read(case):
    h, spec, p = build(case)
    assume(p is not None)
    fm_pass, passes = refine._fm_pass, []

    def checked(table, cap):
        assert table_state(table) == fresh_read(Partition(h, table.block, spec.k))
        passes.append(fm_pass(table, cap))
        # the kept prefix, replayed
        assert table_state(table) == fresh_read(Partition(h, table.block, spec.k))
        return passes[-1]

    with mock.patch.object(refine, "_fm_pass", checked):
        out = kway_fm(h, p, spec)
    assert (len(passes) == 0) == (p.cutsize == 0)
    assert all(gain > 0 for gain in passes[:-1])
    assert p.cutsize - out.cutsize == sum(passes[:-1]) + max(passes[-1:] + [0])
    assert_caches_fresh(h, out)


NET_FORMS = {
    "list": list,
    "tuple": tuple,
    "array": lambda net: np.array(net, dtype=np.int64),
    "float": lambda net: [v + 0.5 for v in net],  # int() truncates toward 0
}


@st.composite
def raw_nets(draw):
    """(nets, n, vertex weights, edge weights) as handed to ``from_edges``:
    duplicate and unsorted pins in one of ``NET_FORMS``, n and the weights
    given or left out; in half of the cases empty nets, negative pins and
    weights below 1 may occur too."""
    bad = draw(st.booleans())
    pin = st.integers(-1 if bad else 0, 9)
    nets = draw(st.lists(st.lists(pin, min_size=0 if bad else 1, max_size=5), max_size=8))
    form = NET_FORMS[draw(st.sampled_from(sorted(NET_FORMS)))]
    n = draw(st.none() | st.integers(0, 12))
    weight = st.integers(0 if bad else 1, 3)
    vw = draw(st.none() | st.lists(weight, min_size=n or 0, max_size=n or 0))
    ew = draw(st.none() | st.lists(weight, min_size=len(nets), max_size=len(nets)))
    return [form(net) for net in nets], n, vw, ew


@SETTINGS
@given(case=raw_nets())
@example(case=([[1], [2**70]], 3, None, None))  # a pin beyond int64
@example(case=([[1], [-2**70, 2]], None, None, None))  # a negative one beyond int64
@example(case=([[True, np.int64(3), 2.7, 3]], None, None, None))
@example(case=([], None, None, None))  # m = 0, n = 0
@example(case=([[0], [], [-1]], None, None, None))  # the empty net comes first
@example(case=([[0], [-1], []], None, None, None))  # the negative pin comes first
def test_from_edges_matches_the_per_net_reference(case):
    """The CSR arrays equal the per-net loop's, or both raise ``ValueError``
    with the same message."""
    nets, n, vw, ew = case
    try:
        want = from_edges_reference(nets, n, vw, ew)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Hypergraph.from_edges(nets, n, vw, ew)
        assert str(got.value) == str(exc)
    else:
        assert_same_hypergraph(Hypergraph.from_edges(nets, n, vw, ew), want)


@st.composite
def matched_instances(draw):
    """(nets, n, vertex weights, edge weights, matching): disjoint vertex
    pairs in random order and orientation."""
    n = draw(st.integers(1, 12))
    nets = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 5)),
                         max_size=2 * n))
    vw = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    ew = draw(st.lists(st.integers(1, 4), min_size=len(nets), max_size=len(nets)))
    perm = draw(st.permutations(range(n)))
    pairs = draw(st.integers(0, n // 2))
    return nets, n, vw, ew, [(perm[2 * i], perm[2 * i + 1]) for i in range(pairs)]


@SETTINGS
@given(case=matched_instances())
@example(case=([], 4, [1, 2, 3, 4], [], [(0, 3)]))  # m = 0
@example(case=([[0, 1], [2, 3], [0, 2], [1, 3], [3, 1, 0]], 4, [1] * 4, [1, 2, 3, 4, 5],
               [(1, 0), (2, 3)]))  # two nets collapse, three merge into one
def test_contract_matches_the_per_net_reference(case):
    nets, n, vw, ew, matching = case
    h = Hypergraph.from_edges(nets, n=n, vertex_weight=vw, edge_weight=ew)
    level = contract(h, matching)
    coarse, ids = contract_reference(h, matching)
    assert_same_hypergraph(level.hypergraph, coarse)
    assert level.map_to_coarse.dtype == ids.dtype
    assert np.array_equal(level.map_to_coarse, ids)


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


# partition runs no pair solves, so only improve takes --pair-rounds
QUICK_FLAGS = {"partition": ["--apg-max-iters", "50"],
               "improve": ["--pair-rounds", "1", "--apg-max-iters", "50"]}


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
                  "--output", str(d / "out.part"), "--metrics", str(d / "metrics")]
        for command, extra, key in (
            ("partition", ["--num-init", "2"], "cutsize"),
            ("improve", ["--partition", str(d / "start.part")], "cutsize_after"),
        ):
            code = main([command, *common, *QUICK_FLAGS[command], *extra])
            part = read_partition((d / "out.part").read_text(), h, k)
            metrics = dict(line.split("=", 1) for line in (d / "metrics").read_text().splitlines())
            assert code == (0 if is_feasible(part, spec) else 2)
            assert int(metrics[key]) == km1_oracle(h, part.assignment)


COEFFICIENT = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def operator_cases(draw):
    """(nets, n, vertex weights, blocks, kind, S coefficient rows, c, X seed,
    picked solves); the embedding and pair kinds read the first two
    coefficients of a row as their weight pair."""
    n = draw(st.integers(1, 10))
    nets = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 5)),
                         max_size=2 * n))
    vw = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    blocks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["embedding", "pair", "custom"]))
    S = draw(st.integers(1, 6))
    coefs = draw(st.lists(st.tuples(*[COEFFICIENT] * 4), min_size=S, max_size=S))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    pick = draw(st.permutations(range(S)).flatmap(
        lambda perm: st.integers(1, S).map(lambda size: perm[:size])))
    return nets, n, vw, blocks, kind, coefs, c, seed, pick


def build_operator(h, blocks, kind, coefs):
    """The operator of the given kind with one solve per coefficient row,
    and each solve's dense C."""
    g = clique_expand(h)
    B = h.vertex_weight.astype(float)
    coefs = np.array(coefs, dtype=float)
    abar = (sparse.diags(g.degree) + g.adjacency).tocsr()
    if kind == "embedding":
        op = ObjectiveOperator.embedding(g, B, coefs[:, :2])
    elif kind == "pair":
        op = ObjectiveOperator.pair_refinement(g, B, blocks, coefs[:, :2])
    else:
        op = ObjectiveOperator(h.n, abar=abar, ca=coefs[:, 0],
                               cu=coefs[:, 1], cw=coefs[:, 2], cp=coefs[:, 3],
                               weights=B, blocks=blocks)
    dense = [op.ca[s] * abar.toarray() + op.cu[s] * dense_gu(h.n) + op.cw[s] * dense_gw(B)
             + op.cp[s] * dense_kpartite(blocks) for s in range(op.solves)]
    return op, dense


@SETTINGS
@given(case=operator_cases())
@example(case=([], 5, [1, 2, 1, 3, 1], [0, 1, 1, 0, 1], "custom",
               [(0.5, 0.2, 0.3, 0.4)] * 3, 2, 7, [2, 0]))  # m = 0
@example(case=([[0, 1], [1, 2]], 6, [1] * 6, [0, 2, 2, 0, 3, 3], "pair",
               [(0.5, 0.8, 0.0, 0.0), (0.15, 0.2, 0.0, 0.0)], 3, 11, [1]))  # isolated; id 1 unused
@example(case=([[0, 1, 2], [2, 3]], 4, [2, 1, 1, 3], [1, 1, 3, 3], "custom",
               [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)], 4, 13, [1, 0]))  # unused 0 and 2
def test_operator_matches_dense_and_each_slice_matches_its_solve(case):
    nets, n, vw, blocks, kind, coefs, c, seed, pick = case
    h = Hypergraph.from_edges(nets, n=n, vertex_weight=vw)
    blocks = np.array(blocks)
    op, dense = build_operator(h, blocks, kind, coefs)
    X = np.random.default_rng(seed).normal(size=(op.solves, n, c))
    got = op.apply(X)
    assert got.shape == X.shape
    for s, C in enumerate(dense):
        want = C @ X[s]
        assert np.abs(got[s] - want).max() <= 1e-10 * max(1.0, np.abs(want).max())
        alone, _ = build_operator(h, blocks, kind, [coefs[s]])
        assert np.array_equal(alone.apply(X[s:s + 1]).view(np.int64), got[s:s + 1].view(np.int64))
    pick = list(pick)
    assert np.array_equal(op.take(pick).apply(X[pick]).view(np.int64), got[pick].view(np.int64))


@st.composite
def p_cases(draw):
    """(n, k, most, p): an n-vertex level whose clustered vertex set has
    ``most`` vertices, and a ``PipelineConfig.p`` that passes its check."""
    k = draw(st.integers(2, 8))
    n = draw(st.integers(k + 1, 5000))
    most = draw(st.integers(k, n))
    p = draw(st.lists(st.one_of(st.sampled_from(["sqrt", "linear"]), st.integers(k, 2 * n)),
                      min_size=1, max_size=6))
    return n, k, most, tuple(p)


@SETTINGS
@given(case=p_cases())
@example(case=(5000, 2, 1000, ("sqrt", "linear", 50, 2000)))  # rules on n: 50, 500
@example(case=(60, 2, 12, (20, 30, "linear")))  # all three lowered to most
def test_p_choices_are_distinct_counts_in_range_in_first_appearance_order(case):
    n, k, most, p = case
    rules = {"sqrt": math.ceil(math.sqrt(n / 2)), "linear": math.ceil(n / (5 * k))}
    each = [min(max(rules[e] if isinstance(e, str) else e, k), most) for e in p]
    got = _p_choices(n, k, p, most)
    assert len(got) == len(set(got))
    assert all(k <= c <= most for c in got)
    assert got == sorted(set(each), key=each.index)
