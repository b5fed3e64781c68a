"""Core model tests: parsing, metrics, balance caps, partition I/O."""

import math

import numpy as np
import pytest

from helpers import km1_oracle, random_hypergraph, random_partition
from mstpart.hypergraph import (
    BalanceSpec,
    HgrFormatError,
    Hypergraph,
    Partition,
    PartitionFormatError,
    default_epsilon,
    epsilon_from_ubfactor,
    is_feasible,
    km1_value,
    parse_hmetis,
    read_partition,
    write_hmetis,
    write_partition,
)


def edge_lists(h):
    return [h.edge_pins(e).tolist() for e in range(h.m)]


# ---------------------------------------------------------------------------
# parsing

def test_parse_minimal():
    h = parse_hmetis("2 3\n1 2\n2 3\n")
    assert (h.n, h.m) == (3, 2)
    assert edge_lists(h) == [[0, 1], [1, 2]]
    assert h.vertex_weight.tolist() == [1, 1, 1]
    assert h.edge_weight.tolist() == [1, 1]


def test_parse_edge_weights():
    h = parse_hmetis("1 2 1\n7 1 2\n")
    assert h.edge_weight.tolist() == [7]
    assert edge_lists(h) == [[0, 1]]


def test_parse_full_weights():
    h = parse_hmetis("1 2 11\n3 1 2\n5\n6\n")
    assert h.edge_weight.tolist() == [3]
    assert h.vertex_weight.tolist() == [5, 6]


def test_parse_vertex_weights_only():
    h = parse_hmetis("2 3 10\n1 2\n1 3\n4\n5\n6\n")
    assert h.edge_weight.tolist() == [1, 1]
    assert h.vertex_weight.tolist() == [4, 5, 6]


def test_parse_comments_and_blanks():
    text = "% header comment\n2 3\n% edge one\n1 2\n\n2 3\n"
    h = parse_hmetis(text)
    assert (h.n, h.m) == (3, 2)


def test_parse_duplicate_pins_deduplicated():
    h = parse_hmetis("1 3\n2 2 3\n")
    assert edge_lists(h) == [[1, 2]]


def test_parse_single_pin_edge_kept():
    h = parse_hmetis("2 3\n2\n1 3\n")
    assert edge_lists(h) == [[1], [0, 2]]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(HgrFormatError) as exc:
        parse_hmetis("2 3\n1 2\n")
    assert "truncated" in str(exc.value)

    # three net lines and four weight lines under a header without fmt 10
    with pytest.raises(HgrFormatError) as exc:
        parse_hmetis("2 4\n1 2\n2 3\n3 4\n5\n6\n7\n8\n")
    assert "line 4" in str(exc.value) and "surplus" in str(exc.value)

    with pytest.raises(HgrFormatError) as exc:
        parse_hmetis("1 2\n1 5\n")
    assert "line 2" in str(exc.value) and "out of range" in str(exc.value)

    with pytest.raises(HgrFormatError) as exc:
        parse_hmetis("1 2 1\n0 1 2\n")
    assert "nonpositive" in str(exc.value)

    with pytest.raises(HgrFormatError):
        parse_hmetis("1 2 5\n1 2\n")  # bad fmt

    with pytest.raises(HgrFormatError) as exc:
        parse_hmetis("1 2\nx y\n")
    assert "integer" in str(exc.value)

    with pytest.raises(HgrFormatError):
        parse_hmetis("% only comments\n")


def test_parse_write_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = random_hypergraph(rng, 12, 9, weighted=bool(rng.integers(0, 2)))
        again = parse_hmetis(write_hmetis(h))
        assert again == h


def test_incidence_is_transpose():
    rng = np.random.default_rng(3)
    h = random_hypergraph(rng, 15, 12)
    for v in range(h.n):
        for e in h.vertex_edges(v):
            assert v in h.edge_pins(e).tolist()
    for e in range(h.m):
        for v in h.edge_pins(e):
            assert e in h.vertex_edges(v).tolist()
    # ascending edge ids per vertex
    for v in range(h.n):
        ids = h.vertex_edges(v).tolist()
        assert ids == sorted(ids)


# ---------------------------------------------------------------------------
# cutsize

def test_cutsize_single_edge_two_blocks():
    h = Hypergraph.from_edges([[0, 1, 2]], n=3, edge_weight=[2])
    p = Partition(h, [0, 0, 1], 2)
    assert km1_value(h, p.assignment, p.k) == 2  # weight * (2 spanned blocks - 1)


def test_cutsize_uncut_is_zero():
    h = Hypergraph.from_edges([[0, 1], [1, 2], [0, 2]], n=3)
    p = Partition(h, [1, 1, 1], 2)
    assert km1_value(h, p.assignment, p.k) == 0


def test_cutsize_matches_oracle_on_randoms():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 16))
        k = int(rng.integers(2, 4))
        h = random_hypergraph(rng, n, m, weighted=True)
        p = random_partition(rng, h, k)
        assert km1_value(h, p.assignment, p.k) == km1_oracle(h, p.assignment)
        assert p.cutsize == km1_oracle(h, p.assignment)
    edge_cases = [
        (Hypergraph.from_edges([], n=4), 2),  # m = 0
        (Hypergraph.from_edges([[0], [2], [1, 3]], n=4, edge_weight=[3, 2, 1]), 2),  # single pins
        (Hypergraph.from_edges([[0, 1], [1]], n=6), 3),  # isolated vertices 2..5
        (random_hypergraph(rng, 4, 6, weighted=True), 4),  # k = n
        (random_hypergraph(rng, 3, 5, weighted=True), 7),  # k > n
    ]
    for h, k in edge_cases:
        for _ in range(20):
            p = random_partition(rng, h, k)
            assert km1_value(h, p.assignment, k) == km1_oracle(h, p.assignment)


def test_km1_value_rejects_block_ids_outside_k():
    h = Hypergraph.from_edges([[0, 1], [1, 2]], n=3)
    with pytest.raises(PartitionFormatError):
        km1_value(h, np.array([2, 0, 0]), 2)


def test_cutsize_relabel_invariant():
    rng = np.random.default_rng(5)
    h = random_hypergraph(rng, 10, 12)
    p = random_partition(rng, h, 3)
    perm = np.array([2, 0, 1])
    q = Partition(h, perm[p.assignment], 3)
    assert km1_value(h, p.assignment, p.k) == km1_value(h, q.assignment, q.k)


# ---------------------------------------------------------------------------
# balance

def test_balance_cap_uses_ceiling_before_slack():
    spec = BalanceSpec.from_total(100, 4, 0.08)
    assert spec.cap == pytest.approx(27.0)

    h = Hypergraph.from_edges([[0, 1]], n=4, vertex_weight=[27, 27, 27, 19])
    p = Partition(h, [0, 1, 2, 3], 4)
    assert is_feasible(p, spec)

    h2 = Hypergraph.from_edges([[0, 1]], n=4, vertex_weight=[28, 27, 26, 19])
    p2 = Partition(h2, [0, 1, 2, 3], 4)
    assert not is_feasible(p2, spec)


def test_balance_odd_total():
    # total 10, k 3 -> ceil = 4, cap 4.16
    spec = BalanceSpec.from_total(10, 3, 0.04)
    assert spec.cap == pytest.approx(4.16)


@pytest.mark.parametrize("epsilon", [-0.1, math.nan, math.inf])
def test_balance_rejects_epsilon_outside_zero_to_inf(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        BalanceSpec.from_total(10, 2, epsilon)


def test_epsilon_from_ubfactor():
    assert epsilon_from_ubfactor(2, 2) == pytest.approx(0.04)
    assert round(epsilon_from_ubfactor(2, 3), 2) == 0.06
    assert round(epsilon_from_ubfactor(2, 4), 2) == 0.08
    assert epsilon_from_ubfactor(1e-9, 2) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        epsilon_from_ubfactor(0, 2)
    with pytest.raises(ValueError):
        epsilon_from_ubfactor(50, 2)
    with pytest.raises(ValueError):
        epsilon_from_ubfactor(2, 1)


def test_default_epsilon_table():
    assert default_epsilon(2) == 0.04
    assert default_epsilon(3) == 0.06
    assert default_epsilon(4) == 0.08
    assert default_epsilon(5) == 0.02
    assert default_epsilon(16) == 0.02


# ---------------------------------------------------------------------------
# partitions and the move API

def test_partition_validates_ids():
    h = Hypergraph.from_edges([[0, 1]], n=2)
    with pytest.raises(PartitionFormatError):
        Partition(h, [0, 2], 2)
    with pytest.raises(PartitionFormatError):
        Partition(h, [0], 2)


@pytest.mark.parametrize("block", [-1, 2])
def test_move_rejects_block_ids_outside_k(block):
    h = Hypergraph.from_edges([[0, 1], [1, 2]], n=3)
    p = Partition(h, [0, 0, 1], 2)
    with pytest.raises(PartitionFormatError, match=f"block id {block} "):
        p.move(0, block)
    fresh = Partition(h, [0, 0, 1], 2)
    assert p.assignment.tolist() == [0, 0, 1]
    assert p.block_weight.tolist() == fresh.block_weight.tolist()
    assert np.array_equal(p.pin_count, fresh.pin_count)
    assert p.cutsize == fresh.cutsize == 1


@pytest.mark.parametrize("v", [-1, 4])
def test_move_rejects_vertex_ids_outside_n(v):
    h = Hypergraph.from_edges([[0, 1], [1, 2], [2, 3]])
    p = Partition(h, [0, 0, 1, 1], 2)
    with pytest.raises(PartitionFormatError, match=f"vertex id {v} "):
        p.move(v, 0)
    fresh = Partition(h, [0, 0, 1, 1], 2)
    assert p.assignment.tolist() == [0, 0, 1, 1]
    assert p.block_weight.tolist() == fresh.block_weight.tolist()
    assert np.array_equal(p.pin_count, fresh.pin_count)
    assert p.cutsize == fresh.cutsize == 1


def pin_count_oracle(h, assignment, k):
    table = np.zeros((h.m, k), dtype=np.int64)
    for e in range(h.m):
        for v in h.edge_pins(e):
            table[e, assignment[v]] += 1
    return table


def cache_instances(rng):
    """Random weighted instances plus the degenerate shapes: no nets, an
    isolated vertex, one net over every vertex, and k >= n."""
    for _ in range(30):
        n = int(rng.integers(4, 12))
        h = random_hypergraph(rng, n, int(rng.integers(3, 14)), weighted=True)
        yield h, int(rng.integers(2, 5))
    yield Hypergraph.from_edges([], n=5), 3
    yield Hypergraph.from_edges([[0, 1], [1, 2], [0, 2]], n=4, edge_weight=[1, 2, 3]), 2
    yield Hypergraph.from_edges([list(range(7))], n=7, edge_weight=[4]), 3
    yield Hypergraph.from_edges([[0, 1, 2], [2, 3]], n=4), 6


def test_move_api_keeps_caches_exact():
    rng = np.random.default_rng(23)
    for h, k in cache_instances(rng):
        p = random_partition(rng, h, k)
        assert np.array_equal(p.pin_count, pin_count_oracle(h, p.assignment, k))
        for _ in range(25):
            v = int(rng.integers(0, h.n))
            b = int(rng.integers(0, k))
            before = km1_oracle(h, p.assignment)
            delta = p.move(v, b)
            scratch = Partition(h, p.assignment, k)
            assert p.cutsize == scratch.cutsize
            assert p.block_weight.tolist() == scratch.block_weight.tolist()
            assert np.array_equal(p.pin_count, scratch.pin_count)
            assert delta == km1_oracle(h, p.assignment) - before
            assert p.cutsize == km1_oracle(h, p.assignment)


def test_move_deltas_match_moves():
    rng = np.random.default_rng(29)
    for h, k in cache_instances(rng):
        p = random_partition(rng, h, k)
        vertices = rng.permutation(h.n)[: int(rng.integers(0, h.n + 1))]
        table = p.move_deltas(vertices)
        assert table.shape == (vertices.shape[0], k)
        for row, v in zip(table.tolist(), vertices.tolist()):
            for t in range(k):
                trial = p.copy()
                assert row[t] == trial.move(v, t)
        # trial moves on copies leave the original's table alone
        assert np.array_equal(p.pin_count, pin_count_oracle(h, p.assignment, k))


def test_move_returns_delta():
    h = Hypergraph.from_edges([[0, 1], [1, 2]], n=3)
    p = Partition(h, [0, 0, 1], 2)
    assert p.cutsize == 1
    delta = p.move(2, 0)
    assert delta == -1
    assert p.cutsize == 0


def test_partition_io_round_trip():
    rng = np.random.default_rng(2)
    h = random_hypergraph(rng, 9, 6)
    p = random_partition(rng, h, 3)
    text = write_partition(p)
    q = read_partition(text, h, 3)
    assert np.array_equal(p.assignment, q.assignment)
    assert q.cutsize == p.cutsize


def test_partition_io_errors():
    h = Hypergraph.from_edges([[0, 1]], n=2)
    with pytest.raises(PartitionFormatError):
        read_partition("0\n", h, 2)  # wrong line count
    with pytest.raises(PartitionFormatError):
        read_partition("0\n2\n", h, 2)  # id == k
    with pytest.raises(PartitionFormatError):
        read_partition("0\nx\n", h, 2)
