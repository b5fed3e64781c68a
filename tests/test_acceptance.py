"""End-to-end gate for the partitioner.

Ten checks: cutsize oracle equality, emitted-partition feasibility, a
quality floor against brute force, solver behavior on random instances,
matrix-free operator equivalence, spanning-tree correctness and the two
pruning properties, the balanced-composition maximizer, refinement
monotonicity and improvement rate, byte determinism, and an optional
large benchmark that is skipped when the input file is absent.

Each test prints a single PASS/FAIL line so a log scan shows the whole
gate at a glance.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    UnionFind,
    brute_force_bipartition,
    dense_similarity_edges,
    km1_oracle,
    kruskal_total,
    objective,
    random_hypergraph,
    two_cluster_hypergraph,
)
from test_operators import dense_embedding_matrix, dense_pair_matrix

from mstpart import cli
from mstpart.apg import ApgParams, minimize, seeded_features
from mstpart.hypergraph import BalanceSpec, Partition, parse_hmetis, write_hmetis
from mstpart.initial import prim_mst
from mstpart.operators import (
    ObjectiveOperator,
    clique_expand,
    max_product_compositions,
    pairwise_product_sum,
)
from mstpart.pipeline import PipelineConfig, run_pipeline

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmarks" / "ibm01.hgr"


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def _write_instance(tmp, name, h):
    path = tmp / name
    path.write_text(write_hmetis(h))
    return path


def _read_assignment(path: Path) -> np.ndarray:
    return np.array([int(line) for line in path.read_text().split()], dtype=np.int64)


# ---------------------------------------------------------------------------
# 1. cutsize oracle equivalence

def test_criterion_01_cutsize_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, 16))
        h = random_hypergraph(rng, n, m, weighted=bool(rng.integers(0, 2)))
        k = int(rng.integers(2, 4))
        assign = rng.integers(0, k, size=n)
        if Partition(h, assign, k).cutsize != km1_oracle(h, assign):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "cutsize matches the per-edge oracle on 500 random instances",
        mismatches == 0 and elapsed < 5.0,
        f"mismatches={mismatches}, elapsed={elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. every exit-0 partition honors the block weight caps

DEFAULT_EPS = {2: 0.04, 3: 0.06, 4: 0.08}


def test_criterion_02_feasibility_of_emitted_partitions(tmp_path):
    rng = np.random.default_rng(1002)
    fast = ["--num-init", "2", "--apg-max-iters", "200"]
    big = ["--num-init", "1", "--apg-max-iters", "100"]
    plan = []
    for i in range(40):
        n = int(rng.integers(20, 401))
        plan.append((n, int(1.7 * n), 2 + i % 3, i % 3 == 0, fast))
    for i, n in enumerate([500, 700, 850, 1000, 1100, 1250, 1400, 1500]):
        plan.append((n, int(1.7 * n), 2 + i % 3, False, fast))
    plan.append((2500, 4200, 2, False, big))
    plan.append((5000, 8500, 3, False, big))

    emitted = 0
    violations = []
    for i, (n, m, k, weighted, extra) in enumerate(plan):
        h = random_hypergraph(rng, n, m, max_edge_size=5, weighted=weighted)
        hgr = _write_instance(tmp_path, f"c2_{i}.hgr", h)
        out = tmp_path / f"c2_{i}.part"
        code = cli.main(
            ["partition", "--input", str(hgr), "--k", str(k),
             "--output", str(out)] + extra
        )
        assert code in (0, 2), f"instance {i}: unexpected exit {code}"
        if code != 0:
            continue
        emitted += 1
        assign = _read_assignment(out)
        assert assign.shape[0] == n
        assert assign.min() >= 0 and assign.max() < k
        weights = np.bincount(assign, weights=h.vertex_weight, minlength=k)
        total = int(h.vertex_weight.sum())
        cap = (1.0 + DEFAULT_EPS[k]) * (-(-total // k))
        if np.any(weights > cap):
            violations.append((i, weights.tolist(), cap))
    _report(
        2,
        "exit-0 partitions satisfy the caps on a 50-instance suite",
        emitted >= 45 and not violations,
        f"emitted={emitted}/50, violations={violations}",
    )


# ---------------------------------------------------------------------------
# 3. tiny-instance quality against brute force

def test_criterion_03_quality_floor_vs_brute_force():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    config = PipelineConfig(num_init=4)
    within, sane = 0, 0
    for _ in range(100):
        n = int(rng.integers(6, 13))
        h = random_hypergraph(rng, n, 2 * n)
        spec = BalanceSpec.from_total(h.total_weight, 2, 0.04)
        opt, _ = brute_force_bipartition(h, spec)
        assert opt is not None
        cut = run_pipeline(h, spec, config).cutsize
        if cut >= opt:
            sane += 1
        if cut <= 1.3 * opt + 1e-9:
            within += 1
    elapsed = time.perf_counter() - start
    _report(
        3,
        "pipeline within 1.3x of brute force on >= 90/100 tiny instances",
        sane == 100 and within >= 90 and elapsed < 120.0,
        f"sane={sane}, within={within}, elapsed={elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. solver behavior on random embedding instances

class _RowCheckOp:
    """Forwards to an operator while recording the worst row-norm deviation
    among the points it is applied to (start point, stepsize and stationarity
    probes, and every candidate step)."""

    def __init__(self, op):
        self.op = op
        self.worst = 0.0

    def _record(self, X):
        dev = float(np.max(np.abs(np.linalg.norm(X, axis=-1) - 1.0)))
        if dev > self.worst:
            self.worst = dev

    def apply(self, X):
        self._record(X)
        return self.op.apply(X)


def test_criterion_04_solver_convergence_and_invariants():
    rng = np.random.default_rng(1004)
    lam1_grid = (0.9, 0.5, 0.15, 0.015)
    lam2_grid = (1.0, 0.9, 0.8)
    params = ApgParams()
    converged = 0
    worst_row = 0.0
    bound_breaks = 0
    fd_fail = 0
    for i in range(100):
        n = int(rng.integers(8, 51))
        k = int(rng.integers(2, 5))
        h = random_hypergraph(rng, n, 2 * n, weighted=bool(i % 2))
        op = ObjectiveOperator.embedding(
            clique_expand(h), h.vertex_weight,
            [(lam1_grid[i % 4], lam2_grid[i % 3])],
        )
        checked = _RowCheckOp(op)
        res = minimize(checked, seeded_features(n, k, stream=i)[None], params)
        checked._record(res.X)
        worst_row = max(worst_row, checked.worst)
        if res.converged and res.residuals.max() < 1e-3 and res.iterations < params.max_iters:
            converged += 1
        for rec in res.trace:
            if rec.accepted and rec.value > rec.bound:
                bound_breaks += 1
        if i < 20:
            X = seeded_features(n, k, stream=10_000 + i)[None]
            g = objective(op, X)[1]
            fd = np.zeros_like(X)
            hstep = 1e-6
            for a in range(n):
                for b in range(k):
                    Xp, Xm = X.copy(), X.copy()
                    Xp[0, a, b] += hstep
                    Xm[0, a, b] -= hstep
                    fd[0, a, b] = (objective(op, Xp)[0][0] - objective(op, Xm)[0][0]) / (2 * hstep)
            if np.max(np.abs(g - fd)) > 1e-5 * max(1.0, float(np.max(np.abs(g)))):
                fd_fail += 1
    _report(
        4,
        "solver converges, keeps rows unit, honors the bound, matches FD",
        converged >= 95 and worst_row <= 1e-12 and bound_breaks == 0 and fd_fail == 0,
        f"converged={converged}/100, worst_row={worst_row:.2e}, "
        f"bound_breaks={bound_breaks}, fd_fail={fd_fail}",
    )


# ---------------------------------------------------------------------------
# 5. matrix-free operators match dense construction

def test_criterion_05_matrix_free_equals_dense():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(5, 51))
        h = random_hypergraph(rng, n, int(1.5 * n) + 1, weighted=bool(i % 2))
        g = clique_expand(h)
        X = rng.normal(size=(1, n, int(rng.integers(2, 5))))
        lam1, lam2 = rng.uniform(size=2)
        op1 = ObjectiveOperator.embedding(g, h.vertex_weight, [(lam1, lam2)])
        want1 = dense_embedding_matrix(h, h.vertex_weight, lam1, lam2) @ X
        rel1 = np.max(np.abs(op1.apply(X) - want1)) / max(1.0, np.max(np.abs(want1)))
        blocks = rng.integers(0, 2, size=n)
        xi1, xi2 = rng.uniform(size=2)
        op2 = ObjectiveOperator.pair_refinement(g, h.vertex_weight, blocks, [(xi1, xi2)])
        want2 = dense_pair_matrix(
            g.adjacency.toarray(), h.vertex_weight, blocks, xi1, xi2
        ) @ X
        rel2 = np.max(np.abs(op2.apply(X) - want2)) / max(1.0, np.max(np.abs(want2)))
        worst = max(worst, rel1, rel2)
    _report(
        5,
        "matrix-free apply within 1e-10 of dense on 50 instances",
        worst <= 1e-10,
        f"worst_rel={worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. spanning trees: Prim vs Kruskal, plus the two pruning properties

def _kruskal_forest(n, edges):
    """Minimum spanning forest total; no connectivity requirement."""
    uf = UnionFind(n)
    picked = []
    for u, v, w in sorted(edges, key=lambda t: (t[2], t[0], t[1])):
        if uf.union(u, v):
            picked.append(w)
    return picked, uf


def _random_weighted_graph(rng, n, extra):
    """Connected graph: a random tree plus extra distinct edges."""
    edges = {}
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = int(order[int(rng.integers(0, i))]), int(order[i])
        edges[(min(u, v), max(u, v))] = float(rng.uniform(0.0, 1.0))
    while len(edges) < n - 1 + extra:
        u, v = rng.choice(n, size=2, replace=False)
        key = (min(int(u), int(v)), max(int(u), int(v)))
        if key not in edges:
            edges[key] = float(rng.uniform(0.0, 1.0))
    return [(u, v, w) for (u, v), w in edges.items()]


def _check_prune_reconnect(n, edges, k):
    """Shared check for both pruning properties.

    Removes the k heaviest edges, takes the minimum spanning forest of the
    rest, adds back the lightest removed edges that join distinct
    components, and compares the result against a Kruskal run on the full
    graph.  Returns the number of components after removal.
    """
    ranked = sorted(edges, key=lambda t: (-t[2], t[0], t[1]))
    removed, kept = ranked[:k], ranked[k:]
    forest, uf = _kruskal_forest(n, kept)
    added = []
    for u, v, w in sorted(removed, key=lambda t: (t[2], t[0], t[1])):
        if uf.union(u, v):
            added.append(w)
    combined = np.sort(np.array(forest + added, dtype=np.float64))
    total, weights = kruskal_total(n, edges)
    assert float(combined.sum()) == total
    assert np.array_equal(combined, weights)
    comps = n - len(forest)
    assert len(added) == comps - 1
    return comps


def test_criterion_06_mst_agreement_and_pruning_properties():
    rng = np.random.default_rng(1006)

    # Prim vs the Kruskal oracle, both on connected thresholded similarity
    # graphs and on the complete graph of the same instance
    agree = 0
    while agree < 100:
        n = int(rng.integers(8, 61))
        X = seeded_features(n, int(rng.integers(2, 5)), stream=int(rng.integers(1 << 30)))
        try:
            thresholded = kruskal_total(n, dense_similarity_edges(X, 0.2))
        except ValueError:
            continue
        tree = prim_mst(X)
        sorted_weights = np.sort([w for _, _, w in tree.edges])
        for total, weights in (thresholded, kruskal_total(n, dense_similarity_edges(X))):
            assert float(sorted_weights.sum()) == total
            assert np.array_equal(sorted_weights, weights)
        agree += 1

    # property 1: dropping the k heaviest edges of a connected graph while
    # staying connected leaves the spanning tree total unchanged
    kept_connected = 0
    while kept_connected < 100:
        n = int(rng.integers(8, 25))
        edges = _random_weighted_graph(rng, n, extra=int(rng.integers(4, 11)))
        ranked = sorted(edges, key=lambda t: (-t[2], t[0], t[1]))
        for k in range(5, 0, -1):
            kept = ranked[k:]
            forest, _ = _kruskal_forest(n, kept)
            if len(forest) == n - 1:
                total, weights = kruskal_total(n, edges)
                sub_total, sub_weights = kruskal_total(n, kept)
                assert sub_total == total
                assert np.array_equal(sub_weights, weights)
                kept_connected += 1
                break

    # property 2: when removal disconnects the graph into m components, the
    # forest plus the m - 1 lightest reconnecting removed edges is minimum
    disconnected = 0
    attempts = 0
    while disconnected < 100:
        attempts += 1
        if attempts % 2:
            n = int(rng.integers(8, 25))
            edges = _random_weighted_graph(rng, n, extra=int(rng.integers(2, 7)))
            found = None
            for k in range(3, 9):
                if k >= len(edges):
                    break
                ranked = sorted(edges, key=lambda t: (-t[2], t[0], t[1]))
                forest, _ = _kruskal_forest(n, ranked[k:])
                if len(forest) < n - 1:
                    found = k
                    break
            if found is None:
                continue
            k = found
        else:
            # stratified: light tree, heavy extras, removal count k reaching
            # into the tree guarantees several components
            n = int(rng.integers(8, 25))
            extra = int(rng.integers(2, 6))
            edges = _random_weighted_graph(rng, n, extra=0)
            have = {(u, v) for u, v, _ in edges}
            while len(edges) < n - 1 + extra:
                u, v = rng.choice(n, size=2, replace=False)
                key = (min(int(u), int(v)), max(int(u), int(v)))
                if key not in have:
                    have.add(key)
                    edges.append((key[0], key[1], float(rng.uniform(2.0, 3.0))))
            k = extra + int(rng.integers(1, 4))
        comps = _check_prune_reconnect(n, edges, k)
        assert comps >= 2
        disconnected += 1

    _report(
        6,
        "Prim equals Kruskal and both pruning properties hold, 100 each",
        True,
        f"prim_agree={agree}, connected_prop={kept_connected}, "
        f"disconnect_prop={disconnected}",
    )


# ---------------------------------------------------------------------------
# 7. balanced compositions maximize the pairwise product sum

def _partitions_at_most(total, k, cap=None):
    """Non-increasing tuples of k nonnegative parts summing to total."""
    if cap is None:
        cap = total
    if k == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap), -1, -1):
        for rest in _partitions_at_most(total - first, k - 1, first):
            yield (first,) + rest


def test_criterion_07_balanced_compositions_maximize():
    bad = []
    for total in range(1, 31):
        for k in range(1, 6):
            q, r = divmod(total, k)
            balanced = tuple(sorted([q + 1] * r + [q] * (k - r), reverse=True))
            target = pairwise_product_sum(balanced)
            best = max(
                pairwise_product_sum(p) for p in _partitions_at_most(total, k)
            )
            argmax = [
                p for p in _partitions_at_most(total, k)
                if pairwise_product_sum(p) == best
            ]
            ok = best == target and all(p == balanced for p in argmax)
            pkg_best, pkg_arg = max_product_compositions(total, k)
            ok = ok and pkg_best == target
            ok = ok and all(tuple(sorted(c, reverse=True)) == balanced for c in pkg_arg)
            if not ok:
                bad.append((total, k))
    _report(
        7,
        "balanced compositions maximize the product sum for C<=30, k<=5",
        not bad,
        f"violations={bad}",
    )


# ---------------------------------------------------------------------------
# 8. improvement never hurts, and usually helps mediocre starts

def _balanced_assignment(rng, n, k):
    return rng.permutation(np.arange(n) % k)


def _greedy_first_fit(h, k, eps):
    spec = BalanceSpec.from_total(h.total_weight, k, eps)
    weights = np.zeros(k)
    assign = np.empty(h.n, dtype=np.int64)
    for v in range(h.n):
        for t in range(k):
            if weights[t] + h.vertex_weight[v] <= spec.cap:
                assign[v] = t
                weights[t] += h.vertex_weight[v]
                break
        else:
            assign[v] = int(np.argmin(weights))
            weights[assign[v]] += h.vertex_weight[v]
    return assign


def test_criterion_08_improve_monotone_and_effective(tmp_path):
    rng = np.random.default_rng(1008)
    increases = 0
    for i in range(200):
        n = int(rng.integers(12, 41))
        k = 2 + i % 2
        h = random_hypergraph(rng, n, 2 * n)
        hgr = _write_instance(tmp_path, f"c8a_{i}.hgr", h)
        before = _balanced_assignment(rng, n, k)
        pfile = tmp_path / f"c8a_{i}.part"
        pfile.write_text("\n".join(str(b) for b in before) + "\n")
        out = tmp_path / f"c8a_{i}.out"
        code = cli.main(
            ["improve", "--input", str(hgr), "--partition", str(pfile),
             "--k", str(k), "--epsilon", "0.04", "--output", str(out)]
        )
        assert code == 0
        if km1_oracle(h, _read_assignment(out)) > km1_oracle(h, before):
            increases += 1

    improved = 0
    for i in range(50):
        n = int(rng.integers(30, 81))
        k = 2 + i % 2
        h = random_hypergraph(rng, n, 2 * n)
        hgr = _write_instance(tmp_path, f"c8b_{i}.hgr", h)
        before = _greedy_first_fit(h, k, 0.1)
        pfile = tmp_path / f"c8b_{i}.part"
        pfile.write_text("\n".join(str(b) for b in before) + "\n")
        out = tmp_path / f"c8b_{i}.out"
        code = cli.main(
            ["improve", "--input", str(hgr), "--partition", str(pfile),
             "--k", str(k), "--epsilon", "0.1", "--output", str(out)]
        )
        assert code == 0
        after = km1_oracle(h, _read_assignment(out))
        base = km1_oracle(h, before)
        assert after <= base
        if after < base:
            improved += 1
    _report(
        8,
        "improve never raises cutsize (200 runs) and helps >= 60% of 50",
        increases == 0 and improved >= 30,
        f"increases={increases}, improved={improved}/50",
    )


# ---------------------------------------------------------------------------
# 9. determinism

def test_criterion_09_byte_identical_deterministic_runs(tmp_path):
    rng = np.random.default_rng(1009)
    h = two_cluster_hypergraph(rng, half=40, inner=45, cross=3)
    hgr = _write_instance(tmp_path, "c9.hgr", h)
    outputs, metric_views = [], []
    for i in range(10):
        out = tmp_path / f"c9_{i}.part"
        met = tmp_path / f"c9_{i}.met"
        code = cli.main(
            ["partition", "--input", str(hgr), "--k", "2", "--num-init", "3",
             "--output", str(out), "--metrics", str(met)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
        stable = [
            line for line in met.read_text().splitlines()
            if not line.startswith("time_")
        ]
        metric_views.append(stable)
    identical = all(b == outputs[0] for b in outputs)
    metrics_same = all(mv == metric_views[0] for mv in metric_views)
    _report(
        9,
        "10/10 deterministic runs emit byte-identical partitions",
        identical and metrics_same,
        f"identical={identical}, metrics_same={metrics_same}",
    )


# ---------------------------------------------------------------------------
# 10. soft benchmark target

def test_criterion_10_benchmark_target(tmp_path):
    if not BENCHMARK.exists():
        print("[acceptance 10] benchmark target: SKIP (no benchmark files)")
        pytest.skip("benchmark files not present")
    out = tmp_path / "ibm01.part"
    start = time.perf_counter()
    code = cli.main(
        ["partition", "--input", str(BENCHMARK), "--k", "2",
         "--epsilon", "0.04", "--output", str(out)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    assign = _read_assignment(out)
    hg = parse_hmetis(BENCHMARK.read_text())
    cut = km1_oracle(hg, assign)
    _report(
        10,
        "ibm01 k=2 within the cutsize target",
        cut <= 260 and elapsed < 600.0,
        f"cutsize={cut}, elapsed={elapsed:.0f}s",
    )
