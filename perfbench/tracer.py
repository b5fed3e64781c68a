"""Outside-in tracing of the mstpart layers.

The tracer replaces public functions of the ``mstpart`` modules with timing
wrappers from the outside, so the library itself carries no tracing code.
Each wrapped call becomes a span (name, start, end, parent span) kept in
memory; the two functions called hundreds of thousands of times per solve
(``ObjectiveOperator.apply`` and ``Partition.move``) are aggregated per
enclosing span instead of recorded one by one.  ``uninstall`` restores every
original binding.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.leaves = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, s]
        self.counts = defaultdict(float)  # counters read from return values
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, observe=None):
        """Wrap ``owner.attr`` so every call records a span named ``name``;
        ``observe(counts, args, result)`` may add counters from the call."""
        fn = owner.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, now(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = now()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        self._patch(owner, attr, wrapper)

    def leaf(self, owner, attr, name_of):
        """Wrap a hot method; calls and time aggregate per enclosing span
        under the name ``name_of(args)``."""
        fn = owner.__dict__[attr]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = self.leaves[(name_of(args), self._stack[-1] if self._stack else -1)]
                cell[0] += 1
                cell[1] += now() - t0

        self._patch(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def layer_times(self):
        """{layer: [calls, inclusive s, self s]}.  A span's self time is its
        duration minus its child spans and the aggregated calls under it."""
        child_time = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for (name, parent), (_, secs) in self.leaves.items():
            if parent >= 0:
                child_time[parent] += secs
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_time[i]
        for (name, _), (calls, secs) in self.leaves.items():
            row = table[name]
            row[0] += calls
            row[1] += secs
            row[2] += secs
        return dict(table)

    def leaf_calls_under(self, leaf_name, span_name):
        """Calls of an aggregated leaf whose enclosing span is ``span_name``."""
        return sum(
            calls
            for (name, parent), (calls, _) in self.leaves.items()
            if name == leaf_name and parent >= 0 and self.spans[parent][0] == span_name
        )

    def dump(self):
        """Spans and aggregated leaves in a JSON-ready form."""
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": n, "start": t0 - base, "end": t1 - base, "parent": p}
                for n, t0, t1, p in self.spans
            ],
            "leaves": [
                {"name": n, "parent": p, "calls": c, "seconds": s}
                for (n, p), (c, s) in self.leaves.items()
            ],
        }


# ---------------------------------------------------------------------------
# the mstpart layers


def _apg(prefix):
    def observe(counts, args, result):
        counts[prefix + ".solves"] += 1
        counts[prefix + ".iters"] += result.iterations
        counts[prefix + ".converged"] += bool(result.converged)
        counts[prefix + ".accepted"] += sum(1 for rec in result.trace if rec.accepted)

    return observe


def _gain(key):
    def observe(counts, args, result):
        counts[key] += args[1].cutsize - result.cutsize

    return observe


def _repair(counts, args, result):
    counts["refine.repair_calls"] += 1
    counts["refine.repair_ok"] += bool(result[1])


def _bipartition(counts, args, result):
    counts["refine.bipartition_calls"] += 1
    counts["refine.bipartition_feasible"] += bool(result.feasible)


def _coarsen(counts, args, result):
    counts["coarsen.levels"] += len(result)
    counts["coarsen.coarsest_n"] += result.coarsest(args[0]).n


def _clique(counts, args, result):
    counts["operators.clique_nnz"] += result.adjacency.nnz


def install(t: Tracer) -> None:
    """Wrap the entry points and every layer the benchmark reports into ``t``.

    Callers bind most functions by name at import time, so the wrapper goes
    on the name each caller looks up: ``mstpart.pipeline.minimize`` is the
    embedding solve and ``mstpart.refine.minimize`` the pair solve.
    """
    # the package re-exports functions named like its modules (``coarsen``)
    mod = {m: importlib.import_module("mstpart." + m) for m in (
        "coarsen", "hypergraph", "initial", "operators", "pipeline", "refine")}
    coarsen, hypergraph, initial = mod["coarsen"], mod["hypergraph"], mod["initial"]
    operators, pipeline, refine = mod["operators"], mod["pipeline"], mod["refine"]
    t.span(pipeline, "run_pipeline", "pipeline.run_pipeline")
    t.span(pipeline, "improve_partition", "pipeline.improve_partition")
    t.span(pipeline, "coarsen", "coarsen", _coarsen)
    t.span(coarsen, "build_matching", "coarsen.matching")
    t.span(coarsen, "contract", "coarsen.contract")
    t.span(pipeline, "_project", "coarsen.project")
    t.span(pipeline, "clique_expand", "operators.clique_expand", _clique)
    t.span(refine, "clique_expand", "operators.clique_expand", _clique)
    t.span(pipeline, "minimize", "apg.embed", _apg("apg.embed"))
    t.span(refine, "minimize", "apg.pair", _apg("apg.pair"))
    t.span(initial, "mst_partition_small", "initial.mst")
    t.span(initial, "representative_partition_large", "initial.mst")
    t.span(pipeline, "repair_feasibility", "refine.repair", _repair)
    t.span(pipeline, "pairwise_improve", "refine.pairwise", _gain("refine.pairwise_gain"))
    t.span(refine, "pair_blocks", "refine.pair_blocks")
    t.span(refine, "mst_bipartition", "refine.bipartition", _bipartition)
    t.span(pipeline, "kway_fm", "refine.fm", _gain("refine.fm_gain"))
    short = {"embedding": "embed", "pair": "pair"}
    t.leaf(operators.ObjectiveOperator, "apply",
           lambda a: "operators.apply." + short.get(a[0].mode, a[0].mode))
    t.leaf(hypergraph.Partition, "move", lambda a: "hypergraph.move")
