"""Benchmark of the mstpart partitioner on seeded circuit-like hypergraphs.

    python3 perfbench/run.py --workload quick-k4 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run generates the workload's instances from ``--seed`` and hands the
partitioner only their hMetis text.  Untraced, it solves the instances round
robin, each at least once, and starts another solve while it still fits in
``--seconds``.  Every result is checked against the benchmark's own cutsize
and balance computation.  The last line of standard output is one JSON
object holding the end-to-end metrics with ``--trace 0`` (times in reference
seconds, see reference.py), or with ``--trace 1`` the per-layer metrics from
traced passes over the instances, which alternate with untraced ones.  A record of the run (conditions, input
fingerprints, every solve and, when traced, every span) is written to
``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# read by the numeric libraries when they load, so set before numpy is
# imported: one thread each keeps the process at a single busy thread, like
# the partitioner's threads=1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 5
now = time.perf_counter


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mstpart benchmark")
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True

    if not (SRC / "mstpart" / "__init__.py").is_file():
        print(f"error: no mstpart sources in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import mstpart
    import workloads

    if Path(mstpart.__file__).resolve().parent != SRC / "mstpart":
        print(f"error: mstpart imported from {mstpart.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run(workloads.WORKLOADS[args.workload], args)


def run_all(args) -> int:
    """Run every workload in a process of its own and tabulate the results."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: {name} exited with status {proc.returncode}", file=sys.stderr)
            return 1
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    print()
    for name, res in rows:
        cells = [f"fail_frac={res['failed'] / res['attempted']:.4g}"]
        cells += [f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()]
        print(f"{name:12s} " + "  ".join(cells))
    return 0


# ---------------------------------------------------------------------------
# one workload


def run(w, args) -> int:
    import mstpart
    import tracer as tracing
    import workloads
    from reference import Reference

    epsilon = mstpart.default_epsilon(w.k)
    instances = [workloads.generate(w, args.seed, i) for i in range(w.instances)]
    for i, inst in enumerate(instances):
        print(f"# instance {i}: sha256 {inst.sha256}  n {inst.n}  "
              f"pins {sum(len(p) for p in inst.pins)}  planted_km1 {inst.planted_km1}")

    solver = Solver(mstpart, w, epsilon, instances, Reference())
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []  # entry-call seconds per pass, trace mode only
    start = now()
    if tracer is None:
        # round robin over the instances while the next solve should still
        # fit, so every instance gets as many timed repeats as time allows
        last = {}  # instance -> wall time of its latest solve
        while True:
            i = len(solver.records) % len(instances)
            if i in last and now() - start + last[i] > args.seconds:
                break
            t0 = now()
            solver.solve(i, traced=False)
            last[i] = now() - t0
    else:
        # untraced and traced passes alternate, for the tracing overhead
        while True:
            cycle = now()
            untraced.append(solver.run_pass(traced=False))
            tracing.install(tracer)
            try:
                traced.append(solver.run_pass(traced=True))
            finally:
                tracer.uninstall()
            if now() - start + (now() - cycle) > args.seconds:
                break

    if tracer is None:
        metrics = end_to_end(solver)
    else:
        metrics = per_layer(tracer, solver, untraced, traced)
    result = {
        "correct": solver.failed == 0,
        "attempted": len(solver.records),
        "failed": solver.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    cond = conditions(args)
    write_record(w, cond, instances, solver, result, tracer)
    print_summary(w, cond, solver, metrics, tracer, sum(traced))
    print(json.dumps(result))
    return 0


class Solver:
    """Calls the entry point on each instance and checks every answer."""

    def __init__(self, mstpart, w, epsilon, instances, reference):
        self.mstpart, self.w = mstpart, w
        self.reference = reference  # timed before every solve
        self.epsilon = epsilon
        self.instances = instances
        self.setup_s: list[float] = []  # parse plus balance spec, per set-up
        self.parse_s: list[float] = []
        cfg = dict(w.config)
        if "apg_max_iters" in cfg:
            cfg["apg"] = mstpart.ApgParams(max_iters=cfg.pop("apg_max_iters"))
        self.config = mstpart.PipelineConfig(**cfg)
        self.records: list[dict] = []
        self.failed = 0
        self.first: dict[int, tuple] = {}  # instance -> (km1, assignment digest)

    def run_pass(self, traced: bool) -> float:
        return sum(self.solve(i, traced) for i in range(len(self.instances)))

    def set_up(self, inst):
        """What a user pays before every run.  Timed SETUP_REPS times before
        each solve, so the samples spread over the whole run."""
        mp = self.mstpart
        for _ in range(SETUP_REPS):
            t0 = now()
            h = mp.parse_hmetis(inst.hgr)
            t1 = now()
            spec = mp.BalanceSpec.for_hypergraph(h, self.w.k, self.epsilon)
            self.setup_s.append(now() - t0)
            self.parse_s.append(t1 - t0)
        return h, spec

    def solve(self, i: int, traced: bool) -> float:
        inst = self.instances[i]
        self.reference.sample()
        h, spec = self.set_up(inst)
        # looked up per call so that a traced pass sees the tracer's wrapper
        entry = getattr(self.mstpart.pipeline, self.w.entry)
        rec = {"instance": i, "traced": traced, "seconds": None, "km1": None,
               "problems": [], "timings": {}}
        try:
            if self.w.entry == "run_pipeline":
                t0 = now()
                res = entry(h, spec, self.config)
                rec["seconds"] = now() - t0
                assignment, cuts, feasible = res.partition.assignment, [res.cutsize], res.feasible
                rec["timings"] = dict(res.timings)
            else:
                start = self.mstpart.Partition(h, inst.start, self.w.k)
                t0 = now()
                part, report = entry(h, start, spec, self.config)
                rec["seconds"] = now() - t0
                assignment = part.assignment
                cuts, feasible = [part.cutsize, report["cutsize_after"]], report["feasible"]
            rec["km1"], rec["problems"] = self.check(i, assignment, cuts, feasible)
        except Exception:
            rec["problems"].append("raised: " + traceback.format_exc(limit=3))
            print(rec["problems"][-1], file=sys.stderr)
        self.failed += bool(rec["problems"])
        self.records.append(rec)
        return rec["seconds"] or 0.0

    def check(self, i, assignment, cuts, feasible):
        """Recompute km1 and the block weights from the assignment alone."""
        inst, k = self.instances[i], self.w.k
        a = np.asarray(assignment)
        if a.shape != (inst.n,) or a.dtype.kind not in "iu":
            return None, [f"assignment has shape {a.shape} and dtype {a.dtype}"]
        if a.size and (a.min() < 0 or a.max() >= k):
            return None, [f"block ids outside 0..{k - 1}"]
        km1 = inst.km1(a)
        weights = np.bincount(a, weights=inst.vertex_weight, minlength=k)
        total = int(inst.vertex_weight.sum())
        cap = (1.0 + self.epsilon) * -(-total // k)
        fits = bool(np.all(weights <= cap))
        problems = []
        if any(c != km1 for c in cuts):
            problems.append(f"reported cutsize {cuts} but km1 is {km1}")
        if bool(feasible) != fits:
            problems.append(f"reported feasible={feasible} but weights {weights} vs cap {cap}")
        if not fits:
            problems.append(f"infeasible: block weights {weights.tolist()} over cap {cap}")
        digest = hashlib.sha256(a.astype(np.int64).tobytes()).hexdigest()
        if self.first.setdefault(i, (km1, digest)) != (km1, digest):
            problems.append("result differs from the first solve of this instance")
        for p in problems:
            print(f"check failed on instance {i}: {p}", file=sys.stderr)
        return km1, problems


# ---------------------------------------------------------------------------
# metrics


def wall_times(solver):
    """solve: per instance the median over its untraced solves, averaged over
    the instances; setup: the median over all set-ups.  Wall-clock seconds."""
    per_instance = {}
    for r in solver.records:
        if not r["traced"] and r["seconds"] is not None:
            per_instance.setdefault(r["instance"], []).append(r["seconds"])
    medians = [statistics.median(v) for v in per_instance.values()]
    solve = statistics.fmean(medians) if medians else 0.0
    return solve, statistics.median(solver.setup_s)


def end_to_end(solver):
    """Times in reference seconds (see reference.py); km1: total over the
    instances."""
    solve, setup = wall_times(solver)
    scale = solver.reference.scale()
    km1 = sum(v[0] for v in solver.first.values())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "solve_s": (solve * scale, "s"),
        "setup_s": (setup * scale, "s"),
        "km1": (km1, "count"),
        "peak_rss_mb": (peak, "MB"),
    }


def _frac(a, b):
    return a / b if b else 0.0


def per_layer(tracer, solver, untraced, traced):
    """Per-layer values per pass: totals over the traced passes divided by
    their number.  Times are inclusive; the printed table gives self time."""
    n = len(traced)
    table = tracer.layer_times()
    c = tracer.counts

    def secs(layer):
        return table.get(layer, [0, 0.0, 0.0])[1] / n

    def calls(layer):
        return table.get(layer, [0, 0.0, 0.0])[0] / n

    traced_total = sum(traced)
    entry_layers = ("pipeline.run_pipeline", "pipeline.improve_partition")
    covered = sum(row[2] for name, row in table.items() if name not in entry_layers)
    timings = [r["timings"] for r in solver.records if r["traced"]]
    m = {}
    for kind in ("pair", "embed"):
        p = f"apg.{kind}"
        m[f"{p}.s"] = (secs(p), "s")
        m[f"{p}.solves"] = (c[p + ".solves"] / n, "count")
        m[f"{p}.iters"] = (c[p + ".iters"] / n, "count")
        m[f"{p}.converged_frac"] = (_frac(c[p + ".converged"], c[p + ".solves"]), "fraction")
    m["apg.pair.accept_frac"] = (_frac(c["apg.pair.accepted"], c["apg.pair.iters"]), "fraction")
    for kind in ("embed", "pair"):
        m[f"operators.apply_calls.{kind}"] = (calls(f"operators.apply.{kind}"), "count")
        m[f"operators.apply_s.{kind}"] = (secs(f"operators.apply.{kind}"), "s")
    m["operators.clique_expand_s"] = (secs("operators.clique_expand"), "s")
    m["operators.clique_nnz"] = (c["operators.clique_nnz"] / n, "count")
    m["refine.fm_s"] = (secs("refine.fm"), "s")
    m["refine.fm_calls"] = (calls("refine.fm"), "count")
    m["refine.fm_gain"] = (c["refine.fm_gain"] / n, "count")
    m["refine.repair_s"] = (secs("refine.repair"), "s")
    m["refine.repair.move_calls"] = (
        tracer.leaf_calls_under("hypergraph.move", "refine.repair") / n, "count")
    m["refine.repair_ok_frac"] = (_frac(c["refine.repair_ok"], c["refine.repair_calls"]), "fraction")
    m["refine.pairwise_s"] = (secs("refine.pairwise"), "s")
    m["refine.pairwise_gain"] = (c["refine.pairwise_gain"] / n, "count")
    m["refine.bipartition_calls"] = (c["refine.bipartition_calls"] / n, "count")
    m["refine.bipartition_feasible_frac"] = (
        _frac(c["refine.bipartition_feasible"], c["refine.bipartition_calls"]), "fraction")
    m["hypergraph.move_calls"] = (calls("hypergraph.move"), "count")
    m["hypergraph.move_s"] = (secs("hypergraph.move"), "s")
    m["hypergraph.parse_s"] = (statistics.median(solver.parse_s), "s")
    m["coarsen.s"] = (secs("coarsen"), "s")
    m["coarsen.levels"] = (c["coarsen.levels"] / n, "count")
    m["coarsen.coarsest_n"] = (_frac(c["coarsen.coarsest_n"], calls("coarsen") * n), "count")
    m["coarsen.matching_s"] = (secs("coarsen.matching"), "s")
    m["coarsen.contract_s"] = (secs("coarsen.contract"), "s")
    m["initial.mst_s"] = (secs("initial.mst"), "s")
    m["initial.mst_calls"] = (calls("initial.mst"), "count")
    for phase in ("coarsen", "initial", "uncoarsen"):
        m[f"pipeline.{phase}_s"] = (sum(t.get(phase, 0.0) for t in timings) / n, "s")
    m["trace.overhead"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "fraction")
    m["trace.coverage"] = (_frac(covered, traced_total), "fraction")
    return m


# ---------------------------------------------------------------------------
# output


def conditions(args):
    import scipy

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def write_record(w, cond, instances, solver, result, tracer):
    record = {
        "workload": w.name,
        "conditions": cond,
        "instances": [
            {"sha256": inst.sha256, "n": inst.n, "planted_km1": inst.planted_km1}
            for inst in instances
        ],
        "solves": solver.records,
        "reference_s": solver.reference.samples,
        "result": result,
    }
    if tracer is not None:
        record["trace"] = tracer.dump()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}-seed{cond['seed']}-trace{cond['trace']}.json"
    path.write_text(json.dumps(record) + "\n")


def print_summary(w, cond, solver, metrics, tracer, traced_total):
    print(f"# {w.name} seed {cond['seed']}: nproc {cond['nproc']}, python {cond['python']}, "
          f"numpy {cond['numpy']}, scipy {cond['scipy']}, blas {cond['blas']}, "
          f"numeric threads 1")
    scale = solver.reference.scale()
    times = sorted(r["seconds"] * scale for r in solver.records
                   if not r["traced"] and r["seconds"] is not None)
    line = f"# solves {len(solver.records)}, failed {solver.failed}, " \
           f"fail_frac {solver.failed / len(solver.records):.4g}"
    if len(times) > 20:
        # the highest percentile that still has ten samples beyond it
        pct = int(100 * (len(times) - 10) / len(times))
        line += f", solve_s.p{pct} {times[len(times) - 11]:.4f} s"
    print(line + f", untraced solve samples {len(times)}")
    solve, setup = wall_times(solver)
    print(f"# wall clock: solve {solve:.6g} s, setup {setup:.6g} s; reference "
          f"{1000 * statistics.fmean(solver.reference.samples):.4g} ms mean over "
          f"{len(solver.reference.samples)} samples, scale {scale:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    if tracer is None:
        return
    print(f"# {'layer':28s} {'calls':>9s} {'incl s':>9s} {'self s':>9s} {'self %':>7s}")
    rows = sorted(tracer.layer_times().items(), key=lambda kv: -kv[1][2])
    for name, (calls, incl, own) in rows:
        print(f"# {name:28s} {calls:9d} {incl:9.3f} {own:9.3f} {100 * own / traced_total:7.1f}")


if __name__ == "__main__":
    sys.exit(main())
