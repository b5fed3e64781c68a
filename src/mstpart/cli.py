"""Batch command-line front end.

Subcommands: ``partition`` runs the full pipeline on an hMetis-format file,
``evaluate`` scores an existing partition file, ``improve`` refines one, and
``sweep`` reruns the pipeline along one parameter axis emitting CSV.  Exit
status is 0 for a feasible result, 2 for an infeasible one, 1 for errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from .apg import ApgParams
from .hypergraph import (
    BalanceSpec,
    HgrFormatError,
    Partition,
    PartitionFormatError,
    default_epsilon,
    epsilon_from_ubfactor,
    is_feasible,
    parse_hmetis,
    read_partition,
    write_partition,
)
from .pipeline import PipelineConfig, improve_partition, run_pipeline

__all__ = ["main", "build_parser"]

SWEEP_AXES = ("p", "num_init", "lambda1", "lambda2", "xi1", "xi2")


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems through the error exit code."""

    def error(self, message):
        raise CliError(message)


def _add_instance_flags(sp, partition_file=False):
    sp.add_argument("--input", required=True, help="hMetis .hgr file")
    if partition_file:
        sp.add_argument("--partition", required=True, help="partition file, one block id per line")
    sp.add_argument("--k", type=int, required=True, help="number of blocks")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--epsilon", type=float, help="balance slack (default depends on k)")
    group.add_argument("--ubfactor", type=float, help="hMetis-style UBfactor, converted to epsilon")


def _add_refine_flags(sp):
    sp.add_argument("--metrics", help="also write the metric lines to this file")
    sp.add_argument("--xi1", type=float, nargs="+", help="pair-refinement grid for xi1")
    sp.add_argument("--xi2", type=float, nargs="+", help="pair-refinement grid for xi2")
    sp.add_argument("--pair-rounds", type=int, help="pairwise improvement rounds")
    sp.add_argument("--apg-max-iters", type=int, help="solver iteration cap")
    sp.add_argument("--apg-epsilon", type=float, help="solver residual tolerance")


def _add_pipeline_flags(sp):
    _add_refine_flags(sp)
    sp.add_argument("--num-init", type=int, default=10, help="initial partition candidates")
    sp.add_argument("--lambda1", type=float, nargs="+", help="embedding grid for lambda1")
    sp.add_argument("--lambda2", type=float, nargs="+", help="embedding grid for lambda2")
    sp.add_argument("--tau", type=float, help="similarity threshold for MST building")
    sp.add_argument("--p", type=int, dest="p_override", help="fixed cluster count override")
    sp.add_argument("--p-rule", choices=["sqrt", "linear", "both"], default="both",
                    help="cluster-count rule(s) when --p is not given")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mstpart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partition", help="partition a hypergraph")
    _add_instance_flags(sp)
    _add_pipeline_flags(sp)
    sp.add_argument("--output", required=True, help="partition file to write")
    sp.set_defaults(func=cmd_partition)

    se = sub.add_parser("evaluate", help="score an existing partition")
    _add_instance_flags(se, partition_file=True)
    se.add_argument("--metrics", help="also write the metric lines to this file")
    se.set_defaults(func=cmd_evaluate)

    si = sub.add_parser("improve", help="refine an existing partition")
    _add_instance_flags(si, partition_file=True)
    _add_refine_flags(si)
    si.add_argument("--output", required=True, help="improved partition file to write")
    si.set_defaults(func=cmd_improve)

    sw = sub.add_parser("sweep", help="rerun the pipeline along one parameter axis")
    _add_instance_flags(sw)
    _add_pipeline_flags(sw)
    sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sw.add_argument("--values", nargs="+", help="axis values (p axis defaults to its two rules)")
    sw.add_argument("--csv", help="also write the CSV rows to this file")
    sw.set_defaults(func=cmd_sweep)
    return parser


def _resolve_epsilon(args) -> float:
    if args.epsilon is not None:
        if not 0 <= args.epsilon < float("inf"):  # NaN fails too
            raise CliError("--epsilon must be finite and >= 0")
        return args.epsilon
    if args.ubfactor is not None:
        return epsilon_from_ubfactor(args.ubfactor, args.k)
    return default_epsilon(args.k)


def _checked_p(p: int, k: int) -> int:
    if p < k:
        raise CliError(f"--p must be >= k ({k}), got {p}")
    return p


def _refine_config(args) -> PipelineConfig:
    """The config that the flags of ``_add_refine_flags`` set."""
    if args.pair_rounds is not None and args.pair_rounds < 0:
        raise CliError("--pair-rounds must be >= 0")
    if args.apg_max_iters is not None and args.apg_max_iters < 1:
        raise CliError("--apg-max-iters must be >= 1")
    if args.apg_epsilon is not None and not args.apg_epsilon > 0:  # NaN too
        raise CliError("--apg-epsilon must be > 0")
    config = PipelineConfig()
    if args.xi1:
        config.xi1 = tuple(args.xi1)
    if args.xi2:
        config.xi2 = tuple(args.xi2)
    if args.pair_rounds is not None:
        config.pair_rounds = args.pair_rounds
    apg_kw = {}
    if args.apg_max_iters is not None:
        apg_kw["max_iters"] = args.apg_max_iters
    if args.apg_epsilon is not None:
        apg_kw["epsilon"] = args.apg_epsilon
    if apg_kw:
        config.apg = ApgParams(**apg_kw)
    return config


def _config_from_args(args) -> PipelineConfig:
    if args.num_init < 1:
        raise CliError("--num-init must be >= 1")
    config = _refine_config(args)
    config.num_init = args.num_init
    if args.lambda1:
        config.lambda1 = tuple(args.lambda1)
    if args.lambda2:
        config.lambda2 = tuple(args.lambda2)
    if args.tau is not None:
        if np.isnan(args.tau):
            raise CliError("--tau must not be NaN")
        config.tau = args.tau
    if args.p_override is not None:
        config.p_override = _checked_p(args.p_override, args.k)
    if args.p_rule != "both":
        config.p_rules = (args.p_rule,)
    return config


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(lines, metrics_path=None):
    out = "\n".join(lines) + "\n"
    sys.stdout.write(out)
    if metrics_path:
        _write_text(metrics_path, out)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _load_instance(args):
    t0 = time.perf_counter()
    h = parse_hmetis(_read_text(args.input))
    io_time = time.perf_counter() - t0
    if args.k < 1:
        raise CliError("k must be >= 1")
    eps = _resolve_epsilon(args)
    spec = BalanceSpec.for_hypergraph(h, args.k, eps)
    return h, spec, eps, io_time


def cmd_partition(args) -> int:
    h, spec, eps, io_time = _load_instance(args)
    config = _config_from_args(args)
    res = run_pipeline(h, spec, config)

    t0 = time.perf_counter()
    _write_text(args.output, write_partition(res.partition))
    io_time += time.perf_counter() - t0

    lines = [
        f"cutsize={res.cutsize}",
        f"feasible={_flag(res.feasible)}",
        f"k={spec.k}",
        f"epsilon={eps:.6g}",
        f"n={h.n}",
        f"m={h.m}",
        "block_weights=" + ",".join(str(int(w)) for w in res.partition.block_weight),
        f"upper_bound={spec.cap:.6g}",
        f"levels={res.levels}",
        f"num_init={config.num_init}",
    ]
    for phase in ("coarsen", "initial", "uncoarsen", "total"):
        if phase in res.timings:
            lines.append(f"time_{phase}={res.timings[phase]:.6f}")
    lines.append(f"time_io={io_time:.6f}")
    _emit(lines, args.metrics)
    return 0 if res.feasible else 2


def _edge_span_histogram(p: Partition) -> np.ndarray:
    spans = np.count_nonzero(p.pin_count, axis=1)
    return np.bincount(spans, minlength=p.k + 1)[1 : p.k + 1]


def cmd_evaluate(args) -> int:
    h, spec, eps, _ = _load_instance(args)
    p = read_partition(_read_text(args.partition), h, spec.k)
    feasible = is_feasible(p, spec)
    hist = _edge_span_histogram(p)
    lines = [
        f"cutsize={p.cutsize}",
        f"k={spec.k}",
        f"epsilon={eps:.6g}",
    ]
    lines += [f"mu_{i + 1}={int(c)}" for i, c in enumerate(hist)]
    lines += [
        "block_weights=" + ",".join(str(int(w)) for w in p.block_weight),
        f"upper_bound={spec.cap:.6g}",
        f"feasible={_flag(feasible)}",
    ]
    _emit(lines, args.metrics)
    return 0 if feasible else 2


def cmd_improve(args) -> int:
    h, spec, eps, io_time = _load_instance(args)
    p = read_partition(_read_text(args.partition), h, spec.k)
    config = _refine_config(args)
    out, report = improve_partition(h, p, spec, config)

    t0 = time.perf_counter()
    _write_text(args.output, write_partition(out))
    io_time += time.perf_counter() - t0

    before = report["cutsize_before"]
    after = report["cutsize_after"]
    ratio = after / before if before else 1.0
    lines = [
        f"cutsize_before={before}",
        f"cutsize_after={after}",
        f"ratio={ratio:.6f}",
        f"repaired={_flag(report['repaired'])}",
        f"feasible={_flag(report['feasible'])}",
        f"time_io={io_time:.6f}",
    ]
    _emit(lines, args.metrics)
    return 0 if report["feasible"] else 2


def cmd_sweep(args) -> int:
    h, spec, _, _ = _load_instance(args)
    base = _config_from_args(args)

    if args.axis == "p" and not args.values:
        entries = [("sqrt(n/2)", {"p_rules": ("sqrt",), "p_override": None}),
                   ("n/(5k)", {"p_rules": ("linear",), "p_override": None})]
    elif not args.values:
        raise CliError(f"axis {args.axis!r} needs --values")
    else:
        entries = []
        for raw in args.values:
            if args.axis == "p":
                entries.append((raw, {"p_override": _checked_p(int(raw), args.k)}))
            elif args.axis == "num_init":
                entries.append((raw, {"num_init": int(raw)}))
            else:
                entries.append((raw, {args.axis: (float(raw),)}))

    rows = ["value,cutsize,time"]
    all_feasible = True
    for label, override in entries:
        config = dataclasses.replace(base, **override)
        res = run_pipeline(h, spec, config)
        if override.get("p_override") and res.candidates:
            label = res.candidates[0].p  # the p that ran: clamped to the coarsest n
        rows.append(f"{label},{res.cutsize},{res.timings['total']:.6f}")
        all_feasible = all_feasible and res.feasible
    out = "\n".join(rows) + "\n"
    sys.stdout.write(out)
    if args.csv:
        _write_text(args.csv, out)
    return 0 if all_feasible else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, HgrFormatError, PartitionFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
