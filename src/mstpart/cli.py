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


def _grid(help):
    return {"type": float, "nargs": "+", "help": help}


# Every flag that sets a config value: the PipelineConfig field it sets
# ("apg." for a solver parameter), how its parsed value becomes the field's
# value, and its argparse settings.  ``_set`` runs the library's checks.
REFINE_FLAGS = {
    "--xi1": ("xi1", tuple, _grid("pair-refinement grid for xi1")),
    "--xi2": ("xi2", tuple, _grid("pair-refinement grid for xi2")),
    "--pair-rounds": ("pair_rounds", int, {"type": int, "help": "pairwise improvement rounds"}),
    "--apg-max-iters": ("apg.max_iters", int, {"type": int, "help": "solver iteration cap"}),
    "--apg-epsilon": ("apg.epsilon", float, {"type": float, "help": "solver residual tolerance"}),
}
PIPELINE_FLAGS = {
    **REFINE_FLAGS,
    "--num-init": ("num_init", int, {"type": int, "help": "initial partition candidates (default 10)"}),
    "--lambda1": ("lambda1", tuple, _grid("embedding grid for lambda1")),
    "--lambda2": ("lambda2", tuple, _grid("embedding grid for lambda2")),
    "--p": ("p", lambda p: (p,), {"type": int, "help": "fixed cluster count"}),
    "--p-rule": ("p", lambda rule: ("sqrt", "linear") if rule == "both" else (rule,),
                 {"choices": ["sqrt", "linear", "both"],
                  "help": "cluster-count rule(s) when --p is not given (default both)"}),
}
SWEEP_AXES = ("p", "num_init", "lambda1", "lambda2", "xi1", "xi2")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_config_flags(sp, flags):
    sp.add_argument("--metrics", help="also write the metric lines to this file")
    group = sp.add_mutually_exclusive_group()  # --p and --p-rule both set p
    for flag, (field, _, settings) in flags.items():
        (group if field == "p" else sp).add_argument(flag, **settings)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mstpart", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("partition", help="partition a hypergraph")
    _add_instance_flags(sp)
    _add_config_flags(sp, PIPELINE_FLAGS)
    sp.add_argument("--output", required=True, help="partition file to write")
    sp.set_defaults(func=cmd_partition)

    se = sub.add_parser("evaluate", help="score an existing partition")
    _add_instance_flags(se, partition_file=True)
    se.add_argument("--metrics", help="also write the metric lines to this file")
    se.set_defaults(func=cmd_evaluate)

    si = sub.add_parser("improve", help="refine an existing partition")
    _add_instance_flags(si, partition_file=True)
    _add_config_flags(si, REFINE_FLAGS)
    si.add_argument("--output", required=True, help="improved partition file to write")
    si.set_defaults(func=cmd_improve)

    sw = sub.add_parser("sweep", help="rerun the pipeline along one parameter axis")
    _add_instance_flags(sw)
    _add_config_flags(sw, PIPELINE_FLAGS)
    sw.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sw.add_argument("--values", nargs="+", help="axis values (p axis defaults to its two rules)")
    sw.add_argument("--csv", help="also write the CSV rows to this file")
    sw.set_defaults(func=cmd_sweep)
    return parser


def _resolve_epsilon(args) -> float:
    if args.ubfactor is None:
        return default_epsilon(args.k) if args.epsilon is None else args.epsilon
    if args.k < 2:
        raise CliError(f"--ubfactor needs --k >= 2, got {args.k}")
    return _flagged("--ubfactor", epsilon_from_ubfactor, args.ubfactor, args.k)


def _flagged(flag: str, check, *args):
    """``check(*args)``, with a ``ValueError`` reported as an error naming ``flag``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _set(config: PipelineConfig, flag: str, value, k: int) -> PipelineConfig:
    """A copy of ``config`` with the field of ``flag`` set from its parsed
    ``value``, checked for k blocks by the library's own checks."""
    field, to_field, _ = PIPELINE_FLAGS[flag]
    try:
        value = to_field(value)
        if field.startswith("apg."):
            field, value = "apg", dataclasses.replace(config.apg, **{field[4:]: value})
        return dataclasses.replace(config, **{field: value}).check(k)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _config(args, flags) -> PipelineConfig:
    """The config that the given flags set."""
    config = PipelineConfig()
    for flag in flags:
        value = getattr(args, _dest(flag))
        if value is not None:
            config = _set(config, flag, value, args.k)
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
    if args.k < 1:
        raise CliError("--k must be >= 1")
    t0 = time.perf_counter()
    h = parse_hmetis(_read_text(args.input))
    io_time = time.perf_counter() - t0
    eps = _resolve_epsilon(args)  # one from --ubfactor always fits a spec
    spec = _flagged("--epsilon", BalanceSpec.for_hypergraph, h, args.k, eps)
    return h, spec, eps, io_time


def cmd_partition(args) -> int:
    h, spec, eps, io_time = _load_instance(args)
    config = _config(args, PIPELINE_FLAGS)
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
    config = _config(args, REFINE_FLAGS)
    out, report = improve_partition(h, p, spec, config)

    t0 = time.perf_counter()
    _write_text(args.output, write_partition(out))
    io_time += time.perf_counter() - t0

    before = report["cutsize_before"]
    after = report["cutsize_after"]
    ratio = after / before if before else (float("inf") if after else 1.0)
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


def _sweep_entry(args, flag: str, base: PipelineConfig, raw: str) -> PipelineConfig:
    """``base`` with one ``--values`` entry set as the axis flag ``flag``
    would set it, so that a bad entry fails before any run starts."""
    settings = PIPELINE_FLAGS[flag][2]
    try:
        value = settings["type"](raw)
        return _set(base, flag, [value] if "nargs" in settings else value, args.k)
    except (CliError, ValueError) as exc:
        raise CliError(f"--values {raw!r}: {exc}") from None


def cmd_sweep(args) -> int:
    h, spec, _, _ = _load_instance(args)
    axis_flag = "--" + args.axis.replace("_", "-")
    base = _config(args, PIPELINE_FLAGS)

    if args.axis == "p" and not args.values:
        entries = [("sqrt(n/2)", dataclasses.replace(base, p=("sqrt",))),
                   ("n/(5k)", dataclasses.replace(base, p=("linear",)))]
    elif not args.values:
        raise CliError(f"axis {args.axis!r} needs --values")
    else:
        entries = [(raw, _sweep_entry(args, axis_flag, base, raw)) for raw in args.values]
    field = PIPELINE_FLAGS[axis_flag][0]
    for flag, (other, _, _) in PIPELINE_FLAGS.items():
        if other == field and getattr(args, _dest(flag)) is not None:
            raise CliError(f"{flag} cannot be combined with --axis {args.axis}, "
                           "which sets it on every run")

    rows = ["value,cutsize,time"]
    all_feasible = True
    for label, config in entries:
        res = run_pipeline(h, spec, config)
        if args.axis == "p" and args.values and res.candidates:
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
