"""Command-line entry points.

Subcommands: ``generate`` (dataset CSV), ``run`` (one experiment),
``compare`` (method table), ``sweep-focal`` (alpha/beta grid),
``sweep-ensemble`` (size sweep), ``report`` (re-emit files from a stored
artifacts.json). All take a YAML config; ``--seed`` and ``--out``
override config fields. Tables land on stdout and in the output
directory. Exit code 0 on success, 1 with a one-line diagnostic on error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional

from . import config as cfgmod
from . import reports
from .datasets import generate as generate_dataset
from .harness import compare_methods, run_experiment, sweep_ensemble, sweep_focal


def _document(args) -> dict:
    return cfgmod.load_document(args.config) if args.config else {}


def _load(args) -> tuple:
    """The experiment, with the CLI overrides, and the sweep lists."""
    doc = _document(args)
    cfg = cfgmod.experiment_from_document(doc)
    cfg = cfgmod.apply_overrides(cfg, seed=args.seed,
                                 output_dir=getattr(args, "out", None))
    return cfg, cfgmod.sweep_lists_from_document(doc)


def _out_dir(cfg) -> str:
    return cfg.output_dir if cfg.output_dir is not None else "pctlab_out"


def _note(files) -> None:
    print(f"wrote {len(files)} file(s): " + ", ".join(files), file=sys.stderr)


def _emit(table, write, cfg, fmt: str) -> int:
    """Write ``table``'s files with ``write`` and print it as CSV."""
    files = write(table, _out_dir(cfg), fmt)
    sys.stdout.write(table.to_csv())
    _note(files)
    return 0


def _cmd_generate(args) -> int:
    spec = cfgmod.experiment_from_document(_document(args)).dataset
    if args.seed is not None:  # for generate, the seed drives the data
        spec = replace(spec, seed=args.seed)
    text = generate_dataset(spec).to_csv()
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        _note([args.out])
    return 0


def _cmd_run(args) -> int:
    cfg, _ = _load(args)
    result = run_experiment(cfg)
    files = reports.write_experiment(result, _out_dir(cfg), args.format)
    sys.stdout.write(reports.summary_csv(result))
    _note(files)
    return 0


def _cmd_compare(args) -> int:
    cfg, sweeps = _load(args)
    table = compare_methods(cfg, sweeps.methods)
    return _emit(table, reports.write_comparison, cfg, args.format)


def _cmd_sweep_focal(args) -> int:
    cfg, sweeps = _load(args)
    if cfg.pc.mode != "focal":  # the sweep only makes sense for fd_*
        method = "fd_kl" if cfg.pc.distance.kind == "kl" else "fd_lm"
        cfg = replace(cfg, method=method)
        print(f"note: method is not focal distillation; using {method}",
              file=sys.stderr)
    table = sweep_focal(cfg, sweeps.focal_grid)
    return _emit(table, reports.write_focal_sweep, cfg, args.format)


def _cmd_sweep_ensemble(args) -> int:
    cfg, sweeps = _load(args)
    table = sweep_ensemble(cfg, sweeps.ensemble_sizes)
    return _emit(table, reports.write_ensemble_sweep, cfg, args.format)


def _cmd_report(args) -> int:
    result = reports.load_result(args.artifacts)
    out = args.out if args.out is not None else "pctlab_out"
    files = reports.write_experiment(result, out, args.format)
    sys.stdout.write(reports.summary_csv(result))
    _note(files)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pctlab",
        description="Desk-scale lab for update regression: negative-flip "
                    "metrics, focal distillation, and ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=True, out_help="output directory"):
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the base seed")
        p.add_argument("--out", default=None, help=out_help)
        if fmt:
            p.add_argument("--format", choices=reports.FORMATS, default="csv",
                           help="summary/table emission format")

    p = sub.add_parser("generate", help="write the synthetic dataset as CSV")
    common(p, fmt=False, out_help="output file ('-' or omit for stdout)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("run", help="run one experiment")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("compare", help="run several methods on one scenario")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep-focal", help="grid over filter weights alpha/beta")
    common(p)
    p.set_defaults(func=_cmd_sweep_focal)

    p = sub.add_parser("sweep-ensemble", help="flip metrics versus ensemble size")
    common(p)
    p.set_defaults(func=_cmd_sweep_ensemble)

    p = sub.add_parser("report", help="re-emit files from a stored artifacts.json")
    p.add_argument("--artifacts", default="artifacts.json",
                   help="path to artifacts.json")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=reports.FORMATS, default="csv")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
