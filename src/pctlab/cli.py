"""Command-line entry points.

Subcommands: ``generate`` (dataset CSV), ``run`` (one experiment),
``compare`` (method table), ``sweep-focal`` (alpha/beta grid),
``sweep-ensemble`` (size sweep), ``report`` (re-emit files from a stored
artifacts.json). The four experiment subcommands share one handler, driven
by ``_COMMANDS``. All take a YAML config; ``--seed`` and ``--out``
override config fields. Tables land on stdout and in the output
directory. Exit code 0 on success, 1 with a one-line diagnostic on an
error of the config or the run; an argument error, such as an unknown
option, a missing subcommand or ``--seed abc``, exits 2 with argparse's
usage line.
"""

from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from dataclasses import replace
from typing import Optional

from . import config as cfgmod
from . import reports
from .datasets import generate as generate_dataset
from .harness import compare_methods, run_experiment, sweep_ensemble, sweep_focal
from .tables import Table


def _sweep_focal(cfg, sweeps):
    if cfg.pc.mode != "focal":  # the sweep only makes sense for fd_*
        method = "fd_kl" if cfg.pc.distance.kind == "kl" else "fd_lm"
        cfg = replace(cfg, method=method)
        print(f"note: method is not focal distillation; using {method}",
              file=sys.stderr)
    return sweep_focal(cfg, sweeps.focal_grid)


# an experiment subcommand: its help text, what it computes from the config
# and the sweep lists (looking its harness function up when it runs, so a
# test may replace that here), its ``reports`` writer and the table it prints
_Command = namedtuple("_Command", "help compute write show")
_COMMANDS = {
    "run": _Command("run one experiment", lambda cfg, s: run_experiment(cfg),
                    reports.write_experiment, reports.summary_csv),
    "compare": _Command("run several methods on one scenario",
                        lambda cfg, s: compare_methods(cfg, s.methods),
                        reports.write_comparison, Table.to_csv),
    "sweep-focal": _Command("grid over filter weights alpha/beta", _sweep_focal,
                            reports.write_focal_sweep, Table.to_csv),
    "sweep-ensemble": _Command("flip metrics versus ensemble size",
                               lambda cfg, s: sweep_ensemble(cfg, s.ensemble_sizes),
                               reports.write_ensemble_sweep, Table.to_csv),
}


def _document(args) -> dict:
    return cfgmod.load_document(args.config) if args.config else {}


def _note(files) -> None:
    print(f"wrote {len(files)} file(s): " + ", ".join(files), file=sys.stderr)


def _emit(result, command: _Command, out: Optional[str], fmt: str) -> int:
    """Write ``result``'s files into ``out`` and print its table."""
    files = command.write(result, out if out is not None else "pctlab_out", fmt)
    sys.stdout.write(command.show(result))
    _note(files)
    return 0


def _cmd_experiment(args) -> int:
    """The one handler of ``run``, ``compare`` and the two sweeps."""
    doc = _document(args)
    cfg = cfgmod.apply_overrides(cfgmod.experiment_from_document(doc),
                                 seed=args.seed, output_dir=args.out)
    command = _COMMANDS[args.command]
    result = command.compute(cfg, cfgmod.sweep_lists_from_document(doc))
    return _emit(result, command, cfg.output_dir, args.format)


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


def _cmd_report(args) -> int:
    return _emit(reports.load_result(args.artifacts), _COMMANDS["run"],
                 args.out, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pctlab",
        description="Desk-scale lab for update regression: negative-flip "
                    "metrics, focal distillation, and ensembles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, func, out_help="output directory"):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="YAML experiment config")
        p.add_argument("--seed", type=int, help="override the base seed")
        p.add_argument("--out", help=out_help)
        p.set_defaults(func=func)
        return p

    add("generate", "write the synthetic dataset as CSV", _cmd_generate,
        out_help="output file ('-' or omit for stdout)")
    for name, command in _COMMANDS.items():
        add(name, command.help, _cmd_experiment).add_argument(
            "--format", choices=reports.FORMATS, default="csv",
            help="summary/table emission format")

    p = sub.add_parser("report", help="re-emit files from a stored artifacts.json")
    p.add_argument("--artifacts", default="artifacts.json",
                   help="path to artifacts.json")
    p.add_argument("--out", help="output directory")
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
