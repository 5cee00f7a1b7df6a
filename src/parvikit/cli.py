"""Command-line interface: list-methods, run, sweep, eval-w2."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .dynamics import ConfigurationError, NumericalDivergenceError
from .harness import (
    list_methods,
    load_config,
    load_point_cloud_csv,
    run_experiment,
    sweep,
    write_csv,
    write_svg_lineplot,
)
from .metrics import SizeGuardError, wasserstein2_exact, wasserstein2_sinkhorn
from .targets import ParseError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="parvikit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-methods", help="print the registered method ids")

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("--config", required=True, help="path to a key=value config file")
    run.add_argument("--out", default=".", help="output directory (default: cwd)")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")

    sw = sub.add_parser("sweep", help="run a particle-count grid across seeds")
    sw.add_argument("--config", required=True)
    sw.add_argument("--particles", default="32,64,128,256,512",
                    help="comma-separated particle counts")
    sw.add_argument("--seeds", default="0:10",
                    help="seed range start:stop or comma-separated list")
    sw.add_argument("--out", default="sweep_out", help="output directory")

    ev = sub.add_parser("eval-w2", help="2-Wasserstein distance between two point-cloud CSVs")
    ev.add_argument("--a", required=True)
    ev.add_argument("--b", required=True)
    ev.add_argument("--eps", type=float, default=None,
                    help="use the entropic solver with this regularization instead of the exact LP")
    return parser


def _parse_int_list(text: str, what: str):
    try:
        if ":" in text:
            start, stop = text.split(":", 1)
            values = list(range(int(start), int(stop)))
        else:
            values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError("bad %s specification %r" % (what, text)) from None
    if not values:
        raise UsageError("empty %s specification %r" % (what, text))
    return values


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    records, _ = run_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    stem = cfg.run_stem()
    csv_path = os.path.join(args.out, stem + ".csv")
    write_csv(records, csv_path)
    plot_field = "w2" if records[-1].w2 is not None else "mean_err"
    svg_path = os.path.join(args.out, stem + ".svg")
    write_svg_lineplot(records, plot_field, svg_path)
    print(csv_path)
    print(svg_path)
    final = records[-1]
    print("final: iteration=%d w2=%s mean_err=%g cov_err=%g"
          % (final.iteration, final.w2, final.mean_err, final.cov_err))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    grid = _parse_int_list(args.particles, "particle grid")
    seeds = _parse_int_list(args.seeds, "seed")
    summary = sweep(cfg, grid, seeds, args.out)
    print(summary)
    return EXIT_OK


def _cmd_eval_w2(args) -> int:
    a = load_point_cloud_csv(args.a)
    b = load_point_cloud_csv(args.b)
    if args.eps is not None:
        value, iters = wasserstein2_sinkhorn(a, b, eps=args.eps)
        print("%r (entropic, %d iterations)" % (value, iters))
    else:
        print(repr(wasserstein2_exact(a, b)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "list-methods":
            for name in list_methods():
                print(name)
            return EXIT_OK
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_eval_w2(args)
    except (UsageError, ConfigurationError, ParseError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (NumericalDivergenceError, SizeGuardError, RuntimeError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
