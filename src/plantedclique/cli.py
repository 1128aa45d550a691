"""Command-line interface.

Verbs:
    generate    write a graph instance (binary and/or edge list)
    run         execute a chain experiment from a config file or preset
    sweep       re-run an experiment across values of one config field
    peel        min-degree peeling with retention diagnostics
    coupled     planted/unplanted gradient descents from one seed
    landscape   brute-force oracle, local-minima scan or kappa table

Config files are flat key = value text (see the README); presets ship with
the package and are listed by ``run --list-presets``. The default output
directory is "runs", overridable per config or via $PLANTEDCLIQUE_OUT.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .graphs import save_graph, write_edge_list
from .harness import (ConfigError, ExperimentConfig, LandscapeConfig,
                      load_preset, parse_config, preset_names)


def _load_config(args, expected):
    if getattr(args, "preset", None):
        config = load_preset(args.preset)
    elif getattr(args, "config", None):
        config = parse_config(args.config)
    else:
        raise ConfigError([("config", "pass --config FILE or --preset NAME")])
    if not isinstance(config, expected):
        want = "run" if expected is ExperimentConfig else "landscape"
        raise ConfigError([("task", f"this verb needs a task = {want} config")])
    if getattr(args, "out_dir", None):
        config.out_dir = args.out_dir
    if getattr(args, "jobs", None) is not None:  # 0 too: validate() rejects it
        config.jobs = args.jobs
    config.validate()
    return config


def _cmd_generate(args) -> int:
    if not args.out and not args.edge_list:
        print("nothing to do: pass --out and/or --edge-list", file=sys.stderr)
        return 2
    # a run config checks the flags, so bad ones exit 2 before any work
    config = ExperimentConfig(model=args.model, n=args.n,
                              k=0 if args.model == "er" else args.k,
                              m=args.m, q=args.q, seeds=str(args.seed))
    config.validate()
    obj = harness.build_instance(config, args.seed)
    if args.out:
        save_graph(args.out, obj)
        print(f"wrote {args.out}")
    if args.edge_list:
        write_edge_list(args.edge_list, obj)
        print(f"wrote {args.edge_list}")
    return 0


def _cmd_run(args) -> int:
    if args.list_presets:
        for name in preset_names():
            print(name)
        return 0
    config = _load_config(args, ExperimentConfig)
    summary = harness.run_experiment(config)
    print(json.dumps(summary.aggregates, indent=2))
    print(f"outputs in {config.resolved_out_dir()}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args, ExperimentConfig)
    values = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    summaries = harness.run_sweep(config, args.param, values)
    for value, summary in summaries.items():
        print(f"{args.param} = {value}: {json.dumps(summary.aggregates)}")
    return 0


def _cmd_peel(args) -> int:
    config = _experiment_from_flags(args)
    summary = harness.run_peel_cells(config, args.stop_n2, args.c1)
    print(json.dumps(summary.aggregates, indent=2))
    print(f"outputs in {config.resolved_out_dir()}")
    return 0


def _cmd_coupled(args) -> int:
    config = _experiment_from_flags(args)
    summary = harness.run_coupled_cells(config)
    ident = sum(1 for r in summary.rows if r["identical_through_absorption"])
    print(json.dumps(summary.aggregates, indent=2))
    print(f"identical through absorption: {ident}/{len(summary.rows)}")
    print(f"outputs in {config.resolved_out_dir()}")
    return 0


_LANDSCAPE_FLAGS = ("mode", "n", "k", "gamma", "gammas", "m_values", "budget", "seeds")


def _cmd_landscape(args) -> int:
    given = {f: getattr(args, f) for f in _LANDSCAPE_FLAGS
             if getattr(args, f) is not None}
    if args.config or args.preset:
        if given:
            raise ConfigError([(f, "this flag cannot be combined with "
                                   "--config or --preset") for f in given])
        config = _load_config(args, LandscapeConfig)
    else:
        config = LandscapeConfig(**given, out_dir=args.out_dir or "")
        config.validate()
    rows = harness.run_landscape(config)
    print(f"{len(rows)} rows; outputs in {config.resolved_out_dir()}")
    return 0


def _experiment_from_flags(args):
    config = ExperimentConfig(
        model="contaminated" if args.m else "planted", n=args.n, k=args.k, m=args.m,
        q=args.q, chain="gd", gamma=args.gamma, tie_policy=args.tie, init=args.init,
        max_steps=args.max_steps, seeds=args.seeds,
        out_dir=args.out_dir or "")
    config.validate()
    return config


def _add_config_flags(p, jobs=True):
    p.add_argument("--config", help="config file path")
    p.add_argument("--preset", help="built-in preset name")
    p.add_argument("--out-dir", help="override the output directory")
    if jobs:  # landscape runs in one process
        p.add_argument("--jobs", type=int, help="override worker count")


def _add_model_flags(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seeds", default="0..9")
    p.add_argument("--gamma", default="4")
    p.add_argument("--max-steps", type=int, default=20000, dest="max_steps")
    p.add_argument("--out-dir", default="", dest="out_dir")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantedclique",
        description="Planted-clique recovery experiments: gradient descent "
                    "and Gibbs chains on the relaxed subset energy.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("generate", help="write a graph instance to disk")
    p.add_argument("--model", choices=["er", "planted", "contaminated"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="binary output path")
    p.add_argument("--edge-list", help="edge-list text output path")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("run", help="run a chain experiment")
    _add_config_flags(p)
    p.add_argument("--list-presets", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="sweep one config field over an experiment")
    _add_config_flags(p)
    p.add_argument("--param", required=True, help="any config field but out_dir")
    p.add_argument("--values", required=True, help="comma list, e.g. 2,4")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("peel", help="min-degree peeling diagnostics")
    _add_model_flags(p)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--q", type=float, default=0.5)
    p.add_argument("--stop-n2", type=int, default=0, dest="stop_n2",
                   help="stop once at most this many non-clique vertices remain")
    p.add_argument("--c1", type=float, default=None,
                   help="degree-retention slack in units of sqrt(n)")
    p.set_defaults(fn=_cmd_peel, tie="halt", init="full")

    # no abbreviations: "--m" would otherwise be taken for --max-steps
    p = sub.add_parser("coupled", help="coupled planted/unplanted descents",
                       allow_abbrev=False)
    _add_model_flags(p)
    p.add_argument("--tie", default="drift:1")
    p.add_argument("--init", default="empty")
    p.set_defaults(fn=_cmd_coupled, m=0, q=0.5)

    # model flags default to the LandscapeConfig fields; none may join a config
    p = sub.add_parser("landscape", help="landscape scans and tables")
    _add_config_flags(p, jobs=False)
    p.add_argument("--mode", choices=["brute", "scan", "kappa"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--gamma")
    p.add_argument("--gammas", help="kappa mode: comma list")
    p.add_argument("--m-values", dest="m_values")
    p.add_argument("--budget", type=int)
    p.add_argument("--seeds")
    p.set_defaults(fn=_cmd_landscape)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for fld, message in exc.errors:
            print(f"config error: {fld}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
