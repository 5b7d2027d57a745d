"""Command line for instance generation, experiment runs, and reports.

Verbs: generate, run-monotone, run-nonmonotone, solve-exact, greedy,
report. Summaries print to stdout as JSON; traces and summaries can also
be written to files. ``generate`` takes one flag per family generator
parameter. A run flag's dest is the ``ExperimentConfig`` field it sets,
so one command builds either run verb's config by name.
"""

import argparse
import json
import os
import sys

from .baselines import brute_force_opt, offline_greedy
from .errors import ConfigError, MatchstreamError, SizeError
from .experiments import (ExperimentConfig, report_rows, run_experiment,
                          summary_json, write_trace)
from .instances import (FAMILIES, family_params, generate_instance,
                        load_instance, save_instance)
from .randomized import OFFLINE_MODES


# every family's generator parameters; generate_instance rejects the ones
# the chosen family does not take
_GENERATOR_PARAMS = tuple(dict.fromkeys(
    name for family in FAMILIES for name in family_params(family)))


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    for name in _GENERATOR_PARAMS:
        p.add_argument("--" + name.replace("_", "-"), type=int)


def _cmd_generate(args):
    params = {name: getattr(args, name) for name in _GENERATOR_PARAMS
              if getattr(args, name) is not None}
    inst = generate_instance(args.family, args.seed, **params)
    save_instance(inst, args.out)
    print(json.dumps({"written": args.out, "n": inst.n,
                      "family": args.family, "seed": args.seed}))
    return 0


def _add_run_flags(p, algorithm):
    """The flags both run verbs end with, and the verb's algorithm."""
    p.set_defaults(algorithm=algorithm)
    p.add_argument("--shuffle-seed", type=int)
    p.add_argument("--trace")
    p.add_argument("--summary")


def _add_run_monotone(sub):
    p = sub.add_parser("run-monotone", help="multi-pass run with certificates")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", default="matchoid",
                   help="matroid, matchoid, or fixed:B")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--passes", type=int)
    p.add_argument("--target-gamma", type=float)
    p.add_argument("--alpha", type=float, default=0.0)
    _add_run_flags(p, "monotone-multipass")


def _add_run_nonmonotone(sub):
    p = sub.add_parser("run-nonmonotone", help="randomized buffered run")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--passes", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offline", choices=OFFLINE_MODES, default="exact")
    p.add_argument("--replicates", type=int, default=1)
    _add_run_flags(p, "nonmonotone-randomized")


def _cmd_run(args):
    config = ExperimentConfig(**{name: value for name, value in vars(args).items()
                                 if name in ExperimentConfig.__slots__})
    # a file the run could not write is refused before the run, not after
    for path in (config.trace, config.summary):
        if path is None:
            continue
        if os.path.isdir(path):
            raise ConfigError(f"{path}: is a directory, not a file")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"{path}: its directory does not exist")
    summary = run_experiment(config)
    if config.algorithm == "monotone-multipass" and not summary["monotone"]:
        print("warning: instance is flagged non-monotone; certified factors "
              "assume a monotone objective", file=sys.stderr)
    print(summary_json(summary))
    return 0


def _add_solve_exact(sub):
    p = sub.add_parser("solve-exact", help="exact optimum (small instances)")
    p.add_argument("--instance", required=True)


def _cmd_solve_exact(args):
    inst = load_instance(args.instance)
    result = brute_force_opt(inst.build_oracle(), inst.build_matchoid())
    print(json.dumps({"opt_value": result.opt_value,
                      "opt_set": sorted(result.opt_set)}))
    return 0


def _add_greedy(sub):
    p = sub.add_parser("greedy", help="offline greedy baseline")
    p.add_argument("--instance", required=True)


def _cmd_greedy(args):
    inst = load_instance(args.instance)
    oracle = inst.build_oracle()
    chosen = offline_greedy(oracle, inst.build_matchoid())
    print(json.dumps({"value": oracle.peek(chosen), "set": sorted(chosen)}))
    return 0


def _add_report(sub):
    p = sub.add_parser("report", help="factor-vs-pass table from summaries")
    p.add_argument("summaries", nargs="+")
    p.add_argument("--out")


def _cmd_report(args):
    columns, rows = report_rows(args.summaries)
    text = write_trace(args.out, columns, rows)
    if args.out is None:
        print(text, end="")
    else:
        print(json.dumps({"written": args.out, "rows": len(rows)}))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "run-monotone": _cmd_run,
    "run-nonmonotone": _cmd_run,
    "solve-exact": _cmd_solve_exact,
    "greedy": _cmd_greedy,
    "report": _cmd_report,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matchstream",
        description="streaming local search for submodular maximization "
                    "under p-matchoid constraints")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_run_monotone(sub)
    _add_run_nonmonotone(sub)
    _add_solve_exact(sub)
    _add_greedy(sub)
    _add_report(sub)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # an OSError here is an output file that cannot be written; the
    # instance and summary readers raise ConfigError naming their file
    except (MatchstreamError, OSError) as exc:
        # a size cap hit after the file loaded is still about that file
        instance = getattr(args, "instance", None)
        if isinstance(exc, SizeError) and instance is not None:
            exc = f"{instance}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
