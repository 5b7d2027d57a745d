"""Command line for instance generation, experiment runs, and reports.

Verbs: generate, run-monotone, run-nonmonotone, solve-exact, greedy,
report. Summaries print to stdout as JSON; traces and summaries can also
be written to files.
"""

import argparse
import json
import sys

from .baselines import brute_force_opt, offline_greedy
from .errors import MatchstreamError
from .experiments import ExperimentConfig, report_rows, run_experiment, write_trace
from .instances import FAMILIES, generate_instance, save_instance
from .randomized import OFFLINE_MODES


# every family's generator parameters; generate_instance rejects the ones
# the chosen family does not take
_GENERATOR_FLAGS = ("n", "items", "capacity", "max_weight", "parts", "left",
                    "right", "edges", "vertices", "hyperedges", "arcs")


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    for name in _GENERATOR_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=int)


def _cmd_generate(args):
    params = {name: getattr(args, name) for name in _GENERATOR_FLAGS
              if getattr(args, name) is not None}
    inst = generate_instance(args.family, args.seed, **params)
    save_instance(inst, args.out)
    print(json.dumps({"written": args.out, "n": inst.n,
                      "family": args.family, "seed": args.seed}))
    return 0


def _add_run_monotone(sub):
    p = sub.add_parser("run-monotone", help="multi-pass run with certificates")
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", default="matchoid",
                   help="matroid, matchoid, or fixed:B")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--passes", type=int)
    p.add_argument("--target-gamma", type=float, dest="target_gamma")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--shuffle-seed", type=int, dest="shuffle_seed")
    p.add_argument("--trace")
    p.add_argument("--summary")


def _cmd_run_monotone(args):
    config = ExperimentConfig(
        instance=args.instance, algorithm="monotone-multipass",
        epsilon=args.epsilon, passes=args.passes, schedule=args.schedule,
        alpha=args.alpha, target_gamma=args.target_gamma,
        shuffle_seed=args.shuffle_seed, trace=args.trace, summary=args.summary)
    summary = run_experiment(config)
    if not summary["monotone"]:
        print("warning: instance is flagged non-monotone; certified factors "
              "assume a monotone objective", file=sys.stderr)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _add_run_nonmonotone(sub):
    p = sub.add_parser("run-nonmonotone", help="randomized buffered run")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--passes", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offline", choices=OFFLINE_MODES, default="exact")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--shuffle-seed", type=int, dest="shuffle_seed")
    p.add_argument("--trace")
    p.add_argument("--summary")


def _cmd_run_nonmonotone(args):
    config = ExperimentConfig(
        instance=args.instance, algorithm="nonmonotone-randomized",
        epsilon=args.epsilon, passes=args.passes, seed=args.seed,
        offline=args.offline, replicates=args.replicates,
        shuffle_seed=args.shuffle_seed, trace=args.trace, summary=args.summary)
    print(json.dumps(run_experiment(config), indent=2, sort_keys=True))
    return 0


def _add_solve_exact(sub):
    p = sub.add_parser("solve-exact", help="exact optimum (small instances)")
    p.add_argument("--instance", required=True)


def _cmd_solve_exact(args):
    from .instances import load_instance

    inst = load_instance(args.instance)
    result = brute_force_opt(inst.build_oracle(), inst.build_matchoid())
    print(json.dumps({"opt_value": result.opt_value,
                      "opt_set": sorted(result.opt_set)}))
    return 0


def _add_greedy(sub):
    p = sub.add_parser("greedy", help="offline greedy baseline")
    p.add_argument("--instance", required=True)


def _cmd_greedy(args):
    from .instances import load_instance

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
    "run-monotone": _cmd_run_monotone,
    "run-nonmonotone": _cmd_run_nonmonotone,
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
    except MatchstreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
