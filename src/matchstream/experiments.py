"""Experiment orchestration: configs, trace and summary files, reports.

The harness runs the two streaming drivers, ``monotone-multipass`` and
``nonmonotone-randomized``; the exact and greedy baselines are the CLI's
``solve-exact`` and ``greedy`` verbs. A trace row is a finished pass
runner's ``row`` plus schema_version (and a guess copy's columns). A run
builds its constraint once, which the driver, every replicate and the
exact optimum share; each driver run and the optimum get a fresh oracle,
since an oracle carries the call counter.

Traces are CSV with a schema_version column; summaries are JSON. Given
the same config (seed included), reruns produce byte-identical trace
files: replicates run one after another, and all randomness is derived
as master seed XOR replicate index XOR guess-copy index. Wall-clock time
appears only in summaries, never in traces.
"""

import csv
import io
import json
import math
import os
import time

from .baselines import brute_force_opt, check_exact_budget, greedy_basis
from .errors import ConfigError, SizeError
from .instances import load_instance, stream_order
from .multipass import Schedule, multipass_run
from .randomized import multipass_randomized

SCHEMA_VERSION = 1

# the most subsets the summary's optimum may examine, every subset of 16
# elements: the optimum is a side figure and must not cost far more than
# the run it sits beside
SUMMARY_OPT_BUDGET = 2 ** 16

ALGORITHMS = ("monotone-multipass", "nonmonotone-randomized")

MONOTONE_TRACE_COLUMNS = (
    "schema_version", "pass", "beta", "f_S", "delta", "gamma_certified",
    "accepts", "evictions", "oracle_calls", "stored_elements",
)
RANDOMIZED_TRACE_COLUMNS = MONOTONE_TRACE_COLUMNS + (
    "lambda", "m", "buffer_peak", "f_S_prime", "f_S_bar", "seed",
)

_CONFIG_FIELDS = (
    "instance", "algorithm", "epsilon", "passes", "schedule", "alpha",
    "seed", "replicates", "offline", "target_gamma", "shuffle_seed",
    "trace", "summary",
)


class ExperimentConfig:
    """Run description for one of the two streaming drivers. ``to_dict``
    gives plain JSON values, and ``ExperimentConfig(**config.to_dict())``
    rebuilds a config that reruns to byte-identical traces."""

    __slots__ = _CONFIG_FIELDS

    def __init__(self, instance, algorithm, epsilon=None, passes=None,
                 schedule=None, alpha=0.0, seed=0, replicates=1,
                 offline="exact", target_gamma=None, shuffle_seed=None,
                 trace=None, summary=None):
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm: {algorithm!r}")
        self.instance = str(instance)
        self.algorithm = algorithm
        self.epsilon = None if epsilon is None else float(epsilon)
        self.passes = None if passes is None else int(passes)
        self.schedule = schedule
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.replicates = int(replicates)
        self.offline = offline
        self.target_gamma = None if target_gamma is None else float(target_gamma)
        self.shuffle_seed = None if shuffle_seed is None else int(shuffle_seed)
        self.trace = trace
        self.summary = summary

    def to_dict(self):
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}


def build_schedule(name, p):
    """Map a CLI schedule token to a Schedule."""
    if name in (None, "matchoid"):
        return Schedule.matchoid_recurrence(p)
    if name == "matroid":
        return Schedule.matroid_harmonic()
    if isinstance(name, str) and name.startswith("fixed:"):
        try:
            return Schedule.fixed(float(name.split(":", 1)[1]), p=p)
        except ValueError as exc:
            raise ConfigError(f"bad fixed schedule: {name!r}: {exc}") from exc
    raise ConfigError(f"unknown schedule: {name!r} (matroid, matchoid, or fixed:B)")


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def write_trace(path, columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in columns])
    text = buf.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _compute_opt(inst, mp):
    """The exact optimum, or None when its search could pass
    ``SUMMARY_OPT_BUDGET`` subsets, which is checked before any oracle
    call with the size cut the exact solver applies."""
    try:
        check_exact_budget(inst.n, mp.p * len(greedy_basis(mp, range(inst.n))),
                           budget=SUMMARY_OPT_BUDGET)
        # separate oracle instance so the run's call counters stay clean
        return brute_force_opt(inst.build_oracle(), mp).opt_value
    except SizeError:
        return None


def _strict(value):
    """``value`` with each infinite float as the string "inf", as traces
    write it."""
    if value == math.inf:
        return "inf"
    if isinstance(value, dict):
        return {key: _strict(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


def summary_json(summary):
    """Strict JSON text of a summary: inf becomes "inf", and any other
    non-finite float raises ValueError instead of reaching the text."""
    return json.dumps(_strict(summary), indent=2, sort_keys=True, allow_nan=False)


def run_experiment(config):
    """Execute one configured run and return the summary dict.

    Writes the trace CSV and summary JSON when the config names paths.
    The summary always carries f_final, certified factor, oracle calls,
    peak storage, wall time, and the optimum value and the ratio
    opt/f_final, which are None when the exact search could examine more
    than ``SUMMARY_OPT_BUDGET`` subsets. The returned dict keeps its
    floats; the file holds ``summary_json``'s strict JSON, with "inf" for
    an infinite factor.
    """
    started = time.perf_counter()
    inst = load_instance(config.instance)
    mp = inst.build_matchoid()
    stream = stream_order(inst.n, config.shuffle_seed)
    opt_value = _compute_opt(inst, mp)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "algorithm": config.algorithm,
        "instance": config.instance,
        "n": inst.n,
        "monotone": inst.monotone,
        "p": mp.p,
        "rank_k": mp.rank_k,
        "seed": config.seed,
        "opt_value": opt_value,
        "trace": config.trace,
        "config": config.to_dict(),
    }
    rows = []

    if config.algorithm == "monotone-multipass":
        columns = MONOTONE_TRACE_COLUMNS
        oracle = inst.build_oracle()
        schedule = build_schedule(config.schedule, mp.p)
        passes = (config.passes if config.passes is not None
                  else schedule.default_passes(config.epsilon))
        result = multipass_run(oracle, mp, stream, schedule, passes,
                               config.alpha, target_gamma=config.target_gamma)
        for res, cert in zip(result.pass_results, result.certificates):
            rows.append({"schema_version": SCHEMA_VERSION,
                         **res.row(cert.pass_index, cert.beta, cert.gamma_certified)})
        summary.update({
            "f_final": result.f_final,
            "gamma_certified_final": result.certificates[-1].gamma_certified,
            "passes": result.passes_run,
            "oracle_calls": oracle.calls,
            "peak_storage": result.stored_peak,
        })

    else:
        if config.epsilon is None:
            raise ConfigError("the randomized driver needs an epsilon")
        if config.replicates < 1:
            raise ConfigError("at least one replicate is required")
        columns = RANDOMIZED_TRACE_COLUMNS
        f_bars = []
        total_calls = 0
        peak_storage = 0
        for rep in range(config.replicates):
            oracle = inst.build_oracle()
            run = multipass_randomized(
                oracle, mp, stream, config.epsilon, config.passes,
                seed=config.seed ^ rep, offline_mode=config.offline)
            f_bars.append(run.f_solution)
            total_calls += oracle.calls
            peak_storage = max(peak_storage, run.space_peak)
            for copy in run.copies:
                for row in copy.pass_rows:
                    rows.append({"schema_version": SCHEMA_VERSION, **row})
        mean = sum(f_bars) / len(f_bars)
        last = run
        summary.update({
            "f_final": f_bars[0],
            "f_bar_mean": mean,
            "f_bar_stddev": (math.sqrt(sum((v - mean) ** 2 for v in f_bars)
                                       / (len(f_bars) - 1))
                             if len(f_bars) > 1 else 0.0),
            "replicates": config.replicates,
            "gamma_certified_final": last.copies[0].pass_rows[-1]["gamma_certified"],
            "passes": last.passes_used,
            "lambda_grid": list(last.grid.lambdas),
            "m": last.m,
            "gamma_off": last.gamma_off,
            "space_bound": last.space_bound,
            "oracle_calls": total_calls,
            "peak_storage": peak_storage,
        })

    f_final = summary.get("f_final")
    summary["ratio"] = (opt_value / f_final
                        if opt_value is not None and f_final else None)
    summary["wall_time"] = time.perf_counter() - started

    if config.trace is not None:
        write_trace(config.trace, columns, rows)
    if config.summary is not None:
        with open(config.summary, "w", encoding="utf-8") as fh:
            fh.write(summary_json(summary) + "\n")
    return summary


def report_rows(summary_paths):
    """Aggregate summaries (and their traces) into a factor-vs-pass table."""
    columns = ("instance", "algorithm", "pass", "f_S", "gamma_certified", "ratio")
    rows = []
    for path in summary_paths:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        opt = summary.get("opt_value")
        trace = summary.get("trace")
        if trace and os.path.exists(trace):
            with open(trace, "r", encoding="utf-8", newline="") as fh:
                for rec in csv.DictReader(fh):
                    f_s = float(rec["f_S"]) if rec.get("f_S") else None
                    rows.append({
                        "instance": summary.get("instance"),
                        "algorithm": summary.get("algorithm"),
                        "pass": int(rec["pass"]),
                        "f_S": f_s,
                        "gamma_certified": rec.get("gamma_certified"),
                        "ratio": (opt / f_s if opt is not None and f_s else None),
                    })
        else:
            f_s = summary.get("f_final")
            rows.append({
                "instance": summary.get("instance"),
                "algorithm": summary.get("algorithm"),
                "pass": summary.get("passes", 1),
                "f_S": f_s,
                "gamma_certified": summary.get("gamma_certified_final"),
                "ratio": summary.get("ratio"),
            })
    return columns, rows
