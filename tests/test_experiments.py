"""Experiment configs, trace/summary files, determinism, reports."""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

import matchstream as ms


# the monotone summary's fields; the randomized one adds its own, and
# only it totals draws and buffer drops
MONOTONE_SUMMARY_KEYS = {
    "schema_version", "algorithm", "instance", "n", "monotone", "p", "rank_k",
    "seed", "opt_value", "trace", "config", "f_final", "gamma_certified_final",
    "passes", "oracle_calls", "peak_storage", "evictions",
    "shortcut_exchanges", "zero_gain_accepts", "ratio", "wall_time"}


def _write_instance(tmp_path, family="coverage+uniform", seed=5, **params):
    inst = ms.generate_instance(family, seed, **params)
    path = tmp_path / f"{family.replace('+', '_')}_{seed}.json"
    ms.save_instance(inst, path)
    return str(path)


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_config_round_trip():
    config = ms.ExperimentConfig(instance="x.json",
                                 algorithm="nonmonotone-randomized",
                                 epsilon=0.5, passes=4, seed=9, replicates=2,
                                 shuffle_seed=1, trace="t.csv")
    again = ms.ExperimentConfig(**json.loads(json.dumps(config.to_dict())))
    assert again.to_dict() == config.to_dict()
    # the baselines are CLI verbs, not experiment algorithms
    for algorithm in ("simplex", "greedy", "exact"):
        with pytest.raises(ms.ConfigError):
            ms.ExperimentConfig(instance="x.json", algorithm=algorithm)


@pytest.mark.parametrize("field", ["passes", "seed", "replicates", "shuffle_seed"])
def test_config_integer_fields_are_integers(field):
    # a float, a bool or a string would reach the driver truncated or
    # converted, as another pass count, seed or replicate count
    for bad in (2.7, 1.9, True, "3"):
        with pytest.raises(ms.ConfigError, match=f"{field} must be integers"):
            ms.ExperimentConfig("x.json", "monotone-multipass", **{field: bad})
    config = ms.ExperimentConfig("x.json", "monotone-multipass", **{field: 2.0})
    assert getattr(config, field) == 2 and type(getattr(config, field)) is int
    assert ms.ExperimentConfig(**config.to_dict()).to_dict() == config.to_dict()


@pytest.mark.parametrize("field", ["epsilon", "alpha", "target_gamma"])
def test_config_float_fields_are_finite_reals(field):
    # float() would read True as 1.0 and "2.5" as 2.5, and take NaN; an
    # integer too large for a float overflows, and is refused as not finite
    for bad in (True, False, "2.5", "nan", math.nan, math.inf, 10 ** 400):
        with pytest.raises(ms.ConfigError, match=f"{field} must be a finite real"):
            ms.ExperimentConfig("x.json", "monotone-multipass", **{field: bad})
    config = ms.ExperimentConfig("x.json", "monotone-multipass", **{field: 2})
    assert getattr(config, field) == 2.0 and type(getattr(config, field)) is float
    assert ms.ExperimentConfig(**config.to_dict()).to_dict() == config.to_dict()


def test_randomized_run_needs_an_epsilon(tmp_path, monkeypatch):
    # a config without an epsilon or a replicate is refused before the
    # summary's exact optimum is searched
    searches = []

    def spy(*args, **kwargs):
        searches.append(args)
        return ms.brute_force_opt(*args, **kwargs)

    monkeypatch.setattr(ms.experiments, "brute_force_opt", spy)
    instance = _write_instance(tmp_path, seed=1, n=14)
    for extra, message in (({}, "needs an epsilon"),
                           ({"epsilon": 0.5, "replicates": 0}, "at least one replicate")):
        config = ms.ExperimentConfig(instance=instance, algorithm="nonmonotone-randomized",
                                     passes=1, **extra)
        with pytest.raises(ms.ConfigError, match=message):
            ms.run_experiment(config)
    assert searches == []


def test_a_refused_config_searches_no_optimum(tmp_path, monkeypatch):
    # the summary's exact optimum is searched after the run, so a config
    # that a driver or its schedule refuses pays for no search; on 16
    # elements the search is within its budget, and an accepted config
    # makes it once
    searches = []

    def spy(*args, **kwargs):
        searches.append(args)
        return ms.brute_force_opt(*args, **kwargs)

    monkeypatch.setattr(ms.experiments, "brute_force_opt", spy)
    instance = _write_instance(tmp_path, seed=1, n=16)
    mono, rand = "monotone-multipass", "nonmonotone-randomized"
    for algorithm, fields, message in (
            (mono, {}, "epsilon > 0 is needed"),
            (mono, {"epsilon": -1}, "epsilon > 0 is needed"),
            (mono, {"passes": 0}, "at least one pass"),
            (rand, {"epsilon": 0.5, "passes": 0}, "at least one pass"),
            (rand, {"epsilon": 0.9, "passes": 1}, "epsilon must lie in"),
            (rand, {"epsilon": 0.5, "passes": 1, "offline": "annealing"},
             "unknown offline mode"),
            (mono, {"passes": 2, "schedule": "bogus"}, "unknown schedule"),
            (mono, {"passes": 2, "schedule": "fixed:-1"}, "bad fixed schedule")):
        config = ms.ExperimentConfig(instance, algorithm, **fields)
        with pytest.raises((ms.ConfigError, ms.PreconditionError), match=message):
            ms.run_experiment(config)
    assert searches == []
    summary = ms.run_experiment(ms.ExperimentConfig(instance, mono, passes=1))
    assert len(searches) == 1 and summary["opt_value"] is not None


def test_each_driver_run_builds_one_oracle(tmp_path, monkeypatch):
    # the summary's optimum is searched on the run's last oracle once the
    # summary has read its count, so a run builds one oracle per driver
    # run: one for the monotone driver, and one per randomized replicate;
    # the count is the direct drivers' and holds none of the search's calls
    builds = []
    build_oracle = ms.Instance.build_oracle

    def spy(self):
        builds.append(self)
        return build_oracle(self)

    instance = _write_instance(tmp_path, seed=1, n=14)
    inst = ms.load_instance(instance)
    mp = inst.build_matchoid()
    opt = ms.brute_force_opt(inst.build_oracle(), mp).opt_value
    mono = inst.build_oracle()
    ms.multipass_run(mono, mp, range(inst.n), ms.Schedule.for_matchoid(mp), 2)
    rand = [inst.build_oracle() for _ in range(3)]
    for rep, oracle in enumerate(rand):
        ms.multipass_randomized(oracle, mp, range(inst.n), 0.5, 1, seed=rep)
    monkeypatch.setattr(ms.Instance, "build_oracle", spy)
    for algorithm, fields, oracles in (
            ("monotone-multipass", {"passes": 2}, [mono]),
            ("nonmonotone-randomized", {"epsilon": 0.5, "passes": 1, "replicates": 3}, rand)):
        builds.clear()
        summary = ms.run_experiment(ms.ExperimentConfig(instance, algorithm, **fields))
        assert len(builds) == len(oracles)
        assert summary["oracle_calls"] == sum(oracle.calls for oracle in oracles)
        assert summary["opt_value"] == opt


def test_default_pass_budgets():
    harmonic = ms.Schedule.matroid_harmonic()
    assert harmonic.default_passes(0.5) == 4
    recurrence = ms.Schedule.matchoid_recurrence(2)
    assert recurrence.default_passes(0.5) == 16
    for epsilon in (None, 0.0, math.nan, math.inf):
        with pytest.raises(ms.ConfigError):
            harmonic.default_passes(epsilon)


def test_build_schedule_tokens():
    matroid = ms.PMatchoid(range(4), [ms.UniformMatroid(range(4), 2)])
    p2 = ms.PMatchoid(range(4), [ms.UniformMatroid(range(4), 2),
                                 ms.PartitionMatroid(range(4), [[0, 1], [2, 3]], [1, 1])])
    assert ms.build_schedule("matroid", p2).kind == "matroid-harmonic"
    assert ms.build_schedule("matchoid", matroid).kind == "matroid-harmonic"
    sched = ms.build_schedule("matchoid", p2)
    assert (sched.kind, sched.p) == ("matchoid-recurrence", 2)
    assert ms.build_schedule(None, p2).kind == "matchoid-recurrence"
    fixed = ms.build_schedule("fixed:0.3", p2)
    assert (fixed.kind, fixed.beta, fixed.p) == ("fixed", 0.3, 2)
    with pytest.raises(ms.ConfigError):
        ms.build_schedule("fixed:abc", matroid)
    with pytest.raises(ms.ConfigError):
        ms.build_schedule("simulated", matroid)


# the trace header follows the key order of a pass row (``PassRunner.row``,
# then ``LambdaCopyResult.add_pass``), so these literals guard the schema
MONOTONE_HEADER = (
    "schema_version", "pass", "beta", "f_S", "delta", "gamma_certified",
    "accepts", "evictions", "oracle_calls", "stored_elements",
)
RANDOMIZED_HEADER = MONOTONE_HEADER + (
    "lambda", "m", "buffer_peak", "f_S_prime", "f_S_bar", "seed",
)


def test_monotone_experiment_writes_trace_and_summary(tmp_path):
    instance = _write_instance(tmp_path)
    trace = str(tmp_path / "run.csv")
    summary_path = str(tmp_path / "run.json")
    config = ms.ExperimentConfig(instance=instance,
                                 algorithm="monotone-multipass",
                                 schedule="matroid", epsilon=0.25,
                                 trace=trace, summary=summary_path)
    summary = ms.run_experiment(config)
    assert summary["passes"] == 8
    assert summary["opt_value"] is not None
    assert summary["ratio"] == pytest.approx(
        summary["opt_value"] / summary["f_final"])
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["pass"] for r in rows] == [str(i) for i in range(1, 9)]
    assert tuple(rows[0]) == MONOTONE_HEADER
    # the summary ratio must match a recomputation from the trace
    assert summary["ratio"] == pytest.approx(
        summary["opt_value"] / float(rows[-1]["f_S"]), abs=1e-9)
    on_disk = json.loads(Path(summary_path).read_text(encoding="utf-8"))
    assert on_disk["f_final"] == summary["f_final"]
    assert "wall_time" in on_disk


def test_trace_is_deterministic_across_reruns(tmp_path):
    instance = _write_instance(tmp_path)
    digests = []
    for run in range(2):
        trace = str(tmp_path / f"run{run}.csv")
        config = ms.ExperimentConfig(instance=instance,
                                     algorithm="monotone-multipass",
                                     schedule="matchoid", passes=6,
                                     trace=trace)
        ms.run_experiment(config)
        digests.append(_digest(trace))
    assert digests[0] == digests[1]


def test_randomized_trace_columns(tmp_path):
    instance = _write_instance(tmp_path, family="directed-cut+matroid",
                               seed=4, n=8, capacity=3)
    trace = str(tmp_path / "rand.csv")
    config = ms.ExperimentConfig(instance=instance,
                                 algorithm="nonmonotone-randomized",
                                 epsilon=0.25, passes=2, trace=trace)
    summary = ms.run_experiment(config)
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == RANDOMIZED_HEADER
    lams = {float(r["lambda"]) for r in rows}
    assert lams == set(summary["lambda_grid"])
    assert all(int(r["m"]) == summary["m"] for r in rows)
    assert summary["peak_storage"] <= summary["space_bound"]


def test_summary_counts_shortcut_exchanges(tmp_path):
    # saturating unit-weight coverage: exchanges that evict only zero-nu
    # members skip the nu suffix walk; a cut never does
    coverage = _write_instance(tmp_path, "coverage+uniform", 7, n=40, items=6,
                               capacity=8, max_weight=1)
    cut = _write_instance(tmp_path, "directed-cut+matroid", 4, n=8, capacity=3)
    monotone = ms.run_experiment(ms.ExperimentConfig(
        coverage, "monotone-multipass", schedule="matroid", passes=3,
        shuffle_seed=7))
    assert monotone["oracle_calls"] == 105
    assert monotone["shortcut_exchanges"] > 0
    # every randomized copy runs at alpha > 0, so every nu is positive
    randomized = ms.run_experiment(ms.ExperimentConfig(
        coverage, "nonmonotone-randomized", epsilon=0.5, passes=2,
        offline="heuristic"))
    assert randomized["shortcut_exchanges"] == 0
    # ... except the one zero guess of an objective that is 0 everywhere;
    # at k = 1 its buffer (m = 16) fills, and each replicate counts
    single = _write_instance(tmp_path, "coverage+uniform", 7, n=40, items=6,
                             capacity=1, max_weight=1)
    with open(single, encoding="utf-8") as fh:
        data = json.load(fh)
    data["objective"]["item_weights"] = [0] * len(data["objective"]["item_weights"])
    zero = str(tmp_path / "zero.json")
    with open(zero, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    counts = [ms.run_experiment(ms.ExperimentConfig(
        zero, "nonmonotone-randomized", epsilon=0.5, passes=1,
        offline="heuristic", replicates=r))["shortcut_exchanges"]
        for r in (1, 2)]
    assert counts[0] > 0 and counts[1] == 2 * counts[0]
    nonmonotone = ms.run_experiment(ms.ExperimentConfig(
        cut, "nonmonotone-randomized", epsilon=0.5, passes=2))
    assert nonmonotone["shortcut_exchanges"] == 0


def _reweighted(tmp_path, path, name, objective):
    """A copy of the instance file at ``path`` with another objective."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    data["objective"] = objective
    out = str(tmp_path / name)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return out


def test_summary_counts_zero_gain_accepts(tmp_path):
    # saturating unit-weight coverage accepts many zero-gain arrivals;
    # positive modular weights never do
    coverage = _write_instance(tmp_path, "coverage+uniform", 7, n=40, items=6,
                               capacity=8, max_weight=1)
    monotone = ms.run_experiment(ms.ExperimentConfig(
        coverage, "monotone-multipass", schedule="matroid", passes=3,
        shuffle_seed=7))
    assert monotone["zero_gain_accepts"] > 0
    # at k = 1 the randomized buffer (m = 16) fills, so both drivers accept
    single = _write_instance(tmp_path, "coverage+uniform", 7, n=40, items=6,
                             capacity=1, max_weight=1)
    modular = _reweighted(tmp_path, single, "modular.json",
                          {"kind": "modular", "weights": list(range(1, 41))})
    for algorithm, extra in (("monotone-multipass", {"passes": 2}),
                             ("nonmonotone-randomized",
                              {"epsilon": 0.5, "passes": 1, "offline": "heuristic"})):
        summary = ms.run_experiment(ms.ExperimentConfig(modular, algorithm, **extra))
        assert summary["zero_gain_accepts"] == 0, algorithm
    # an objective that is 0 everywhere: every accept has zero gain, and
    # each replicate counts
    zero = _reweighted(tmp_path, single, "zero.json",
                       {"kind": "modular", "weights": [0] * 40})
    counts = [ms.run_experiment(ms.ExperimentConfig(
        zero, "nonmonotone-randomized", epsilon=0.5, passes=1,
        offline="heuristic", replicates=r))["zero_gain_accepts"]
        for r in (1, 2)]
    assert counts[0] > 0 and counts[1] == 2 * counts[0]


def test_a_run_builds_its_constraint_once(tmp_path, monkeypatch):
    # the driver, every replicate and the exact optimum share one
    # constraint; a null rank in the file makes each build enumerate it
    instance = _write_instance(tmp_path, family="3-uniform-hypergraph-matching",
                               seed=2, hyperedges=12)
    builds = []
    original = ms.Instance.build_matchoid

    def counted(inst):
        builds.append(inst)
        return original(inst)

    monkeypatch.setattr(ms.Instance, "build_matchoid", counted)
    for algorithm, extra in (("monotone-multipass", {"passes": 2}),
                             ("nonmonotone-randomized",
                              {"epsilon": 0.5, "passes": 1, "replicates": 3})):
        builds.clear()
        summary = ms.run_experiment(ms.ExperimentConfig(
            instance=instance, algorithm=algorithm, **extra))
        assert len(builds) == 1, algorithm
        assert summary["opt_value"] is not None and summary["p"] == 3


def test_shuffled_stream_reused_across_passes(tmp_path):
    instance = _write_instance(tmp_path, seed=8)
    outs = []
    for _ in range(2):
        config = ms.ExperimentConfig(instance=instance,
                                     algorithm="monotone-multipass",
                                     schedule="matroid", passes=5,
                                     shuffle_seed=11)
        outs.append(ms.run_experiment(config)["f_final"])
    assert outs[0] == outs[1]


def test_report_aggregates_summaries(tmp_path):
    instance = _write_instance(tmp_path, seed=9)
    trace = str(tmp_path / "r.csv")
    summary_path = str(tmp_path / "r.json")
    ms.run_experiment(ms.ExperimentConfig(instance=instance,
                                          algorithm="monotone-multipass",
                                          schedule="matroid", passes=4,
                                          trace=trace, summary=summary_path))
    columns, rows = ms.report_rows([summary_path])
    assert columns[0] == "instance"
    assert len(rows) == 4
    assert rows[-1]["ratio"] == pytest.approx(
        json.loads(Path(summary_path).read_text(encoding="utf-8"))["ratio"])
    # a summary written without a trace gives its last pass's row alone
    ms.run_experiment(ms.ExperimentConfig(instance=instance,
                                          algorithm="monotone-multipass",
                                          schedule="matroid", passes=4,
                                          summary=summary_path))
    (row,) = ms.report_rows([summary_path])[1]
    assert row["pass"] == 4 and row["f_S"] == rows[-1]["f_S"]



def test_summary_optimum_is_skipped_over_its_budget(tmp_path, monkeypatch):
    # 22 candidates under a capacity of 22: the optimum's search could
    # examine 2^22 subsets, far more than the 33 calls of the run, so the
    # summary reports no optimum and makes no oracle call for it
    big = _write_instance(tmp_path, "directed-cut+matroid", 1, n=22,
                          arcs=462, capacity=22)
    small = _write_instance(tmp_path, "directed-cut+matroid", 2, n=16,
                            capacity=16)

    def refuse(*args):
        raise AssertionError("brute_force_opt was called")

    with monkeypatch.context() as patch:
        patch.setattr(ms.experiments, "brute_force_opt", refuse)
        summary = ms.run_experiment(ms.ExperimentConfig(
            big, "monotone-multipass", passes=2))
    assert summary["opt_value"] is None and summary["ratio"] is None
    assert summary["oracle_calls"] == 33
    # 2^16 subsets, every subset of 16 elements, is still within budget
    summary = ms.run_experiment(ms.ExperimentConfig(
        small, "monotone-multipass", passes=2))
    assert summary["opt_value"] is not None


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summaries_are_strict_json(tmp_path):
    # an infinite factor is written "inf", as in traces; the returned
    # dict keeps the float
    cut = _write_instance(tmp_path, "directed-cut+matroid", 0)
    cov = _write_instance(tmp_path)
    cases = (
        # Sample Greedy's (p+1)^2/p at p = 1
        (ms.ExperimentConfig(cut, "nonmonotone-randomized", epsilon=0.5,
                             passes=1, offline="heuristic"), "gamma_off",
         4.0, 4.0),
        # alpha rejects every arrival, so each pass ends at f = 0
        (ms.ExperimentConfig(cov, "monotone-multipass", passes=2,
                             alpha=1000.0), "gamma_certified_final",
         math.inf, "inf"),
    )
    for config, key, value, text in cases:
        config.summary = str(tmp_path / "summary.json")
        summary = ms.run_experiment(config)
        assert summary[key] == value
        with open(config.summary, encoding="utf-8") as fh:
            written = json.loads(fh.read(), parse_constant=_refuse_constant)
        assert written[key] == text
    with pytest.raises(ValueError):
        ms.experiments.summary_json({"f_final": math.nan})


def test_summaries_count_evictions_draws_and_drops(tmp_path):
    # evictions over every pass (and copy and replicate) match the trace's
    # column; a randomized run's draws are its accepts, and its buffer
    # drops are what the re-screens dropped, as a direct driver call finds
    # ascending weights under a capacity of 1: later arrivals evict
    single = _reweighted(tmp_path, _write_instance(tmp_path, n=60, capacity=1),
                         "modular.json", {"kind": "modular",
                                          "weights": list(range(1, 61))})
    trace = str(tmp_path / "trace.csv")
    monotone = ms.run_experiment(ms.ExperimentConfig(
        single, "monotone-multipass", passes=2, trace=trace))
    with open(trace, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert monotone["evictions"] == sum(int(r["evictions"]) for r in rows) > 0
    assert set(monotone) == MONOTONE_SUMMARY_KEYS
    config = ms.ExperimentConfig(single, "nonmonotone-randomized", epsilon=0.5,
                                 passes=1, offline="heuristic", replicates=2,
                                 seed=4, trace=trace,
                                 summary=str(tmp_path / "summary.json"))
    summary = ms.run_experiment(config)
    with open(trace, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert summary["evictions"] == sum(int(r["evictions"]) for r in rows) > 0
    assert summary["draws"] == sum(int(r["accepts"]) for r in rows) > 0
    assert set(summary) == MONOTONE_SUMMARY_KEYS | {
        "f_bar_mean", "f_bar_stddev", "replicates", "lambda_grid", "m",
        "gamma_off", "space_bound", "draws", "buffer_drops",
        "subsets_examined", "bound_prunes", "shared_calls", "screened"}
    # the heuristic offline mode runs no exact search
    assert summary["subsets_examined"] == summary["bound_prunes"] == 0
    inst = ms.load_instance(single)
    drops = shared = screened = 0
    for rep in range(2):
        run = ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                                      range(inst.n), 0.5, 1, seed=4 ^ rep,
                                      offline_mode="heuristic")
        drops += sum(res.buffer_drops for copy in run.copies
                     for res in copy.pass_results)
        shared += run.shared_calls
        screened += sum(res.screened for copy in run.copies
                        for res in copy.pass_results)
    assert summary["buffer_drops"] == drops > 0
    # one guess copy at rank 1: it shares nothing
    assert summary["shared_calls"] == shared == 0
    assert summary["screened"] == screened == 0
    keys = ("evictions", "draws", "buffer_drops", "shared_calls", "screened")
    with open(config.summary, encoding="utf-8") as fh:
        written = json.loads(fh.read(), parse_constant=_refuse_constant)
    assert [written[key] for key in keys] == [summary[key] for key in keys]


def test_randomized_summary_reports_the_exact_solvers_effort(tmp_path):
    # a 12-vertex cut under capacity 3: the buffer never fills, so every
    # offline pool is large enough for the exact search to examine many
    # subsets and cut some by its bound
    path = _write_instance(tmp_path, "directed-cut+matroid", 3, n=12, capacity=3)
    config = ms.ExperimentConfig(path, "nonmonotone-randomized", epsilon=0.5,
                                 passes=2, offline="exact", seed=6)
    summary = ms.run_experiment(config)
    inst = ms.load_instance(path)
    mp = inst.build_matchoid()
    run = ms.multipass_randomized(inst.build_oracle(), mp, range(inst.n), 0.5, 2,
                                  seed=6, offline_mode="exact")
    records = [res for copy in run.copies for res in copy.pass_results]
    for res in records:
        # the pass keeps what the search over its residual buffer reports
        search = ms.max_feasible_subset(inst.build_oracle(), mp, sorted(res.buffer.members))
        assert (res.subsets_examined, res.bound_prunes) == \
            (search.subsets_examined, search.bound_prunes)
    assert summary["subsets_examined"] == sum(r.subsets_examined for r in records) > 0
    assert summary["bound_prunes"] == sum(r.bound_prunes for r in records) > 0


def test_randomized_summary_reports_the_shared_singleton_gains(tmp_path):
    # a 40-vertex cut under capacity 4: several guess copies share one
    # f(x | empty) per arrival and pass, and the summary counts those
    # calls and the tests they answered as a direct driver call does
    path = _write_instance(tmp_path, "directed-cut+matroid", 1, n=40, capacity=4)
    config = ms.ExperimentConfig(path, "nonmonotone-randomized", epsilon=0.5,
                                 passes=2, offline="heuristic", seed=2)
    summary = ms.run_experiment(config)
    inst = ms.load_instance(path)
    run = ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                                  range(inst.n), 0.5, 2, seed=2,
                                  offline_mode="heuristic")
    assert len(run.copies) > 1
    assert summary["shared_calls"] == run.shared_calls == 2 * inst.n
    assert summary["screened"] == sum(res.screened for copy in run.copies
                                      for res in copy.pass_results) > 0
