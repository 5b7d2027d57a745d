"""Command-line surface: generate, run, solve, report."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

import matchstream as ms
from matchstream import experiments
from matchstream.cli import main


def test_generate_then_run_monotone(tmp_path, capsys):
    instance = str(tmp_path / "inst.json")
    assert main(["generate", "--family", "coverage+uniform", "--seed", "3",
                 "--n", "9", "--out", instance]) == 0
    capsys.readouterr()

    trace = str(tmp_path / "run.csv")
    summary = str(tmp_path / "run.json")
    code = main(["run-monotone", "--instance", instance,
                 "--schedule", "matroid", "--epsilon", "0.5",
                 "--trace", trace, "--summary", summary])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["passes"] == 4
    assert printed["gamma_certified_final"] <= 3.0 + 1e-9
    assert json.loads(Path(summary).read_text(encoding="utf-8"))["f_final"] == printed["f_final"]


def test_default_schedule_follows_p(tmp_path, capsys):
    # a p = 1 instance runs the harmonic schedule by default: ceil(2/eps)
    # passes, not the recurrence's ceil(4p/eps)
    instance = str(tmp_path / "inst.json")
    main(["generate", "--family", "coverage+uniform", "--seed", "3",
          "--n", "12", "--out", instance])
    capsys.readouterr()
    assert main(["run-monotone", "--instance", instance,
                 "--epsilon", "0.5"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert (printed["p"], printed["passes"], printed["f_final"]) == (1, 4, 29.0)
    assert printed["oracle_calls"] == 42


def test_solve_exact_and_greedy(tmp_path, capsys):
    instance = str(tmp_path / "inst.json")
    main(["generate", "--family", "coverage+uniform", "--seed", "1",
          "--n", "8", "--out", instance])
    capsys.readouterr()

    assert main(["solve-exact", "--instance", instance]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert set(exact) == {"opt_value", "opt_set"}

    assert main(["greedy", "--instance", instance]) == 0
    greedy = json.loads(capsys.readouterr().out)
    assert greedy["value"] <= exact["opt_value"]

    inst = ms.load_instance(instance)
    assert inst.build_matchoid().feasible(greedy["set"])


def test_greedy_and_exact_verbs_never_read_the_rank(tmp_path, capsys, monkeypatch):
    # a null rank at p = 2 is an exact search, over budget on a 40 x 40,
    # 600-edge matching; the greedy verb has no use for k, so it runs
    big = str(tmp_path / "big.json")
    main(["generate", "--family", "bipartite-matching", "--seed", "0",
          "--left", "40", "--right", "40", "--edges", "600", "--out", big])
    capsys.readouterr()
    assert main(["greedy", "--instance", big]) == 0
    greedy = json.loads(capsys.readouterr().out)
    assert greedy["value"] > 0
    assert ms.load_instance(big).build_matchoid().feasible(greedy["set"])

    # solve-exact runs its own search only, not the rank's as well
    def search(mp):
        raise AssertionError("compute_rank ran")

    monkeypatch.setattr(ms.matchoids, "compute_rank", search)
    small = str(tmp_path / "small.json")
    main(["generate", "--family", "bipartite-matching", "--seed", "0",
          "--out", small])
    capsys.readouterr()
    for verb in ("greedy", "solve-exact"):
        assert main([verb, "--instance", small]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["opt_value"] > 0


def test_run_nonmonotone_cli(tmp_path, capsys):
    instance = str(tmp_path / "cut.json")
    main(["generate", "--family", "directed-cut+matroid", "--seed", "4",
          "--n", "8", "--out", instance])
    capsys.readouterr()

    trace = str(tmp_path / "rand.csv")
    code = main(["run-nonmonotone", "--instance", instance,
                 "--epsilon", "0.25", "--passes", "2", "--seed", "7",
                 "--replicates", "2", "--trace", trace])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["replicates"] == 2
    assert printed["f_bar_mean"] > 0
    assert printed["f_bar_stddev"] >= 0


def test_report_prints_table(tmp_path, capsys):
    instance = str(tmp_path / "inst.json")
    main(["generate", "--family", "coverage+uniform", "--seed", "2",
          "--n", "8", "--out", instance])
    trace = str(tmp_path / "t.csv")
    summary = str(tmp_path / "s.json")
    main(["run-monotone", "--instance", instance, "--schedule", "matroid",
          "--passes", "3", "--trace", trace, "--summary", summary])
    capsys.readouterr()

    assert main(["report", summary]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("instance,algorithm,pass")
    assert len(out) == 4
    # --out writes the same table and prints what it wrote
    table = tmp_path / "r.csv"
    assert main(["report", summary, "--out", str(table)]) == 0
    assert json.loads(capsys.readouterr().out) == {"written": str(table), "rows": 3}
    assert table.read_text(encoding="utf-8").splitlines() == out


def test_a_randomized_report_ends_on_pass_d_with_or_without_a_trace(tmp_path, capsys):
    # a randomized summary's passes also count the guess-grid pass, d + 1;
    # the one row a summary without a trace gives is pass d, whose factor
    # it prints, as the traced report's last row is
    instance = str(tmp_path / "cut.json")
    main(["generate", "--family", "directed-cut+matroid", "--seed", "0",
          "--n", "10", "--out", instance])
    ends = []
    for name, extra in (("traced", ["--trace", str(tmp_path / "t.csv")]), ("plain", [])):
        summary = str(tmp_path / f"{name}.json")
        assert main(["run-nonmonotone", "--instance", instance, "--epsilon", "0.5",
                     "--passes", "2", "--summary", summary, *extra]) == 0
        assert json.loads(Path(summary).read_text(encoding="utf-8"))["passes"] == 3
        capsys.readouterr()
        assert main(["report", summary]) == 0
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        ends.append((last[2], last[4]))
    assert ends == [("2", "3.0")] * 2


def test_a_randomized_trace_reports_one_row_per_pass_at_the_best_copy(tmp_path):
    # a randomized trace holds a row per replicate, guess copy and pass,
    # each with that copy's streaming f_S; the report gives one row per
    # pass of the first replicate at its best copy's f_S_bar, so its last
    # row is the summary's f_final
    instance = str(tmp_path / "cut.json")
    trace, summary_path, table = (str(tmp_path / name)
                                  for name in ("t.csv", "s.json", "r.csv"))
    main(["generate", "--family", "directed-cut+matroid", "--seed", "0",
          "--n", "10", "--out", instance])
    assert main(["run-nonmonotone", "--instance", instance, "--epsilon", "0.5",
                 "--passes", "2", "--replicates", "2", "--trace", trace,
                 "--summary", summary_path]) == 0
    summary = json.loads(Path(summary_path).read_text(encoding="utf-8"))
    with open(trace, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    first = rows[:len(summary["lambda_grid"]) * 2]
    assert len(rows) == 2 * len(first) == 8
    assert main(["report", summary_path, "--out", table]) == 0
    with open(table, encoding="utf-8", newline="") as fh:
        report = list(csv.DictReader(fh))
    assert [r["pass"] for r in report] == ["1", "2"]
    for r in report:
        same_pass = [row for row in first if row["pass"] == r["pass"]]
        assert float(r["f_S"]) == max(float(row["f_S_bar"]) for row in same_pass)
        assert r["gamma_certified"] == same_pass[0]["gamma_certified"]
    assert float(report[-1]["f_S"]) == summary["f_final"] == 28.0
    assert float(report[-1]["ratio"]) == summary["ratio"] == 1.0


def test_report_finds_a_relative_trace_from_any_directory(tmp_path, capsys, monkeypatch):
    instance = str(tmp_path / "inst.json")
    main(["generate", "--family", "coverage+uniform", "--seed", "2",
          "--n", "8", "--out", instance])
    (tmp_path / "rep").mkdir()
    (tmp_path / "runs").mkdir()
    run = ["run-monotone", "--instance", instance, "--passes", "3"]
    # a run started in rep/, reported from its parent
    monkeypatch.chdir(tmp_path / "rep")
    assert main(run + ["--trace", "t.csv", "--summary", "s.json"]) == 0
    # a trace and summary in sibling directories, reported from rep/
    monkeypatch.chdir(tmp_path)
    assert main(run + ["--trace", "runs/t.csv", "--summary", "rep/s2.json"]) == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "rep" / "s2.json").read_text(encoding="utf-8"))
    # the config keeps the path as given, so it reruns to the same files
    assert summary["trace"] == "../runs/t.csv"
    assert summary["config"]["trace"] == "runs/t.csv"
    assert main(["report", "rep/s.json"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert [line.split(",")[2] for line in first[1:]] == ["1", "2", "3"]
    monkeypatch.chdir(tmp_path / "rep")
    assert main(["report", "s2.json"]) == 0
    assert capsys.readouterr().out.splitlines() == first
    # an absolute trace path is recorded as written
    absolute = str(tmp_path / "runs" / "abs.csv")
    assert main(run + ["--trace", absolute, "--summary", "s3.json"]) == 0
    assert json.loads(capsys.readouterr().out)["trace"] == absolute


@pytest.mark.parametrize("summary, trace", [
    (None, None),
    ("not json", None),
    ("[1, 2]", None),
    ('{"trace": "TRACE"}', "f_S\n1.0\n"),
    # the summary's own row is no stand-in for the passes of its trace
    ('{"trace": "TRACE", "f_final": 1.0, "passes": 3}', None),
], ids=["missing-file", "not-json", "document-list", "trace-without-pass",
        "trace-missing"])
def test_report_on_a_bad_summary_exits_2_naming_the_path(tmp_path, capsys, summary, trace):
    path = tmp_path / "s.json"
    trace_path = str(tmp_path / "t.csv")
    if trace is not None:
        (tmp_path / "t.csv").write_text(trace)
    if summary is not None:
        path.write_text(summary.replace("TRACE", trace_path))
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ") and captured.out == ""
    if summary is not None and "TRACE" in summary and trace is None:
        assert trace_path in captured.err


def test_output_into_a_missing_directory_exits_2(tmp_path, capsys, monkeypatch):
    instance = str(tmp_path / "inst.json")
    summary = str(tmp_path / "s.json")
    assert main(["generate", "--family", "coverage+uniform", "--seed", "2",
                 "--n", "8", "--out", instance]) == 0
    assert main(["run-monotone", "--instance", instance, "--passes", "2",
                 "--summary", summary]) == 0
    capsys.readouterr()

    # a run verb refuses the path before it solves anything
    def entered(*args, **kwargs):
        raise AssertionError("a driver ran before the output path was checked")

    monkeypatch.setattr(experiments, "multipass_run", entered)
    monkeypatch.setattr(experiments, "multipass_randomized", entered)
    missing = str(tmp_path / "missing" / "out")
    for argv in (["generate", "--family", "coverage+uniform", "--n", "8", "--out", missing],
                 ["run-monotone", "--instance", instance, "--passes", "2", "--trace", missing],
                 ["run-monotone", "--instance", instance, "--passes", "2", "--summary", missing],
                 ["run-nonmonotone", "--instance", instance, "--epsilon", "0.5",
                  "--passes", "1", "--trace", missing],
                 ["run-nonmonotone", "--instance", instance, "--epsilon", "0.5",
                  "--passes", "1", "--summary", missing],
                 ["report", summary, "--out", missing]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err, argv
    assert not (tmp_path / "missing").exists()
    # an existing directory is no file to write either
    directory = str(tmp_path)
    for argv in (["run-monotone", "--instance", instance, "--passes", "2", "--trace", directory],
                 ["run-monotone", "--instance", instance, "--passes", "2", "--summary", directory],
                 ["run-nonmonotone", "--instance", instance, "--epsilon", "0.5",
                  "--passes", "1", "--trace", directory],
                 ["run-nonmonotone", "--instance", instance, "--epsilon", "0.5",
                  "--passes", "1", "--summary", directory]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {directory}: ") and "directory" in err, argv


def test_bad_inputs_exit_nonzero(tmp_path, capsys):
    code = main(["generate", "--family", "coverage+uniform", "--seed", "0",
                 "--out", str(tmp_path / "x.json"), "--n", "9"])
    assert code == 0
    capsys.readouterr()
    # a missing epsilon and pass count cannot size the run
    code = main(["run-monotone", "--instance", str(tmp_path / "x.json"),
                 "--schedule", "matroid"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generate_below_a_family_minimum_exits_2(tmp_path, capsys):
    # a one-vertex digraph has no arc to draw; the CLI names the minimum
    # instead of ending in a traceback, and writes no file
    out = tmp_path / "cut.json"
    code = main(["generate", "--family", "directed-cut+matroid", "--n", "1",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_module_entry_point(tmp_path):
    instance = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "matchstream", "generate", "--family",
         "bipartite-matching", "--seed", "5", "--out", str(instance)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert instance.exists()
    payload = json.loads(proc.stdout)
    assert payload["family"] == "bipartite-matching"


def test_run_counts_below_one_are_rejected(tmp_path, capsys):
    cut = str(tmp_path / "cut.json")
    cov = str(tmp_path / "cov.json")
    main(["generate", "--family", "directed-cut+matroid", "--seed", "4",
          "--n", "8", "--out", cut])
    main(["generate", "--family", "coverage+uniform", "--seed", "0",
          "--n", "9", "--out", cov])
    capsys.readouterr()
    code = main(["run-nonmonotone", "--instance", cut, "--epsilon", "0.25",
                 "--replicates", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # an explicit zero is not "no pass count": it must not fall back to
    # the default budget
    code = main(["run-monotone", "--instance", cov, "--schedule", "matroid",
                 "--passes", "0", "--epsilon", "0.25"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # non-finite step sizes and epsilons make the threshold meaningless:
    # NaN and inf thresholds would reject every arrival
    for extra in (["--alpha", "nan", "--passes", "2"],
                  ["--alpha", "inf", "--passes", "2"],
                  ["--schedule", "fixed:nan", "--passes", "2"],
                  ["--epsilon", "nan"],
                  ["--target-gamma", "nan", "--passes", "3"],
                  ["--target-gamma", "inf", "--passes", "3"]):
        code = main(["run-monotone", "--instance", cov] + extra)
        assert code == 2, extra
        assert "error:" in capsys.readouterr().err


def test_bad_fixed_schedule_shows_its_reason(tmp_path, capsys):
    cov = str(tmp_path / "cov.json")
    main(["generate", "--family", "coverage+uniform", "--seed", "0",
          "--n", "9", "--out", cov])
    capsys.readouterr()
    for token, reason in (("fixed:nan", "beta must be a finite real number"),
                          ("fixed:-1", "finite beta >= 0"),
                          ("fixed:abc", "could not convert")):
        code = main(["run-monotone", "--instance", cov, "--schedule", token,
                     "--passes", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fixed schedule") and reason in err, err


def _uniform_without_capacity(data):
    del data["constraint"]["matroids"][0]["capacity"]
    return data


def _modular_without_weights(data):
    data["objective"] = {"kind": "modular"}
    return data


def _objective_of_another_size(data):
    # three weights for an n = 4 instance
    data["objective"] = {"kind": "modular", "weights": [1, 2, 3]}
    return data


def _capacity_not_a_number(data):
    data["constraint"]["matroids"][0]["capacity"] = "x"
    return data


def _objective_not_an_object(data):
    data["objective"] = [1, 2]
    return data


def _matching_over_budget(data):
    # a null rank at p = 2 whose exact search is over budget
    return ms.generate_instance("bipartite-matching", 0, left=40, right=40,
                                edges=600).to_dict()


@pytest.mark.parametrize("edit", [
    _uniform_without_capacity,
    _modular_without_weights,
    _objective_of_another_size,
    _capacity_not_a_number,
    _objective_not_an_object,
    lambda data: [1, 2],
    None,
    _matching_over_budget,
], ids=["uniform-no-capacity", "modular-no-weights", "objective-size", "capacity-x",
        "objective-list", "document-list", "missing-file", "matching-over-budget"])
def test_bad_instance_files_exit_2_naming_the_path(tmp_path, edit):
    path = tmp_path / "bad.json"
    if edit is not None:
        data = ms.generate_instance("coverage+uniform", 0, n=4).to_dict()
        path.write_text(json.dumps(edit(data)))
    for verb in (["solve-exact"], ["run-monotone", "--passes", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "matchstream", verb[0], "--instance",
             str(path)] + verb[1:], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and str(path) in proc.stderr
        assert "Traceback" not in proc.stderr


def test_printed_summaries_are_strict_json(tmp_path, capsys):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    cut = str(tmp_path / "cut.json")
    ms.save_instance(ms.generate_instance("directed-cut+matroid", 0), cut)
    assert main(["run-nonmonotone", "--instance", cut, "--epsilon", "0.5",
                 "--passes", "1", "--offline", "heuristic"]) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert printed["gamma_off"] == 4.0
    # alpha rejects every arrival, so the final factor is infinite
    cov = str(tmp_path / "cov.json")
    ms.save_instance(ms.generate_instance("coverage+uniform", 0), cov)
    assert main(["run-monotone", "--instance", cov, "--passes", "2",
                 "--alpha", "1000"]) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert printed["gamma_certified_final"] == "inf"


def test_mislabelled_monotone_file_exits_2_naming_the_path(tmp_path, capsys):
    data = ms.generate_instance("directed-cut+matroid", 0).to_dict()
    data["monotone"] = True
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(data))
    assert main(["run-monotone", "--instance", str(path), "--passes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
    assert "monotone=true" in err and "monotone=false" in err


def test_generate_rejects_a_flag_the_family_does_not_take(tmp_path):
    out = tmp_path / "inst.json"
    proc = subprocess.run(
        [sys.executable, "-m", "matchstream", "generate", "--family",
         "coverage+uniform", "--parts", "3", "--left", "9", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and "left, parts" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_every_run_flag_reaches_the_config(tmp_path, capsys):
    cut = str(tmp_path / "cut.json")
    ms.save_instance(ms.generate_instance("directed-cut+matroid", 4, n=8), cut)
    shared = {"instance": cut, "passes": 2, "shuffle_seed": 5,
              "trace": str(tmp_path / "t.csv"), "summary": str(tmp_path / "s.json")}
    flags = {
        "run-monotone": {**shared, "schedule": "fixed:0.5", "epsilon": 0.3,
                         "target_gamma": 50.0, "alpha": 0.25},
        "run-nonmonotone": {**shared, "epsilon": 0.4, "seed": 9,
                            "offline": "heuristic", "replicates": 2},
    }
    algorithms = {"run-monotone": "monotone-multipass",
                  "run-nonmonotone": "nonmonotone-randomized"}
    defaults = ms.ExperimentConfig("default.json", "monotone-multipass").to_dict()
    for verb, values in flags.items():
        assert all(values[name] != defaults[name] for name in values)
        argv = [verb]
        for name, value in values.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        assert main(argv) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {**defaults, **values, "algorithm": algorithms[verb]}
        with open(values["summary"], encoding="utf-8") as fh:
            assert json.load(fh)["config"] == config
