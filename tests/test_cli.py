"""Command-line surface: generate, run, solve, report."""

import json
import subprocess
import sys

import pytest

import matchstream as ms
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
    assert json.loads(open(summary).read())["f_final"] == printed["f_final"]


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
    for token, reason in (("fixed:nan", "finite beta >= 0"),
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


def _capacity_not_a_number(data):
    data["constraint"]["matroids"][0]["capacity"] = "x"
    return data


def _objective_not_an_object(data):
    data["objective"] = [1, 2]
    return data


@pytest.mark.parametrize("edit", [
    _uniform_without_capacity,
    _modular_without_weights,
    _capacity_not_a_number,
    _objective_not_an_object,
    lambda data: [1, 2],
    None,
], ids=["uniform-no-capacity", "modular-no-weights", "capacity-x",
        "objective-list", "document-list", "missing-file"])
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
