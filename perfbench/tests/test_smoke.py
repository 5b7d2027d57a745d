"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests

Runs every workload untraced and traced, checks that each run passes its
own correctness gate and emits exactly the metrics BENCHMARK.json names,
each with its unit, and checks that the gate rejects planted bad answers.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import TINY, WORKLOADS, gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_run_emits_every_metric_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_traced_cut_buffered_draws_from_a_full_buffer():
    metrics = run_bench("cut-buffered", 1)["metrics"]
    assert metrics["randomized.draws"]["value"] > 0


def test_gate_rejects_an_infeasible_solution():
    workload = WORKLOADS["coverage-churn"]
    inst = workload.make(3, TINY)[0]
    everything = list(range(inst.n))
    outcome = {"solution": everything, "f_value": inst.build_oracle().value(everything),
               "gamma_certified": 1.0}
    assert "solution is infeasible" in gate(inst, workload, outcome)


def test_gate_rejects_a_misreported_value():
    workload = WORKLOADS["coverage-churn"]
    inst = workload.make(3, TINY)[0]
    oracle = inst.build_oracle()
    solution = [0]
    outcome = {"solution": solution, "f_value": oracle.value(solution) + 1,
               "gamma_certified": 1e9}
    assert any("fresh oracle" in p for p in gate(inst, workload, outcome))


def test_gate_rejects_an_unsound_certificate():
    workload = WORKLOADS["coverage-churn"]
    inst = workload.make(3, TINY)[0]
    oracle = inst.build_oracle()
    worst = min(range(inst.n), key=lambda e: oracle.value((e,)))
    best = max(oracle.value((e,)) for e in range(inst.n))
    outcome = {"solution": [worst], "f_value": oracle.value((worst,)),
               "gamma_certified": 0.5 * best / oracle.value((worst,))}
    assert any("certificate" in p for p in gate(inst, workload, outcome))
