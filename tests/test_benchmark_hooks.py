"""The benchmark under ``perfbench/`` reaches into the library by name:
its tracer wraps module attributes and its workloads call the public
drivers. These checks catch a renamed hook or driver argument in the
tier-1 suite, without the subprocess runs of ``perfbench/tests``."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_every_traced_hook_resolves():
    for owner, attr, name, _, _ in tracing.Tracer()._patches():
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"
        assert name in tracing.CODE


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_batch_solves_and_passes_the_gate(name):
    workload = workloads.WORKLOADS[name]
    seed = 3
    for index, inst in enumerate(workload.make(seed, workloads.TINY)):
        calls = workload.calls(inst, workloads.instance_seed(seed, index))
        for kind, run in calls:
            # the tracer hands monotone drivers its arrival sink as trace=
            sink = tracing.ArrivalSink() if kind == "monotone" else None
            result = run(inst.build_oracle(), inst.build_matchoid(), sink)
            outcome = workloads.read_result(kind, result)
            assert workloads.gate(inst, workload, outcome) == [], (name, index)
            if sink is not None:
                assert len(sink.records) >= inst.n * outcome["passes"]


def _solve_tiny_batch(name, tracer=None):
    """Outcome, oracle calls and driver result of every driver call of the
    workload's TINY batch, traced when a tracer is given."""
    workload = workloads.WORKLOADS[name]
    seed = 3
    solved = []
    for index, inst in enumerate(workload.make(seed, workloads.TINY)):
        for kind, run in workload.calls(inst, workloads.instance_seed(seed, index)):
            sink = None
            if tracer is not None:
                driver = ("multipass.multipass_run" if kind == "monotone"
                          else "randomized.multipass_randomized")
                run = tracer.wrap(driver, run)
                tracer.run_id += 1
                sink = tracer.sink if kind == "monotone" else None
            oracle = inst.build_oracle()
            result = run(oracle, inst.build_matchoid(), sink)
            solved.append((workloads.read_result(kind, result), oracle.calls,
                           kind, result))
    return solved


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_tiny_batch_matches_the_untraced_solve(name):
    # every hook runs here, the ones that read pass records included
    plain = _solve_tiny_batch(name)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _solve_tiny_batch(name, tracer)
    finally:
        tracer.uninstall()
    assert ([(out, calls) for out, calls, _, _ in traced]
            == [(out, calls) for out, calls, _, _ in plain])
    metrics = tracer.layer_metrics()
    monotone = [run for _, _, kind, run in traced if kind == "monotone"]
    if monotone:
        assert metrics["streaming.accepts"] == sum(
            res.accept_count for run in monotone for res in run.pass_results)
    else:
        assert metrics["randomized.process.calls"] > 0
