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
