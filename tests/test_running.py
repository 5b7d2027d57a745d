"""Running evaluators: agreement with from-scratch evaluation, metering,
and the oracle-call totals of whole runs."""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import matchstream as ms
from _corpus import oracles

# With float weights a running total may differ from a from-scratch sum
# in the last bits; the gap is bounded relative to the oracle's total weight.
REL_TOL = 1e-12

KINDS = ("coverage", "cut", "modular", "table")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_running_matches_scratch_evaluation(data):
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    integer = data.draw(st.booleans(), label="integer weights")
    oracle, scale = data.draw(oracles(kind, integer), label="oracle")
    n = len(oracle.ground)
    members = set(data.draw(st.frozensets(st.integers(0, n - 1)), label="start"))
    ops = data.draw(st.lists(st.tuples(
        st.sampled_from(("with", "add", "add-unmetered")),
        st.integers(0, n - 1)), max_size=12), label="ops")

    def same(got, want):
        if integer:
            return got == want
        return abs(got - want) <= REL_TOL * scale

    evaluator = oracle.running(members)
    assert oracle.calls == 1
    assert same(evaluator.total, oracle.peek(members))
    calls = 1
    for op, x in ops:
        want = oracle.peek(members | {x})
        if op == "with":
            got = evaluator.value_with(x)
            calls += 1
        else:
            got = evaluator.add(x, meter=(op == "add"))
            calls += op == "add"
            members.add(x)
            assert got == evaluator.total
        assert same(got, want), (op, x, got, want)
        assert same(evaluator.total, oracle.peek(members))
        assert evaluator.members == members
        assert oracle.calls == calls

    twin = evaluator.copy()
    before = evaluator.total
    for x in range(n):
        twin.add(x, meter=False)
    assert evaluator.total == before and evaluator.members == members
    assert same(twin.total, oracle.peek(range(n)))
    for x in range(n):
        assert same(evaluator.value_with(x), oracle.peek(members | {x}))


def test_running_rejects_elements_outside_ground():
    oracle = ms.CoverageOracle([[0], [1]], [1, 2])
    with pytest.raises(ms.DomainError):
        oracle.running({0, 5})
    evaluator = oracle.running({0})
    with pytest.raises(ms.DomainError):
        evaluator.value_with(5)
    with pytest.raises(ms.DomainError):
        evaluator.add(-1, meter=False)
    assert oracle.calls == 1
    assert oracle.running({1}, meter=False).total == 2.0
    assert oracle.calls == 1


class _Halved(ms.SubmodularOracle):
    """A user subclass with only ``_evaluate`` gets the generic evaluator."""

    def _evaluate(self, subset):
        return 0.5 * len(subset)


def test_custom_subclass_gets_generic_evaluator():
    oracle = _Halved(range(4))
    evaluator = oracle.running({0})
    assert evaluator.value_with(1) == 1.0
    assert evaluator.add(2) == 1.0
    assert evaluator.value_with(2) == 1.0
    assert oracle.calls == 4
    run = ms.streaming_pass(oracle, ms.PMatchoid(range(4), [], rank=4),
                            range(4), debug=True)
    assert run.f_final == 2.0


# Oracle-call totals recorded with from-scratch evaluation on every path;
# the running evaluators must meter exactly the same calls.

def test_multipass_call_count_is_pinned():
    inst = ms.generate_instance("coverage+uniform", 7, n=40, items=6,
                                capacity=8, max_weight=1)
    oracle, mp = inst.build_oracle(), inst.build_matchoid()
    run = ms.multipass_run(oracle, mp, ms.stream_order(inst.n, 7),
                           ms.Schedule.matroid_harmonic(), 3, 0.0)
    assert [len(r.evicted) for r in run.pass_results] == [32, 32, 32]
    assert run.f_final == 6.0
    assert oracle.calls == 588


def test_randomized_call_count_is_pinned():
    inst = ms.generate_instance("directed-cut+matroid", 3, n=300, capacity=3)
    oracle, mp = inst.build_oracle(), inst.build_matchoid()
    res = ms.multipass_randomized(oracle, mp, ms.stream_order(inst.n, 3), 0.5,
                                  passes=2, seed=11, offline_mode="heuristic")
    assert [[row["accepts"] for row in c.pass_rows] for c in res.copies] == [[3, 0], [3, 0]]
    assert res.f_solution == 53.0
    assert oracle.calls == 2269


def test_debug_check_catches_a_drifted_evaluator():
    oracle = ms.ModularOracle([1, 2, 3])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 2)])
    first = ms.streaming_pass(oracle, mp, [0], require_full_stream=False)
    first.state.evaluator.total += 1.0
    with pytest.raises(AssertionError, match="running evaluator"):
        ms.streaming_pass(oracle, mp, [0], first.state, debug=True,
                          require_full_stream=False)


# Weights far above 1: the debug checks' tolerance is relative to f(S),
# so rounding in the last bits of a correct run is not a failure.
LARGE_WEIGHTS = ([1e6 + .1, 2e6 + .2, 3e6 + .3, 4e6 + .4], [1e9, .1, .2, .3])


@pytest.mark.parametrize("weights", LARGE_WEIGHTS, ids=["1e6", "1e9"])
def test_debug_checks_scale_with_f(weights):
    mp = ms.PMatchoid(range(4), [ms.UniformMatroid(range(4), 3)])
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
        oracle = ms.ModularOracle(weights)
        run = ms.multipass_run(oracle, mp, order,
                               ms.Schedule.matroid_harmonic(), 3, debug=True)
        assert run.f_final == pytest.approx(sum(weights) - min(weights))


def test_debug_checks_scale_with_f_on_a_large_cut():
    # chained debug randomized passes on cuts with 1e6-scale float weights
    draws = 0
    for seed in range(40):
        rng = Random(seed)
        arcs = [(u, v, 1e6 * rng.randint(1, 4) + rng.random())
                for u in range(8) for v in range(8)
                if u != v and rng.random() < 0.5]
        oracle = ms.DirectedCutOracle(8, arcs)
        mp = ms.PMatchoid(range(8), [ms.UniformMatroid(range(8), 3)])
        state = None
        for i, beta in enumerate((1.0, 0.5)):
            res = ms.randomized_pass(oracle, mp, range(8), state, 0.0, beta,
                                     2, Random(seed + i), debug=True)
            state = res.state
            draws += res.accept_count
    assert draws > 0


def test_debug_check_catches_a_drift_at_large_scale():
    oracle = ms.ModularOracle(LARGE_WEIGHTS[0])
    mp = ms.PMatchoid(range(4), [ms.UniformMatroid(range(4), 3)])
    first = ms.streaming_pass(oracle, mp, [0, 1, 2], require_full_stream=False)
    first.state.evaluator.total += 1.0
    with pytest.raises(AssertionError, match="running evaluator"):
        ms.streaming_pass(oracle, mp, [0], first.state, debug=True,
                          require_full_stream=False)
