"""Running evaluators: agreement with from-scratch evaluation, metering,
and the oracle-call totals of whole runs."""

import math
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


# Oracle-call totals of whole runs. A running evaluator meters the calls
# that from-scratch evaluation would make, except on a monotone exchange
# that evicts only zero-nu members: there the nu suffix walk is skipped,
# and with it the walk's calls. The pinned instance saturates its coverage
# early, so almost every exchange after that takes the shortcut (from-
# scratch metering makes 588 calls here).


def _multipass_pin_run(oracle_class=ms.CoverageOracle, debug=False, trace=None):
    inst = ms.generate_instance("coverage+uniform", 7, n=40, items=6,
                                capacity=8, max_weight=1)
    oracle = oracle_class(inst.objective["sets"], inst.objective["item_weights"])
    mp = inst.build_matchoid()
    run = ms.multipass_run(oracle, mp, ms.stream_order(inst.n, 7),
                           ms.Schedule.matroid_harmonic(), 3, 0.0,
                           debug=debug, trace=trace)
    return oracle, run


def test_multipass_call_count_is_pinned():
    oracle, run = _multipass_pin_run()
    assert [len(r.evicted) for r in run.pass_results] == [32, 32, 32]
    assert run.f_final == 6.0
    assert oracle.calls == 105
    assert sum(r.shortcut_exchanges for r in run.pass_results) > 0


def test_nonmonotone_exchange_still_walks():
    # member 0 is evicted at nu 0.0, but a cut is not monotone: removing 0
    # raises nu[3] from 2 to 5, which only the suffix walk finds
    oracle = ms.DirectedCutOracle(5, [(1, 2, 1), (1, 4, 2), (2, 1, 1),
                                      (3, 0, 3), (3, 1, 1), (3, 4, 2)])
    mp = ms.PMatchoid(range(5), [ms.UniformMatroid(range(5), 2)])
    run = ms.multipass_run(oracle, mp, range(5), ms.Schedule.for_matchoid(mp),
                           2, 0.0, debug=True)
    assert [r.evicted for r in run.pass_results] == [{0: 0.0}, {}]
    assert run.solution == {1, 3} and run.f_final == 8.0
    assert run.state.nu == {1: 3.0, 3: 5.0}
    assert oracle.calls == 12
    assert [r.shortcut_exchanges for r in run.pass_results] == [0, 0]


class _Walked(ms.CoverageOracle):
    """Coverage that is not declared monotone, so every exchange walks."""

    monotone = False


class _WalkedModular(ms.ModularOracle):
    monotone = False


def _decided(run, trace):
    """What a multipass run decided: its trace, and each pass's row
    without its call count, solution in arrival order, evictions and
    certified factor."""
    passes = []
    for res, cert in zip(run.pass_results, run.certificates):
        row = res.row(cert.pass_index, cert.beta, cert.gamma_certified)
        del row["oracle_calls"]
        passes.append([row, list(res.state.nu), res.evicted,
                       cert.gamma_certified])
    return [trace, passes]


def _agree(got, want, scale):
    """Equal, except that floats may differ by rounding relative to
    ``scale`` (0 for exact agreement)."""
    if isinstance(got, float) and isinstance(want, float):
        rel = REL_TOL if scale else 0.0
        return math.isclose(got, want, rel_tol=rel, abs_tol=rel * scale)
    if isinstance(got, dict) and isinstance(want, dict):
        return (list(got) == list(want)
                and all(_agree(got[k], want[k], scale) for k in got))
    if isinstance(got, (list, tuple)) and isinstance(want, (list, tuple)):
        return (len(got) == len(want)
                and all(_agree(g, w, scale) for g, w in zip(got, want)))
    return got == want


def test_shortcut_decides_as_the_walk_on_the_pinned_instance():
    plain_trace, walked_trace = [], []
    plain_oracle, plain = _multipass_pin_run(debug=True, trace=plain_trace)
    walked_oracle, walked = _multipass_pin_run(_Walked, debug=True,
                                               trace=walked_trace)
    assert _decided(plain, plain_trace) == _decided(walked, walked_trace)
    assert (plain_oracle.calls, walked_oracle.calls) == (105, 588)
    assert sum(r.shortcut_exchanges for r in walked.pass_results) == 0


@st.composite
def _monotone_runs(draw):
    """(plain class, walked class, constructor args, scale, mp, stream): a
    small unit-weight or float-weight coverage or modular objective under
    a uniform matroid. ``scale`` is the total weight for float weights
    and 0 for unit weights."""
    integer = draw(st.booleans(), label="unit weights")
    weight = (st.integers(0, 1).map(float) if integer
              else st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False))
    n = draw(st.integers(1, 8), label="n")
    if draw(st.booleans(), label="coverage"):
        items = draw(st.integers(1, 6))
        sets = draw(st.lists(st.frozensets(st.integers(0, items - 1)),
                             min_size=n, max_size=n))
        weights = draw(st.lists(weight, min_size=items, max_size=items))
        classes, args = (ms.CoverageOracle, _Walked), (sets, weights)
    else:
        weights = draw(st.lists(weight, min_size=n, max_size=n))
        classes, args = (ms.ModularOracle, _WalkedModular), (weights,)
    mp = ms.PMatchoid(range(n), [ms.UniformMatroid(range(n),
                                                   draw(st.integers(1, n)))])
    scale = 0.0 if integer else sum(weights)
    return (*classes, args, scale, mp, draw(st.permutations(range(n))))


# With float weights the walk re-sums S's prefix in another order than the
# shortcut's running total, so values may differ in the last bits; every
# choice (trace actions, eviction sets, solutions) must still agree.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_monotone_runs())
def test_shortcut_decides_as_the_walk(case):
    plain_class, walked_class, args, scale, mp, stream = case
    decided, calls = [], []
    for cls in (plain_class, walked_class):
        oracle, trace = cls(*args), []
        run = ms.multipass_run(oracle, mp, stream, ms.Schedule.for_matchoid(mp),
                               3, 0.0, debug=True, trace=trace)
        decided.append(_decided(run, trace))
        calls.append(oracle.calls)
    assert _agree(*decided, scale)
    assert calls[0] <= calls[1]


def test_randomized_call_count_is_pinned():
    inst = ms.generate_instance("directed-cut+matroid", 3, n=300, capacity=3)
    oracle, mp = inst.build_oracle(), inst.build_matchoid()
    res = ms.multipass_randomized(oracle, mp, ms.stream_order(inst.n, 3), 0.5,
                                  passes=2, seed=11, offline_mode="heuristic")
    assert [[row["accepts"] for row in c.pass_rows] for c in res.copies] == [[3, 0], [3, 0]]
    assert res.f_solution == 56.0
    assert oracle.calls == 2132


def test_debug_check_catches_a_drifted_evaluator():
    oracle = ms.ModularOracle([1, 2, 3])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 2)])
    first = ms.streaming_pass(oracle, mp, [0, 1, 2])
    assert list(first.state.nu) == [1, 2]
    first.state.evaluator.total += 1.0
    with pytest.raises(AssertionError, match="running evaluator"):
        ms.streaming_pass(oracle, mp, [0, 1, 2], first.state, debug=True)


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
    first = ms.streaming_pass(oracle, mp, [0, 1, 2, 3])
    assert list(first.state.nu) == [1, 2, 3]
    first.state.evaluator.total += 1.0
    with pytest.raises(AssertionError, match="running evaluator"):
        ms.streaming_pass(oracle, mp, [0, 1, 2, 3], first.state, debug=True)


def test_zero_gain_accepts_are_counted():
    _, run = _multipass_pin_run()
    zero = [r.zero_gain_accepts for r in run.pass_results]
    assert sum(zero) > 0
    assert all(z <= r.accept_count for z, r in zip(zero, run.pass_results))
    # every accept of positive modular weights at alpha 0 gains its weight
    mp = ms.PMatchoid(range(6), [ms.UniformMatroid(range(6), 2)])
    modular = ms.multipass_run(ms.ModularOracle([1, 2, 3, 4, 5, 6]), mp,
                               range(6), ms.Schedule.for_matchoid(mp), 2, 0.0)
    assert sum(r.accept_count for r in modular.pass_results) > 0
    assert [r.zero_gain_accepts for r in modular.pass_results] == [0, 0]
