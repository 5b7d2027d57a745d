"""Single streaming pass: acceptance rule, evictions, nu maintenance."""

import math
from random import Random

import pytest

import matchstream as ms
from _corpus import bipartite_matching, coverage_uniform, exact_opt

TOL = 1e-9


def _modular_setup(weights):
    oracle = ms.ModularOracle(weights)
    mp = ms.PMatchoid(range(len(weights)),
                      [ms.UniformMatroid(range(len(weights)), 1)])
    return oracle, mp


def test_hand_simulation_accept_and_evict():
    # weights 1 then 3 under a capacity-1 constraint with beta=1:
    # the second arrival pays (1+1)*nu(first)=2 and wins
    oracle, mp = _modular_setup([1, 3])
    res = ms.streaming_pass(oracle, mp, [0, 1], None, 0.0, 1.0, debug=True)
    assert res.solution == {1}
    assert res.f_final == 3.0
    assert res.evicted == {0: 1.0}
    assert res.accepted == {0, 1}
    assert res.accept_count == 2 and res.reject_count == 0


def test_hand_simulation_reject():
    # 1.5 < (1+1)*1, so the second arrival is rejected
    oracle, mp = _modular_setup([1, 1.5])
    res = ms.streaming_pass(oracle, mp, [0, 1], None, 0.0, 1.0, debug=True)
    assert res.solution == {0}
    assert res.f_final == 1.0
    assert res.evicted == {}
    assert res.reject_count == 1


def test_converged_pass_is_a_fixed_point():
    inst = coverage_uniform(21)
    oracle = inst.build_oracle()
    mp = inst.build_matchoid()
    stream = ms.stream_order(inst.n)
    state = None
    converged = None
    for i in range(1, 31):
        res = ms.streaming_pass(oracle, mp, stream, state, 0.0, 1.0 / i)
        state = res.state
        if res.accept_count == 0:
            converged = res
            break
    assert converged is not None, "no converged pass within 30 passes"
    again = ms.streaming_pass(oracle, mp, stream, state, 0.0,
                              converged.beta, debug=True)
    assert again.accept_count == 0
    assert again.f_final == again.f_init
    assert again.discard_count == len(state.members)
    assert again.solution == frozenset(state.members)


def test_pretend_ordering_across_passes():
    inst = coverage_uniform(8)
    oracle = inst.build_oracle()
    mp = inst.build_matchoid()
    stream = ms.stream_order(inst.n)
    first = ms.streaming_pass(oracle, mp, stream, None, 0.0, 1.0)
    kept = list(first.state.nu)
    second = ms.streaming_pass(oracle, mp, stream, first.state, 0.0, 0.5)
    order = list(second.state.nu)
    survivors = [e for e in order if e in kept]
    assert survivors == [e for e in kept if e in order], \
        "initial solution must keep its order"
    assert order[:len(survivors)] == survivors, "new arrivals must come later"


def test_cached_nu_matches_definition_after_random_runs():
    for seed in range(6):
        inst = bipartite_matching(seed)
        oracle = inst.build_oracle()
        mp = inst.build_matchoid()
        state = None
        for i in range(1, 4):
            res = ms.streaming_pass(oracle, mp, ms.stream_order(inst.n),
                                    state, 0.0, 1.0 / i)
            state = res.state
            exact = ms.nu_by_definition(state, oracle)
            assert set(exact) == set(state.nu)
            for e, v in exact.items():
                assert abs(v - state.nu[e]) <= TOL
            total = math.fsum(state.nu.values())
            assert abs(total - (state.f_s - state.f_empty)) <= TOL


def test_full_recompute_agrees_with_incremental_cache():
    inst = coverage_uniform(13)
    oracle = inst.build_oracle()
    mp = inst.build_matchoid()
    res = ms.streaming_pass(oracle, mp, ms.stream_order(inst.n), None, 0.0, 1.0)
    cached = dict(res.state.nu)
    ms.recompute_nu(res.state, inst.build_oracle())
    for e, v in res.state.nu.items():
        assert abs(v - cached[e]) <= TOL


def test_debug_mode_checks_every_element():
    inst = coverage_uniform(2)
    res = ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                            ms.stream_order(inst.n), None, 0.0, 1.0, debug=True)
    assert res.element_checks == inst.n
    assert res.accept_count > 0
    # the buffered policy checks every arrival too, not only its draws
    out = ms.randomized_pass(inst.build_oracle(), inst.build_matchoid(),
                             ms.stream_order(inst.n), None, 0.0, 1.0, m=2,
                             rng=Random(5), debug=True)
    assert out.element_checks == inst.n
    assert 0 < out.accept_count < inst.n


@pytest.mark.parametrize("buffered", [False, True])
def test_finished_runner_is_a_fixed_record(buffered):
    # the finished runner is the pass record: it takes no more arrivals,
    # no second finish, and neither attempt changes what it holds
    inst = coverage_uniform(2)
    oracle, mp = inst.build_oracle(), inst.build_matchoid()
    if buffered:
        res = ms.randomized_pass(oracle, mp, ms.stream_order(inst.n), None,
                                 0.0, 1.0, m=2, rng=Random(5))
    else:
        res = ms.streaming_pass(oracle, mp, ms.stream_order(inst.n), None,
                                0.0, 1.0)
    assert isinstance(res, ms.PassRunner)

    def record():
        fields = (res.accepted, dict(res.evicted), res.f_final,
                  res.oracle_calls, res.solution)
        return fields + ((res.s_prime, res.f_s_prime) if buffered else ())

    before = record()
    assert before[0] and res.accept_count > 0
    calls = oracle.calls
    with pytest.raises(ms.PreconditionError):
        res.process(0)
    with pytest.raises(ms.PreconditionError):
        res.finish()
    assert record() == before
    assert oracle.calls == calls


def test_eviction_sum_bounded_by_pass_gain():
    for seed in range(8):
        inst = coverage_uniform(seed)
        oracle = inst.build_oracle()
        mp = inst.build_matchoid()
        state = None
        for i in range(1, 6):
            res = ms.streaming_pass(oracle, mp, ms.stream_order(inst.n),
                                    state, 0.0, 1.0 / i)
            state = res.state
            assert res.beta * res.eviction_sum <= res.f_final - res.f_init + TOL
            assert res.accepted - res.solution == set(res.evicted)
            assert res.f_final >= res.f_init


def test_accepted_count_bounded_by_opt_over_alpha():
    for seed in range(4):
        inst = coverage_uniform(seed)
        opt = exact_opt(inst).opt_value
        alpha = 0.5
        res = ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                                ms.stream_order(inst.n), None, alpha, 1.0,
                                debug=True)
        assert len(res.accepted) <= opt / alpha + TOL


def test_nu_never_below_alpha():
    inst = coverage_uniform(6)
    alpha = 1.0
    res = ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                            ms.stream_order(inst.n), None, alpha, 1.0,
                            debug=True)
    for e in res.state.order:
        assert res.state.nu[e] >= alpha - TOL


def test_stream_validation():
    oracle, mp = _modular_setup([1, 2])
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 0, 1], None)
    with pytest.raises(ms.DomainError):
        ms.streaming_pass(oracle, mp, [0, 1, 5], None)
    # a partial stream is refused by every pass, before any oracle call
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0], None)   # element 1 missing
    with pytest.raises(ms.PreconditionError):
        ms.randomized_pass(oracle, mp, [1], None, 0.0, 1.0, 2, Random(0))
    assert oracle.calls == 0


def test_negative_parameters_rejected():
    oracle, mp = _modular_setup([1, 2])
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1], None, -0.1, 1.0)
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1], None, 0.0, -1.0)


def test_infeasible_initial_solution_rejected():
    oracle, mp = _modular_setup([1, 2])
    bad = ms.SolutionState({0: 1.0, 1: 2.0}, 0.0)
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1], bad)


def test_start_state_needs_an_evaluator_on_the_pass_oracle():
    # f(S) comes from the state's running evaluator, so a pass cannot
    # start from a hand-built state (it would have to trust a caller's
    # f(S)) or from one whose evaluator runs on another oracle
    oracle = ms.ModularOracle([2, 1, 1])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 3)])
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1, 2], ms.SolutionState({0: 2.0}, 0.0))
    # alpha = 1.5 keeps element 0 (gain 2) alone: S = {0}, f(S) = 2
    first = ms.streaming_pass(ms.ModularOracle([2, 1, 1]), mp, [0, 1, 2], None, 1.5)
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1, 2], first.state)
    first = ms.streaming_pass(oracle, mp, [0, 1, 2], None, 1.5)
    res = ms.streaming_pass(oracle, mp, [0, 1, 2], first.state)
    assert res.f_init == 2.0 and res.f_final == 4.0
    assert res.accept_count == 2
    # the pass changed a copy: the start state and its evaluator are intact
    assert list(first.state.nu) == [0] and first.state.f_s == 2.0


def test_trace_records_every_processed_element():
    oracle, mp = _modular_setup([1, 3])
    records = []
    ms.streaming_pass(oracle, mp, [0, 1], None, 0.0, 1.0, trace=records)
    assert [r["action"] for r in records] == ["accept", "accept"]
    assert records[1]["C_x"] == [0]
    assert records[1]["f_S"] == 3.0


def test_storage_peak_is_linear_in_rank():
    for seed in range(6):
        inst = coverage_uniform(seed)
        mp = inst.build_matchoid()
        state = None
        oracle = inst.build_oracle()
        for i in range(1, 4):
            res = ms.streaming_pass(oracle, mp, ms.stream_order(inst.n),
                                    state, 0.0, 1.0 / i)
            state = res.state
            assert res.stored_peak <= 2 * mp.rank_k + mp.p


def test_eviction_sets_never_exceed_p():
    for builder, p in ((coverage_uniform, 1), (bipartite_matching, 2)):
        for seed in range(4):
            inst = builder(seed)
            mp = inst.build_matchoid()
            assert mp.p == p
            records = []
            ms.streaming_pass(inst.build_oracle(), mp, ms.stream_order(inst.n),
                              None, 0.0, 1.0, trace=records)
            assert max(len(r["C_x"]) for r in records) <= p


def test_feasibility_after_every_element():
    # debug mode re-checks feasibility per element and raises on violation
    rng = Random(3)
    for seed in range(5):
        inst = bipartite_matching(seed)
        beta = rng.choice([0.25, 0.5, 1.0])
        ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                          ms.stream_order(inst.n), None, 0.0, beta, debug=True)


@pytest.mark.parametrize("held", [{1, 2}, {0, 1}, set()],
                         ids=["other set", "extra member", "empty"])
def test_start_state_evaluator_must_hold_its_members(held):
    # f(S) is read from the evaluator, so one over another set would make
    # the pass report that set's value: here f({1, 2}) = f({0}) = 2, and a
    # pass from it would end at 2.0 for a solution worth 4.0
    oracle = ms.ModularOracle([2, 1, 1])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 3)])
    state = ms.SolutionState({0: 2.0}, 0.0, oracle.running(held, meter=False))
    with pytest.raises(ms.PreconditionError, match="another set"):
        ms.streaming_pass(oracle, mp, [0, 1, 2], state)


def test_debug_check_catches_a_stale_swap_pick():
    # the cached pick names a member of S that is not the smallest nu
    oracle = ms.ModularOracle([3, 1, 2, 4])
    uniform = ms.UniformMatroid(range(4), 2)
    mp = ms.PMatchoid(range(4), [uniform])
    runner = ms.PassRunner(oracle, mp, None, 0.0, 1.0, debug=True)
    for x in (0, 1):
        runner.process(x)
    runner.state.picks[(uniform, 0)] = 0
    with pytest.raises(AssertionError, match="cached exchange set"):
        runner.process(2)
