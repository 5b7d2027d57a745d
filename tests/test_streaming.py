"""Single streaming pass: acceptance rule, evictions, nu maintenance."""

import math
from bisect import insort
from random import Random

import pytest

import matchstream as ms
from _checked import checked, nu_by_definition
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
    with checked():
        res = ms.streaming_pass(oracle, mp, [0, 1], None, 0.0, 1.0)
    assert res.solution == {1}
    assert res.f_final == 3.0
    assert res.evicted == {0: 1.0}
    assert res.accepted == {0, 1}
    assert res.accept_count == 2 and res.reject_count == 0


def test_hand_simulation_reject():
    # 1.5 < (1+1)*1, so the second arrival is rejected
    oracle, mp = _modular_setup([1, 1.5])
    with checked():
        res = ms.streaming_pass(oracle, mp, [0, 1], None, 0.0, 1.0)
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
    with checked():
        again = ms.streaming_pass(oracle, mp, stream, state, 0.0, converged.beta)
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
            exact = nu_by_definition(state, oracle)
            assert set(exact) == set(state.nu)
            for e, v in exact.items():
                assert abs(v - state.nu[e]) <= TOL
            total = math.fsum(state.nu.values())
            assert abs(total - (state.f_s - oracle.peek(()))) <= TOL


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
    with checked() as tally:
        res = ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                                ms.stream_order(inst.n), None, 0.0, 1.0)
    assert (tally.elements, tally.exchanges) == (inst.n, inst.n)
    assert tally.accepts == res.accept_count > 0
    # the buffered policy checks every arrival too, not only its draws
    with checked() as tally:
        out = ms.randomized_pass(inst.build_oracle(), inst.build_matchoid(),
                                 ms.stream_order(inst.n), None, 0.0, 1.0, m=2,
                                 rng=Random(5))
    assert tally.elements == inst.n
    assert tally.accepts == out.accept_count
    assert 0 < out.accept_count < inst.n
    assert tally.swept > 0


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
        with checked():
            res = ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                                    ms.stream_order(inst.n), None, alpha, 1.0)
        assert len(res.accepted) <= opt / alpha + TOL


def test_nu_never_below_alpha():
    inst = coverage_uniform(6)
    alpha = 1.0
    with checked():
        res = ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                                ms.stream_order(inst.n), None, alpha, 1.0)
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


def test_ground_mismatch_is_refused_by_every_driver():
    # an objective over 8 elements with a constraint over 3 would treat
    # elements 3-7 as free, and the reverse would never stream 3-7; every
    # driver refuses before any oracle call, the randomized one ahead of
    # its guess-grid pass in either offline mode
    for n_oracle, n_mp in ((8, 3), (3, 8)):
        oracle = ms.ModularOracle([1.0] * n_oracle)
        mp = ms.PMatchoid(range(n_mp), [ms.UniformMatroid(range(n_mp), 1)])
        stream = range(n_oracle)
        for run in (lambda: ms.streaming_pass(oracle, mp, stream),
                    lambda: ms.multipass_run(oracle, mp, stream,
                                             ms.Schedule.matroid_harmonic(), 2),
                    lambda: ms.multipass_randomized(oracle, mp, stream, 0.5, 1),
                    lambda: ms.multipass_randomized(oracle, mp, stream, 0.5, 1,
                                                    offline_mode="heuristic")):
            with pytest.raises(ms.PreconditionError, match="ground sets differ"):
                run()
            assert oracle.calls == 0


@pytest.mark.parametrize("bad", [1.7, math.nan, math.inf, "2", None, True],
                         ids=["fraction", "nan", "inf", "text", "none", "bool"])
def test_non_integral_ids_and_capacities_are_refused(bad):
    # int() would read 1.7 as 1: another element, another capacity
    oracle = ms.ModularOracle([1, 2, 3])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 1)])
    with pytest.raises(ms.DomainError, match="stream elements must be integers"):
        ms.streaming_pass(oracle, mp, [0, bad, 2])
    with pytest.raises(ms.DomainError, match="must be integers"):
        ms.multipass_randomized(oracle, mp, [0, bad, 2], 0.5, 1)
    assert oracle.calls == 0
    refused = (
        lambda: ms.UniformMatroid(range(3), bad),
        lambda: ms.UniformMatroid([0, bad], 1),
        lambda: ms.PartitionMatroid(range(3), [[0, 1]], [bad]),
        lambda: ms.PartitionMatroid([0, 1, 2, bad], [[0, bad]], [1]),
        lambda: ms.GraphicMatroid([0, bad], {0: (0, 1)}),
        lambda: ms.PMatchoid([0, 1, bad], []),
    )
    if bad is not None:  # rank=None asks for the rank to be computed
        refused += (lambda: ms.PMatchoid(range(3), [], rank=bad),)
    for build in refused:
        with pytest.raises(ms.PreconditionError, match="must be integers"):
            build()
    with pytest.raises(ms.DomainError, match="element ids must be integers"):
        ms.SubmodularOracle([0, bad])


def test_integral_floats_are_their_integers():
    oracle = ms.ModularOracle([1, 2, 3])
    mp = ms.PMatchoid([0.0, 1, 2.0], [ms.UniformMatroid([0, 1.0, 2], 1.0),
                                       ms.PartitionMatroid(range(3), [[0.0, 1]], [1.0])],
                      rank=1.0)
    assert mp.ground == {0, 1, 2} and mp.rank_k == 1
    assert mp.matroids[0].capacity == 1 and mp.matroids[1].capacities == [1]
    assert ms.streaming_pass(oracle, mp, [0.0, 1.0, 2.0]).solution == {1}


def test_negative_parameters_rejected():
    oracle, mp = _modular_setup([1, 2])
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1], None, -0.1, 1.0)
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1], None, 0.0, -1.0)


def test_infeasible_initial_solution_rejected():
    oracle, mp = _modular_setup([1, 2])
    bad = ms.SolutionState(mp, {0: 1.0, 1: 2.0})
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1], bad)


def test_start_state_needs_an_evaluator_on_the_pass_oracle():
    # f(S) comes from the state's running evaluator, so a pass cannot
    # start from a hand-built state (it would have to trust a caller's
    # f(S)) or from one whose evaluator runs on another oracle
    oracle = ms.ModularOracle([2, 1, 1])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 3)])
    with pytest.raises(ms.PreconditionError):
        ms.streaming_pass(oracle, mp, [0, 1, 2], ms.SolutionState(mp, {0: 2.0}))
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
    # the checked runner re-checks feasibility per element and raises on
    # a violation
    rng = Random(3)
    for seed in range(5):
        inst = bipartite_matching(seed)
        beta = rng.choice([0.25, 0.5, 1.0])
        with checked():
            ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                              ms.stream_order(inst.n), None, 0.0, beta)


@pytest.mark.parametrize("held", [{1, 2}, {0, 1}, set()],
                         ids=["other set", "extra member", "empty"])
def test_start_state_evaluator_must_hold_its_members(held):
    # f(S) is read from the evaluator, so one over another set would make
    # the pass report that set's value: here f({1, 2}) = f({0}) = 2, and a
    # pass from it would end at 2.0 for a solution worth 4.0
    oracle = ms.ModularOracle([2, 1, 1])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 3)])
    state = ms.SolutionState(mp, {0: 2.0}, oracle.running(held))
    with pytest.raises(ms.PreconditionError, match="another set"):
        ms.streaming_pass(oracle, mp, [0, 1, 2], state)
    # the evaluator's own call; the pass refuses the state before any
    assert oracle.calls == 1


def test_debug_check_catches_a_stale_swap_pick():
    # S = {0, 1} fills the uniform matroid, and arrival 2 should evict 1,
    # the smaller nu; each corruption below makes the state's answer name
    # another set, which the checked runner's scan of S catches
    oracle = ms.ModularOracle([3, 1, 2, 4])
    uniform = ms.UniformMatroid(range(4), 2)
    mp = ms.PMatchoid(range(4), [uniform])
    slot = (uniform, 0)

    def an_entry_with_a_wrong_nu(state):
        # a second entry for member 0, with its seq but not its nu, sorts
        # first in the class list
        insort(state.classes[slot], (0.0, state.entry_of[0][1], 0))

    def a_member_missing_from_its_class(state):
        # the class list loses member 0's entry, so it reads below capacity
        state.classes[slot].remove(state.entry_of[0])

    def stale_signature_answer(state):
        state.answers[mp.signature_of[2]] = frozenset({0})

    for corrupt in (an_entry_with_a_wrong_nu, a_member_missing_from_its_class,
                    stale_signature_answer):
        runner = ms.PassRunner(oracle, mp, None, 0.0, 1.0)
        with checked():
            for x in (0, 1):
                runner.process(x)
            assert len(runner.state.classes[slot]) == 2
            corrupt(runner.state)
            with pytest.raises(AssertionError, match="cached exchange set"):
                runner.process(2)


def _planted(fault):
    """A runner that applies ``fault(runner, x, cx)`` after each accept."""
    class Planted(ms.PassRunner):
        def _accept(self, x, gain, cx):
            super()._accept(x, gain, cx)
            fault(self, x, cx)
    return Planted


def _keep_evicted(runner, x, cx):
    runner.state.nu.update(dict.fromkeys(cx, 0.0))


def _inflate_nu(runner, x, cx):
    runner.state.nu[x] += 1.0


def _nu_below_alpha(runner, x, cx):
    # x's nu and one more move onto S's first member: the sum holds
    nu = runner.state.nu
    first = next(iter(nu))
    if first != x:
        nu[first] += nu[x] + 1.0
        nu[x] = -1.0


def _miscount_held(runner, x, cx):
    runner._held += 1


def _swap_nu(runner, x, cx):
    # S's first member and x trade nu values: the sum holds
    nu = runner.state.nu
    first = next(iter(nu))
    nu[first], nu[x] = nu[x], nu[first]


def _file_x_first(runner, x, cx):
    # x is filed ahead of S instead of after it, and every nu re-walked,
    # so each nu is exact for that order
    nu = runner.state.nu
    nu.update({e: nu.pop(e) for e in list(nu) if e != x})
    ms.recompute_nu(runner.state, runner.oracle)


class _RaisedBar(ms.RandomizedPassRunner):
    """The engine's bar, admission and re-screen alike, one too high."""

    def _bar(self, cx):
        return super()._bar(cx) + 1.0


def _uniform(n, capacity):
    return ms.PMatchoid(range(n), [ms.UniformMatroid(range(n), capacity)])


# Modular weights 3, 1, 2, 4 under capacity 2: 0 and 1 are inserted, 2
# evicts 1 and 3 evicts 2. The coverage sets {a}, {b}, {b, c} (weights 1,
# 2, 3) insert 0 and 1, then 2 evicts 0; {a}, {a, b} (unit weights)
# insert both. Filing x first leaves the first run's survivor 1 with
# nu 0 after 2 evicts 0, and the second run's 0 with nu 0 after 1 is
# inserted. The table's f({0, 1}) = 5 > f({0}) + f({1}) leaves member 0
# a residual of 4 over its nu of 1. Under the raised bar, the draw from
# a full buffer of {a, b} and {a, c} (weights 1, 0.5 and 0.5) drops the
# other member, whose gain of 0.5 still clears the true bar of 0.
_MODULAR = (ms.ModularOracle([3, 1, 2, 4]), _uniform(4, 2))
_PLANTED_FAULTS = {
    "solution left the feasible region": (_planted(_keep_evicted), _MODULAR),
    "incremental values sum to": (_planted(_inflate_nu), _MODULAR),
    "fell below alpha": (_planted(_nu_below_alpha), _MODULAR),
    "held-element count drifted": (_planted(_miscount_held), _MODULAR),
    "cached nu\\[0\\]=1.0 drifted": (_planted(_swap_nu), _MODULAR),
    "an eviction decreased a survivor's nu": (
        _planted(_file_x_first),
        (ms.CoverageOracle([{0}, {1}, {1, 2}], [1, 2, 3]), _uniform(3, 2))),
    "a pure insertion changed a survivor's nu": (
        _planted(_file_x_first),
        (ms.CoverageOracle([{0}, {0, 1}], [1, 1]), _uniform(2, 2))),
    "single-element residual exceeded its nu": (
        ms.PassRunner, (ms.TableOracle(2, [0, 1, 1, 5]), _uniform(2, 2))),
    "the sweep dropped": (
        _RaisedBar,
        (ms.CoverageOracle([{0, 1}, {0, 2}], [1, 0.5, 0.5]), _uniform(2, 2))),
}


@pytest.mark.parametrize("message", list(_PLANTED_FAULTS))
def test_each_invariant_check_catches_its_planted_fault(message):
    # each case plants one fault, in the runner or (for the residual) in
    # the objective, that every check ahead of its own lets pass
    runner_class, (oracle, mp) = _PLANTED_FAULTS[message]
    if issubclass(runner_class, ms.RandomizedPassRunner):
        runner = runner_class(oracle, mp, None, 0.0, 1.0, 2, Random(0))
    else:
        runner = runner_class(oracle, mp, None, 0.0, 1.0)
    with checked():
        with pytest.raises(AssertionError, match=message):
            for x in sorted(oracle.ground):
                runner.process(x)


def test_bar_equals_its_fsum_form_bit_for_bit():
    # the bar skips fsum for zero or one term; the shortcut must give
    # fsum's bits, and fsum([-0.0]) is 0.0
    tiny = 5e-324
    values = (0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308 / 3, 1.0,
              0.1, 1e16, 3.0)
    oracle, mp = _modular_setup([1] * 4)
    rng = Random(71)
    for alpha in (0.0, -0.0, tiny, 0.5):
        for beta in (0.0, 1.0, 0.3):
            runner = ms.PassRunner(oracle, mp, None, alpha, beta)
            for _ in range(40):
                nu = {e: rng.choice(values) for e in range(3)}
                runner.state.nu = nu
                for cx in (set(), {0}, {1}, {2}, {0, 1, 2}):
                    want = alpha + (1.0 + beta) * math.fsum(nu[c] for c in cx)
                    assert runner._bar(cx).hex() == want.hex(), (alpha, beta, nu, cx)
    assert math.fsum([-0.0]).hex() == "0x0.0p+0"
