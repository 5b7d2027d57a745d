"""Schedules, certified factors, and multi-pass convergence."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import matchstream as ms
from _checked import checked
from _corpus import coverage_uniform, exact_opt, hypergraph_matching, oracles

TOL = 1e-9


def _fraction_gamma_chain(p, d):
    """Independent rational evaluation of the worst-case recurrence."""
    g = Fraction(4 * p)
    chain = [g]
    for _ in range(d - 1):
        g = 4 * p * g * (g - 1) / (g - 1 + p) ** 2
        chain.append(g)
    return chain


def _betas(sched, passes):
    return [beta for _, (beta, _) in zip(range(passes), sched.steps())]


def _gammas(sched, passes):
    return [gamma for _, (_, gamma) in zip(range(passes), sched.steps())]


def _recurrence_factors(p, d):
    """g_1..g_d of the recurrence, read back from the betas that
    ``Schedule.steps`` yields: beta_{i+1} = (g_i - 1 - p) / (g_i - 1 + p)."""
    betas = _betas(ms.Schedule.matchoid_recurrence(p), d + 1)[1:]
    return [1.0 + p * (1.0 + b) / (1.0 - b) for b in betas]


def test_harmonic_schedule_betas():
    betas = _betas(ms.Schedule.matroid_harmonic(), 3)
    assert betas[0] == 1.0
    assert betas[2] == pytest.approx(1.0 / 3.0)


def test_recurrence_schedule_betas():
    # beta_2 from the pass-1 factor g_1 = 4p = 8: (8 - 1 - 2) / (8 - 1 + 2)
    betas = _betas(ms.Schedule.matchoid_recurrence(2), 2)
    assert betas[0] == 1.0
    assert betas[1] == pytest.approx(5.0 / 9.0)


def test_recurrence_matches_harmonic_at_p_equal_one():
    # with p=1 the pass-1 factor is 4, so beta_2 = 2/4 = 1/2 = 1/i
    assert _betas(ms.Schedule.matchoid_recurrence(1), 2)[1] == pytest.approx(0.5)
    chain = _fraction_gamma_chain(1, 16)
    for i, g in enumerate(chain, 1):
        assert g == Fraction(2) * (i + 1) / i


def test_for_matchoid_picks_the_schedule_by_p():
    def uniform(lo, hi):
        return ms.UniformMatroid(range(lo, hi), 2)

    one = ms.PMatchoid(range(6), [uniform(0, 6)])
    direct_sum = ms.PMatchoid(range(12), [uniform(0, 6), uniform(6, 12)])
    for mp in (one, direct_sum):
        assert mp.p == 1
        assert ms.Schedule.for_matchoid(mp).kind == "matroid-harmonic"
    overlaps = {2: [uniform(0, 6), uniform(0, 6)],
                3: [uniform(0, 6), uniform(0, 6), uniform(0, 6)]}
    for p, matroids in overlaps.items():
        sched = ms.Schedule.for_matchoid(ms.PMatchoid(range(6), matroids))
        assert (sched.kind, sched.p) == ("matchoid-recurrence", p)


def test_fixed_and_custom_schedules():
    assert _betas(ms.Schedule.fixed(0.25), 7) == [0.25] * 7
    assert _betas(ms.Schedule.fixed(0), 2) == [0.0, 0.0]
    for bad in (None, -0.5, math.nan, math.inf):
        with pytest.raises(ms.PreconditionError):
            ms.Schedule("fixed", beta=bad)
    # only the harmonic, recurrence and fixed kinds exist
    for kind in ("custom", "no-such-kind"):
        with pytest.raises(ms.PreconditionError):
            ms.Schedule(kind)


def test_schedule_inputs_are_read_strictly():
    # int() would read p = 2.7 as 2, a schedule a p = 2 run accepts, and
    # True as 1; float() would read beta = True as 1.0
    for bad in (2.7, True, "2", 0, -1):
        with pytest.raises(ms.PreconditionError, match="p must be"):
            ms.Schedule.matchoid_recurrence(bad)
    for bad in (True, "0.5", math.nan, math.inf):
        with pytest.raises(ms.PreconditionError, match="beta must be a finite real"):
            ms.Schedule.fixed(bad)
    recurrence, fixed = ms.Schedule.matchoid_recurrence(2.0), ms.Schedule.fixed(1)
    assert recurrence.p == 2 and type(recurrence.p) is int
    assert fixed.beta == 1.0 and type(fixed.beta) is float


# (beta_i, worst-case gamma_i) for passes 1..16, recorded before the step
# math moved into Schedule.steps
_RECORDED_STEPS = {
    "harmonic": (
        [1.0, 0.5, 0.3333333333333333, 0.25, 0.2, 0.16666666666666666,
         0.14285714285714285, 0.125, 0.1111111111111111, 0.1,
         0.09090909090909091, 0.08333333333333333, 0.07692307692307693,
         0.07142857142857142, 0.06666666666666667, 0.0625],
        [4.0, 3.0, 2.6666666666666665, 2.5, 2.4, 2.3333333333333335,
         2.2857142857142856, 2.25, 2.2222222222222223, 2.2,
         2.1818181818181817, 2.1666666666666665, 2.1538461538461537,
         2.142857142857143, 2.1333333333333333, 2.125],
    ),
    "recurrence-p2": (
        [1.0, 0.5555555555555556, 0.387523629489603, 0.2982787403717098,
         0.24272330482359708, 0.20474098781563882, 0.17710421226739667,
         0.1560794639596203, 0.13954043784538261, 0.12618601123996578,
         0.1151748093025539, 0.10593836331786458, 0.09807862586720878,
         0.09130848567839032, 0.08541559441968666, 0.08023949306584803],
        [11.0, 7.0, 5.666666666666666, 5.0, 4.6, 4.333333333333333,
         4.142857142857142, 4.0, 3.888888888888889, 3.8, 3.7272727272727275,
         3.6666666666666665, 3.6153846153846154, 3.571428571428571,
         3.533333333333333, 3.5],
    ),
    "recurrence-p3": (
        [1.0, 0.5714285714285714, 0.40485829959514164, 0.31483152208500076,
         0.25808932172690163, 0.21892860156985025, 0.19022122756810955,
         0.1682487956486116, 0.15087627800675277, 0.1367881432955293,
         0.12512860544722196, 0.11531643392899843, 0.10694276493730284,
         0.09971147097252879, 0.09340272527412857, 0.08784986232479751],
        [16.0, 10.0, 8.0, 7.0, 6.4, 6.0, 5.714285714285714, 5.5,
         5.333333333333333, 5.2, 5.090909090909091, 5.0, 4.923076923076923,
         4.857142857142857, 4.8, 4.75],
    ),
    "fixed:0.25": ([0.25] * 16, [math.inf] * 16),
    "recurrence-p1": (
        [1.0, 0.5, 0.3333333333333333, 0.24999999999999994,
         0.19999999999999984, 0.1666666666666665, 0.14285714285714274,
         0.12499999999999994, 0.1111111111111111, 0.10000000000000003,
         0.09090909090909098, 0.08333333333333345, 0.07692307692307705,
         0.07142857142857158, 0.06666666666666683, 0.06250000000000018],
        [6.0, 4.0, 3.333333333333333, 3.0, 2.8, 2.6666666666666665,
         2.571428571428571, 2.5, 2.4444444444444446, 2.4, 2.3636363636363638,
         2.3333333333333335, 2.3076923076923075, 2.2857142857142856,
         2.2666666666666666, 2.25],
    ),
}


def test_schedule_steps_are_pinned():
    schedules = {
        "harmonic": ms.Schedule.matroid_harmonic(),
        "recurrence-p2": ms.Schedule.matchoid_recurrence(2),
        "recurrence-p3": ms.Schedule.matchoid_recurrence(3),
        "fixed:0.25": ms.build_schedule(
            "fixed:0.25", ms.PMatchoid(range(2), [ms.UniformMatroid(range(2), 1)])),
        "recurrence-p1": ms.Schedule.matchoid_recurrence(1),
    }
    for name, sched in schedules.items():
        got = list(zip(range(16), sched.steps()))
        betas, gammas = _RECORDED_STEPS[name]
        assert [step for _, step in got] == list(zip(betas, gammas)), name
    # at p=1 the recurrence's steps are the harmonic 1/i up to rounding
    for rec, harm in zip(_RECORDED_STEPS["recurrence-p1"][0],
                         _RECORDED_STEPS["harmonic"][0]):
        assert abs(rec - harm) <= 1e-12


def test_gamma_recurrence_against_rational_oracle():
    for p in (1, 2, 3):
        expected = _fraction_gamma_chain(p, 16)
        for g, want in zip(_recurrence_factors(p, 16), expected):
            assert g == pytest.approx(float(want), abs=1e-12)


def test_recurrence_example_values_p2():
    chain = _fraction_gamma_chain(2, 2)
    assert chain[0] == 8
    assert chain[1] == Fraction(448, 81)
    g1, g2 = _recurrence_factors(2, 2)
    assert g1 == pytest.approx(8.0)
    assert g2 == pytest.approx(448.0 / 81.0)
    assert g2 <= 2 + 1 + 4 * 2 / 2    # stays below the pass-2 closed form


def test_worst_case_gamma_closed_forms():
    assert _gammas(ms.Schedule.matroid_harmonic(), 4) == \
        pytest.approx([4.0, 3.0, 8.0 / 3.0, 2.5])
    assert _gammas(ms.Schedule.matchoid_recurrence(3), 6)[5] == \
        pytest.approx(3 + 1 + 12 / 6)
    assert all(math.isinf(g) for g in _gammas(ms.Schedule.fixed(0.5), 3))


def test_recurrence_is_nonincreasing_and_bounded_below():
    # staying strictly above p + 1 keeps the recurrence's beta positive,
    # so Schedule.steps needs no clamp on the factor
    for p in range(1, 9):
        betas = _betas(ms.Schedule.matchoid_recurrence(p), 10001)
        assert all(b > 0.0 for b in betas)
        prev = 4.0 * p
        for g in _recurrence_factors(p, 10000):
            assert g <= prev + 1e-12
            assert g > p + 1
            prev = g


def test_recurrence_stays_under_closed_form():
    for p in (1, 2, 3):
        closed = _gammas(ms.Schedule.matchoid_recurrence(p), 16)
        for i, (g, gamma) in enumerate(zip(_recurrence_factors(p, 16), closed), 1):
            assert gamma == p + 1 + 4 * p / i
            assert g <= gamma + 1e-12


def test_certified_gamma_example():
    got = ms.certified_gamma(4.0, 0.5, 0.7, 1)
    assert got == pytest.approx(2.8)
    # the single-pass branch alone evaluates to 3.1 here
    single = (1 / 0.5 + 0) * 0.3 + 1 + 0.5 + 1
    assert single == pytest.approx(3.1)


def test_certified_gamma_balance_point_equalizes_branches():
    rng = Random(12)
    for _ in range(40):
        p = rng.randint(1, 4)
        gamma = rng.uniform(p + 1.5, 30.0)
        beta = rng.uniform(0.05, 1.0)
        delta = p * (1 + beta) ** 2 / (p + beta * (gamma - 1 + p))
        carried = gamma * delta
        single = (p / beta + p - 1) * (1 - delta) + p + beta * p + 1
        assert carried == pytest.approx(single, abs=1e-9)
        assert ms.certified_gamma(gamma, beta, delta, p) == \
            pytest.approx(carried, abs=1e-9)


def test_certified_gamma_no_progress():
    got = ms.certified_gamma(3.0, 0.5, 1.0, 1)
    assert got == min(3.0, 1 + 0.5 + 1)


def test_certified_gamma_first_pass_has_single_branch():
    assert ms.certified_gamma(math.inf, 1.0, 0.0, 2) == pytest.approx(8.0)
    assert ms.certified_gamma(None, 1.0, 0.0, 1) == pytest.approx(4.0)


def test_certified_gamma_nonpositive_beta_gives_no_single_pass_claim():
    assert math.isinf(ms.certified_gamma(math.inf, 0.0, 0.5, 1))
    assert ms.certified_gamma(3.0, 0.0, 0.5, 1) == pytest.approx(1.5)


def test_first_pass_certificate_is_4p():
    for builder, expect_p in ((coverage_uniform, 1), (hypergraph_matching, 3)):
        inst = builder(5)
        mp = inst.build_matchoid()
        run = ms.multipass_run(inst.build_oracle(), mp,
                               ms.stream_order(inst.n),
                               ms.Schedule.for_matchoid(mp), 1)
        assert mp.p == expect_p
        assert run.certificates[0].gamma_certified == pytest.approx(4.0 * mp.p)
        assert run.certificates[0].k_alpha_slack == 0.0
        assert repr(run.certificates[0]) == (
            f"GuaranteeCertificate(pass=1, beta=1, delta=0, gamma={4 * mp.p})")


def test_degenerate_zero_objective_reports_infinite_factor():
    oracle = ms.ModularOracle([0, 0, 0])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 2)])
    run = ms.multipass_run(oracle, mp, [0, 1, 2],
                           ms.Schedule.matroid_harmonic(), 3)
    assert all(math.isinf(c.gamma_certified) for c in run.certificates)
    # f(S_i) = 0 because alpha rejects every arrival: the bound claims
    # nothing, where inf * 0 + k * alpha would read NaN
    run = ms.multipass_run(ms.ModularOracle([1, 1, 1]), mp, [0, 1, 2],
                           ms.Schedule.matroid_harmonic(), 2, alpha=5.0)
    for res, cert in zip(run.pass_results, run.certificates):
        assert res.f_final == 0.0
        assert cert.opt_upper_bound(res.f_final) == math.inf


def test_nonzero_empty_value_keeps_certificates_sound():
    # constant-plus-modular table: f(empty) = 2
    weights = [1.0, 2.0, 3.0]
    table = [2.0 + sum(w for j, w in enumerate(weights) if mask >> j & 1)
             for mask in range(8)]
    oracle = ms.TableOracle(3, table)
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 2)])
    opt = ms.brute_force_opt(ms.TableOracle(3, table), mp)
    run = ms.multipass_run(oracle, mp, [0, 1, 2],
                           ms.Schedule.matroid_harmonic(), 5)
    assert run.pass_results[0].f_init == 2.0
    for res, cert in zip(run.pass_results, run.certificates):
        assert cert.opt_upper_bound(res.f_final) >= opt.opt_value - TOL


def test_multipass_certificates_sound_and_below_closed_form():
    for seed in range(10):
        inst = coverage_uniform(seed)
        opt = exact_opt(inst).opt_value
        mp = inst.build_matchoid()
        schedule = ms.Schedule.matroid_harmonic()
        run = ms.multipass_run(inst.build_oracle(), mp,
                               ms.stream_order(inst.n), schedule, 10)
        for res, cert, (_, closed) in zip(run.pass_results, run.certificates,
                                          schedule.steps()):
            assert cert.opt_upper_bound(res.f_final) >= opt - TOL
            assert cert.gamma_certified <= closed + TOL


@st.composite
def _float_weight_runs(draw):
    """(oracle, mp, schedule, alpha, stream): a float-weight coverage or
    modular objective under a uniform matroid, or under a uniform matroid
    intersected with a partition matroid (p = 2), at alpha 0 or 0.5."""
    oracle, _ = draw(oracles(draw(st.sampled_from(("coverage", "modular"))),
                             False))
    n = len(oracle.ground)
    matroids = [ms.UniformMatroid(range(n), draw(st.integers(1, n)))]
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        parts = [[e for e in range(n) if labels[e] == j] for j in range(3)]
        caps = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
        matroids.append(ms.PartitionMatroid(range(n), parts, caps))
    mp = ms.PMatchoid(range(n), matroids)
    schedule = ms.Schedule.for_matchoid(mp)
    alpha = draw(st.sampled_from((0.0, 0.5)))
    return oracle, mp, schedule, alpha, draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_float_weight_runs())
def test_multipass_factors_hold_on_float_weights(case):
    oracle, mp, schedule, alpha, stream = case
    opt = ms.brute_force_opt(oracle, mp).opt_value
    with checked():
        run = ms.multipass_run(oracle, mp, stream, schedule, 4, alpha)
    tol = 1e-9 * max(1.0, opt)
    if alpha == 0.0:
        assert opt <= 4.0 * mp.p * run.pass_results[0].f_final + tol
    for res, cert, (_, closed) in zip(run.pass_results, run.certificates,
                                      schedule.steps()):
        # passes with f(S_i) = 0 are included: their bound is inf
        assert opt <= cert.opt_upper_bound(res.f_final) + tol
        if res.f_final > 0.0:
            assert cert.gamma_certified <= closed + TOL
        else:
            assert math.isinf(cert.gamma_certified)


def test_objective_never_decreases_across_passes():
    inst = coverage_uniform(14)
    run = ms.multipass_run(inst.build_oracle(), inst.build_matchoid(),
                           ms.stream_order(inst.n),
                           ms.Schedule.matroid_harmonic(), 8)
    values = [r.f_final for r in run.pass_results]
    assert values == sorted(values)
    assert values[0] >= run.pass_results[0].f_init


def test_early_stop_on_target_gamma():
    inst = coverage_uniform(7)
    run = ms.multipass_run(inst.build_oracle(), inst.build_matchoid(),
                           ms.stream_order(inst.n),
                           ms.Schedule.matroid_harmonic(), 16,
                           target_gamma=2.6)
    assert run.passes_run < 16
    assert run.certificates[-1].gamma_certified <= 2.6
    # no certificate reaches a NaN target, nor stops short of an infinite
    # one: both are refused before any oracle call
    for bad in (math.nan, math.inf):
        oracle = inst.build_oracle()
        with pytest.raises(ms.PreconditionError, match="target_gamma must be a finite"):
            ms.multipass_run(oracle, inst.build_matchoid(), ms.stream_order(inst.n),
                             ms.Schedule.matroid_harmonic(), 16, target_gamma=bad)
        assert oracle.calls == 0, bad


def test_recurrence_schedule_requires_matching_p():
    inst = coverage_uniform(1)
    with pytest.raises(ms.PreconditionError):
        ms.multipass_run(inst.build_oracle(), inst.build_matchoid(),
                         ms.stream_order(inst.n),
                         ms.Schedule.matchoid_recurrence(2), 2)


def _monotone_passes(oracle, mp, order, passes):
    return ms.multipass_run(oracle, mp, order, ms.Schedule.for_matchoid(mp),
                            passes).passes_run


def _randomized_passes(oracle, mp, order, passes):
    # passes_used counts the guess-grid pass too
    return ms.multipass_randomized(oracle, mp, order, 0.5, passes=passes).passes_used - 1


@pytest.mark.parametrize("driver", [_monotone_passes, _randomized_passes],
                         ids=["multipass_run", "multipass_randomized"])
def test_pass_counts_are_integers(driver):
    # range() raised a bare TypeError on 2.7 and ran True as one pass;
    # int() ran 2.7 as two passes and "3" as three
    inst = ms.generate_instance("coverage+uniform", 4, n=10)
    mp, order = inst.build_matchoid(), ms.stream_order(inst.n)
    for bad, reason in ((2.7, "passes must be integers"),
                        (True, "passes must be integers"),
                        ("3", "passes must be integers"),
                        (0, "at least one pass is required")):
        oracle = inst.build_oracle()
        with pytest.raises(ms.PreconditionError, match=reason):
            driver(oracle, mp, order, bad)
        assert oracle.calls == 0, bad
    assert driver(inst.build_oracle(), mp, order, 2.0) == 2


def test_per_pass_shuffle_keeps_guarantees():
    # a fresh stream permutation every pass, each pass certified online
    inst = coverage_uniform(9)
    oracle, mp = inst.build_oracle(), inst.build_matchoid()
    opt = exact_opt(inst).opt_value
    rng = Random(5)
    order = ms.stream_order(inst.n)
    state, gamma = None, math.inf
    steps = ms.Schedule.matroid_harmonic().steps()
    for _, (beta, _) in zip(range(8), steps):
        rng.shuffle(order)
        res = ms.streaming_pass(oracle, mp, order, state, 0.0, beta)
        state = res.state
        gamma = ms.certified_gamma(gamma, beta, res.delta, mp.p)
        assert res.f_final > 0.0
        assert gamma * res.f_final >= opt - TOL


def test_slack_term_reported_for_positive_alpha():
    inst = coverage_uniform(3)
    mp = inst.build_matchoid()
    alpha = 0.25
    run = ms.multipass_run(inst.build_oracle(), mp, ms.stream_order(inst.n),
                           ms.Schedule.matroid_harmonic(), 4, alpha)
    opt = exact_opt(inst).opt_value
    for cert in run.certificates:
        assert cert.k_alpha_slack == pytest.approx(mp.rank_k * alpha)
    for res, cert in zip(run.pass_results, run.certificates):
        assert cert.opt_upper_bound(res.f_final) >= opt - TOL
