"""Randomized buffered pass, guess grid, offline solver, full driver."""

import math
import sys
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import matchstream as ms
from _checked import checked
from _corpus import coverage_uniform, directed_cut, exact_opt, oracles

TOL = 1e-9


def test_guess_grid_examples():
    oracle = ms.ModularOracle([5, 2])
    grid = ms.guess_grid(oracle, [0, 1], rank_k=4)
    assert grid.tau == 5.0
    assert grid.lambdas == (8.0, 16.0)

    unit = ms.ModularOracle([1])
    assert ms.guess_grid(unit, [0], rank_k=1).lambdas == (1.0,)

    oracle3 = ms.ModularOracle([3, 1])
    assert ms.guess_grid(oracle3, [0, 1], rank_k=8).lambdas == (4.0, 8.0, 16.0)


def test_guess_grid_degenerate_and_rank_one():
    zero = ms.ModularOracle([0, 0])
    assert ms.guess_grid(zero, [0, 1], rank_k=2).lambdas == (0.0,)
    # no power of two inside [5, 5]; the bracket below tau still works
    oracle = ms.ModularOracle([5])
    assert ms.guess_grid(oracle, [0], rank_k=1).lambdas == (4.0,)
    # one ulp below 16: the largest power of two at most tau is 8, not 16
    below = ms.ModularOracle([15.999999999999998])
    assert ms.guess_grid(below, [0], rank_k=1).lambdas == (8.0,)
    # no float power of two is at least 1.5e308: the one guess is 2^1023
    top = ms.ModularOracle([1.5e308])
    assert ms.guess_grid(top, [0], rank_k=1).lambdas == (2.0 ** 1023,)


@settings(max_examples=300, deadline=None)
@given(tau=st.floats(min_value=0.0, max_value=sys.float_info.max,
                     allow_nan=False, allow_infinity=False),
       k=st.integers(min_value=1, max_value=10 ** 12))
def test_guess_grid_is_doubling_powers_for_every_finite_tau(tau, k):
    lambdas = ms.guess_grid(ms.ModularOracle([tau]), [0], rank_k=k).lambdas
    if tau == 0.0:
        assert lambdas == (0.0,)
        return
    assert all(math.frexp(lam)[0] == 0.5 for lam in lambdas)
    assert all(b == 2.0 * a for a, b in zip(lambdas, lambdas[1:]))
    assert tau / 2 < lambdas[0] < 2 * tau
    if lambdas[0] >= tau:   # else the one guess below tau, at rank 1 or tau > 2^1023
        assert lambdas[-1] <= k * tau < 2 * lambdas[-1] or lambdas[-1] == 2.0 ** 1023
    else:
        assert len(lambdas) == 1 and (2 * lambdas[0] > k * tau or tau > 2.0 ** 1023)


def test_guess_grid_copy_count_at_large_rank():
    # rank 64 with tau=1 brackets [1, 64]: seven powers of two
    oracle = ms.ModularOracle([1, 1])
    grid = ms.guess_grid(oracle, [0, 1], rank_k=64)
    assert len(grid.lambdas) == 7
    assert grid.lambdas[0] == 1.0 and grid.lambdas[-1] == 64.0


def test_guess_grid_size_and_bracket():
    rng = Random(4)
    for _ in range(10):
        n = rng.randint(3, 8)
        inst = ms.generate_instance("coverage+uniform", rng.randrange(10_000),
                                    n=n, capacity=rng.randint(1, 3))
        oracle = inst.build_oracle()
        mp = inst.build_matchoid()
        grid = ms.guess_grid(oracle, range(n), mp.rank_k)
        assert len(grid.lambdas) <= math.ceil(math.log2(max(2, mp.rank_k))) + 1
        opt = exact_opt(inst).opt_value
        assert any(opt / 2 - TOL <= lam <= opt + TOL for lam in grid.lambdas)


def test_buffer_draw_is_uniform():
    # frozen contents of size 8, one shared seeded generator
    rng = Random(20240808)
    counts = [0] * 8
    draws = 10_000
    for _ in range(draws):
        buf = ms.BufferState(dict.fromkeys(range(8)))
        counts[buf.draw(rng)[0]] += 1
    expected = draws / 8
    for c in counts:
        assert abs(c / draws - 0.125) <= 0.02
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 <= 24.3219     # df=7 critical value at significance 0.001


def _uniform_mp(n, capacity):
    return ms.PMatchoid(range(n), [ms.UniformMatroid(range(n), capacity)])


def test_buffer_never_fills_when_capacity_exceeds_candidates():
    inst = directed_cut(2)
    oracle = inst.build_oracle()
    mp = inst.build_matchoid()
    out = ms.randomized_pass(oracle, mp, ms.stream_order(inst.n), None,
                             0.5, 1.0, m=10 * inst.n, rng=Random(1))
    assert out.accept_count == 0
    assert out.f_final == out.f_init
    assert len(out.s_prime) > 0
    assert out.f_s_prime > 0.0
    assert mp.feasible(out.s_prime)


def test_capacity_one_buffer_matches_streaming_pass():
    # with m=1 every admitted element is drawn immediately, so the run is
    # the deterministic pass regardless of the seed
    for seed in (0, 7, 99):
        inst = coverage_uniform(seed % 5)
        plain = ms.streaming_pass(inst.build_oracle(), inst.build_matchoid(),
                                  ms.stream_order(inst.n), None, 0.25, 0.5)
        oracle = inst.build_oracle()
        runner = ms.RandomizedPassRunner(oracle, inst.build_matchoid(), None,
                                         0.25, 0.5, m=1, rng=Random(seed))
        calls_before = oracle.calls
        for x in ms.stream_order(inst.n):
            runner.process(x)
        processing_calls = oracle.calls - calls_before
        buffered = runner.finish()
        assert buffered.state.members == plain.state.members
        assert buffered.accepted == plain.accepted
        assert buffered.evicted == plain.evicted
        assert buffered.f_final == plain.f_final
        # per-arrival oracle work matches the deterministic pass exactly
        assert processing_calls == plain.oracle_calls


def test_seeded_runs_are_reproducible():
    inst = directed_cut(5)
    outs = []
    for _ in range(2):
        with checked():
            out = ms.randomized_pass(inst.build_oracle(), inst.build_matchoid(),
                                     ms.stream_order(inst.n), None, 0.5, 1.0,
                                     m=3, rng=Random(42))
        outs.append((out.state.members, dict(out.evicted),
                     out.s_prime, out.oracle_calls))
    assert outs[0] == outs[1]


def test_sweep_reevaluates_buffer_after_selection():
    inst = directed_cut(8)
    oracle = inst.build_oracle()
    mp = inst.build_matchoid()
    with checked():
        out = ms.randomized_pass(oracle, mp, ms.stream_order(inst.n), None,
                                 0.5, 1.0, m=2, rng=Random(3))
    # every survivor in the final buffer still clears the threshold
    state = out.state
    for y in out.buffer.members:
        cx = ms.exchange_set(y, state)
        gain = oracle.peek(state.members | {y}) - state.f_s
        assert gain >= 0.5 + 2.0 * sum(state.nu[c] for c in cx) - TOL
    assert out.buffer.peak <= 2


def test_initial_solution_elements_are_discarded():
    inst = coverage_uniform(10)
    oracle = inst.build_oracle()
    mp = inst.build_matchoid()
    first = ms.randomized_pass(oracle, mp, ms.stream_order(inst.n), None,
                               0.25, 1.0, m=2, rng=Random(0))
    second = ms.randomized_pass(oracle, mp, ms.stream_order(inst.n),
                                first.state, 0.25, 0.5, m=2, rng=Random(1))
    assert second.discard_count == len(first.state.members)
    assert second.f_final >= second.f_init - TOL


def test_runner_rejects_bad_configuration():
    inst = coverage_uniform(0)
    oracle = inst.build_oracle()
    mp = inst.build_matchoid()
    with pytest.raises(ms.ConfigError):
        ms.RandomizedPassRunner(oracle, mp, None, 0.0, 1.0, 2, None)
    with pytest.raises(ms.PreconditionError):
        ms.RandomizedPassRunner(oracle, mp, None, 0.0, 1.0, 0, Random(0))


def test_offline_solve_trivial_pools():
    oracle = ms.ModularOracle([2, 3])
    mp = _uniform_mp(2, 1)
    assert ms.offline_solve(oracle, mp, []) == frozenset()
    assert ms.offline_solve(oracle, mp, [0]) == {0}
    zero = ms.ModularOracle([0.0, 1.0])
    assert ms.offline_solve(zero, _uniform_mp(2, 1), [0]) == frozenset()


def test_offline_solve_exact_matches_exhaustive_enumeration():
    rng = Random(19)
    for _ in range(10):
        inst = coverage_uniform(rng.randrange(1000))
        oracle = inst.build_oracle()
        mp = inst.build_matchoid()
        pool = sorted(rng.sample(sorted(oracle.ground),
                                 rng.randint(0, min(10, inst.n))))
        got = ms.offline_solve(oracle, mp, pool)
        best = max((oracle.peek(c)
                    for r in range(len(pool) + 1)
                    for c in combinations(pool, r)
                    if mp.feasible(c)), default=oracle.peek(()))
        assert oracle.peek(got) == pytest.approx(best)
        assert mp.feasible(got)


def test_offline_solve_size_cap_and_unknown_mode():
    # the exact mode is sized by the work budget, not by the pool: 23
    # candidates with no size cut (2^23 subsets) are refused before any
    # oracle call, and 60 under a capacity of 3 (36,051 at most) run
    oracle = ms.ModularOracle([1] * 23)
    everything = ms.PMatchoid(range(23), [ms.UniformMatroid(range(23), 23)])
    with pytest.raises(ms.SizeError, match="over budget"):
        ms.offline_solve(oracle, everything, range(23))
    assert oracle.calls == 0
    oracle = ms.ModularOracle(range(60))
    mp = ms.PMatchoid(range(60), [ms.UniformMatroid(range(60), 3)])
    searches = []
    assert ms.offline_solve(oracle, mp, range(60), searches=searches) == {57, 58, 59}
    (search,) = searches
    assert search.opt_set == {57, 58, 59} and search.subsets_examined > 0
    ms.offline_solve(oracle, mp, range(60), mode="heuristic", rng=Random(1),
                     searches=searches)
    assert searches == [search]
    with pytest.raises(ms.ConfigError):
        ms.offline_solve(oracle, mp, range(3), mode="annealing")


def test_exact_offline_driver_checks_the_pool_cap_up_front():
    # the driver checks the work budget before the guess-grid pass, on a
    # pool of min(n, m - 1) and a size cut of p^2 |greedy basis|. That cut
    # holds when a supplied rank understates k: rank 1 here, 20 in fact.
    # A cut of p k = 1 would pass, and a 20-element offline solve over a
    # full pool would raise partway through the run.
    oracle = ms.ModularOracle([1] * 60)
    mp = ms.PMatchoid(range(60), [ms.UniformMatroid(range(60), 20)], rank=1)
    with pytest.raises(ms.SizeError, match="over budget"):
        ms.multipass_randomized(oracle, mp, ms.stream_order(60), 0.5)
    assert oracle.calls == 0
    # a 30-vertex cut leaves pools of up to 30 candidates, of which a
    # feasible subset holds at most 4: 31,931 subsets, so it runs exactly
    big = ms.generate_instance("directed-cut+matroid", 7, n=30, arcs=30 * 29,
                               capacity=4)
    run = ms.multipass_randomized(big.build_oracle(), big.build_matchoid(),
                                  ms.stream_order(30), 0.5, seed=1,
                                  offline_mode="exact")
    assert run.m - 1 >= 30
    assert big.build_matchoid().feasible(run.solution)
    assert run.f_solution == big.build_oracle().value(run.solution) > 0
    heuristic = ms.multipass_randomized(big.build_oracle(), big.build_matchoid(),
                                        ms.stream_order(30), 0.5, passes=1,
                                        offline_mode="heuristic")
    assert heuristic.f_solution > 0
    # the benchmark's size, 22 vertices, still runs exactly
    inst = ms.generate_instance("directed-cut+matroid", 7, n=22, arcs=22 * 21,
                                capacity=4)
    run = ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                                  ms.stream_order(22), 0.5, seed=1,
                                  offline_mode="exact")
    assert inst.build_matchoid().feasible(run.solution)
    assert run.f_solution == inst.build_oracle().value(run.solution) > 0


def test_unknown_offline_mode_is_rejected_before_any_call():
    inst = ms.generate_instance("directed-cut+matroid", 4, n=12, capacity=3)
    oracle = inst.build_oracle()
    with pytest.raises(ms.ConfigError, match="unknown offline mode"):
        ms.multipass_randomized(oracle, inst.build_matchoid(),
                                ms.stream_order(inst.n), 0.5,
                                offline_mode="annealing")
    assert oracle.calls == 0
    # a single pass refuses it before it reads the stream, not in finish
    inst = ms.generate_instance("directed-cut+matroid", 4, n=30, capacity=3)
    oracle = inst.build_oracle()
    with pytest.raises(ms.ConfigError, match="unknown offline mode"):
        ms.randomized_pass(oracle, inst.build_matchoid(), ms.stream_order(inst.n),
                           None, 0.0, 1.0, 4, Random(0), offline_mode="bogus")
    assert oracle.calls == 0


def test_heuristic_offline_is_greedy_on_a_sample():
    # each pool element, in ascending id order, is kept when the next
    # draw of the generator falls below 1/(p+1); the greedy then runs on
    # the sample alone
    inst = ms.generate_instance("bipartite-matching", 54, left=5, right=5,
                                edges=14)
    oracle, mp = inst.build_oracle(), inst.build_matchoid()
    assert mp.p == 2
    pool = list(range(inst.n))
    sizes = set()
    for seed in range(10):
        got = ms.offline_solve(oracle, mp, reversed(pool), mode="heuristic",
                               rng=Random(seed))
        draws = Random(seed)
        sample = [e for e in pool if draws.random() < 1.0 / 3.0]
        assert got == ms.offline_greedy(oracle, mp, sample)
        sizes.add(len(sample))
    assert len(sizes) > 1
    # the reported factor is Sample Greedy's (p+1)^2/p on every class
    ps = []
    for family in ("directed-cut+matroid", "coverage+uniform",
                   "bipartite-matching", "3-uniform-hypergraph-matching"):
        inst = ms.generate_instance(family, 0)
        mp = inst.build_matchoid()
        run = ms.multipass_randomized(inst.build_oracle(), mp,
                                      ms.stream_order(inst.n), 0.5, passes=1,
                                      offline_mode="heuristic")
        assert run.gamma_off == (mp.p + 1) ** 2 / mp.p
        ps.append(mp.p)
    assert ps == [1, 1, 2, 3]


def test_heuristic_offline_needs_a_generator():
    inst = directed_cut(0)
    oracle = inst.build_oracle()
    with pytest.raises(ms.ConfigError, match="random generator"):
        ms.offline_solve(oracle, inst.build_matchoid(), range(inst.n),
                         mode="heuristic")
    assert oracle.calls == 0


def _sample_greedy_mean(oracle, mp, pool, draws):
    """Mean and standard error of f(heuristic solve) over ``draws`` seeds."""
    values = [oracle.peek(ms.offline_solve(oracle, mp, pool, mode="heuristic",
                                           rng=Random(seed)))
              for seed in range(draws)]
    mean = sum(values) / draws
    se = math.sqrt(sum((v - mean) ** 2 for v in values) / (draws - 1) / draws)
    return mean, se


def test_sample_greedy_repro_is_not_blocked_by_zero_gains():
    # the chained alpha = 0 passes this mode replaced accepted all five
    # vertices at gain 0 here and returned f = 0 against OPT = 3
    cut = ms.DirectedCutOracle(5, [(3, 0, 1), (4, 1, 2)])
    mp = ms.PMatchoid(range(5), [ms.UniformMatroid(range(5), 5)])
    opt = ms.brute_force_opt(cut, mp).opt_value
    assert opt == 3
    mean, _ = _sample_greedy_mean(cut, mp, range(5), 200)
    assert mean >= opt / 4


def _small_cut_pool(seed, p):
    """A 4-9 vertex cut with integer arc weights under a uniform matroid,
    intersected at p = 2 with a two-part partition matroid."""
    rng = Random(seed)
    n = rng.randint(4, 9)
    arcs = [(u, v, rng.randint(1, 4)) for u in range(n) for v in range(n)
            if u != v and rng.random() < 0.4]
    matroids = [ms.UniformMatroid(range(n), rng.randint(1, n))]
    if p == 2:
        matroids.append(ms.PartitionMatroid(
            range(n), [range(n // 2), range(n // 2, n)],
            [rng.randint(1, 2), rng.randint(1, 2)]))
    return ms.DirectedCutOracle(n, arcs), ms.PMatchoid(range(n), matroids)


@pytest.mark.parametrize("p", [1, 2])
def test_sample_greedy_mean_is_within_its_factor(p):
    # E f(heuristic) >= p/(p+1)^2 OPT for non-negative submodular f on a
    # p-matchoid: checked exactly, over every sample with its probability,
    # and on the mean of 200 seeded solves less three standard errors
    gamma = (p + 1) ** 2 / p
    for seed in range(25):
        oracle, mp = _small_cut_pool(seed, p)
        assert mp.p == p
        n = len(oracle.ground)
        opt = ms.brute_force_opt(oracle, mp).opt_value
        expected = math.fsum(
            p ** (n - len(sample)) / (p + 1) ** n
            * oracle.peek(ms.offline_greedy(oracle, mp, sample))
            for r in range(n + 1) for sample in combinations(range(n), r))
        assert expected * gamma >= opt
        mean, se = _sample_greedy_mean(oracle, mp, range(n), 200)
        assert (mean - 3.0 * se) * gamma >= opt


def test_offline_heuristic_is_feasible_and_never_beats_exact():
    rng = Random(8)
    for _ in range(6):
        inst = directed_cut(rng.randrange(100))
        oracle = inst.build_oracle()
        mp = inst.build_matchoid()
        pool = sorted(rng.sample(range(inst.n), rng.randint(2, inst.n)))
        heur = ms.offline_solve(oracle, mp, pool, mode="heuristic",
                                rng=Random(len(pool)))
        exact = ms.offline_solve(oracle, mp, pool, mode="exact")
        assert mp.feasible(heur)
        assert heur <= set(pool)
        assert oracle.peek(heur) <= oracle.peek(exact) + TOL


def test_driver_buffer_capacity_formula():
    # eps=1/2 at p=1 gives eps'=1/2; with 4 passes and rank 4 the buffer
    # capacity is 4*4*4/(1/4) = 256
    inst = ms.generate_instance("coverage+uniform", 2, n=6, capacity=4)
    mp = inst.build_matchoid()
    assert mp.rank_k == 4
    run = ms.multipass_randomized(inst.build_oracle(), mp,
                                  ms.stream_order(6), 0.5, passes=4, seed=0)
    assert run.m == 256
    assert run.d == 4
    assert run.passes_used == 5    # singleton scan plus the four passes


def test_driver_tracks_best_offline_solution():
    inst = directed_cut(4)
    run = ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                                  ms.stream_order(inst.n), 0.25, seed=11)
    for copy in run.copies:
        primes = [row["f_S_prime"] for row in copy.pass_rows]
        assert primes == sorted(primes)
        bars = [row["f_S_bar"] for row in copy.pass_rows]
        assert all(b == max(r["f_S"], p)
                   for b, r, p in zip(bars, copy.pass_rows, primes))


def test_driver_solution_feasible_and_space_bounded():
    for seed in range(3):
        inst = directed_cut(seed)
        mp = inst.build_matchoid()
        run = ms.multipass_randomized(inst.build_oracle(), mp,
                                      ms.stream_order(inst.n), 0.25, seed=seed)
        assert mp.feasible(run.solution)
        assert run.space_peak <= run.space_bound
        assert len(run.grid.lambdas) <= math.ceil(math.log2(max(2, mp.rank_k))) + 1


def test_driver_epsilon_domain():
    inst = directed_cut(0)
    with pytest.raises(ms.PreconditionError):
        ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                                ms.stream_order(inst.n), 0.75)
    with pytest.raises(ms.PreconditionError):
        ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                                ms.stream_order(inst.n), 0.0)


def test_offline_factor_reported_not_claimed():
    inst = directed_cut(1)
    exact_run = ms.multipass_randomized(inst.build_oracle(),
                                        inst.build_matchoid(),
                                        ms.stream_order(inst.n), 0.5,
                                        passes=1, seed=0)
    assert exact_run.gamma_off == 1.0
    heur_run = ms.multipass_randomized(inst.build_oracle(),
                                       inst.build_matchoid(),
                                       ms.stream_order(inst.n), 0.5,
                                       passes=1, seed=0,
                                       offline_mode="heuristic")
    # Sample Greedy's (p+1)^2/p at p = 1, on the cut and on a monotone
    # objective alike
    assert heur_run.gamma_off == 4.0
    cover = coverage_uniform(1)
    run = ms.multipass_randomized(cover.build_oracle(), cover.build_matchoid(),
                                  ms.stream_order(cover.n), 0.5, passes=1,
                                  offline_mode="heuristic")
    assert cover.build_matchoid().p == 1
    assert run.gamma_off == 4.0


def test_exact_mode_guarantee_where_buffers_fill():
    # n = 200 > m = 128, so buffers fill and draws happen, and the exact
    # offline solver runs on every residual pool: the chained matroid
    # bound (1 - eps) OPT <= (p + 2 + eps) E[f] is checked where the
    # randomness it averages over is real
    eps = 0.5
    inst = ms.generate_instance("directed-cut+matroid", 11, n=200, capacity=2)
    mp = inst.build_matchoid()
    opt = ms.brute_force_opt(inst.build_oracle(), mp).opt_value
    values = []
    filled = False
    for seed in range(20):
        run = ms.multipass_randomized(inst.build_oracle(), mp,
                                      ms.stream_order(inst.n), eps, seed=seed)
        assert run.m < inst.n
        values.append(run.f_solution)
        filled = filled or any(row["buffer_peak"] == run.m
                               for copy in run.copies for row in copy.pass_rows)
    assert filled
    mean = sum(values) / len(values)
    se = math.sqrt(sum((v - mean) ** 2 for v in values)
                   / (len(values) - 1) / len(values))
    assert (1.0 - eps) * opt <= (mp.p + 2.0 + eps) * (mean + 3.0 * se)


def test_monotone_objective_through_randomized_driver():
    # tiny buffers force selections; the driver must still end feasible
    # and reproducible for a monotone objective
    inst = coverage_uniform(3)
    mp = inst.build_matchoid()
    with checked():
        runs = [ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                                        ms.stream_order(inst.n), 0.5, passes=2, seed=9)
                for _ in range(2)]
    assert runs[0].solution == runs[1].solution
    assert runs[0].f_solution == runs[1].f_solution
    assert mp.feasible(runs[0].solution)


def test_guess_copies_meter_their_own_calls():
    # three guess copies interleave on one oracle; each pass result counts
    # only its own copy's calls, the same figure as the copy's trace row
    inst = ms.generate_instance("directed-cut+matroid", 1, n=300, arcs=900,
                                capacity=8)
    oracle = inst.build_oracle()
    run = ms.multipass_randomized(oracle, inst.build_matchoid(),
                                  ms.stream_order(inst.n), 0.5, seed=3,
                                  offline_mode="heuristic")
    assert len(run.copies) == 3
    assert run.m == 512
    row_calls = 0
    for copy in run.copies:
        rows = [row["oracle_calls"] for row in copy.pass_rows]
        assert [res.oracle_calls for res in copy.pass_results] == rows
        row_calls += sum(rows)
    # the singleton scan, one empty start per copy, the shared empty
    # evaluator and its one f(x | empty) per arrival and pass, then the
    # copies' own calls
    assert run.shared_calls == run.d * inst.n
    assert oracle.calls == (inst.n + len(run.copies) + 1 + run.shared_calls
                            + row_calls)


def test_a_single_copy_or_a_table_shares_nothing():
    # one guess copy has no one to share with, and a table objective need
    # not be submodular, so its singleton gain bounds nothing
    mp = ms.PMatchoid(range(2), [ms.UniformMatroid(range(2), 1)])
    oracle = ms.ModularOracle([5, 2])
    run = ms.multipass_randomized(oracle, mp, [0, 1], 0.5, passes=1)
    assert len(run.copies) == 1 and run.shared_calls == 0
    assert run.copies[0].pass_results[0].screened == 0

    table = ms.TableOracle(3, [0, 4, 1, 4, 2, 6, 3, 7])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 2)])
    run = ms.multipass_randomized(table, mp, [0, 1, 2], 0.5, passes=1)
    assert len(run.copies) > 1 and run.shared_calls == 0
    assert all(res.screened == 0 for copy in run.copies
               for res in copy.pass_results)


def test_copies_with_empty_solutions_make_no_threshold_calls(monkeypatch):
    # a complete digraph on 12 vertices under a rank-4 matroid: the buffer
    # of m = 256 never fills, so no copy draws and every S stays empty;
    # each arrival then costs one shared call and none of any copy's own
    inst = ms.generate_instance("directed-cut+matroid", 4, n=12, arcs=132,
                                capacity=4)
    oracle = inst.build_oracle()
    threshold_calls = []
    process = ms.RandomizedPassRunner.process

    def metered(runner, x, single=None):
        calls = oracle.calls
        process(runner, x, single)
        threshold_calls.append(oracle.calls - calls)

    monkeypatch.setattr(ms.RandomizedPassRunner, "process", metered)
    run = ms.multipass_randomized(oracle, inst.build_matchoid(),
                                  ms.stream_order(inst.n), 0.5,
                                  offline_mode="heuristic")
    copies = len(run.copies)
    assert copies > 1 and run.m == 256
    assert len(threshold_calls) == run.d * copies * inst.n
    assert not any(threshold_calls)
    assert run.shared_calls == run.d * inst.n
    for copy in run.copies:
        for res in copy.pass_results:
            assert not res.state.nu and res.accept_count == 0
            assert res.screened == inst.n
    row_calls = sum(res.oracle_calls for copy in run.copies
                    for res in copy.pass_results)
    assert oracle.calls == (inst.n + copies + 1 + run.shared_calls
                            + row_calls)


@st.composite
def _float_weight_cases(draw):
    """(oracle, scale, mp, stream, m, seed): a float-weight directed cut or
    coverage objective under a uniform matroid of capacity 1-3, or under
    that matroid intersected with a two-part partition matroid (p = 2)."""
    oracle, scale = draw(oracles(draw(st.sampled_from(("cut", "coverage"))),
                                 False))
    n = len(oracle.ground)
    matroids = [ms.UniformMatroid(range(n), draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        parts = [[e for e in range(n) if labels[e] == j] for j in range(2)]
        caps = draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
        matroids.append(ms.PartitionMatroid(range(n), parts, caps))
    mp = ms.PMatchoid(range(n), matroids)
    return (oracle, scale, mp, draw(st.permutations(range(n))),
            draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 16)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_float_weight_cases())
def test_randomized_results_hold_on_float_weights(case):
    oracle, scale, mp, stream, m, seed = case
    opt = ms.brute_force_opt(oracle, mp).opt_value
    tol = 1e-12 * scale

    def check(solution, value):
        assert mp.feasible(solution)
        assert abs(value - oracle.peek(solution)) <= tol
        assert value <= opt + tol

    # small buffers, so that draws and re-screens happen
    rng = Random(seed)
    state = None
    for beta in (1.0, 0.5):
        with checked():
            run = ms.randomized_pass(oracle, mp, stream, state, 0.0, beta, m, rng)
        state = run.state
        check(run.solution, run.f_final)
        check(run.s_prime, run.f_s_prime)

    with checked():
        run = ms.multipass_randomized(oracle, mp, stream, 0.5, passes=2,
                                      seed=seed, offline_mode="exact")
    check(run.solution, run.f_solution)
    for copy in run.copies:
        for res in copy.pass_results:
            check(res.solution, res.f_final)
            check(res.s_prime, res.f_s_prime)
    assert run.space_peak <= run.space_bound


def test_a_screen_within_rounding_of_the_bar_measures():
    # S = {0} holds f(S) = 3.0, and x = 2 has no arc to or from 0, so
    # f(x | S) = f(x | empty) = 0.1; but the running evaluator measures
    # (3.0 + 0.1) - 3.0, one ulp above the shared 0.1. With the bar at
    # that measured value, only a screen with a rounding margin reaches
    # the measurement, and the arrival clears as a copy that measures
    # every gain finds it does
    oracle = ms.DirectedCutOracle(3, [(0, 1, 3.0), (2, 1, 0.1)])
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid(range(3), 2)])
    state = ms.SolutionState.empty(oracle, mp)
    state.accept(0, frozenset(), oracle, 3.0)
    measured = (3.0 + 0.1) - 3.0
    assert measured > 0.1
    for single in (None, 0.1):
        runner = ms.RandomizedPassRunner(oracle, mp, state, measured, 1.0, 3,
                                         Random(0))
        with checked():
            runner.process(2, single)
        assert runner.waiting == {2: (measured, frozenset())}
        assert runner.screened == 0


def test_a_sweep_within_rounding_of_the_bar_is_no_violation():
    # 0 and 1 fill the buffer and 0 is drawn: S = {0} holds f(S) = 1/3,
    # and f(S + 1) is 1/3 from scratch, a gain of exactly 0.0 at the bar
    # 0. The running evaluator measures (1/3 + 1) - 1, one rounding below
    # 1/3, so the sweep drops 1 on its slightly negative measured gain;
    # the checks accept either outcome within their tolerance
    oracle = ms.DirectedCutOracle(3, [(0, 2, 1 / 3), (1, 0, 1.0)])
    with checked() as tally:
        run = ms.randomized_pass(oracle, _uniform_mp(3, 2), [0, 1, 2], None,
                                 0.0, 1.0, 2, Random(1))
    assert tally.swept == 1 and run.buffer_drops == 1
    assert run.solution == {0}


def _guess_copy_passes(oracle, mp, order, epsilon, d, m, seed, shared):
    """``multipass_randomized``'s guess copies and passes, driven here:
    with ``shared``, one f(x | empty) per arrival goes to every copy as the
    driver passes it; without, each copy measures its own gains
    (``process(x)`` alone). Returns the copies."""
    k = mp.rank_k
    eps_prime = epsilon / mp.p
    grid = ms.guess_grid(oracle, mp.fitting((), order), k)
    copies = [ms.LambdaCopyResult(lam, eps_prime * lam / (2.0 * k)
                                  if lam > 0.0 and k > 0 else 0.0, seed ^ idx)
              for idx, lam in enumerate(grid.lambdas)]
    empty = oracle.running(()) if shared else None
    single = None
    steps = ms.Schedule.for_matchoid(mp).steps()
    for i, (beta, gamma) in zip(range(1, d + 1), steps):
        runners = [ms.RandomizedPassRunner(oracle, mp, copy.state, copy.alpha,
                                           beta, m, copy.rng)
                   for copy in copies]
        for x in order:
            if empty is not None:
                single = empty.value_with(x) - empty.total
            for runner in runners:
                runner.process(x, single)
        for copy, runner in zip(copies, runners):
            copy.add_pass(i, gamma, runner.finish("exact"))
    return copies


def _decisions(copies):
    """Everything the copies chose, with every call count dropped."""
    return [([{key: value for key, value in row.items() if key != "oracle_calls"}
              for row in copy.pass_rows],
             [(list(res.state.nu), list(res.buffer.members), res.s_prime,
               res.f_s_prime, res.f_final, res.buffer_drops, sorted(res.evicted.items()))
              for res in copy.pass_results],
             copy.solution, copy.f_best)
            for copy in copies]


def _screened(copies):
    return sum(res.screened for copy in copies for res in copy.pass_results)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_float_weight_cases())
def test_shared_singleton_gains_change_no_decision_on_float_weights(case):
    oracle, _, mp, stream, m, seed = case
    n = len(stream)

    # the driver against copies that each measure their own gains
    with checked():
        calls = oracle.calls
        run = ms.multipass_randomized(oracle, mp, stream, 0.5, passes=2,
                                      seed=seed, offline_mode="exact")
        driver_calls = oracle.calls - calls
        calls = oracle.calls
        own = _guess_copy_passes(oracle, mp, stream, 0.5, 2, run.m, seed, False)
        own_calls = oracle.calls - calls
    assert _decisions(run.copies) == _decisions(own)
    assert _screened(own) == 0
    assert driver_calls <= own_calls
    # each test the shared value answered is one call a copy did not make
    shared = 1 + run.shared_calls if run.shared_calls else 0
    assert own_calls - (driver_calls - shared) == _screened(run.copies)

    # buffers of 1-3 fill, so draws happen and copies test arrivals
    # against a non-empty S, where the screen rejects unmeasured
    with checked():
        calls = oracle.calls
        screened = _guess_copy_passes(oracle, mp, stream, 0.5, 2, m, seed, True)
        screened_calls = oracle.calls - calls
        calls = oracle.calls
        own = _guess_copy_passes(oracle, mp, stream, 0.5, 2, m, seed, False)
        own_calls = oracle.calls - calls
    assert _decisions(screened) == _decisions(own)
    assert own_calls - (screened_calls - 1 - 2 * n) == _screened(screened)


def test_direct_sum_of_matroids_runs_the_harmonic_schedule():
    # p = 1 for a direct sum of two matroids, so the driver takes the
    # matroid schedule: ceil(2/eps) = 4 passes, m = ceil(4 * 4 * 4 / 0.25),
    # and rows with the factors 2(1 + 1/i), not the recurrence's 8 passes
    mp = ms.PMatchoid(range(12), [ms.UniformMatroid(range(6), 2),
                                  ms.UniformMatroid(range(6, 12), 2)])
    assert (mp.p, mp.rank_k) == (1, 4)
    run = ms.multipass_randomized(ms.ModularOracle(range(1, 13)), mp,
                                  range(12), 0.5)
    assert (run.d, run.m) == (4, 256)
    for copy in run.copies:
        assert [row["gamma_certified"] for row in copy.pass_rows] == \
            pytest.approx([4.0, 3.0, 8.0 / 3.0, 2.5])


def _union_storage(runner):
    """The elements a runner holds, counted from the union of the initial
    solution and S, and its buffer."""
    return len(runner.init_ids | runner.state.members) + len(runner.waiting)


def test_storage_count_matches_the_union_when_initial_members_leave():
    oracle = ms.ModularOracle([1, 1, 1, 4, 5, 6, 7, 2])
    mp = _uniform_mp(8, 3)
    # beta = 10 sets the exchange bar at 11 > 7: S stays {0, 1, 2}
    first = ms.streaming_pass(oracle, mp, range(8), None, 0.0, 10.0)
    assert list(first.state.nu) == [0, 1, 2]
    runner = ms.RandomizedPassRunner(oracle, mp, first.state, 0.0, 1.0, m=2,
                                     rng=Random(3))
    held, union = [], []
    peak = _union_storage(runner)
    with checked():
        for x in range(8):
            # the arrival in hand counts unless it is an initial member; an
            # admitted one is counted again, held in the buffer or in S
            in_hand = _union_storage(runner) + (x not in runner.init_ids)
            rejected = runner.reject_count
            runner.process(x)
            admitted = runner.reject_count == rejected and x not in runner.init_ids
            after = _union_storage(runner) if admitted else in_hand
            peak = max(peak, in_hand, after)
            held.append(runner.stored_current)
            union.append(after)
    runner.finish()
    assert held == union
    assert runner.stored_peak == peak == 7
    assert len(runner.evicted.keys() & first.state.members) == 3


def test_a_finished_runner_holds_no_threshold_data():
    # the buffer keeps its residual members, mapped to None in place of
    # their (gain, C_x) pairs, and the waiting arrivals are its members
    oracle = ms.ModularOracle([1, 2, 3, 4, 5, 6])
    runner = ms.RandomizedPassRunner(oracle, _uniform_mp(6, 2), None, 0.0, 1.0,
                                     m=4, rng=Random(2))
    for x in range(6):
        runner.process(x)
        assert runner.waiting is runner.buffer.members
    residual = list(runner.buffer.members)
    assert residual
    runner.finish("heuristic")
    assert runner.buffer.members == dict.fromkeys(residual)
    assert runner.waiting is runner.buffer.members
