"""Exact search and greedy baselines."""

import math
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import matchstream as ms
from matchstream.baselines import EXACT_BUDGET, check_exact_budget
from _corpus import (bipartite_matching, coverage_partition, coverage_uniform,
                     directed_cut, exact_opt, hypergraph_matching, oracles)

TOL = 1e-9


def _uniform_mp(n, capacity):
    return ms.PMatchoid(range(n), [ms.UniformMatroid(range(n), capacity)])


def test_exact_modular_picks_top_weights():
    oracle = ms.ModularOracle([3, 1, 4])
    result = ms.brute_force_opt(oracle, _uniform_mp(3, 2))
    assert result.opt_value == 7.0
    assert result.opt_set == {0, 2}


def test_exact_coverage_example():
    oracle = ms.CoverageOracle([[0, 1], [1, 2], [2]], [1, 1, 1])
    result = ms.brute_force_opt(oracle, _uniform_mp(3, 2))
    assert result.opt_value == 3.0
    assert result.opt_set in ({0, 1}, {0, 2})


def test_exact_rank_zero_returns_empty_value():
    oracle = ms.TableOracle(2, [5.0, 1.0, 1.0, 1.0])
    mp = _uniform_mp(2, 0)
    result = ms.brute_force_opt(oracle, mp)
    assert result.opt_set == frozenset()
    assert result.opt_value == 5.0


def test_exact_search_does_not_bound_a_non_submodular_table():
    # f(e | {}) = 0 for both elements, yet f({0, 1}) = 10: the submodular
    # bound would cut the subtree below {0} and return the empty set
    oracle = ms.TableOracle(2, [0, 0, 0, 10])
    result = ms.brute_force_opt(oracle, _uniform_mp(2, 2))
    assert result.opt_set == {0, 1}
    assert result.opt_value == 10.0
    assert result.bound_prunes == 0


def test_exact_cut_solve_calls_are_pinned():
    # a 22-vertex complete digraph under a capacity-4 uniform matroid, the
    # benchmark's exact-offline pool; the walk without the bound evaluated
    # all 9,109 feasible subsets with one call each
    inst = ms.generate_instance("directed-cut+matroid", 5, n=22,
                                arcs=22 * 21, capacity=4)
    oracle = inst.build_oracle()
    result = ms.max_feasible_subset(oracle, inst.build_matchoid(), range(22))
    assert (oracle.calls, result.subsets_examined, result.bound_prunes) == (
        2107, 2107, 952)
    assert result.opt_set == {4, 6, 7, 11}
    assert result.opt_value == 154.0
    assert "prunes=952" in repr(result)


def _first_maximizer(oracle, mp):
    """The optimum value and its first maximizer in lexicographic order,
    from every feasible subset evaluated from scratch."""
    elems = sorted(oracle.ground)
    subsets = [c for r in range(len(elems) + 1)
               for c in combinations(elems, r) if mp.feasible(c)]
    best = max(oracle.peek(c) for c in subsets)
    return best, min(c for c in subsets if oracle.peek(c) == best)


@st.composite
def _exact_instances(draw):
    """(oracle, mp, integer): a cut, coverage or modular objective with
    integer or float weights, under a uniform matroid, a partition matroid
    or a bipartite matching (one capacity-1 matroid per vertex, p = 2)."""
    integer = draw(st.booleans())
    kind = draw(st.sampled_from(("cut", "coverage", "modular")))
    oracle, _ = draw(oracles(kind, integer))
    n = len(oracle.ground)
    constraint = draw(st.sampled_from(("uniform", "partition", "matching")))
    if constraint == "uniform":
        mp = _uniform_mp(n, draw(st.integers(0, n)))
    elif constraint == "partition":
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        parts = [[e for e in range(n) if labels[e] == j] for j in range(3)]
        caps = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
        mp = ms.PMatchoid(range(n), [ms.PartitionMatroid(range(n), parts, caps)])
    else:
        ends = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(4, 7)),
                             min_size=n, max_size=n))
        mp = ms.PMatchoid(range(n), [
            ms.UniformMatroid([e for e in range(n) if v in ends[e]], 1)
            for v in range(8)])
    return oracle, mp, integer


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_exact_instances())
def test_branch_and_bound_matches_unpruned_enumeration(case):
    oracle, mp, integer = case
    got = ms.max_feasible_subset(oracle, mp, oracle.ground)
    plain = ms.enumerate_opt_unpruned(oracle, mp)
    assert mp.feasible(got.opt_set)
    assert got.subsets_examined <= plain.subsets_examined
    if integer:
        best, first = _first_maximizer(oracle, mp)
        assert got.opt_value == plain.opt_value == best
        assert got.opt_set == set(first)
    else:
        assert got.opt_value == pytest.approx(plain.opt_value, rel=1e-9, abs=1e-12)
        assert oracle.peek(got.opt_set) == pytest.approx(got.opt_value,
                                                         rel=1e-9, abs=1e-12)


def test_exact_size_cap():
    # one work budget, on sum_{j <= K} C(pool, j), sizes every exact search;
    # it is the power set of 22 candidates, so a pool of 22 or 16 with no
    # size cut (K = pool) still runs
    assert sum(math.comb(22, j) for j in range(23)) == EXACT_BUDGET
    check_exact_budget(22, 22)
    check_exact_budget(16, 16)
    assert ms.brute_force_opt(ms.ModularOracle([1] * 16),
                              _uniform_mp(16, 16)).opt_value == 16
    # element count is not the cost: 200 candidates under a capacity of 2
    # is 20,101 subsets at most
    assert ms.brute_force_opt(ms.ModularOracle(range(200)),
                              _uniform_mp(200, 2)).opt_set == {198, 199}
    # a pool whose bound is over the budget is refused before any oracle call
    for pool, capacity in ((23, 23), (60, 12)):
        oracle = ms.ModularOracle([1] * pool)
        with pytest.raises(ms.SizeError,
                           match=fr"over {pool} candidates \(subsets of at most "
                                 fr"{capacity}\): .* over budget {EXACT_BUDGET}"):
            ms.brute_force_opt(oracle, _uniform_mp(pool, capacity))
        assert oracle.calls == 0
    # the reference enumeration keeps its own element cap
    with pytest.raises(ms.SizeError):
        ms.enumerate_opt_unpruned(ms.ModularOracle([1] * 11), _uniform_mp(11, 2))


def test_pruned_search_matches_unpruned_enumeration():
    builders = (coverage_uniform, coverage_partition, bipartite_matching,
                hypergraph_matching, directed_cut)
    rng = Random(2)
    for trial in range(15):
        inst = builders[trial % len(builders)](rng.randrange(50))
        if inst.n > 10:
            continue
        pruned = ms.brute_force_opt(inst.build_oracle(), inst.build_matchoid())
        plain = ms.enumerate_opt_unpruned(inst.build_oracle(),
                                          inst.build_matchoid())
        assert pruned.opt_value == pytest.approx(plain.opt_value, abs=TOL)
        assert pruned.subsets_examined <= plain.subsets_examined


def test_greedy_on_modular_uniform_is_optimal():
    oracle = ms.ModularOracle([5, 2, 9, 1])
    chosen = ms.offline_greedy(oracle, _uniform_mp(4, 2))
    assert chosen == {0, 2}


def test_greedy_on_empty_ground():
    oracle = ms.ModularOracle([])
    mp = ms.PMatchoid([], [])
    assert ms.offline_greedy(oracle, mp) == frozenset()


def test_greedy_feasible_and_never_beats_opt():
    rng = Random(77)
    for _ in range(10):
        inst = coverage_uniform(rng.randrange(200))
        oracle = inst.build_oracle()
        mp = inst.build_matchoid()
        chosen = ms.offline_greedy(oracle, mp)
        opt = exact_opt(inst)
        assert mp.feasible(chosen)
        assert oracle.peek(chosen) <= opt.opt_value + TOL


def _plain_greedy(oracle, mp, candidates=None):
    """Reference: the non-lazy greedy, each round measuring every feasible
    candidate with one ``value`` call; ties go to the smallest id."""
    chosen = set()
    current = oracle.value(())
    elems = sorted(oracle.ground if candidates is None else set(candidates))
    while True:
        best_e = None
        best_gain = 0.0
        for e in elems:
            if e in chosen or not mp.feasible(chosen | {e}):
                continue
            gain = oracle.value(chosen | {e}) - current
            if gain > best_gain:
                best_e = e
                best_gain = gain
        if best_e is None:
            return frozenset(chosen)
        chosen.add(best_e)
        current += best_gain


def test_lazy_greedy_picks_as_the_plain_greedy():
    # integer weights make every gain exact, so the lazy search must pick
    # the same set as re-measuring every candidate each round, over the
    # ground set and over a random pool, and never with more calls
    rng = Random(31)
    saved = 0
    for family in ms.FAMILIES:
        for seed in range(12):
            inst = ms.generate_instance(family, seed)
            mp = inst.build_matchoid()
            pool = rng.sample(range(inst.n), rng.randint(0, inst.n))
            for candidates in (None, pool):
                lazy, plain = inst.build_oracle(), inst.build_oracle()
                got = ms.offline_greedy(lazy, mp, candidates)
                assert got == _plain_greedy(plain, mp, candidates)
                assert lazy.calls <= plain.calls
                saved += plain.calls - lazy.calls
    assert saved > 0


def test_greedy_remeasures_every_gain_without_submodularity():
    # f(2) = 0 alone, but f(2 | {0}) = 7: a lazy search would drop 2 for
    # good at gain 0 and end at {0, 1}; the table is not submodular, so
    # every gain is measured again after the first pick
    table = [0, 3, 1, 4, 0, 10, 1, 10]
    oracle = ms.TableOracle(3, table)
    mp = _uniform_mp(3, 2)
    assert ms.offline_greedy(oracle, mp) == {0, 2}
    assert ms.offline_greedy(oracle, mp) == _plain_greedy(ms.TableOracle(3, table), mp)


def test_greedy_achieves_p_plus_one_factor():
    builders = ((coverage_uniform, 1), (bipartite_matching, 2),
                (hypergraph_matching, 3))
    count = 0
    for builder, p in builders:
        for seed in range(34):
            inst = builder(seed)
            oracle = inst.build_oracle()
            mp = inst.build_matchoid()
            assert mp.p == p
            value = oracle.peek(ms.offline_greedy(oracle, mp))
            opt = exact_opt(inst).opt_value
            assert (p + 1) * value + TOL >= opt
            count += 1
    assert count >= 100
