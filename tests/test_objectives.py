"""Objective oracles: values, marginals, counting, and submodularity."""

import math
import threading
from random import Random

import pytest

import matchstream as ms
from _corpus import coverage_uniform

TOL = 1e-9


def _coverage_abc():
    # elements 0,1,2 cover items {0,1}, {1,2}, {2} with unit weights
    return ms.CoverageOracle([[0, 1], [1, 2], [2]], [1, 1, 1])


def test_coverage_values():
    oracle = _coverage_abc()
    assert oracle.value({0}) == 2.0
    assert oracle.value(()) == 0.0
    assert oracle.value({0, 1, 2}) == 3.0


def test_coverage_marginal():
    oracle = _coverage_abc()
    assert oracle.marginal(1, {0}) == 1.0


def test_marginal_of_member_is_zero():
    oracle = _coverage_abc()
    assert oracle.marginal(0, {0, 1}) == 0.0


def test_directed_cut_marginal_can_be_negative():
    # two vertices, arc 0->1 weight 1 and 1->0 weight 2
    oracle = ms.DirectedCutOracle(2, [(0, 1, 1), (1, 0, 2)])
    assert oracle.value({0}) == 1.0
    assert oracle.value({0, 1}) == 0.0
    assert oracle.marginal(1, {0}) == -1.0
    assert not oracle.monotone


def test_modular_is_additive():
    oracle = ms.ModularOracle([3, 1, 4])
    assert oracle.value({0, 2}) == 7.0
    assert oracle.marginal(1, {0, 2}) == 1.0


def test_table_oracle_lookup():
    oracle = ms.TableOracle(2, [0.0, 0.0, 0.0, 1.0])
    assert oracle.value(()) == 0.0
    assert oracle.value({0, 1}) == 1.0


NON_FINITE_ORACLES = {
    "coverage": lambda w: ms.CoverageOracle([[0], [1]], [1.0, w]),
    "directed-cut": lambda w: ms.DirectedCutOracle(2, [(0, 1, 1.0), (1, 0, w)]),
    "modular": lambda w: ms.ModularOracle([1.0, w]),
    "table": lambda w: ms.TableOracle(1, [0.0, w]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_ORACLES))
def test_non_finite_weights_rejected(kind, bad):
    build = NON_FINITE_ORACLES[kind]
    finite = build(2.0)
    assert finite.peek(finite.ground) >= 0.0
    with pytest.raises(ms.DomainError):
        build(bad)


def test_custom_oracle_ids_must_be_non_negative():
    with pytest.raises(ms.DomainError, match="must be non-negative integers"):
        ms.SubmodularOracle([0, -1])
    assert ms.SubmodularOracle([2, 0]).ground == {0, 2}


def test_value_outside_ground_raises():
    oracle = _coverage_abc()
    with pytest.raises(ms.DomainError):
        oracle.value({0, 7})
    with pytest.raises(ms.DomainError):
        oracle.marginal(7, {0})


def test_negative_weights_rejected():
    with pytest.raises(ms.DomainError):
        ms.ModularOracle([1, -1])
    with pytest.raises(ms.DomainError):
        ms.CoverageOracle([[0]], [-2])
    with pytest.raises(ms.DomainError):
        ms.DirectedCutOracle(2, [(0, 1, -1)])
    with pytest.raises(ms.DomainError):
        ms.TableOracle(1, [0.0, -0.5])


def test_cut_weights_need_a_finite_sum():
    # each arc is finite, but the cut of {0} would be worth inf
    assert ms.DirectedCutOracle(3, [(0, 1, 1e308)]).peek({0}) == 1e308
    with pytest.raises(ms.DomainError):
        ms.DirectedCutOracle(3, [(0, 1, 1e308), (0, 2, 1e308)])


@pytest.mark.parametrize("bad", [1.9, math.nan, math.inf, "1", None, True],
                         ids=["fraction", "nan", "inf", "text", "none", "bool"])
def test_cut_ids_must_be_integers(bad):
    # int() alone built a 3-vertex cut from n = 3.7 and filed the arc
    # 0 -> 1.9 (or True) as 0 -> 1
    with pytest.raises(ms.DomainError, match="must be integers"):
        ms.DirectedCutOracle(3.7, [(0, 1.9, 2.0)])
    with pytest.raises(ms.DomainError, match="vertex count must be integers"):
        ms.DirectedCutOracle(bad, [])
    for arc in ((0, bad, 2.0), (bad, 0, 2.0)):
        with pytest.raises(ms.DomainError, match="arc endpoints must be integers"):
            ms.DirectedCutOracle(3, [(1, 2, 1.0), arc])
    assert ms.DirectedCutOracle(3.0, [(0.0, 1.0, 2)]).value({0}) == 2.0
    # range(-2) is empty, so a negative count built an empty ground set
    with pytest.raises(ms.DomainError, match="vertex count must be non-negative"):
        ms.DirectedCutOracle(-2, [])
    # an arc must join two distinct vertices of the graph
    for arc in ((0, 3, 1.0), (-1, 0, 1.0)):
        with pytest.raises(ms.DomainError, match=r"endpoint outside 0\.\.2"):
            ms.DirectedCutOracle(3, [arc])
    with pytest.raises(ms.DomainError, match="self-loop"):
        ms.DirectedCutOracle(3, [(1, 1, 1.0)])


def test_coverage_item_ids_must_be_integers():
    # int() filed the item 1.5 as item 1, so {0} covered a weight of 3.0
    with pytest.raises(ms.DomainError, match="item ids must be integers"):
        ms.CoverageOracle([[0, 1.5]], [1, 2])
    # and True as item 1
    with pytest.raises(ms.DomainError, match="item ids must be integers"):
        ms.CoverageOracle([[True]], [1.0, 2.0])
    assert ms.CoverageOracle([[0, 1.0]], [1, 2]).value({0}) == 3.0


def test_coverage_items_need_a_weight_and_a_non_negative_id():
    with pytest.raises(ms.DomainError, match="item ids must be non-negative"):
        ms.CoverageOracle([[0], [1, -1]], [1, 2])
    with pytest.raises(ms.DomainError, match="item 2 has no weight entry"):
        ms.CoverageOracle([[0], [2, 1]], [1, 2])
    assert ms.CoverageOracle([[], [1]], [1, 2]).value({0, 1}) == 2.0
    assert ms.CoverageOracle([[], []], []).value({0, 1}) == 0.0


def test_table_size_must_be_an_integer():
    # int() built a 1-element ground set from n = 1.9
    with pytest.raises(ms.DomainError, match="table size must be integers"):
        ms.TableOracle(1.9, [0.0, 1.0])
    with pytest.raises(ms.DomainError, match="table size must be integers"):
        ms.TableOracle(True, [0.0, 1.0])
    # a negative size is refused before it reaches the table's 1 << n
    with pytest.raises(ms.DomainError, match="table size must be non-negative"):
        ms.TableOracle(-1, [0.0])
    # one value per subset of the n elements
    with pytest.raises(ms.DomainError, match="table must have 4 entries, got 3"):
        ms.TableOracle(2, [0.0, 1.0, 1.0])
    assert ms.TableOracle(1.0, [0.0, 1.0]).ground == {0}


def test_table_size_cap():
    with pytest.raises(ms.SizeError):
        ms.TableOracle(21, [0.0] * (1 << 21))


def test_submodularity_holds_for_builtin_kinds():
    rng = Random(17)
    for trial in range(6):
        n = rng.randint(4, 8)
        items = n + rng.randint(1, 4)
        sets = [rng.sample(range(items), rng.randint(1, items)) for _ in range(n)]
        weights = [rng.randint(1, 3) for _ in range(items)]
        assert ms.brute_force_check_submodular(ms.CoverageOracle(sets, weights))

        arcs = [(u, v, rng.randint(1, 3))
                for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.4]
        if arcs:
            assert ms.brute_force_check_submodular(ms.DirectedCutOracle(n, arcs))

        assert ms.brute_force_check_submodular(
            ms.ModularOracle([rng.randint(0, 5) for _ in range(n)]))


def test_submodularity_of_table_built_from_coverage():
    cov = _coverage_abc()
    table = [cov.peek({e for e in range(3) if mask >> e & 1})
             for mask in range(8)]
    assert ms.brute_force_check_submodular(ms.TableOracle(3, table))


def test_submodularity_violation_detected():
    # f({0}) = f({1}) = 0 but f({0,1}) = 1 breaks the lattice inequality
    oracle = ms.TableOracle(2, [0.0, 0.0, 0.0, 1.0])
    assert not ms.brute_force_check_submodular(oracle)


def test_submodular_check_size_cap():
    with pytest.raises(ms.SizeError):
        ms.brute_force_check_submodular(ms.ModularOracle([1] * 13))


def test_nonnegativity_on_sampled_subsets():
    rng = Random(5)
    for builder in (coverage_uniform, ):
        inst = builder(3)
        oracle = inst.build_oracle()
        elems = sorted(oracle.ground)
        for _ in range(1000):
            subset = [e for e in elems if rng.random() < 0.5]
            assert oracle.peek(subset) >= 0.0
    cut = ms.DirectedCutOracle(6, [(u, v, 2) for u in range(6) for v in range(6) if u != v])
    for _ in range(1000):
        subset = [e for e in range(6) if rng.random() < 0.5]
        assert cut.peek(subset) >= 0.0


def test_monotone_flag_means_nonnegative_marginals():
    rng = Random(11)
    inst = coverage_uniform(4)
    oracle = inst.build_oracle()
    assert oracle.monotone
    elems = sorted(oracle.ground)
    for _ in range(1000):
        subset = frozenset(e for e in elems if rng.random() < 0.5)
        e = rng.choice(elems)
        if e in subset:
            continue
        gain = oracle.peek(subset | {e}) - oracle.peek(subset)
        assert gain >= -1e-12


def test_call_counting_contract():
    oracle = _coverage_abc()
    assert oracle.calls == 0
    oracle.value({0})
    assert oracle.calls == 1
    oracle.marginal(1, {0})
    assert oracle.calls == 3      # two evaluations for a real marginal
    oracle.marginal(0, {0})
    assert oracle.calls == 3      # member marginal costs nothing
    oracle.peek({0, 1})
    assert oracle.calls == 3      # peeks are never metered
    oracle.reset_counters()
    assert oracle.calls == 0


def test_counter_tolerates_concurrent_use():
    oracle = _coverage_abc()

    def worker():
        for _ in range(200):
            oracle.value({0, 1})

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.calls == 1600


def test_streaming_call_counts_are_deterministic():
    inst = coverage_uniform(9)
    counts = []
    for _ in range(2):
        oracle = inst.build_oracle()
        mp = inst.build_matchoid()
        ms.streaming_pass(oracle, mp, ms.stream_order(inst.n), None, 0.0, 1.0)
        counts.append(oracle.calls)
    assert counts[0] == counts[1]


def test_monotone_is_a_class_fact():
    # no constructor takes monotone, so a caller cannot declare a falling
    # f monotone: here f({0}) = 1 and f({0, 1}) = 0
    with pytest.raises(TypeError):
        ms.DirectedCutOracle(3, [(0, 1, 1.0)], monotone=True)
    assert [cls.monotone for cls in (
        ms.SubmodularOracle, ms.CoverageOracle, ms.ModularOracle,
        ms.DirectedCutOracle, ms.TableOracle)] == [False, True, True, False, False]
    assert ms.ModularOracle([1, 2]).monotone
    assert not ms.TableOracle(1, [0.0, 1.0]).monotone
