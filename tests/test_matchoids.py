"""Matroid oracles, p-matchoid composition, rank, and the exchange rule."""

import math
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import matchstream as ms
import _corpus
from _checked import checked


def _state(mp, order, nu):
    return ms.SolutionState(mp, {e: nu[e] for e in order})


def test_uniform_matroid():
    m = ms.UniformMatroid({0, 1, 2}, 2)
    assert not m.independent({0, 1, 2})
    assert m.independent(())
    assert m.independent({0, 1})


def test_partition_matroid():
    m = ms.PartitionMatroid({0, 1, 2}, [[0, 1], [2]], [1, 1])
    assert m.independent({0, 2})
    assert not m.independent({0, 1})


def test_elements_outside_ground_subset_are_ignored():
    m = ms.UniformMatroid({0, 1}, 1)
    assert m.independent({0, 5, 9})


def test_graphic_matroid_detects_cycles():
    endpoints = {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (2, 3)}
    m = ms.GraphicMatroid(set(endpoints), endpoints)
    assert m.independent({0, 1, 3})
    assert not m.independent({0, 1, 2})


def test_transversal_matroid_matches_left_into_right():
    adjacency = {0: {0}, 1: {0, 1}, 2: {1}}
    m = ms.TransversalMatroid(set(adjacency), adjacency)
    assert m.independent({0, 1})
    assert not m.independent({0, 1, 2})


@pytest.mark.parametrize("bad", [1.5, float("nan"), "1", None, False],
                         ids=["fraction", "nan", "text", "none", "bool"])
def test_graphic_and_transversal_ids_must_be_integers(bad):
    # int() alone filed the edge 1.5 as edge 1; the boolean case is False,
    # since as a dict key True would merge with the id 1
    with pytest.raises(ms.PreconditionError, match="edge ids must be integers"):
        ms.GraphicMatroid([1], {1.5: (0, 1)})
    with pytest.raises(ms.PreconditionError, match="edge ids must be integers"):
        ms.GraphicMatroid([1], {1: (0, 1), bad: (1, 2)})
    with pytest.raises(ms.PreconditionError, match="edge endpoints must be integers"):
        ms.GraphicMatroid([1], {1: (0, bad)})
    with pytest.raises(ms.PreconditionError, match="element ids must be integers"):
        ms.TransversalMatroid([1], {1: [0], bad: [1]})
    with pytest.raises(ms.PreconditionError, match="right vertices must be integers"):
        ms.TransversalMatroid([1], {1: [0, bad]})
    assert ms.GraphicMatroid([1], {1.0: (0.0, 1)}).endpoints == {1: (0, 1)}
    assert ms.TransversalMatroid([1], {1.0: [2.0]}).adjacency == {1: frozenset({2})}


@pytest.mark.parametrize("build, reason", [
    (lambda: ms.UniformMatroid([0, 1], -1), "capacity must be non-negative"),
    (lambda: ms.PartitionMatroid([0, 1], [[0], [1]], [1]), "one capacity per part"),
    (lambda: ms.PartitionMatroid([0, 1], [[0, 2]], [1]), "inside the ground subset"),
    (lambda: ms.PartitionMatroid([0, 1, 2], [[0, 1], [1, 2]], [1, 1]), "disjoint"),
    (lambda: ms.PartitionMatroid([0, 1], [[0], [1]], [1, -1]),
     "capacities must be non-negative"),
    (lambda: ms.GraphicMatroid([0, 1], {0: (0, 1)}), r"edges \[1\] have no endpoints"),
    (lambda: ms.TransversalMatroid([0, 1], {1: [0]}),
     r"elements \[0\] have no adjacency list"),
    (lambda: ms.PMatchoid(range(2), [ms.UniformMatroid([1, 2], 1)]),
     "leaves the instance ground set"),
], ids=["uniform negative capacity", "partition capacity count",
        "partition part outside", "partition overlap", "partition negative capacity",
        "graphic edge without endpoints", "transversal element without adjacency",
        "matroid outside the ground"])
def test_constraint_constructors_refuse_bad_shapes(build, reason):
    with pytest.raises(ms.PreconditionError, match=reason):
        build()


def _bipartite_matchoid():
    # four edges on left vertices {u0,u1} and right vertices {v0,v1}:
    # 0=(u0,v0) 1=(u0,v1) 2=(u1,v0) 3=(u1,v1)
    matroids = [
        ms.UniformMatroid({0, 1}, 1),   # u0
        ms.UniformMatroid({2, 3}, 1),   # u1
        ms.UniformMatroid({0, 2}, 1),   # v0
        ms.UniformMatroid({1, 3}, 1),   # v1
    ]
    return ms.PMatchoid(range(4), matroids)


def test_matchoid_feasibility_is_matching_feasibility():
    mp = _bipartite_matchoid()
    assert mp.feasible({0, 3})        # a perfect matching
    assert not mp.feasible({0, 1})    # shares u0
    assert mp.rank_k == 2


def test_empty_matchoid_accepts_everything():
    mp = ms.PMatchoid(range(3), [])
    assert mp.feasible({0, 1, 2})
    assert mp.rank_k == 3


def test_membership_above_p_is_rejected():
    # p is derived from the memberships, so it cannot be under-declared;
    # an instance file that declares too small a p is rejected by the
    # loader (test_instances.test_loader_rejects_membership_violation)
    mp = ms.PMatchoid(range(2), [ms.UniformMatroid({0}, 1),
                                 ms.UniformMatroid({0}, 1)])
    assert mp.p == 2


def test_exchange_only_candidate():
    mp = ms.PMatchoid(range(2), [ms.UniformMatroid({0, 1}, 1)])
    state = _state(mp, [0], {0: 1.0})
    assert ms.exchange_set(1, state) == {0}


def test_exchange_no_violation_is_empty():
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid({0, 1, 2}, 2)])
    state = _state(mp, [0], {0: 1.0})
    assert ms.exchange_set(1, state) == set()


def test_exchange_bipartite_hand_trace():
    # solution holds edge (u0,v0); edge (u0,v1) arrives: only the u0
    # matroid is violated, so just the resident edge is displaced
    mp = _bipartite_matchoid()
    state = _state(mp, [0], {0: 2.0})
    assert ms.exchange_set(1, state) == {0}
    assert mp.feasible((state.members - {0}) | {1})


def test_exchange_prefers_smaller_nu_then_earlier_arrival():
    mp = ms.PMatchoid(range(3), [ms.UniformMatroid({0, 1, 2}, 2)])
    state = _state(mp, [0, 1], {0: 2.0, 1: 1.0})
    assert ms.exchange_set(2, state) == {1}
    tied = _state(mp, [0, 1], {0: 1.0, 1: 1.0})
    assert ms.exchange_set(2, tied) == {0}
    # arrival order, not the smaller id, breaks the tie
    late_zero = _state(mp, [1, 0], {0: 1.0, 1: 1.0})
    assert ms.exchange_set(2, late_zero) == {1}


def test_exchange_rejects_member_element():
    mp = ms.PMatchoid(range(2), [ms.UniformMatroid({0, 1}, 1)])
    state = _state(mp, [0], {0: 1.0})
    with pytest.raises(ms.PreconditionError):
        ms.exchange_set(0, state)


def _swaps_by_definition(matroid, s_l, x):
    if matroid.independent(s_l | {x}):
        return None
    return {y for y in s_l if matroid.independent((s_l - {y}) | {x})}


def _uniform_or_partition(rng):
    ground = {e for e in range(12) if rng.random() < 0.7}
    if rng.random() < 0.5:
        return ms.UniformMatroid(ground, rng.randint(0, 4))
    pool = sorted(ground)
    rng.shuffle(pool)
    parts = []
    while pool and len(parts) < 4:
        size = rng.randint(1, len(pool))
        parts.append(pool[:size])
        pool = pool[size:]
    return ms.PartitionMatroid(ground, parts,
                               [rng.randint(0, 3) for _ in parts])


def test_swap_candidates_match_the_definition():
    # swap_classes' contract, checked against the definition rather than
    # any second copy of the capacity rule: the blocks partition the
    # ground subset under non-None keys, and for every class and every
    # outsider y of it, the definition names no swap while s_l holds
    # fewer members of the class than its capacity, and exactly
    # those members once it holds that many; the base swap_candidates,
    # which every kind uses, is the definition, also for the members of
    # s_l and the elements outside the ground subset
    rng = Random(5)
    outcomes = {"none": 0, "swap": 0, "stuck": 0}
    for _ in range(600):
        matroid = _uniform_or_partition(rng)
        order = list(range(12))
        rng.shuffle(order)
        s_l = set()
        for e in order[:rng.randint(0, 12)]:
            if matroid.independent(s_l | {e}):
                s_l.add(e)
        classes = matroid.swap_classes()
        blocks = [block for _, block, _ in classes]
        assert sum(map(len, blocks)) == len(frozenset().union(*blocks))
        assert frozenset().union(*blocks) == matroid.ground_subset
        for key, block, capacity in classes:
            assert key is not None
            inside = s_l & block
            want = inside if len(inside) >= capacity else None
            for y in block - s_l:
                assert _swaps_by_definition(matroid, s_l, y) == want, (matroid.kind, s_l, key, y)
                assert matroid.swap_candidates(s_l, y) == want, (matroid.kind, s_l, key, y)
                outcomes["none" if want is None else "swap" if want else "stuck"] += 1
        for y in set(range(12)) - (matroid.ground_subset - s_l):
            assert _swaps_by_definition(matroid, s_l, y) is None, (matroid.kind, s_l, y)
            assert matroid.swap_candidates(s_l, y) is None, (matroid.kind, s_l, y)
    assert min(outcomes.values()) > 0, outcomes


class _BrokenMatroid(ms.Matroid):
    """Not a matroid: the independent sets are the subsets of {0, 1} and
    {2}, so {2} cannot be extended from the larger set {0, 1}, and no
    single swap makes room for 2 in {0, 1}."""

    kind = "broken"

    def _independent(self, restricted):
        return restricted <= {0, 1} or restricted == {2}


def test_exchange_flags_malformed_oracle():
    mp = ms.PMatchoid(range(3), [_BrokenMatroid({0, 1, 2})], rank=2)
    state = _state(mp, [0, 1], {0: 1.0, 1: 1.0})
    with pytest.raises(ms.InfeasibilityError):
        ms.exchange_set(2, state)


class _CustomClasses(ms.UniformMatroid):
    """A uniform matroid whose ``swap_classes`` returns ``classes``."""

    kind = "custom"

    def __init__(self, ground_subset, capacity, classes):
        super().__init__(ground_subset, capacity)
        self.classes = classes

    def swap_classes(self):
        return self.classes


@pytest.mark.parametrize("classes", [
    [(0, {0, 1}, 1)],
    [(0, {0, 1}, 1), (1, {1, 2}, 1)],
    [(0, {0, 1, 2, 3}, 1)],
    [(0, {0}, 1), (0, {1, 2}, 1)],
    [(None, {0, 1, 2}, 1)],
    [(0, {0, 1, 2})],
    [(0, {0, 1, 2}, -1)],
    [(0, {0, 1, 2}, 1.5)],
], ids=["missing element", "overlap", "outside element", "repeated key", "None key",
        "pair entry", "negative capacity", "fractional capacity"])
def test_swap_classes_that_do_not_partition_are_refused(classes):
    # an element left out of every block would have no slot for the
    # matroid, and fitting and exchange_set would skip it; an entry must
    # be a (key, elements, capacity) triple whose capacity is a
    # non-negative integer or inf
    with pytest.raises(ms.PreconditionError, match="triples that partition"):
        ms.PMatchoid(range(4), [_CustomClasses(range(3), 1, classes)])
    # a partition is accepted, and the constraint then follows the
    # classes, not the uniform matroid's own independence test
    custom = _CustomClasses(range(3), 1, [(0, [0, 2], 1), (1, [1], math.inf)])
    good = ms.PMatchoid(range(3), [custom])
    assert good.fitting({0}, [1]) == [1] and good.fitting({0}, [2]) == []
    assert good.feasible({0, 1}) and not good.feasible({0, 2})
    assert not custom.independent({0, 1})
    assert [key for _, key in good.signature_of[2]] == [0]
    assert good.capacity_of == {(custom, 0): 1, (custom, 1): math.inf}
    # an integral float is taken as its integer, as ids and capacities are
    custom = _CustomClasses(range(3), 1, [(0, [0, 1, 2], 2.0)])
    assert ms.PMatchoid(range(3), [custom]).capacity_of == {(custom, 0): 2}


@pytest.mark.parametrize("loop_matroid, opt", [
    (ms.PartitionMatroid(range(3), [[0, 1], [2]], [0, 1]), 3.0),
    (ms.UniformMatroid([0, 1], 0), 3.0),
    (ms.UniformMatroid(range(3), 0), 0.0),
], ids=["capacity-0 part", "capacity-0 uniform", "all loops"])
def test_loops_are_rejected_not_exchanged(loop_matroid, opt):
    # a loop is in no feasible set: exchange_set names no exchange, and
    # both drivers reject it and keep going
    mp = ms.PMatchoid(range(3), [loop_matroid])
    assert ms.exchange_set(0, _state(mp, [], {})) is None
    assert ms.brute_force_opt(ms.ModularOracle([1, 2, 3]), mp).opt_value == opt
    trace = []
    with checked():
        run = ms.multipass_run(ms.ModularOracle([1, 2, 3]), mp, [0, 1, 2],
                               ms.Schedule.matroid_harmonic(), 2, trace=trace)
    assert run.f_final == opt
    assert {"elem": 0, "action": "reject", "C_x": []}.items() <= trace[0].items()
    for weights in ([1, 2, 3], [9, 9, 3]):
        for mode in ("exact", "heuristic"):
            oracle = ms.ModularOracle(weights)
            with checked():
                rand = ms.multipass_randomized(oracle, mp, [0, 1, 2], 0.5,
                                               passes=2, offline_mode=mode)
            assert mp.feasible(rand.solution)
            assert rand.f_solution == oracle.peek(rand.solution) <= opt
            # the guess grid brackets OPT from the best feasible singleton,
            # however heavy the loops are
            assert rand.grid.tau == opt


def test_rank_examples():
    uniform = ms.PMatchoid(range(5), [ms.UniformMatroid(range(5), 3)])
    assert uniform.rank_k == 3
    partition = ms.PMatchoid(
        range(4), [ms.PartitionMatroid(range(4), [[0, 1], [2, 3]], [1, 1])])
    assert partition.rank_k == 2


def test_rank_of_pairwise_intersecting_hyperedges():
    # four hyperedges all sharing vertex 0: the vertex-0 matroid caps any
    # feasible set at one hyperedge
    inst = ms.generate_instance("3-uniform-hypergraph-matching", 0,
                                vertices=6, hyperedges=8)
    hyperedges = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5)]
    matroids = []
    for v in range(6):
        incident = [e for e, tri in enumerate(hyperedges) if v in tri]
        if incident:
            matroids.append(ms.UniformMatroid(incident, 1))
    mp = ms.PMatchoid(range(4), matroids)
    assert mp.rank_k == 1
    assert inst.build_matchoid().p == 3


def test_rank_requires_supplied_value_when_large():
    # p >= 2: the exact search runs while its bound, sum_{j <= K} C(n, j)
    # with K = p |greedy basis|, is within the work budget: 21,778 subsets
    # here (n = 17, K = 6)
    two = [ms.UniformMatroid(range(17), 3), ms.UniformMatroid(range(17), 3)]
    assert ms.PMatchoid(range(17), two).rank_k == 3
    # n = 40, K = 40 is 2^40 subsets: the constraint builds and tests
    # feasibility, but reading its rank raises, so drivers need a
    # supplied one
    wide = [ms.UniformMatroid(range(40), 20), ms.UniformMatroid(range(40), 20)]
    mp = ms.PMatchoid(range(40), wide)
    assert mp.p == 2 and mp.feasible(range(20)) and not mp.feasible(range(21))
    with pytest.raises(ms.SizeError, match="over 40 candidates .* over budget"):
        mp.rank_k
    mp = ms.PMatchoid(range(40), wide, rank=20)
    assert mp.rank_k == 20
    # p = 1: the greedy basis gives the rank at any size
    mp = ms.PMatchoid(range(17), [ms.UniformMatroid(range(17), 3)])
    assert mp.rank_k == 3


def test_supplied_rank_skips_the_search(monkeypatch, tmp_path):
    def search(mp):
        raise AssertionError("compute_rank ran")

    monkeypatch.setattr(ms.matchoids, "compute_rank", search)
    wide = [ms.UniformMatroid(range(40), 20), ms.UniformMatroid(range(40), 20)]
    assert ms.PMatchoid(range(40), wide, rank=20.0).rank_k == 20
    inst = ms.generate_instance("bipartite-matching", 3)
    inst.constraint["rank"] = 4
    path = tmp_path / "ranked.json"
    ms.save_instance(inst, path)
    assert ms.load_instance(path).build_matchoid().rank_k == 4
    # a null rank is searched on the first read, and only then
    mp = ms.PMatchoid(range(40), wide)
    with pytest.raises(AssertionError, match="compute_rank ran"):
        mp.rank_k


def _random_matroid(rng, n, kind=None):
    ground = list(range(n))
    if kind is None:
        kind = rng.choice(("uniform", "partition", "graphic", "transversal"))
    if kind == "uniform":
        return ms.UniformMatroid(ground, rng.randint(0, n))
    if kind == "partition":
        ids = ground[:]
        rng.shuffle(ids)
        parts = [sorted(ids[j::2]) for j in range(2)]
        parts = [prt for prt in parts if prt]
        return ms.PartitionMatroid(ground, parts,
                                   [rng.randint(1, 2) for _ in parts])
    if kind == "graphic":
        verts = max(2, n - rng.randint(0, 2))
        endpoints = {}
        for e in ground:
            u = rng.randrange(verts)
            v = rng.randrange(verts)
            while v == u:
                v = rng.randrange(verts)
            endpoints[e] = (u, v)
        return ms.GraphicMatroid(ground, endpoints)
    right = max(2, n - 1)
    adjacency = {e: set(rng.sample(range(right), rng.randint(1, min(3, right))))
                 for e in ground}
    return ms.TransversalMatroid(ground, adjacency)


def test_downward_closure_and_exchange_axiom_by_brute_force():
    rng = Random(23)
    for trial in range(12):
        n = rng.randint(3, 8)
        matroid = _random_matroid(rng, n)
        independents = [frozenset(c)
                        for r in range(n + 1)
                        for c in combinations(range(n), r)
                        if matroid.independent(c)]
        assert frozenset() in independents
        members = set(independents)
        for a in independents:
            for e in a:
                assert a - {e} in members, "downward closure failed"
        for a in independents:
            for b in independents:
                if len(a) < len(b):
                    assert any(a | {e} in members for e in b - a), \
                        "exchange axiom failed"


def test_rank_matches_unpruned_maximum():
    rng = Random(31)
    for trial in range(8):
        n = rng.randint(3, 8)
        matroids = [_random_matroid(rng, n) for _ in range(rng.randint(1, 2))]
        counts = {}
        for m in matroids:
            for e in m.ground_subset:
                counts[e] = counts.get(e, 0) + 1
        mp = ms.PMatchoid(range(n), matroids)
        assert mp.p == max(counts.values(), default=1)
        best = max(len(c)
                   for r in range(n + 1)
                   for c in combinations(range(n), r)
                   if _corpus.feasible_by_definition(mp, c))
        assert ms.compute_rank(mp) == best


def test_p1_rank_is_the_greedy_basis_size():
    # a p = 1 constraint is a direct sum of matroids on disjoint ground
    # subsets plus free elements; capacity-0 uniform matroids make loops
    rng = Random(37)
    for trial in range(150):
        n = rng.randint(1, 8)
        ids = list(range(n))
        rng.shuffle(ids)
        cut = sorted(rng.sample(range(n + 1), 2))
        matroids = []
        for block in (ids[:cut[0]], ids[cut[0]:cut[1]]):
            if block:
                if rng.random() < 0.2:
                    matroids.append(ms.UniformMatroid(block, 0))
                else:
                    local = _random_matroid(rng, len(block))
                    matroids.append(_Relabeled(local, block))
        mp = ms.PMatchoid(range(n), matroids)
        best = max(len(c)
                   for r in range(n + 1)
                   for c in combinations(range(n), r)
                   if _corpus.feasible_by_definition(mp, c))
        assert mp.rank_k == ms.compute_rank(mp) == best


class _Relabeled(ms.Matroid):
    """``inner`` on ids 0..len(labels)-1, moved onto ``labels``."""

    kind = "relabeled"

    def __init__(self, inner, labels):
        super().__init__(labels)
        self.inner = inner
        self.back = {e: j for j, e in enumerate(labels)}

    def _independent(self, restricted):
        return self.inner.independent({self.back[e] for e in restricted})


# The exchange sets that the state answers from its class lists


def _exchange_by_definition(mp, x, state):
    """exchange_set from its definition: per matroid containing x, the
    defining swap set, then the smallest nu, then the earliest arrival."""
    nu = state.nu
    chosen = set()
    for matroid in mp.matroids:
        if x not in matroid.ground_subset:
            continue
        swaps = _swaps_by_definition(matroid, matroid.ground_subset & nu.keys(), x)
        if swaps is None:
            continue
        if not swaps:
            return None  # in a matroid, only a loop has no swap
        low = min(nu[y] for y in swaps)
        chosen.add(next(y for y in nu if y in swaps and nu[y] == low))
    return chosen


def _accept(state, oracle, x):
    """Exchange x into ``state``; returns accept's walk-skipped flag, or
    None for a loop, which is left out."""
    cx = ms.exchange_set(x, state)
    if cx is None:
        return None
    gain = state.evaluator.value_with(x) - state.f_s
    return state.accept(x, cx, oracle, gain)[1]


def test_cached_exchange_sets_match_the_definition():
    # seeded uniform, partition, graphic and transversal matroids, alone
    # and intersected in pairs, under accept sequences that take all three
    # branches; every non-member is asked twice after every step, the
    # second time from the signature cache when its keys are all non-None;
    # every accept refiles in the class lists the state was built with, a
    # walk's included, and leaves each holding exactly S's members
    rng = Random(43)
    branches = {"insert": 0, "shortcut": 0, "walk": 0}
    hits = 0
    for trial in range(80):
        matroids = [_uniform_or_partition(rng) if rng.random() < 0.5
                    else _random_matroid(rng, 12)
                    for _ in range(rng.choice((1, 2, 2)))]
        mp = ms.PMatchoid(range(12), matroids)
        oracle = ms.ModularOracle([rng.randint(0, 3) for _ in range(12)])
        state = ms.SolutionState.empty(oracle, mp)
        for step in range(20):
            outside = [y for y in range(12) if y not in state.nu]
            for y in outside:
                want = _exchange_by_definition(mp, y, state)
                assert ms.exchange_set(y, state) == want, (trial, step, y)
                hits += mp.signature_of.get(y, ()) in state.answers
                assert ms.exchange_set(y, state) == want, (trial, step, y)
            x = rng.choice(outside)
            evicting = bool(ms.exchange_set(x, state))
            classes = state.classes
            skipped = _accept(state, oracle, x)
            if skipped is None:
                continue
            assert state.classes is classes and state.answers == {}
            assert _corpus.feasible_by_definition(mp, state.members)
            branch = "shortcut" if skipped else "walk" if evicting else "insert"
            branches[branch] += 1
            _check_class_index(mp, state, 12)
    assert min(branches.values()) > 0, branches
    assert hits > 0


def test_swap_picks_follow_the_state():
    oracle = ms.ModularOracle([3, 0, 2, 1, 5, 4])
    uniform = ms.UniformMatroid(range(6), 2)
    mp = ms.PMatchoid(range(6), [uniform])
    state = ms.SolutionState.empty(oracle, mp)
    classes = state.classes
    for x, branch in ((0, False), (1, False), (2, True), (4, False)):
        # insert, insert, shortcut (evicts 1 at nu 0), walk (evicts 2)
        ms.exchange_set(x, state)
        assert state.answers
        assert _accept(state, oracle, x) is branch
        assert state.classes is classes and state.answers == {}
    assert list(state.nu) == [0, 4]
    assert ms.exchange_set(3, state) == {0}
    # the answer for the signature, and the sorted class list behind it:
    # 4 was filed at seq 3 with its measured gain, which the walk left as
    # it was (f is modular); 1 and 2 left the list as they were evicted
    signature = ((uniform, 0),)
    entries = [(3.0, 0, 0), (5.0, 3, 4)]
    assert mp.signature_of[3] is mp.signature_of[5] == signature
    assert state.answers == {signature: frozenset({0})}
    assert ms.exchange_set(5, state) is state.answers[signature]
    assert state.classes[(uniform, 0)] == entries
    assert state.capacity_of is mp.capacity_of == {(uniform, 0): 2}
    # a copy files its own class lists: the same members and nu, filed
    # afresh in arrival order, in lists of its own, and no answers yet
    copy = state.copy(mp)
    assert copy.classes is not state.classes and copy.answers == {}
    assert copy.classes == {(uniform, 0): [(3.0, 0, 0), (5.0, 1, 4)]}
    assert ms.exchange_set(5, copy) == {0}
    assert copy.answers == {signature: frozenset({0})}
    assert copy.answers is not state.answers
    assert copy.classes[(uniform, 0)] is not state.classes[(uniform, 0)]
    copy.classes[(uniform, 0)].insert(0, (0.0, 1, 4))
    copy.answers[signature] = frozenset({4})
    assert state.answers == {signature: frozenset({0})}
    assert state.classes[(uniform, 0)] == entries
    assert ms.exchange_set(3, state) == {0}
    # a public nu refresh that changes no nu keeps the class lists as they
    # were, answers included, since they are still exact
    ms.recompute_nu(state, oracle)
    assert state.classes is classes and state.entry_of == {0: entries[0], 4: entries[1]}
    assert state.answers == {signature: frozenset({0})}
    _check_class_index(mp, state, 6)


def test_class_index_add_and_remove_forget_the_answers():
    uniform = ms.UniformMatroid(range(4), 2)
    mp = ms.PMatchoid(range(4), [uniform])
    signature = mp.signature_of[2]
    state = _state(mp, [0, 1], {0: 1.0, 1: 2.0})
    assert ms.exchange_set(2, state) == {0}
    classes = state.classes
    assert state.answers == {signature: frozenset({0})}
    # 0 leaves S: the class is no longer full
    assert state._unfile(0) == 1.0
    assert state.answers == {}
    assert ms.exchange_set(2, state) == set()
    assert state.answers == {signature: frozenset()}
    # 3 joins S with the smallest nu: the class is full again
    state._file(3, 0.5)
    assert state.answers == {}
    assert ms.exchange_set(2, state) == {3}
    assert state.classes is classes and state.answers == {signature: frozenset({3})}


def test_graphic_matchoid_caches_nothing():
    endpoints = {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (2, 3)}
    graphic = ms.GraphicMatroid(set(endpoints), endpoints)
    assert graphic.swap_classes() is None
    mp = ms.PMatchoid(range(4), [graphic])
    assert mp.signature_of == dict.fromkeys(range(4), ((graphic, None),))
    state = _state(mp, [0, 1], {0: 2.0, 1: 1.0})
    assert ms.exchange_set(2, state) == {1}
    assert ms.exchange_set(3, state) == set()
    assert state.classes == {} and state.answers == {}


def test_one_state_under_two_matchoids():
    # the same conflict key (class 0 of matroid 0) names different
    # matroids in the two constraints, which must not share a pick: a
    # state answers under the constraint it was built with, and a copy
    # under the other constraint answers under that one, never through
    # the original's answers
    by_capacity = ms.PMatchoid(range(4), [ms.UniformMatroid(range(4), 2)])
    by_part = ms.PMatchoid(range(4), [
        ms.PartitionMatroid(range(4), [[1, 2], [0, 3]], [1, 1])])
    evaluator = ms.ModularOracle([1, 2, 3, 4]).running((0, 1))
    state = ms.SolutionState(by_capacity, {0: 1.0, 1: 2.0}, evaluator)
    assert ms.exchange_set(2, state) == {0}
    other = state.copy(by_part)
    assert other.signature_of is by_part.signature_of
    assert other.answers == {}
    for _ in range(2):
        assert ms.exchange_set(2, other) == {1}
        assert other.answers == {by_part.signature_of[2]: {1}}
        assert ms.exchange_set(2, state) == {0}
        assert state.signature_of is by_capacity.signature_of
        assert state.answers == {by_capacity.signature_of[2]: {0}}
        # a repeat is served from the state's own answers
        assert ms.exchange_set(2, other) is other.answers[by_part.signature_of[2]]
    # a copy back under the first constraint answers as the original does
    assert ms.exchange_set(2, other.copy(by_capacity)) == {0}


@st.composite
def _matroids(draw, n, kinds=("uniform", "partition", "graphic")):
    """A matroid of one of ``kinds`` (uniform, partition or graphic) on a
    random part of range(n); capacity-0 classes and self-loop edges make
    loops."""
    ground = sorted(draw(st.frozensets(st.integers(0, n - 1), min_size=1)))
    kind = draw(st.sampled_from(kinds))
    if kind == "uniform":
        return ms.UniformMatroid(ground, draw(st.integers(0, 3)))
    if kind == "partition":
        # the -1 label leaves an element outside every part
        label = draw(st.lists(st.integers(-1, 2), min_size=len(ground),
                              max_size=len(ground)))
        parts = [[e for e, j in zip(ground, label) if j == part] for part in range(3)]
        parts = [part for part in parts if part]
        return ms.PartitionMatroid(ground, parts,
                                   draw(st.lists(st.integers(0, 2), min_size=len(parts),
                                                 max_size=len(parts))))
    edge = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return ms.GraphicMatroid(ground, {e: draw(edge) for e in ground})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_signature_cache_answers_as_an_uncached_search(data):
    # random queries between accepts and nu refreshes: every answer is
    # the definition's, repeats included, and any change of S or nu
    # empties the cache
    n = data.draw(st.integers(3, 9), label="n")
    matroids = data.draw(st.lists(_matroids(n), min_size=1, max_size=3), label="matroids")
    mp = ms.PMatchoid(range(n), matroids)
    oracle = ms.ModularOracle(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                                 max_size=n), label="weights"))
    state = ms.SolutionState.empty(oracle, mp)
    for _ in range(data.draw(st.integers(1, 8), label="steps")):
        queries = data.draw(st.lists(st.integers(0, n - 1), max_size=10), label="queries")
        for y in queries:
            if y not in state.nu:
                assert ms.exchange_set(y, state) == _exchange_by_definition(mp, y, state)
        classes = state.classes
        step = data.draw(st.sampled_from(("accept", "refresh")), label="step")
        if step == "refresh":
            ms.recompute_nu(state, oracle)
            assert state.classes is classes
        else:
            outside = [y for y in range(n) if y not in state.nu]
            if not outside:
                break
            x = data.draw(st.sampled_from(outside), label="x")
            if _accept(state, oracle, x) is not None:
                # the accept keeps the state's class lists and forgets its
                # answers
                assert state.classes is classes and state.answers == {}
                assert _corpus.feasible_by_definition(mp, state.members)
        # after every step, a loop's refusal included, the same class lists
        # file S and nu as they are now and the state serves only exact
        # answers, including those a refresh left
        _check_class_index(mp, state, n)


def _check_class_index(mp, state, n):
    """Every outsider's exchange set under ``mp`` is the definition's; then
    each member of S has one entry ``(nu, seq, member)`` with its nu,
    seqs increasing in arrival order, each class list of the state is
    exactly the sorted entries of S's members in that class, and the
    state reads each class's capacity from ``mp``'s table, which holds
    the capacity the matroid's ``swap_classes`` names for it."""
    for y in range(n):
        if y not in state.nu:
            assert ms.exchange_set(y, state) == _exchange_by_definition(mp, y, state), y
    signature_of = state.signature_of
    assert signature_of is mp.signature_of
    assert state.capacity_of is mp.capacity_of
    assert state.entry_of.keys() == state.nu.keys()
    seq = {e: entry[1] for e, entry in state.entry_of.items()}
    assert [seq[e] for e in state.nu] == sorted(set(seq.values()))
    assert all(seq[e] < state.next_seq for e in state.nu)
    assert all(state.entry_of[e] == (v, seq[e], e) for e, v in state.nu.items())
    filed = {slot for e in state.nu for slot in signature_of.get(e, ()) if slot[1] is not None}
    assert filed <= state.classes.keys()
    for slot, entries in state.classes.items():
        assert entries == sorted((v, seq[e], e) for e, v in state.nu.items()
                                 if slot in signature_of.get(e, ())), slot
        matroid, key = slot
        named = [cap for k, _, cap in matroid.swap_classes() if k == key]
        assert named == [mp.capacity_of[slot]], slot


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_class_index_follows_long_churn(data):
    # a long run of insert, shortcut and walk accepts, public nu
    # refreshes from any position, copies, and copies under a second
    # constraint, over uniform, partition and mixed p = 2 constraints with
    # monotone and non-monotone objectives; elements leave and come back,
    # and every class list must follow S exactly
    n = data.draw(st.integers(4, 10), label="n")
    matroids = data.draw(st.lists(_matroids(n, ("uniform", "partition")),
                                  min_size=1, max_size=2), label="matroids")
    mp = ms.PMatchoid(range(n), matroids)
    if data.draw(st.booleans(), label="monotone"):
        # zero weights make members of nu 0, whose eviction skips the walk
        weight = st.sampled_from((0, 0, 1, 2))
        oracle = ms.ModularOracle(data.draw(st.lists(weight, min_size=n, max_size=n),
                                            label="weights"))
    else:
        vertex = st.integers(0, n - 1)
        arcs = data.draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)),
                                  max_size=2 * n), label="arcs")
        oracle = ms.DirectedCutOracle(n, [arc for arc in arcs if arc[0] != arc[1]])
    state = ms.SolutionState.empty(oracle, mp)
    for _ in range(data.draw(st.integers(10, 60), label="steps")):
        step = data.draw(st.sampled_from(("accept",) * 6 + ("refresh", "copy", "other")),
                         label="step")
        outside = [y for y in range(n) if y not in state.nu]
        if step == "accept" and outside:
            _accept(state, oracle, data.draw(st.sampled_from(outside), label="x"))
            assert _corpus.feasible_by_definition(mp, state.members)
        elif step == "refresh":
            # a walk from any position refiles its members from the first
            # whose nu it changes; those before keep their entries
            start = data.draw(st.integers(0, len(state.nu)), label="start_pos")
            classes = state.classes
            before = dict(state.nu)
            entries = dict(state.entry_of)
            seqs = [entry[1] for entry in entries.values()]
            ms.recompute_nu(state, oracle, start)
            assert state.classes is classes
            order = list(state.nu)
            first = next((i for i, e in enumerate(order) if state.nu[e] != before[e]),
                         len(order))
            assert first >= start
            assert all(state.entry_of[e] is entries[e] for e in order[:first])
            assert all(state.entry_of[e][1] > max(seqs) for e in order[first:])
            assert first == len(order) or state.answers == {}
        elif step == "copy" and outside:
            # the copy goes its own way; the original must not follow it
            copy = state.copy(mp)
            _accept(copy, oracle, data.draw(st.sampled_from(outside), label="x"))
            _check_class_index(mp, state, n)
            if data.draw(st.booleans(), label="keep copy"):
                state = copy
        elif step == "other":
            # S just fills one uniform matroid of new slots: under it, every
            # outsider must evict its smallest nu from a copy of the state,
            # whatever the state's own class lists hold
            other = ms.PMatchoid(range(n), [ms.UniformMatroid(range(n), len(state.nu))])
            _check_class_index(other, state.copy(other), n)
        _check_class_index(mp, state, n)


def test_a_class_that_never_fills_holds_exactly_s_members():
    # every element lies in the uniform matroid of capacity 1 and in the
    # free class of the partition, which never fills and is never picked;
    # with zero weights each accept evicts the member at nu 0 and skips
    # the walk, so both class lists hold S's one member, filed at the
    # accept's seq, after every one of the 40 accepts
    n = 6
    uniform = ms.UniformMatroid(range(n), 1)
    partition = ms.PartitionMatroid(range(n), [], [])
    mp = ms.PMatchoid(range(n), [uniform, partition])
    oracle = ms.ModularOracle([0] * n)
    state = ms.SolutionState.empty(oracle, mp)
    for step in range(40):
        x = step % n
        assert _accept(state, oracle, x) is (step > 0)
        _check_class_index(mp, state, n)
        assert list(state.nu) == [x]
        assert state.classes == {(uniform, 0): [(0.0, step, x)],
                                 (partition, -1): [(0.0, step, x)]}
        assert mp.capacity_of == {(uniform, 0): 1, (partition, -1): math.inf}


class _TwoBins(ms.Matroid):
    """A class-naming kind of its own: at most two even elements and at
    most one odd element, named as two capacity classes."""

    kind = "two-bins"

    def _independent(self, restricted):
        odd = sum(e % 2 for e in restricted)
        return odd <= 1 and len(restricted) - odd <= 2

    def swap_classes(self):
        evens = {e for e in self.ground_subset if e % 2 == 0}
        return (("even", evens, 2), ("odd", self.ground_subset - evens, 1))


def test_a_class_naming_kind_of_its_own_gets_its_capacities():
    # swap_classes is all a kind defines for the constraint: it reads both
    # capacities from it once, and its feasibility test, which reads only
    # the classes, says what the kind's own independence test says on every
    # subset; through a churn of accepts, alone and beside a uniform
    # matroid, every outsider's exchange set is the definition's and each
    # class evicts at its own capacity
    n = 10
    bins = _TwoBins(range(n))
    alone = ms.PMatchoid(range(n), [bins])
    verdicts = set()
    for mask in range(1 << n):
        s = {e for e in range(n) if mask >> e & 1}
        verdict = bins.independent(s)
        assert alone.feasible(s) == verdict, s
        verdicts.add(verdict)
    assert verdicts == {False, True}
    rng = Random(67)
    for matroids in ([bins], [bins, ms.UniformMatroid(range(2, n), 2)]):
        mp = ms.PMatchoid(range(n), matroids)
        assert {slot: cap for slot, cap in mp.capacity_of.items()
                if slot[0] is bins} == {(bins, "even"): 2, (bins, "odd"): 1}
        oracle = ms.ModularOracle([rng.randint(0, 3) for _ in range(n)])
        state = ms.SolutionState.empty(oracle, mp)
        evicted = {"even": 0, "odd": 0}
        for _ in range(80):
            x = rng.choice([y for y in range(n) if y not in state.nu])
            cx = ms.exchange_set(x, state)
            _accept(state, oracle, x)
            for y in cx:
                evicted["odd" if y % 2 else "even"] += 1
            _check_class_index(mp, state, n)
            assert _corpus.feasible_by_definition(mp, state.members)
        assert min(evicted.values()) > 0, evicted


# The element index: each arrival visits only the matroids holding it


def _random_feasible(rng, mp, elems):
    """A feasible subset grown in a random order by full feasibility tests,
    each matroid's own."""
    order = list(elems)
    rng.shuffle(order)
    chosen = set()
    for e in order:
        if rng.random() < 0.7 and _corpus.feasible_by_definition(mp, chosen | {e}):
            chosen.add(e)
    return chosen


def _matching_matroids(rng, side, edges):
    """One capacity-1 uniform matroid per vertex of a random bipartite
    graph with ``side`` vertices a side and ``edges`` edges, in vertex
    order: its matchings, at p = 2."""
    incident = [[] for _ in range(2 * side)]
    for e, pair in enumerate(rng.sample(range(side * side), edges)):
        incident[pair // side].append(e)
        incident[side + pair % side].append(e)
    return [ms.UniformMatroid(held, 1) for held in incident if held]


def test_element_index_lists_the_matroids_in_instance_order():
    rng = Random(53)
    cases = [(12, [_uniform_or_partition(rng) for _ in range(rng.randint(0, 5))], None)
             for _ in range(40)]
    # many matroids: a matching with 8,000 edges under 400 of them
    matching = _matching_matroids(rng, 200, 8000)
    assert len(matching) == 400
    cases.append((8000, matching, 200))
    for n, matroids, rank in cases:
        mp = ms.PMatchoid(range(n), matroids, rank=rank)
        shared = {}
        for e in range(n):
            want = tuple(m for m in matroids if e in m.ground_subset)
            signature = mp.signature_of.get(e, ())
            assert tuple(m for m, _ in signature) == want
            # each slot names the class block holding e, and the table
            # holds that class's capacity
            for m, key in signature:
                (block, capacity), = [(b, c) for k, b, c in m.swap_classes() if k == key]
                assert e in block and mp.capacity_of[m, key] == capacity
            # elements with one signature share one tuple
            assert shared.setdefault(signature, signature) is signature
        assert mp.p == max((len(v) for v in mp.signature_of.values()), default=1)


def test_fitting_matches_feasible_on_every_family():
    # one element at a time, as the greedy basis and the offline greedy
    # ask; fitting and feasible read the class table, and both are checked
    # against the matroids' own independence tests
    builders = (_corpus.coverage_uniform, _corpus.coverage_partition,
                _corpus.bipartite_matching, _corpus.hypergraph_matching,
                _corpus.directed_cut)
    rng = Random(59)
    checks = {builder.__name__: [0, 0] for builder in builders}
    for trial in range(60):
        builder = builders[trial % len(builders)]
        mp = builder(rng.randrange(1000)).build_matchoid()
        for _ in range(4):
            s = _random_feasible(rng, mp, mp.ground)
            assert mp.feasible(s)
            for e in sorted(mp.ground - s):
                got = mp.fitting(s, (e,))
                want = _corpus.feasible_by_definition(mp, s | {e})
                assert got == ([e] if want else []), (builder.__name__, s, e)
                assert mp.feasible(s | {e}) == want, (builder.__name__, s, e)
                checks[builder.__name__][bool(got)] += 1
    # every family answers both ways
    assert all(min(counts) > 0 for counts in checks.values()), checks


def test_fitting_on_free_elements_and_a_capacity_0_part():
    # 4 and 5 lie in no matroid; 3 is alone in a part of capacity 0
    partition = ms.PartitionMatroid({0, 1, 2, 3}, [[0, 1], [2], [3]], [1, 1, 0])
    uniform = ms.UniformMatroid({1, 2, 3}, 1)
    mp = ms.PMatchoid(range(6), [partition, uniform])
    assert mp.signature_of == {0: ((partition, 0),),
                               1: ((partition, 0), (uniform, 0)),
                               2: ((partition, 1), (uniform, 0)),
                               3: ((partition, 2), (uniform, 0))}
    assert 4 not in mp.signature_of and mp.p == 2
    by_definition = _corpus.feasible_by_definition
    for s in (set(), {0}, {1}, {2}, {0, 2}, {4}, {0, 4, 5}, {1, 4, 5}):
        assert mp.feasible(s) and by_definition(mp, s)
        for e in sorted(set(range(6)) - s):
            want = by_definition(mp, s | {e})
            assert mp.fitting(s, (e,)) == ([e] if want else []), (s, e)
            assert mp.feasible(s | {e}) == want, (s, e)
    # every subset of the six, feasible or not, by both tests
    for mask in range(1 << 6):
        s = {e for e in range(6) if mask >> e & 1}
        assert mp.feasible(s) == by_definition(mp, s), s
    assert mp.fitting({0, 2}, [5]) == [5] and mp.fitting(set(), [3]) == []
    assert ms.PMatchoid(range(3), []).fitting({0, 1}, [2]) == [2]
    assert ms.PMatchoid(range(3), []).feasible({0, 1, 2})


def test_fitting_is_feasible_per_element():
    # one slot test serves every open element of its class; graphic and
    # transversal slots (key None) are tested per element, and elements
    # in no matroid always fit
    builders = (_corpus.coverage_uniform, _corpus.coverage_partition,
                _corpus.bipartite_matching, _corpus.hypergraph_matching)
    rng = Random(61)
    answers = [0, 0]
    for trial in range(80):
        if trial % 2:
            mp = builders[trial // 2 % len(builders)](rng.randrange(1000)).build_matchoid()
        else:
            n = rng.randint(3, 9)
            matroids = [_random_matroid(rng, n) for _ in range(rng.randint(1, 2))]
            mp = ms.PMatchoid(range(n + 2), matroids)
        for _ in range(4):
            s = _random_feasible(rng, mp, mp.ground)
            outside = sorted(mp.ground - s)
            rng.shuffle(outside)
            want = [e for e in outside if _corpus.feasible_by_definition(mp, s | {e})]
            assert mp.fitting(s, outside) == want, (s, outside)
            assert [e for e in outside if mp.feasible(s | {e})] == want, (s, outside)
            answers[0] += len(outside) - len(want)
            answers[1] += len(want)
    assert min(answers) > 0, answers
    assert ms.PMatchoid(range(3), []).fitting({0}, [2, 1]) == [2, 1]


def _exchange_set_scanning(mp, x, state):
    """exchange_set as it was before the element index, without its
    caches: every matroid of ``mp.matroids`` is visited, and those
    without x are skipped."""
    nu = state.nu
    if x in nu:
        raise ms.PreconditionError(f"element {x} is already in the solution")
    chosen = set()
    for matroid in mp.matroids:
        if x not in matroid.ground_subset:
            continue
        candidates = matroid.swap_candidates(
            matroid.ground_subset.intersection(nu), x)
        if candidates is None:
            continue
        if not candidates:
            if not matroid.independent({x}):
                return None
            raise ms.InfeasibilityError(
                f"no single swap restores independence for element {x}")
        chosen.add(min(filter(candidates.__contains__, nu), key=nu.__getitem__))
    return chosen


def test_exchange_set_matches_the_scan_over_every_matroid():
    # uniform and partition matroids on random ground subsets (free
    # elements, capacity-0 parts) with graphic and transversal ones moved
    # onto random subsets; random feasible S with random nu and ties
    rng = Random(61)
    outcomes = {"loop": 0, "empty": 0, "swap": 0}
    for trial in range(150):
        matroids = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                matroids.append(_uniform_or_partition(rng))
            else:
                labels = rng.sample(range(12), rng.randint(2, 10))
                matroids.append(_Relabeled(_random_matroid(rng, len(labels)), labels))
        mp = ms.PMatchoid(range(12), matroids)
        s = _random_feasible(rng, mp, range(12))
        order = sorted(s)
        rng.shuffle(order)
        nu = {e: float(rng.randint(0, 3)) for e in order}
        state = _state(mp, order, nu)
        for _ in range(2):  # the second round reads the cached answers
            for y in range(12):
                if y in nu:
                    continue
                want = _exchange_set_scanning(mp, y, state)
                assert ms.exchange_set(y, state) == want, (trial, y)
                outcomes["loop" if want is None else "swap" if want else "empty"] += 1
    assert min(outcomes.values()) > 0, outcomes


class _SpyPartition(ms.PartitionMatroid):
    """A partition matroid that notes itself in ``touched`` whenever its
    ground subset is read or one of its oracle methods runs."""

    touched = []

    @property
    def ground_subset(self):
        self.touched.append(self)
        return self._ground

    @ground_subset.setter
    def ground_subset(self, value):
        self._ground = value

    def independent(self, subset):
        self.touched.append(self)
        return super().independent(subset)

    def swap_candidates(self, s_l, x):
        self.touched.append(self)
        return super().swap_candidates(s_l, x)

    def swap_classes(self):
        self.touched.append(self)
        return super().swap_classes()


def test_one_arrival_touches_at_most_p_of_a_thousand_matroids():
    # a matching on a 1,000-cycle: matroid j holds edges j and j + 1, so
    # p = 2, whatever the matroid count
    n = 1000
    matroids = [_SpyPartition({j, (j + 1) % n}, [[j, (j + 1) % n]], [1])
                for j in range(n)]
    mp = ms.PMatchoid(range(n), matroids, rank=n // 2)
    assert mp.p == 2
    oracle = ms.ModularOracle([1 + e % 7 for e in range(n)])
    runner = ms.PassRunner(oracle, mp, None, 0.0, 1.0)
    touched = _SpyPartition.touched
    try:
        for x in range(0, n, 3):
            del touched[:]
            classes = runner.state.classes
            before = set(classes)
            runner.process(x)
            # the state reads capacities from the constraint's table, so
            # an arrival on capacity slots may touch no matroid
            assert set(touched) <= {m for m, _ in mp.signature_of[x]}
            assert len(set(touched)) <= mp.p
            # the runner's state is built with its class lists, and every
            # arrival keeps them, filing at most x's p slots; the last
            # arrival's exchange walks, which changes no nu here, as f is
            # modular
            assert runner.state.classes is classes
            assert set(classes) - before <= set(mp.signature_of[x])
        assert runner.evicted == {0: 1.0}
        s = set(runner.state.members)
        answers = set()
        for x in (1, 500, 998):
            del touched[:]
            got = mp.fitting(s, (x,))
            # fitting and feasible answer capacity classes from the
            # constraint's table, so they touch no matroid at all
            assert mp.feasible(s | {x}) == bool(got)
            assert touched == []
            assert got == ([x] if _corpus.feasible_by_definition(mp, s | {x}) else [])
            answers.add(bool(got))
        assert answers == {False, True}
    finally:
        del touched[:]


def test_no_engine_path_asks_a_kind_that_names_classes(monkeypatch):
    # the constraint's class table answers every capacity class, so the
    # rank search at p = 1 and p = 2 and both drivers, the randomized one
    # under either offline solver, make no independence test and no swap
    # scan on a uniform, partition or matching matroid; a graphic or
    # transversal matroid, whose slot is keyed None, is still asked
    asked = {}
    for name in ("independent", "swap_candidates"):
        def spy(self, *args, _method=getattr(ms.Matroid, name)):
            asked[self] = asked.get(self, 0) + 1
            return _method(self, *args)
        monkeypatch.setattr(ms.Matroid, name, spy)

    def solve(oracle, mp):
        order = ms.stream_order(len(mp.ground))
        ms.compute_rank(mp)
        if oracle.monotone:
            ms.multipass_run(oracle, mp, order, ms.Schedule.for_matchoid(mp), 3)
        for mode in ("exact", "heuristic"):
            ms.multipass_randomized(oracle, mp, order, 0.5, passes=2, seed=0,
                                    offline_mode=mode)

    rng = Random(73)
    class_kinds, p_seen = [], set()
    for builder in (_corpus.coverage_uniform, _corpus.coverage_partition,
                    _corpus.bipartite_matching, _corpus.directed_cut):
        for seed in range(3):
            inst = builder(seed)
            mp = inst.build_matchoid()
            solve(inst.build_oracle(), mp)
            class_kinds += mp.matroids
            p_seen.add(mp.p)
    # uniform and partition at p = 2, partition beside graphic at p = 2,
    # graphic and transversal alone at p = 1
    n = 9
    partition = ms.PartitionMatroid(range(n), [[0, 1, 2], [3, 4]], [1, 1])
    uniform = ms.UniformMatroid(range(2, n), 3)
    graphic = _random_matroid(rng, n, "graphic")
    transversal = _random_matroid(rng, n, "transversal")
    oracle = ms.ModularOracle([rng.randint(1, 5) for _ in range(n)])
    for matroids in ([partition, uniform], [partition, graphic], [graphic], [transversal]):
        mp = ms.PMatchoid(range(n), matroids)
        solve(oracle, mp)
        p_seen.add(mp.p)
    class_kinds += [partition, uniform]
    assert p_seen == {1, 2}
    assert {m.kind for m in class_kinds} == {"uniform", "partition"}
    assert [m.kind for m in class_kinds if m in asked] == []
    assert graphic in asked and transversal in asked


def test_a_runner_builds_at_most_one_class_index(monkeypatch):
    # a runner builds its state, and with it the class lists, as the
    # runner starts and keeps it through every accept and nu walk of the
    # pass, so each runner builds exactly one; counted on the binding the
    # runner and ``SolutionState.copy`` build it through, on a p = 2
    # matching under the deterministic driver, and on a directed cut whose
    # buffer fills under the randomized one, where every exchange walks
    builds, walks = [], []

    class CountingState(ms.SolutionState):
        __slots__ = ()

        def __init__(self, mp, nu, evaluator=None):
            builds.append(mp)
            super().__init__(mp, nu, evaluator)

    walk = ms.streaming.recompute_nu

    def counting_walk(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(ms.streaming, "SolutionState", CountingState)
    monkeypatch.setattr(ms.streaming, "recompute_nu", counting_walk)
    inst = ms.generate_instance("bipartite-matching", 0, left=12, right=12, edges=90)
    built = inst.build_matchoid()
    mp = ms.PMatchoid(built.ground, built.matroids, rank=12)
    run = ms.multipass_run(inst.build_oracle(), mp, ms.stream_order(inst.n),
                           ms.Schedule.for_matchoid(mp), 4)
    assert mp.p == 2 and walks
    assert builds == [mp] * len(run.pass_results)
    del builds[:], walks[:]
    # one pass with a buffer of m = 256 over 600 arrivals
    inst = ms.generate_instance("directed-cut+matroid", 0, n=600, arcs=1800, capacity=16)
    res = ms.multipass_randomized(inst.build_oracle(), inst.build_matchoid(),
                                  ms.stream_order(inst.n), 0.5, passes=1, seed=0,
                                  offline_mode="heuristic")
    assert any(row["buffer_peak"] == res.m for copy in res.copies
               for row in copy.pass_rows) and walks
    assert len(builds) == sum(len(copy.pass_results) for copy in res.copies) > 0
