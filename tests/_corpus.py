"""Shared random-instance corpora for the test suite.

All sizes stay inside the exact-baseline range so every approximation
claim can be checked against the true optimum. ``oracles`` is the
hypothesis strategy for small random oracles with integer or float
weights. ``enumerate_opt_unpruned`` is the reference optimum the exact
solver is checked against, on a code path of its own, and
``feasible_by_definition`` the feasibility test it uses.
"""

from hypothesis import strategies as st

import matchstream as ms


def coverage_uniform(seed):
    n = 6 + seed % 7              # 6..12
    capacity = 2 + seed % 3       # 2..4
    return ms.generate_instance("coverage+uniform", seed, n=n, capacity=capacity)


def coverage_partition(seed):
    n = 6 + seed % 7
    parts = 2 + seed % 3
    return ms.generate_instance("coverage+partition", seed, n=n, parts=parts)


def bipartite_matching(seed):
    left = 3 + seed % 2           # 3..4
    right = 3 + (seed // 2) % 2
    edges = 7 + seed % 4          # 7..10 elements
    return ms.generate_instance("bipartite-matching", seed, left=left,
                                right=right, edges=edges)


def hypergraph_matching(seed):
    vertices = 5 + seed % 2       # 5..6
    hyperedges = 6 + seed % 3     # 6..8 elements
    return ms.generate_instance("3-uniform-hypergraph-matching", seed,
                                vertices=vertices, hyperedges=hyperedges)


def directed_cut(seed):
    n = 10 + seed % 3             # 10..12
    capacity = 3 + seed % 2       # 3..4
    return ms.generate_instance("directed-cut+matroid", seed, n=n,
                                capacity=capacity)


def feasible_by_definition(mp, subset):
    """Feasibility from each matroid's own independence test, not from the
    class table ``PMatchoid.feasible`` and ``fitting`` read."""
    return all(m.independent(subset) for m in mp.matroids)


def enumerate_opt_unpruned(oracle, mp):
    """Reference optimum from a full, unpruned sweep of all 2^n subsets."""
    elems = sorted(oracle.ground)
    n = len(elems)
    if n > 10:
        raise ms.SizeError("unpruned enumeration is capped at 10 ground elements")
    best_val = None
    best_set = frozenset()
    examined = 0
    for mask in range(1 << n):
        subset = frozenset(elems[j] for j in range(n) if mask >> j & 1)
        if not feasible_by_definition(mp, subset):
            continue
        examined += 1
        v = oracle.value(subset)
        if best_val is None or v > best_val:
            best_val = v
            best_set = subset
    return ms.ExactResult(best_set, best_val, examined)


def exact_opt(inst):
    """Optimum value from fresh oracle/constraint copies."""
    return ms.brute_force_opt(inst.build_oracle(), inst.build_matchoid())


@st.composite
def oracles(draw, kind, integer):
    """(oracle, scale): a random oracle of the kind and its total weight."""
    if integer:
        weight = st.integers(0, 9).map(float)
    else:
        weight = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
    if kind == "table":
        n = draw(st.integers(1, 5))
        table = draw(st.lists(weight, min_size=1 << n, max_size=1 << n))
        return ms.TableOracle(n, table), max(table)
    n = draw(st.integers(1, 8))
    if kind == "coverage":
        items = draw(st.integers(1, 10))
        sets = draw(st.lists(st.frozensets(st.integers(0, items - 1)),
                             min_size=n, max_size=n))
        weights = draw(st.lists(weight, min_size=items, max_size=items))
        return ms.CoverageOracle(sets, weights), sum(weights)
    if kind == "cut":
        arcs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1), weight),
                             max_size=3 * n))
        arcs = [(u, v, w) for u, v, w in arcs if u != v]
        return ms.DirectedCutOracle(n, arcs), sum(w for _, _, w in arcs)
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return ms.ModularOracle(weights), sum(weights)
