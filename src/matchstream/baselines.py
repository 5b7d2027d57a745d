"""Exact and greedy baselines used to validate approximation claims.

``brute_force_opt`` and the exact offline solver share
``max_feasible_subset``, a depth-first branch-and-bound: supersets of
infeasible sets are skipped (downward closure), and for a submodular
objective a subtree is cut when the upper bound of Nemhauser, Wolsey and
Fisher (1978) cannot beat the best set found so far. The tests keep an
unpruned walk over every bitmask as an independent check of it.
"""

import heapq
import math

from .errors import SizeError
from .objectives import ModularOracle

EXACT_BUDGET = 2 ** 22  # the most subsets one exact search may examine


class ExactResult:
    """An optimum with its search effort: ``subsets_examined`` feasible
    subsets evaluated, ``bound_prunes`` subtrees cut by the bound."""

    __slots__ = ("opt_set", "opt_value", "subsets_examined", "bound_prunes")

    def __init__(self, opt_set, opt_value, subsets_examined, bound_prunes=0):
        self.opt_set = frozenset(opt_set)
        self.opt_value = opt_value
        self.subsets_examined = subsets_examined
        self.bound_prunes = bound_prunes

    def __repr__(self):
        return (f"ExactResult(value={self.opt_value}, set={sorted(self.opt_set)}, "
                f"examined={self.subsets_examined}, prunes={self.bound_prunes})")


def greedy_basis(mp, elems):
    """A maximal feasible subset of ``elems``, grown in the given order by
    feasibility tests alone. A p-matchoid is a p-system, so no feasible
    subset of ``elems`` is more than p times larger; at p = 1 it is a
    matroid, and every maximal feasible subset has this size, the rank."""
    basis = set()
    for e in elems:
        if mp.fitting(basis, (e,)):
            basis.add(e)
    return basis


def max_feasible_subset(oracle, mp, candidates):
    """Best feasible subset of ``candidates`` by depth-first branch-and-bound.

    The search walks subsets in lexicographic order from a root evaluator,
    one metered ``oracle.running(())`` whose total f(empty) is the first
    incumbent. At a node C it holds its parent's ``copy()`` plus one
    unmetered ``add``, and expands C once: ``PMatchoid.fitting`` screens
    the open elements (those after C's last element) and one
    ``values_with`` measures every feasible child C + e, metering one
    call per child, so each feasible subset the search reaches costs one
    counted call, the empty set included. As C is feasible and the open
    elements lie outside it, the screen counts C's members in each
    capacity class of the matroids holding them once, against the
    class's capacity, and reuses the verdict across the class (a kind
    without classes is asked per element). The incumbent is updated in
    preorder, child i's own value before its subtree, and only a strictly
    larger value replaces it, so ties keep the first maximizer in
    lexicographic order, as a walk over every feasible subset would.

    Two cuts skip a child's subtree without any oracle call:

    * size: a feasible subset holds at most K = p |G| elements, where G
      is the ``greedy_basis`` of the candidates, so with
      room = K - |C| - 1 <= 0 nothing below C + e_i is feasible;
    * bound (submodular f only): every set T below C + e_i adds elements
      of the later feasible siblings e_j, j > i (any other element would
      make C + e_j infeasible, and supersets of infeasible sets are
      infeasible), and at most ``room`` of them. Submodularity gives
      f(e_j | C + e_i + ...) <= f(e_j | C), so
      f(T) <= f(C + e_i) + the ``room`` largest positive gains f(e_j | C)
      over those siblings. When that is <= the incumbent, no set in the
      subtree could replace it, and the subtree is cut.

    The bound needs no monotonicity, so it holds for the directed cut. It
    is unsound when f is not submodular; an oracle whose class sets
    ``submodular = False`` (``TableOracle``) gets the size cut only.
    ``check_exact_budget`` sizes the search by K before any oracle call.
    """
    elems = sorted(set(candidates))
    size_cap = mp.p * len(greedy_basis(mp, elems))
    check_exact_budget(len(elems), size_cap)
    bounded = oracle.submodular
    root = oracle.running(())
    best_val = root.total
    best_set = frozenset()
    examined = 1
    prunes = 0

    def walk(running, open_elems):
        nonlocal best_val, best_set, examined, prunes
        current = running.members
        fits = mp.fitting(current, open_elems)
        values = running.values_with(fits)
        examined += len(fits)
        room = size_cap - len(current) - 1
        tails = (_gain_tails(values, running.total, room)
                 if bounded and room > 0 else None)
        last = len(fits) - 1
        for i, (e, v) in enumerate(zip(fits, values)):
            if v > best_val:
                best_val = v
                best_set = frozenset(current) | {e}
            if room <= 0 or i == last:
                continue
            if tails is not None and v + tails[i + 1] <= best_val:
                prunes += 1
                continue
            child = running.copy()
            child.add(e, meter=False)
            walk(child, fits[i + 1:])

    walk(root, elems)
    return ExactResult(best_set, best_val, examined, prunes)


def check_exact_budget(pool, size_cut, *, budget=EXACT_BUDGET):
    """Raise ``SizeError`` when sum_{j <= size_cut} C(pool, j) is over ``budget``
    (at most 2^23); terms past j = 23 are left out, since once both exceed 23
    the first 24 pass 2^23."""
    bound = sum(math.comb(pool, j) for j in range(min(pool, size_cut, 23) + 1))
    if bound > budget:
        raise SizeError(f"exact search over {pool} candidates (subsets of at most "
                        f"{size_cut}): {bound}+ subsets, over budget {budget}")


def _gain_tails(values, base, room):
    """tails[i]: the sum of the ``room`` largest positive gains
    v_j - base over values[i:]; tails[len(values)] = 0."""
    tails = [0.0] * (len(values) + 1)
    top = []
    for i in range(len(values) - 1, -1, -1):
        gain = values[i] - base
        if gain > 0.0:
            if len(top) < room:
                heapq.heappush(top, gain)
            elif gain > top[0]:
                heapq.heapreplace(top, gain)
        tails[i] = sum(top)
    return tails


def compute_rank(mp):
    """k, the size of a largest feasible set of ``mp``, on the first read of
    an unsupplied ``mp.rank_k``: at p = 1 its greedy basis size, at any size;
    at p >= 2 the ``max_feasible_subset`` optimum size for |A|, in budget."""
    if mp.p == 1:
        return len(greedy_basis(mp, sorted(mp.ground)))
    size = ModularOracle([1.0] * (max(mp.ground, default=-1) + 1))
    return len(max_feasible_subset(size, mp, mp.ground).opt_set)


def brute_force_opt(oracle, mp):
    """Exact optimum over all feasible subsets of the ground set, within budget."""
    return max_feasible_subset(oracle, mp, oracle.ground)


def offline_greedy(oracle, mp, candidates=None):
    """Add the feasible candidate (of the ground set by default) with the
    largest positive marginal until none is left, ties to the smallest id,
    measuring each gain with one metered ``value_with`` on one running
    evaluator. A submodular f is searched lazily (Minoux 1978): of the heap
    entries (-gain, id, |S| when measured), a stale top is measured again
    and a current one added, as stale gains bound current ones from above;
    an entry leaves once infeasible (downward closure) or at gain <= 0
    (submodularity). Without it (``TableOracle``) each round measures all.
    """
    running = oracle.running(())
    heap = [(-math.inf, e, -1) for e in sorted(
        oracle.ground if candidates is None else set(candidates))]
    while heap and heap[0][0] < 0.0:  # until the top is a measured gain <= 0
        _, e, size = heap[0]
        if size == len(running.members):
            heapq.heappop(heap)
            running.add(e, meter=False)
            if not oracle.submodular:
                heap = sorted((-math.inf, x, -1) for _, x, _ in heap)
            continue
        if mp.fitting(running.members, (e,)):
            gain = running.value_with(e) - running.total
            if gain > 0.0 or not oracle.submodular:
                heapq.heapreplace(heap, (-gain, e, len(running.members)))
                continue
        heapq.heappop(heap)
    return frozenset(running.members)
