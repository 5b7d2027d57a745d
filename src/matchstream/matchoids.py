"""Matroid independence oracles and their composition into p-matchoids.

A p-matchoid is a list of matroids, each living on a subset of the ground
set, with every element belonging to at most p of those subsets. A set
is feasible when its restriction to each matroid's ground subset is
independent there.

Each matroid splits its ground subset into conflict classes with their
capacities, ``Matroid.swap_classes()``: one class for a uniform matroid,
one per part for a partition matroid (and one of capacity inf for the
elements outside every part). Within a class, every element outside S
has the same swap candidates. Kinds with no such split (graphic,
transversal, custom) return None, and their elements get one class with
key None, which shares nothing. ``PMatchoid`` indexes each element by its
signature, ``signature_of[e]``: the tuple of ``(matroid, class)`` slots
of the matroids holding e, in instance order, shared by every element
with the same slots; ``capacity_of`` holds each capacity class's
capacity. p is the longest signature. Only the matroids holding e can
tell S from S + e, so ``exchange_set`` and ``PMatchoid.fitting``, the
one incremental feasibility test, visit at most p matroids per element
however many the instance has.

``exchange_set`` chooses, for each matroid an arrival x would make
dependent, the member of S with the smallest cached nu among x's swap
candidates. Every class with a non-None key is a capacity class
(``PMatchoid.capacity_of``): S + x is dependent there exactly when S
holds at least the capacity of x's class, and the candidates are then
S's members in that class. The ``ClassIndex`` kept beside S is the one
owner of these answers. It keeps each slot's members of S as a sorted
list of ``(nu, arrival seq, member)`` entries, so it answers "full?" and
"which member?" from the list's length and first entry, with no scan of
S; filing a member costs O(log k) comparisons plus an O(k) list shift
per slot. The whole answer depends on x only through its signature when
every key in it is non-None, and the index keeps it per signature in
``ClassIndex.answers`` until S changes, so between two accepts each such
signature is answered once, not once per arrival. A state serves one
constraint, and builds its index under it when the state is built:
``SolutionState.accept`` files every accept, and a nu walk refiles each
member from the first whose nu it changes. Each forgets the answers.
Slots keyed None are searched by ``scan_pick``, which scans S with
``swap_candidates``. By the same contract, ``PMatchoid.fitting``
screens a batch of elements against one feasible set with one
independence test per slot, not per element.
"""

import functools
import math
from bisect import bisect_left, insort
from collections import defaultdict

from .baselines import compute_rank
from .errors import InfeasibilityError, PreconditionError, integer, integers


class Matroid:
    """Independence oracle over a ground subset.

    ``independent`` ignores elements outside the ground subset: only the
    restriction of the query is tested.
    """

    kind = "abstract"

    def __init__(self, ground_subset):
        self.ground_subset = frozenset(integers(ground_subset, "ground elements"))

    def independent(self, subset):
        return self._independent(frozenset(subset) & self.ground_subset)

    def _independent(self, restricted):
        raise NotImplementedError

    def swap_candidates(self, s_l, x):
        """Elements y of the independent set ``s_l`` with s_l - y + x
        independent, or None when s_l + x is already independent.

        This is the definition, one independence test per member, and
        every kind uses it. The searches never call it for a capacity
        class, which the ``ClassIndex`` answers; it serves the slots
        keyed None and the debug checks' reference scan (``scan_pick``).
        """
        if self.independent(s_l | {x}):
            return None
        return {y for y in s_l if self.independent((s_l - {y}) | {x})}

    def swap_classes(self):
        """(key, elements, capacity) triples partitioning the ground
        subset into conflict classes, or None when this kind has none.

        Contract: every key is hashable and not None, every capacity a
        non-negative integer or ``math.inf``, and each class a capacity
        class. For an independent set ``s_l`` and an x of the class
        outside it, ``swap_candidates(s_l, x)`` is None when s_l holds
        fewer than ``capacity`` members of the class, and is otherwise
        exactly those members. So two elements of one class get the same
        candidates. ``element_index`` files each element under its class
        and records its capacity; ``exchange_set`` relies on the contract
        to keep each class's members of S sorted by nu in a
        ``ClassIndex``, and to reuse one exchange set for every arrival
        with the same signature. It is read once, when a ``PMatchoid`` is
        built, which refuses entries that are not such triples or do not
        partition the ground subset under distinct keys. This base form
        names no classes, so its elements share nothing.
        """
        return None


class UniformMatroid(Matroid):
    kind = "uniform"

    def __init__(self, ground_subset, capacity):
        super().__init__(ground_subset)
        self.capacity = integer(capacity, "capacity")
        if self.capacity < 0:
            raise PreconditionError("capacity must be non-negative")

    def _independent(self, restricted):
        return len(restricted) <= self.capacity

    def swap_classes(self):
        """One class: every arrival competes for the same capacity."""
        return ((0, self.ground_subset, self.capacity),)


class PartitionMatroid(Matroid):
    """At most ``capacities[j]`` elements from ``parts[j]``; elements of the
    ground subset outside every part are unconstrained."""

    kind = "partition"

    def __init__(self, ground_subset, parts, capacities):
        super().__init__(ground_subset)
        self.parts = [frozenset(integers(part, "part elements")) for part in parts]
        self.capacities = integers(capacities, "capacities")
        if len(self.parts) != len(self.capacities):
            raise PreconditionError("one capacity per part is required")
        seen = set()
        for part in self.parts:
            if not part <= self.ground_subset:
                raise PreconditionError("parts must lie inside the ground subset")
            if part & seen:
                raise PreconditionError("parts must be disjoint")
            seen |= part
        if any(c < 0 for c in self.capacities):
            raise PreconditionError("capacities must be non-negative")

    def _independent(self, restricted):
        return all(
            len(restricted & part) <= cap
            for part, cap in zip(self.parts, self.capacities)
        )

    def swap_classes(self):
        """One class per part, keyed by its index, and -1 for the elements
        outside every part, which never conflict."""
        classes = list(zip(range(len(self.parts)), self.parts, self.capacities))
        free = self.ground_subset.difference(*self.parts)
        if free:
            classes.append((-1, free, math.inf))
        return classes


class GraphicMatroid(Matroid):
    """Elements are edges of a multigraph; independent sets are forests."""

    kind = "graphic"

    def __init__(self, ground_subset, endpoints):
        super().__init__(ground_subset)
        self.endpoints = {
            e: tuple(integers((u, v), "edge endpoints"))
            for e, (u, v) in zip(integers(endpoints, "edge ids"), endpoints.values())}
        missing = self.ground_subset - set(self.endpoints)
        if missing:
            raise PreconditionError(f"edges {sorted(missing)} have no endpoints")

    def _independent(self, restricted):
        parent = {}

        def find(a):
            root = a
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(a, a) != a:
                parent[a], a = root, parent[a]
            return root

        for e in sorted(restricted):
            u, v = self.endpoints[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True


class TransversalMatroid(Matroid):
    """Elements are left vertices of a bipartite graph; a set is
    independent when it can be matched into the right side."""

    kind = "transversal"

    def __init__(self, ground_subset, adjacency):
        super().__init__(ground_subset)
        self.adjacency = {
            e: frozenset(integers(rs, "right vertices"))
            for e, rs in zip(integers(adjacency, "element ids"), adjacency.values())}
        missing = self.ground_subset - set(self.adjacency)
        if missing:
            raise PreconditionError(f"elements {sorted(missing)} have no adjacency list")

    def _independent(self, restricted):
        matched = {}

        def augment(e, banned):
            for r in sorted(self.adjacency[e]):
                if r in banned:
                    continue
                banned.add(r)
                if r not in matched or augment(matched[r], banned):
                    matched[r] = e
                    return True
            return False

        for e in sorted(restricted):
            if not augment(e, set()):
                return False
        return True


def element_index(matroids):
    """(index, capacity_of, p): ``index`` maps each element some matroid
    holds to its signature, the tuple of its ``(matroid, class)`` slots
    in the order of ``matroids``, where class is the key of the
    ``swap_classes`` block holding it (None for a kind with no classes);
    ``capacity_of`` maps each slot with a non-None key to its capacity;
    p is the longest signature, 1 if there is none. Entries that break
    the ``swap_classes`` contract raise ``PreconditionError``: an element
    missing from every block would escape that matroid's feasibility and
    exchange tests."""
    # elements with one signature share one tuple, so the index
    # allocates per distinct signature, not per element
    index, shared, capacity_of = {}, {}, {}
    for m in matroids:
        classes = m.swap_classes()
        if classes is None:
            classes = ((None, m.ground_subset, None),)
        else:
            classes, capacities = _checked_classes(m, classes)
            capacity_of.update(capacities)
        for key, block, _ in classes:
            slot = ((m, key),)
            for e in block:
                signature = index.get(e, ()) + slot
                index[e] = shared.setdefault(signature, signature)
    return index, capacity_of, max(map(len, index.values()), default=1)


def _checked_classes(m, classes):
    try:
        classes = [(key, frozenset(block),
                    cap if cap == math.inf else integer(cap, "capacity"))
                   for key, block, cap in classes]
        capacities = {(m, key): cap for key, _, cap in classes}
        blocks = [block for _, block, _ in classes]
        if ((m, None) not in capacities and len(capacities) == len(classes)
                and min(capacities.values(), default=0) >= 0
                and sum(map(len, blocks)) == len(m.ground_subset)
                and frozenset().union(*blocks) == m.ground_subset):
            return classes, capacities
    except (TypeError, ValueError):
        pass  # not a triple, or a capacity neither inf nor an integer
    raise PreconditionError(
        f"{m.kind} swap classes must be (key, elements, capacity) triples "
        "that partition its ground subset under distinct keys that are not "
        "None, each capacity a non-negative integer or inf")


class PMatchoid:
    """Conjunction of matroid constraints with bounded per-element membership.

    ``signature_of`` maps each element that some matroid holds to its
    signature, the tuple of ``(matroid, class)`` slots naming the
    matroids that hold it, in instance order, and its conflict class in
    each (see ``element_index``); an element outside every matroid has
    no entry. ``capacity_of`` maps each slot with a non-None key to its
    class's capacity. ``p`` is the longest signature (1 when there is
    none), not declared. ``rank_k``, the size of a largest feasible set,
    is ``rank`` when supplied, else ``compute_rank``'s on its first read (an
    exact search at p >= 2, raising ``SizeError`` above its budget).
    """

    def __init__(self, ground, matroids, rank=None):
        self.ground = frozenset(integers(ground, "ground elements"))
        self.matroids = list(matroids)
        if not all(m.ground_subset <= self.ground for m in self.matroids):
            raise PreconditionError("matroid ground subset leaves the instance ground set")
        self.signature_of, self.capacity_of, self.p = element_index(self.matroids)
        if rank is not None:
            self.rank_k = integer(rank, "rank")
            if self.rank_k < 0:
                raise PreconditionError(f"rank must be non-negative, got {rank!r}")

    @functools.cached_property
    def rank_k(self):
        return compute_rank(self)

    def feasible(self, subset):
        a = frozenset(subset)
        return all(m.independent(a) for m in self.matroids)

    def fitting(self, subset, elems):
        """The members e of ``elems`` with ``subset`` + e feasible, in the
        order given.

        Sound only for a feasible ``subset`` and members outside it. Then
        a matroid not holding e sees the same restriction with e as
        without it, so only the slots of e's signature are tested. And a
        matroid's verdict on e depends on e only through e's class (the
        ``swap_classes`` contract: ``swap_candidates`` is None exactly when
        e fits), so each slot with a non-None key is tested once, for its
        first member, and its verdict reused for the rest. A slot keyed
        None is tested per element, and an element with no signature
        always fits.
        """
        signature_of = self.signature_of
        a = set(subset)
        verdicts = {}
        fits = []
        for e in elems:
            for slot in signature_of.get(e, ()):
                fit = verdicts.get(slot)
                if fit is None:
                    m, key = slot
                    a.add(e)
                    fit = m.independent(a)
                    a.discard(e)
                    if key is not None:
                        verdicts[slot] = fit
                if not fit:
                    break
            else:
                fits.append(e)
        return fits


# stands for "no exchange admits x" in a pick: {x} is dependent
LOOP = object()


class ClassIndex:
    """S's members per capacity class under one ``PMatchoid``, kept beside
    S as ``SolutionState.index``, and the exchange sets answered from it.

    ``signature_of`` and ``capacity_of`` are the constraint's tables
    (``PMatchoid``), so the index calls no matroid method. ``entry_of``
    maps each member of S to its entry ``(nu, seq, member)``, where seq
    is an arrival number, increasing in the key order of ``state.nu``.
    ``classes`` maps a ``(matroid, class)`` slot with a non-None key to
    the entries of exactly S's members in that class, kept sorted. So
    the first entry is the member with the smallest nu, the earliest
    arrival among equals.
    ``answers`` maps a signature whose keys are all non-None to the
    exchange set ``exchange_set`` found for it; ``add`` and ``remove``
    forget them all. Every change of S or nu must reach the index: a
    member that leaves S is removed, one that joins is added, and a walk
    removes and re-adds each member from the first whose nu it changes.
    """

    __slots__ = ("signature_of", "capacity_of", "entry_of", "classes", "answers", "next_seq")

    def __init__(self, mp, nu):
        self.signature_of = mp.signature_of
        self.capacity_of = mp.capacity_of
        self.entry_of = {}
        self.classes = defaultdict(list)
        self.answers = {}
        self.next_seq = 0
        for e, v in nu.items():
            self.add(e, v)

    def add(self, e, v):
        """File e with nu = v after every filed member, as S's new last
        member or a walk's next refile: per slot, O(log k) comparisons
        and an O(k) list shift."""
        self.answers.clear()
        entry = self.entry_of[e] = (v, self.next_seq, e)
        self.next_seq += 1
        for slot in self.signature_of.get(e, ()):
            if slot[1] is not None:
                insort(self.classes[slot], entry)

    def remove(self, e):
        """Unfile e, which leaves S or is refiled: per slot, O(log k)
        comparisons find its entry and an O(k) list shift deletes it."""
        self.answers.clear()
        entry = self.entry_of.pop(e)
        for slot in self.signature_of.get(e, ()):
            if slot[1] is not None:
                entries = self.classes[slot]
                del entries[bisect_left(entries, entry)]

    def pick(self, slot):
        """An outsider's pick in its class ``slot``: None when S holds fewer
        than the class capacity, else the member with the smallest nu,
        the earliest arrival among equals, as ``scan_pick`` finds it. A
        full class with no member (capacity 0) makes every arrival a
        loop, and gives ``LOOP``."""
        entries = self.classes[slot]
        if len(entries) < self.capacity_of[slot]:
            return None
        return entries[0][2] if entries else LOOP


def scan_pick(matroid, x, nu):
    """x's pick in ``matroid`` by a scan of S, the keys of ``nu``: None
    when S + x stays independent there, ``LOOP`` when {x} is dependent,
    and otherwise the first member of smallest nu, in arrival order,
    among the ``swap_candidates`` of S's members in the matroid. A
    matroid that names no swap for another x breaks the exchange axiom
    and raises ``InfeasibilityError``. This is the search for slots keyed
    None, and the debug checks' reference for every slot."""
    # iterates S, not the matroid's whole ground subset
    candidates = matroid.swap_candidates(
        matroid.ground_subset.intersection(nu), x)
    if candidates is None:
        return None
    if not candidates:
        if not matroid.independent({x}):
            return LOOP
        raise InfeasibilityError(
            f"no single swap restores independence for element {x}"
        )
    # the first minimum in arrival order
    return min(filter(candidates.__contains__, nu), key=nu.__getitem__)


def exchange_set(x, state):
    """Candidate eviction set making room for x in the current solution,
    under the constraint the state serves, as a frozenset.

    For each matroid containing x whose restriction becomes dependent when
    x is added, the swap candidate with the smallest cached incremental
    value is chosen; ties go to the earliest arrival, i.e. the first
    minimum in the key order of ``state.nu``. Only the slots of x's
    signature, ``signature_of[x]``, are visited, in instance order,
    and the same element may be chosen for several matroids (it is added
    once). Returns None for a loop x ({x} dependent), which no exchange
    admits; a matroid naming no swap for another x breaks the exchange
    axiom and raises ``InfeasibilityError``.

    A slot with a non-None key is answered by the state's
    ``ClassIndex`` (``state.index``, built with the state) in O(1), from
    the length and first entry of the class's sorted list, with no scan
    of S. A slot keyed None is searched by
    ``scan_pick``. The answer is a function of (the state's constraint,
    x, S, nu) alone, and by the ``swap_classes`` contract it depends on x
    only through x's signature once every key in it is non-None; the
    index keeps such an answer in its ``answers`` under the signature
    until S or nu changes, so a full buffer under one uniform matroid
    costs one search per state, not one per element.
    Loops and the ``InfeasibilityError`` path are not cached.
    """
    nu = state.nu
    if x in nu:
        raise PreconditionError(f"element {x} is already in the solution")
    index = state.index
    signature = index.signature_of.get(x, ())
    answer = index.answers.get(signature)
    if answer is not None:
        return answer
    shared = True
    chosen = set()
    for slot in signature:
        matroid, key = slot
        if key is None:
            shared = False
            pick = scan_pick(matroid, x, nu)
        else:
            pick = index.pick(slot)
        if pick is LOOP:
            return None
        if pick is not None:
            chosen.add(pick)
    answer = frozenset(chosen)
    if shared:
        index.answers[signature] = answer
    return answer
