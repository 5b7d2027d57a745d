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
capacity and ``block_of`` each slot's elements. p is the longest
signature. Only the matroids holding e can tell S from S + e, so
``streaming.exchange_set`` and ``PMatchoid.fitting``, the one
incremental feasibility test, visit at most p slots per element however
many matroids the instance has.

The same table is the constraint's feasibility rule and the exchange
rule's. ``PMatchoid.fitting`` screens a batch of elements against one
feasible set by one count per capacity class, S's members in its block
against its capacity, not one test per element, and
``PMatchoid.feasible`` makes that count for every class. For an arrival
x, S + x is dependent in a capacity class exactly when S holds at least
the class's capacity, and x's swap candidates are then S's members in
that class. The solution state keeps those members sorted by nu and
answers from them (``streaming.exchange_set``); no function here reads
a solution state. Slots keyed None are searched by ``scan_pick``,
which scans S with ``swap_candidates``. Only a slot keyed None asks its
matroid's ``independent``, so no engine path calls ``independent`` or
``swap_candidates`` on a kind that names classes.
"""

import functools
import math

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
        class, which the solution state answers; it serves ``scan_pick``,
        the search for slots keyed None and the tests' reference scan.
        """
        if self.independent(s_l | {x}):
            return None
        return {y for y in s_l if self.independent((s_l - {y}) | {x})}

    def swap_classes(self):
        """(key, elements, capacity) triples partitioning the ground
        subset into conflict classes, or None when this kind has none.

        Contract: every key is hashable and not None, and every capacity
        a non-negative integer or ``math.inf``. To a ``PMatchoid``, a kind
        that names classes is the partition matroid of those classes: a
        set is independent exactly when it holds at most ``capacity``
        members of each. So for an independent ``s_l`` and an x of a class
        outside it, ``swap_candidates(s_l, x)`` is None while s_l holds
        fewer than ``capacity`` members of the class, and otherwise
        exactly those members. The classes are read once, when a
        ``PMatchoid`` is built (``element_index``), which refuses entries
        that are not such triples or do not partition the ground subset
        under distinct keys. From then on ``fitting``, ``feasible`` and
        ``streaming.exchange_set`` read them alone; the kind's
        ``independent`` and ``swap_candidates`` stay its definition, the
        reference the tests check the classes against. This base form
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
    """(index, capacity_of, block_of, p): ``index`` maps each element some
    matroid holds to its signature, the tuple of its ``(matroid, class)``
    slots in the order of ``matroids``, where class is the key of the
    ``swap_classes`` block holding it (None for a kind with no classes);
    ``capacity_of`` maps each slot with a non-None key to its capacity;
    ``block_of`` maps every slot to its elements, the matroid's ground
    subset for a slot keyed None; p is the longest signature, 1 if there
    is none. Entries that break the ``swap_classes`` contract raise
    ``PreconditionError``: an element missing from every block would
    escape that matroid's feasibility and exchange tests."""
    # elements with one signature share one tuple, so the index
    # allocates per distinct signature, not per element
    index, shared, capacity_of, block_of = {}, {}, {}, {}
    for m in matroids:
        classes = m.swap_classes()
        if classes is None:
            classes = ((None, m.ground_subset, None),)
        else:
            classes, capacities = _checked_classes(m, classes)
            capacity_of.update(capacities)
        for key, block, _ in classes:
            block_of[m, key] = block
            slot = ((m, key),)
            for e in block:
                signature = index.get(e, ()) + slot
                index[e] = shared.setdefault(signature, signature)
    return index, capacity_of, block_of, max(map(len, index.values()), default=1)


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
    class's capacity, and ``block_of`` maps every slot to its elements:
    a class's block, or the matroid's ground subset for a slot keyed
    None. These tables are the constraint: ``feasible`` and ``fitting``
    answer a capacity class from them alone and ask a matroid only for a
    slot keyed None. ``p`` is the longest signature (1 when there is
    none), not declared. ``rank_k``, the size of a largest feasible set,
    is ``rank`` when supplied, else ``compute_rank``'s on its first read (an
    exact search at p >= 2, raising ``SizeError`` above its budget).
    """

    def __init__(self, ground, matroids, rank=None):
        self.ground = frozenset(integers(ground, "ground elements"))
        self.matroids = list(matroids)
        if not all(m.ground_subset <= self.ground for m in self.matroids):
            raise PreconditionError("matroid ground subset leaves the instance ground set")
        (self.signature_of, self.capacity_of, self.block_of,
         self.p) = element_index(self.matroids)
        if rank is not None:
            self.rank_k = integer(rank, "rank")
            if self.rank_k < 0:
                raise PreconditionError(f"rank must be non-negative, got {rank!r}")

    @functools.cached_property
    def rank_k(self):
        return compute_rank(self)

    def feasible(self, subset):
        """Whether ``subset`` is feasible: each capacity class holds at most
        its capacity of its members, and each slot keyed None's matroid
        finds its restriction independent."""
        a, capacity_of = frozenset(subset), self.capacity_of
        return all(m.independent(a) if key is None else len(block & a) <= capacity_of[m, key]
                   for (m, key), block in self.block_of.items())

    def fitting(self, subset, elems):
        """The members e of ``elems`` with ``subset`` + e feasible, in the
        order given; ``subset`` is a collection, read once per slot.

        Sound only for a feasible ``subset`` and members outside it. Then
        a matroid not holding e sees the same restriction with e as
        without it, so only the slots of e's signature are tested. A slot
        with a non-None key is a capacity class, and e fits it exactly
        when ``subset`` holds fewer than its capacity of the class: one
        intersection with ``block_of``, O(min(|block|, |subset|)) for a
        set, counts them once per call, and the verdict is reused for
        every later member of the class. A slot keyed None asks its
        matroid per element, and an element with no signature always
        fits.
        """
        signature_of, capacity_of, block_of = (
            self.signature_of, self.capacity_of, self.block_of)
        verdicts = {}
        fits = []
        for e in elems:
            for slot in signature_of.get(e, ()):
                fit = verdicts.get(slot)
                if fit is None:
                    m, key = slot
                    if key is None:
                        fit = m.independent({e, *subset})
                    else:
                        fit = verdicts[slot] = (
                            len(block_of[slot].intersection(subset)) < capacity_of[slot])
                if not fit:
                    break
            else:
                fits.append(e)
        return fits


# stands for "no exchange admits x" in a pick: {x} is dependent
LOOP = object()


def scan_pick(matroid, x, nu):
    """x's pick in ``matroid`` by a scan of S, the keys of ``nu``: None
    when S + x stays independent there, ``LOOP`` when {x} is dependent,
    and otherwise the first member of smallest nu, in arrival order,
    among the ``swap_candidates`` of S's members in the matroid. A
    matroid that names no swap for another x breaks the exchange axiom
    and raises ``InfeasibilityError``. This is the search for slots keyed
    None, and the reference the tests check every slot's answer
    against."""
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
