"""Matroid independence oracles and their composition into p-matchoids.

A p-matchoid is a list of matroids, each living on a subset of the ground
set, with every element belonging to at most p of those subsets. A set
is feasible when its restriction to each matroid's ground subset is
independent there.

Each matroid splits its ground subset into conflict classes,
``Matroid.swap_classes()``: one class for a uniform matroid, one per
part for a partition matroid (and one for the elements outside every
part). Within a class, every element outside S has the same swap
candidates. Kinds with no such split (graphic, transversal, custom)
return None, and their elements get one class with key None, which
shares nothing. ``PMatchoid`` indexes each element by its signature,
``signature_of[e]``: the tuple of ``(matroid, class)`` slots of the
matroids holding e, in instance order, shared by every element with
the same slots. p is the longest signature. Only the matroids holding
e can tell S from S + e, so ``exchange_set`` and ``PMatchoid.fitting``,
the one incremental feasibility test, visit at most p matroids per
element however many the instance has.

``exchange_set`` picks, for each matroid an arrival x would make
dependent, the member of S with the smallest cached nu among x's swap
candidates. That pick depends on x only through x's slot, and the
whole answer only through x's signature when every key in it is
non-None. The solution state caches both, per slot and per signature,
in ``SolutionState.picks`` until S or nu changes, so between two
accepts each class is searched once, and each signature answered once,
not once per arrival. By the same contract, ``PMatchoid.fitting``
screens a batch of elements against one feasible set with one
independence test per slot, not per element.
"""

import functools

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

        This generic form makes one independence test per member; kinds
        that can name the circuit directly override it.
        """
        if self.independent(s_l | {x}):
            return None
        return {y for y in s_l if self.independent((s_l - {y}) | {x})}

    def swap_classes(self):
        """(key, elements) pairs partitioning the ground subset into
        conflict classes, or None when this kind has none.

        Contract: two elements of one class, both outside an independent
        set ``s_l``, get the same ``swap_candidates(s_l, .)``, and every
        key is hashable and not None. ``element_index`` files each
        element under its class, and ``exchange_set`` relies on the
        contract to reuse one class's pick for every arrival in the
        class, and one exchange set for every arrival with the same
        signature. It is read once, when a ``PMatchoid`` is built, which
        refuses blocks that do not partition the ground subset under
        distinct keys. This base form names no classes, so its elements
        share nothing.
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

    def swap_candidates(self, s_l, x):
        """Every member of s_l in the ground subset, once they fill it."""
        if x not in self.ground_subset or x in s_l:
            return None
        inside = s_l & self.ground_subset
        return inside if len(inside) >= self.capacity else None

    def swap_classes(self):
        """One class: every arrival competes for the same capacity."""
        return ((0, self.ground_subset),)


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
        self._part_of = {e: j for j, part in enumerate(self.parts) for e in part}

    def _independent(self, restricted):
        return all(
            len(restricted & part) <= cap
            for part, cap in zip(self.parts, self.capacities)
        )

    def swap_candidates(self, s_l, x):
        """s_l's members in x's part, once that part is full; elements
        outside every part never conflict."""
        j = self._part_of.get(x)
        if j is None or x in s_l:
            return None
        in_part = s_l & self.parts[j]
        return in_part if len(in_part) >= self.capacities[j] else None

    def swap_classes(self):
        """One class per part, keyed by its index, and -1 for the elements
        outside every part, which never conflict."""
        classes = list(enumerate(self.parts))
        free = self.ground_subset.difference(*self.parts)
        if free:
            classes.append((-1, free))
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
    """(index, p): ``index`` maps each element some matroid holds to its
    signature, the tuple of its ``(matroid, class)`` slots in the order
    of ``matroids``, where class is the key of the ``swap_classes`` block
    holding it (None for a kind with no classes); p is the longest
    signature, 1 if there is none. Blocks that do not partition a
    matroid's ground subset under distinct non-None keys raise
    ``PreconditionError``: an element missing from every block would
    escape that matroid's feasibility and exchange tests."""
    # elements with one signature share one tuple, so the index
    # allocates per distinct signature, not per element
    index, shared = {}, {}
    for m in matroids:
        classes = m.swap_classes()
        if classes is None:
            classes = ((None, m.ground_subset),)
        else:
            classes = [(key, frozenset(block)) for key, block in classes]
            _check_classes(m, classes)
        for key, block in classes:
            slot = ((m, key),)
            for e in block:
                signature = index.get(e, ()) + slot
                index[e] = shared.setdefault(signature, signature)
    return index, max(map(len, index.values()), default=1)


def _check_classes(m, classes):
    keys = {key for key, _ in classes}
    blocks = [block for _, block in classes]
    if (None in keys or len(keys) != len(classes)
            or sum(map(len, blocks)) != len(m.ground_subset)
            or frozenset().union(*blocks) != m.ground_subset):
        raise PreconditionError(
            f"{m.kind} swap classes must partition its ground subset under "
            "distinct keys that are not None")


class PMatchoid:
    """Conjunction of matroid constraints with bounded per-element membership.

    ``signature_of`` maps each element that some matroid holds to its
    signature, the tuple of ``(matroid, class)`` slots naming the
    matroids that hold it, in instance order, and its conflict class in
    each (see ``element_index``); an element outside every matroid has
    no entry. ``p`` is the longest signature (1 when there is none), not
    declared. ``rank_k``, the size of a largest feasible set, is
    ``rank`` when supplied, else ``compute_rank``'s on its first read (an
    exact search at p >= 2, raising ``SizeError`` above its budget).
    """

    def __init__(self, ground, matroids, rank=None):
        self.ground = frozenset(integers(ground, "ground elements"))
        self.matroids = list(matroids)
        if not all(m.ground_subset <= self.ground for m in self.matroids):
            raise PreconditionError("matroid ground subset leaves the instance ground set")
        self.signature_of, self.p = element_index(self.matroids)
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


def exchange_set(mp, x, state):
    """Candidate eviction set making room for x in the current solution,
    as a frozenset.

    For each matroid containing x whose restriction becomes dependent when
    x is added, the swap candidate with the smallest cached incremental
    value is chosen; ties go to the earliest arrival, i.e. the first
    minimum in the key order of ``state.nu``. Only the slots of x's
    signature, ``mp.signature_of[x]``, are visited, in instance order,
    and the same element may be chosen for several matroids (it is added
    once). Returns None for a loop x ({x} dependent), which no exchange
    admits; a matroid naming no swap for another x breaks the exchange
    axiom and raises ``InfeasibilityError``.

    The answer is a function of (mp, x, S, nu) alone, and by the
    ``swap_classes`` contract it depends on x only through x's
    signature once every class key in it is non-None. Two caches in
    ``state.picks`` serve later arrivals until the state drops them,
    which it does whenever S or nu changes: each slot with a non-None
    key keeps its pick (or None, when the class is not full) under the
    slot, and a signature whose keys are all non-None keeps the whole
    answer under the signature. So a full buffer under one uniform
    matroid costs one search per state, not one per element. Loops and
    the ``InfeasibilityError`` path are not cached.
    """
    nu = state.nu
    if x in nu:
        raise PreconditionError(f"element {x} is already in the solution")
    signature = mp.signature_of.get(x, ())
    picks = state.picks
    answer = picks.get(signature)
    if answer is not None:
        return answer
    shared = True
    chosen = set()
    for slot in signature:
        matroid, key = slot
        if key is None:
            shared = False
        elif slot in picks:
            pick = picks[slot]
            if pick is not None:
                chosen.add(pick)
            continue
        # iterates S, not the matroid's whole ground subset
        candidates = matroid.swap_candidates(
            matroid.ground_subset.intersection(nu), x)
        if candidates is None:
            pick = None
        elif not candidates:
            if not matroid.independent({x}):
                return None
            raise InfeasibilityError(
                f"no single swap restores independence for element {x}"
            )
        else:
            # the first minimum in arrival order
            pick = min(filter(candidates.__contains__, nu), key=nu.__getitem__)
            chosen.add(pick)
        if key is not None:
            picks[slot] = pick
    answer = frozenset(chosen)
    if shared:
        picks[signature] = answer
    return answer
