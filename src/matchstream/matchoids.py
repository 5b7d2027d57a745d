"""Matroid independence oracles and their composition into p-matchoids.

A p-matchoid is a list of matroids, each living on a subset of the ground
set, with every element belonging to at most p of those subsets.
``PMatchoid`` indexes the matroids by element, ``matroids_of[e]`` in
instance order, and takes p to be the longest such tuple. A set is
feasible when its restriction to each matroid's ground subset is
independent there. Only the matroids holding e can tell S from S + e,
so the per-arrival work (``exchange_set``, ``PMatchoid.feasible_with``)
visits at most p matroids however many the instance has.

``exchange_set`` picks, for each matroid an arrival x would make
dependent, the member of S with the smallest cached nu among x's swap
candidates. For uniform and partition matroids that pick depends on x
only through a conflict class, ``Matroid.swap_class(x)``: one class for
a uniform matroid, one per part for a partition matroid. The solution
state caches each class's pick in ``SolutionState.picks`` until S or nu
changes, so between two accepts each class is searched once, not once
per arrival. Kinds with no such class (graphic, transversal, custom)
search per arrival and store nothing.
"""

from .baselines import compute_rank
from .errors import InfeasibilityError, PreconditionError


class Matroid:
    """Independence oracle over a ground subset.

    ``independent`` ignores elements outside the ground subset: only the
    restriction of the query is tested.
    """

    kind = "abstract"

    def __init__(self, ground_subset):
        self.ground_subset = frozenset(int(e) for e in ground_subset)

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

    def swap_class(self, x):
        """A hashable key naming x's conflict class, or None for "do not
        share".

        Contract: two elements of the ground subset, both outside an
        independent set ``s_l``, that get the same non-None key get the
        same ``swap_candidates(s_l, .)``. ``exchange_set`` relies on it
        to reuse one class's pick for every arrival in the class. This
        base form shares nothing.
        """
        return None


class UniformMatroid(Matroid):
    kind = "uniform"

    def __init__(self, ground_subset, capacity):
        super().__init__(ground_subset)
        self.capacity = int(capacity)
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

    def swap_class(self, x):
        """One class: every arrival competes for the same capacity."""
        return 0


class PartitionMatroid(Matroid):
    """At most ``capacities[j]`` elements from ``parts[j]``; elements of the
    ground subset outside every part are unconstrained."""

    kind = "partition"

    def __init__(self, ground_subset, parts, capacities):
        super().__init__(ground_subset)
        self.parts = [frozenset(int(e) for e in part) for part in parts]
        self.capacities = [int(c) for c in capacities]
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

    def swap_class(self, x):
        """x's part index; -1 for the elements outside every part, which
        never conflict."""
        return self._part_of.get(x, -1)


class GraphicMatroid(Matroid):
    """Elements are edges of a multigraph; independent sets are forests."""

    kind = "graphic"

    def __init__(self, ground_subset, endpoints):
        super().__init__(ground_subset)
        self.endpoints = {int(e): (int(u), int(v)) for e, (u, v) in endpoints.items()}
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
        self.adjacency = {int(e): frozenset(int(r) for r in rs) for e, rs in adjacency.items()}
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
    """(index, p): ``index`` maps each element some matroid holds to the
    tuple of those matroids, in the order of ``matroids``, and p is the
    longest tuple, 1 if there is none."""
    # set operations place the elements first seen in a matroid, and only
    # the elements it shares with earlier ones are visited one by one;
    # elements held by the same matroids share one tuple, so the index
    # allocates per distinct tuple, not per element
    index, seen = {}, set()
    for m in matroids:
        one = (m,)
        grown = {}
        for e in m.ground_subset & seen:
            held = index[e]
            if held not in grown:
                grown[held] = held + one
            index[e] = grown[held]
        fresh = m.ground_subset - seen
        index.update(dict.fromkeys(fresh, one))
        seen |= fresh
    return index, max(map(len, index.values()), default=1)


class PMatchoid:
    """Conjunction of matroid constraints with bounded per-element membership.

    ``matroids_of`` maps each element that some matroid holds to the
    tuple of those matroids, in instance order; an element outside every
    matroid has no entry. ``p`` is the longest tuple (1 when there is
    none), not declared. ``rank_k``, the size of a largest feasible set,
    is ``rank`` when supplied, else ``compute_rank``'s (an exact search
    at p >= 2, raising ``SizeError`` above its budget).
    """

    def __init__(self, ground, matroids, rank=None):
        self.ground = frozenset(int(e) for e in ground)
        self.matroids = list(matroids)
        if not all(m.ground_subset <= self.ground for m in self.matroids):
            raise PreconditionError("matroid ground subset leaves the instance ground set")
        self.matroids_of, self.p = element_index(self.matroids)
        self.rank_k = int(rank) if rank is not None else compute_rank(self)

    def feasible(self, subset):
        a = frozenset(subset)
        return all(m.independent(a) for m in self.matroids)

    def feasible_with(self, subset, e):
        """Whether ``subset`` + e is feasible, given that ``subset`` is.

        Sound only for a feasible ``subset``: every matroid not holding e
        sees the same restriction with e as without it, so only
        ``matroids_of[e]`` is tested.
        """
        held = self.matroids_of.get(e)
        if held is None:
            return True
        a = set(subset)
        a.add(e)
        for m in held:
            if not m.independent(a):
                return False
        return True


def exchange_set(mp, x, state):
    """Candidate eviction set making room for x in the current solution.

    For each matroid containing x whose restriction becomes dependent when
    x is added, the swap candidate with the smallest cached incremental
    value is chosen; ties go to the earliest arrival, i.e. the first
    minimum in the key order of ``state.nu``. Only the matroids holding
    x, ``mp.matroids_of[x]``, are visited, in instance order, and the
    same element may be chosen for several of them (it is added once).
    Returns None for a loop x ({x} dependent), which no exchange admits;
    a matroid naming no swap for another x breaks the exchange axiom and
    raises ``InfeasibilityError``.

    The answer is a function of (mp, x, S, nu) alone. A matroid's pick
    depends on x only through ``swap_class(x)``, so a non-None class's
    pick (or None, when the class is not full) is kept in
    ``state.picks`` under ``(matroid, class)`` and reused by later
    arrivals of the class until the state drops the cache, which it does
    whenever S or nu changes. Loops and the ``InfeasibilityError`` path
    are not cached.
    """
    nu = state.nu
    if x in nu:
        raise PreconditionError(f"element {x} is already in the solution")
    picks = state.picks
    chosen = set()
    for matroid in mp.matroids_of.get(x, ()):
        key = matroid.swap_class(x)
        if key is not None:
            slot = (matroid, key)
            if slot in picks:
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
    return chosen
