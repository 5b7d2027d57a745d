"""Non-negative submodular set functions with counted oracle access.

Every objective evaluates f over subsets of a fixed ground set of integer
element ids. ``value`` is the metered entry point: it increments the call
counter by exactly one per invocation. ``marginal`` costs at most two
counted evaluations. ``peek`` evaluates without counting and exists only
for diagnostics, such as the value the CLI's greedy baseline reports, and
for invariant checks run from outside the drivers, so that a checked run
reports the same oracle-call totals as a plain one.

A running evaluator follows f over a growing set A without re-evaluating
it from scratch. ``oracle.running(subset)`` returns one holding
``total = f(A)``; ``value_with(x)`` gives f(A + x) and leaves A as it is,
``values_with(xs)`` does so for a batch, and ``add(x)`` puts x into A
and returns the new f(A). The metering is that of the ``value`` calls
they stand for: ``running`` always counts one call (``value(A)``),
``value_with`` one (``value(A | {x})``), ``values_with`` one per batch
member, taken in one step after the whole batch passes the ground-set
check, and ``add`` one (``value`` of the grown set); ``add(x,
meter=False)`` counts none, for a caller that has already paid for
f(A + x). ``forget(elements)`` drops members that f(A) does not need,
keeping the total and the statistics, with no call; it is sound only
for a monotone f with f(A - elements) = f(A), and its docstring gives
the argument. So a run's call count
equals that of from-scratch evaluation, except where the streaming pass
forgets instead of re-walking (see ``streaming``), and where the
randomized driver's guess copies share one f(x | empty) per arrival and
skip the threshold tests it decides (see ``randomized``). The base evaluator
re-evaluates through ``_evaluate``, so every subclass supports it
unchanged; a subclass with cheaper per-set statistics overrides
``_running(members)`` to return its own ``RunningValue`` subclass,
implementing ``_start``, ``_with``, ``_grow`` and ``copy``.
"""

import math
import threading

from .errors import DomainError, SizeError, integer, integers


class SubmodularOracle:
    """Base evaluation oracle for f: 2^ground -> R>=0.

    Subclasses implement ``_evaluate`` on a frozenset. The call counter is
    guarded by a lock so parallel copies of a run may share one oracle.
    ``submodular`` and ``monotone`` are facts about the class: every f of
    the class has the property. The exact solver's bound relies on the
    first; only a class whose construction guarantees the second sets it.
    """

    submodular = True
    monotone = False

    def __init__(self, ground):
        self.ground = frozenset(integers(ground, "element ids", DomainError))
        if any(e < 0 for e in self.ground):
            raise DomainError("element ids must be non-negative integers")
        self._lock = threading.Lock()
        self._calls = 0

    @property
    def calls(self):
        """Count of metered evaluations."""
        return self._calls

    def reset_counters(self):
        with self._lock:
            self._calls = 0

    def _count(self):
        with self._lock:
            self._calls += 1

    def _check_subset(self, subset):
        a = frozenset(subset)
        if not a <= self.ground:
            raise DomainError(
                f"elements {sorted(a - self.ground)} are outside the ground set"
            )
        return a

    def value(self, subset):
        """f(subset); one counted oracle call."""
        a = self._check_subset(subset)
        self._count()
        return self._evaluate(a)

    def marginal(self, e, subset):
        """f(subset + e) - f(subset); at most two counted calls."""
        if e not in self.ground:
            raise DomainError(f"element {e} is outside the ground set")
        a = self._check_subset(subset)
        if e in a:
            return 0.0
        return self.value(a | {e}) - self.value(a)

    def peek(self, subset):
        """Uncounted evaluation, for reports and invariant checks only."""
        return self._evaluate(self._check_subset(subset))

    def running(self, subset=()):
        """Running evaluator over ``subset``; one counted call, the
        ``value(subset)`` its total stands for (``peek`` is uncounted)."""
        a = self._check_subset(subset)
        self._count()
        return self._running(a)

    def _running(self, members):
        return RunningValue(self, members)

    def _evaluate(self, subset):
        raise NotImplementedError


def _finite(values, what):
    """The values as floats. Rejects negative and non-finite entries: a NaN
    makes the sum NaN and an infinity makes it infinite, as does a total
    too large for a float, which no evaluation of f could hold either."""
    out = [float(v) for v in values]
    if out and not (min(out) >= 0.0 and math.isfinite(sum(out))):
        raise DomainError(f"{what} must be non-negative with a finite sum")
    return out


class RunningValue:
    """f over a growing set A, metered like the ``value`` calls it replaces.

    This base form re-evaluates from scratch through the oracle's
    ``_evaluate``. Subclasses keep per-set statistics instead and override
    ``_start`` (f(A) for the initial members), ``_with`` (f(A + x) for x
    outside A), ``_grow`` (the same, also updating the statistics) and
    ``copy``.
    """

    __slots__ = ("oracle", "members", "total")

    def __init__(self, oracle, members):
        self.oracle = oracle
        self.members = set(members)
        self.total = self._start()

    # value_with and add check x and count the call inline, not through
    # helper calls: they run once per arrival and per search node

    def value_with(self, x):
        """f(A + x) without changing A; one counted call."""
        oracle = self.oracle
        if x not in oracle.ground:
            raise DomainError(f"element {x} is outside the ground set")
        with oracle._lock:
            oracle._calls += 1
        return self.total if x in self.members else self._with(x)

    def values_with(self, xs):
        """[f(A + x) for x in ``xs``] without changing A; ``len(xs)``
        counted calls, as that many ``value_with`` calls make.

        ``xs`` is a sized collection that can be iterated twice (a list,
        or a dict's keys). The whole batch is checked against the ground
        set before anything is counted, and the count is taken under one
        lock acquisition.
        """
        oracle = self.oracle
        ground = oracle.ground
        if not ground.issuperset(xs):
            outside = sorted(x for x in xs if x not in ground)
            raise DomainError(f"elements {outside} are outside the ground set")
        with oracle._lock:
            oracle._calls += len(xs)
        members, total, with_ = self.members, self.total, self._with
        return [total if x in members else with_(x) for x in xs]

    def add(self, x, meter=True):
        """A <- A + x; returns the new f(A). One counted call unless
        ``meter`` is false."""
        oracle = self.oracle
        if x not in oracle.ground:
            raise DomainError(f"element {x} is outside the ground set")
        if meter:
            with oracle._lock:
                oracle._calls += 1
        if x not in self.members:
            self.total = self._grow(x)
            self.members.add(x)
        return self.total

    def forget(self, elements):
        """A <- A - ``elements``, keeping ``total`` and the statistics; no
        oracle call.

        Sound only when f is monotone submodular and f(A - elements) =
        f(A). The statistics describe some E that contains A with f(E) =
        f(A) (E = A until a first forget), and after the call E still
        contains the smaller A at the same value. For every later query
        y, submodularity gives f(E + y) - f(A + y) <= f(E) - f(A) = 0 and
        monotonicity the reverse, so every value the evaluator reports is
        still f of its members.
        """
        self.members.difference_update(elements)

    def copy(self):
        twin = object.__new__(type(self))
        twin.oracle = self.oracle
        twin.members = set(self.members)
        twin.total = self.total
        return twin

    def _start(self):
        return self.oracle._evaluate(frozenset(self.members))

    def _with(self, x):
        return self.oracle._evaluate(frozenset(self.members) | {x})

    def _grow(self, x):
        return self._with(x)


class CoverageOracle(SubmodularOracle):
    """Weighted coverage: f(A) = total weight of items covered by A's sets."""

    monotone = True

    def __init__(self, sets, item_weights):
        self._sets = [frozenset(integers(s, "item ids", DomainError)) for s in sets]
        self._weights = _finite(item_weights, "item weights")
        # the range is checked over the distinct items, not every
        # occurrence, which pays for the per-set id check above
        items = frozenset().union(*self._sets)
        if min(items, default=0) < 0:
            raise DomainError("item ids must be non-negative")
        top = max(items, default=-1)
        if top >= len(self._weights):
            raise DomainError(f"item {top} has no weight entry")
        super().__init__(range(len(self._sets)))

    def _evaluate(self, subset):
        covered = set()
        for e in subset:
            covered |= self._sets[e]
        return float(sum(self._weights[i] for i in covered))

    def _running(self, members):
        return _CoverageRunning(self, members)


class _CoverageRunning(RunningValue):
    """Keeps the covered items; f(A + x) adds the weight x newly covers."""

    __slots__ = ("covered",)

    def _start(self):
        self.covered = set()
        self.total = 0.0
        for e in self.members:
            self.total = self._grow(e)
        return self.total

    def _with(self, x):
        return self._plus(self.oracle._sets[x] - self.covered)

    def _grow(self, x):
        fresh = self.oracle._sets[x] - self.covered
        self.covered |= fresh
        return self._plus(fresh)

    def _plus(self, items):
        total, weights = self.total, self.oracle._weights
        for i in items:
            total += weights[i]
        return total

    def copy(self):
        twin = RunningValue.copy(self)
        twin.covered = set(self.covered)
        return twin


class DirectedCutOracle(SubmodularOracle):
    """Directed cut over vertex ids: f(A) = weight of arcs from A to its
    complement. Non-monotone for any instance with at least one arc.

    Each arc is kept as one ``(u, v, w)`` triple in u's out-list. The
    running evaluator also needs each vertex's out-weight sum and the
    same triples listed by head; ``_incidence`` builds both, in lists
    indexed by vertex, on the first ``running`` call, so an oracle that
    is only built, or only read through ``value``, never pays for
    them.
    """

    def __init__(self, n, arcs):
        n = integer(n, "vertex count", DomainError)
        if n < 0:
            raise DomainError(f"vertex count must be non-negative, got {n}")
        out = self._out = [[] for _ in range(n)]
        self._in = None
        total = 0.0
        for u, v, w in arcs:
            # the ids are checked here, in the one pass over the arcs:
            # int() alone would file the endpoint 1.9 (or True) as vertex 1
            try:
                iu, iv = int(u), int(v)
            except (TypeError, ValueError, OverflowError):
                iu = iv = None
            if iu != u or iv != v or u.__class__ is bool or v.__class__ is bool:
                raise DomainError(f"arc endpoints must be integers, got ({u!r}, {v!r})")
            w = float(w)
            if not (0 <= iu < n and 0 <= iv < n):
                raise DomainError(f"arc ({iu},{iv}) endpoint outside 0..{n - 1}")
            if iu == iv:
                raise DomainError("self-loop arcs do not contribute to any cut")
            total += w
            if not (w >= 0.0 and total < math.inf):
                raise DomainError("arc weights must be non-negative with a finite sum")
            out[iu].append((iu, iv, w))
        super().__init__(range(n))

    def _evaluate(self, subset):
        total = 0.0
        out = self._out
        for u in subset:
            for _, v, w in out[u]:
                if v not in subset:
                    total += w
        return total

    def _incidence(self):
        """(out-weight sums, in-arc lists), indexed by vertex; built once."""
        if self._in is None:
            out = self._out
            in_arcs = [[] for _ in out]
            for arcs in out:
                for arc in arcs:
                    in_arcs[arc[1]].append(arc)
            self._in = ([sum(w for _, _, w in arcs) for arcs in out], in_arcs)
        return self._in

    def _running(self, members):
        return _CutRunning(self, members)


class _CutRunning(RunningValue):
    """Keeps ``near[v]``, the weight of the arcs between v and A in either
    direction, in a list indexed by vertex. For x outside A, the arcs x
    gains to the outside of A + x are its out-arcs less those into A,
    and the arcs A loses are those from A into x, so
    f(A + x) = f(A) + out(x) - near(x), with no loop. Growing A by u
    walks u's out- and in-arcs once."""

    __slots__ = ("near", "out_sums", "in_arcs")

    def _start(self):
        oracle = self.oracle
        self.out_sums, self.in_arcs = oracle._incidence()
        self.near = [0.0] * len(self.out_sums)
        for u in self.members:
            self._enter(u)
        return oracle._evaluate(self.members)

    def _with(self, x):
        return self.total + self.out_sums[x] - self.near[x]

    def _grow(self, x):
        total = self._with(x)
        self._enter(x)
        return total

    def _enter(self, u):
        near = self.near
        for _, v, w in self.oracle._out[u]:
            near[v] += w
        for a, _, w in self.in_arcs[u]:
            near[a] += w

    def copy(self):
        twin = RunningValue.copy(self)
        twin.near = self.near.copy()
        twin.out_sums, twin.in_arcs = self.out_sums, self.in_arcs
        return twin


class ModularOracle(SubmodularOracle):
    """Additive weights: f(A) = sum of per-element weights."""

    monotone = True

    def __init__(self, weights):
        self._weights = _finite(weights, "modular weights")
        super().__init__(range(len(self._weights)))

    def _evaluate(self, subset):
        return float(sum(self._weights[e] for e in subset))

    def _running(self, members):
        return _ModularRunning(self, members)


class _ModularRunning(RunningValue):
    """A running sum of the member weights."""

    __slots__ = ()

    def _with(self, x):
        return self.total + self.oracle._weights[x]


class TableOracle(SubmodularOracle):
    """Explicit value table indexed by subset bitmask; desk-scale only.

    The table is not required to be submodular, so this kind can also
    serve as a negative fixture for the submodularity checker, and the
    exact solver does not apply its submodular bound to it. It is not
    ``monotone`` either: an exact check costs far more than the table.
    """

    submodular = False
    MAX_N = 20

    def __init__(self, n, table):
        n = integer(n, "table size", DomainError)
        if n < 0:
            raise DomainError(f"table size must be non-negative, got {n}")
        if n > self.MAX_N:
            raise SizeError(f"table oracles are capped at n={self.MAX_N}")
        if len(table) != 1 << n:
            raise DomainError(f"table must have {1 << n} entries, got {len(table)}")
        self._table = _finite(table, "table values")
        super().__init__(range(n))

    def _evaluate(self, subset):
        mask = 0
        for e in subset:
            mask |= 1 << e
        return self._table[mask]


# the rounding slack the exhaustive submodularity check allows per pair
SUBMODULAR_TOL = 1e-9


def brute_force_check_submodular(oracle):
    """True iff f(A)+f(B) >= f(A|B)+f(A&B) for every pair of subsets, up
    to ``SUBMODULAR_TOL``.

    Checked through the equivalent pairwise diminishing-returns condition
    f(e | A) >= f(e | A + e') for all A and distinct e, e' outside A,
    which needs O(2^n * n^2) table lookups instead of O(4^n) pairs.
    """
    elems = sorted(oracle.ground)
    n = len(elems)
    if n > 12:
        raise SizeError("exhaustive submodularity check is capped at n=12")
    vals = [0.0] * (1 << n)
    for mask in range(1 << n):
        vals[mask] = oracle.value(elems[j] for j in range(n) if mask >> j & 1)
    for mask in range(1 << n):
        for j in range(n):
            if mask >> j & 1:
                continue
            with_j = vals[mask | 1 << j] - vals[mask]
            for l in range(n):
                if l == j or mask >> l & 1:
                    continue
                if (with_j < vals[mask | 1 << j | 1 << l] - vals[mask | 1 << l]
                        - SUBMODULAR_TOL):
                    return False
    return True
