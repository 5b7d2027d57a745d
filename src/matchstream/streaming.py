"""One pass of streaming local search with evictions.

The pass keeps an arrival-ordered solution S together with cached
incremental values: nu[e] is the marginal value of e against the members
of S that arrived before it. One insertion-ordered dict holds both: its
keys are S in arrival order and its values the cached nu. Arrival order
is a "pretend" order spanning the whole multi-pass run: elements kept
from the initial solution keep their old positions and precede
everything newly accepted, so the cached nu values stay exact across
passes. An exchange deletes the evicted keys and appends the arrival,
then re-walks the suffix from the first evicted position, unless f is
monotone and every evicted member has nu exactly 0: no survivor's nu
can then change, and the walk is skipped (``SolutionState.accept``).

For an arrival x, ``exchange_set`` picks one swap per matroid that x
would make dependent: the member of smallest nu among x's swap
candidates. A state serves one constraint, and it owns what
``exchange_set`` reads beside S: for each capacity class of that
constraint (see ``matchoids``), the sorted ``(nu, seq, member)`` entries
of exactly S's members in it, and the exchange sets answered per
signature. Two methods write S and nu: ``SolutionState._file``
appends a member and files its entry, and ``_unfile`` removes one. Each
costs O(log k) comparisons plus an O(k) list shift per slot of the
member's signature, and each forgets the answers. ``accept`` changes S and nu only through
them, and so does ``recompute_nu``, which refiles the walked members
from the first whose nu it changes. A ``copy`` files its members afresh.

A non-initial arrival x clears the threshold whenever

    f(x | S) >= alpha + (1 + beta) * sum of nu over its eviction set,

with the comparison made exactly (no tolerance). Evicted elements record
their incremental value at the moment of removal.

One runner, ``PassRunner``, drives every pass element by element; only
its selection policy varies. Under the immediate policy (this module's
``streaming_pass``) an arrival that clears the threshold is exchanged in
at once. Under the buffered policy (``randomized.RandomizedPassRunner``)
it waits in a bounded buffer until a random draw selects it. Each runner
meters its own oracle calls and skipped walks, and the finished runner
is the pass's record. The runner checks none of the invariants above
itself; the tests check them from outside it, around ``process``
(``tests/_checked.py``).
"""

import math
from bisect import bisect_left, insort
from collections import defaultdict

from .errors import DomainError, PreconditionError, integers
from .matchoids import LOOP, scan_pick

# the threshold screen's margin, relative to 1 + |f(S)|
NU_TOL = 1e-9


class SolutionState:
    """Arrival-ordered solution with cached incremental values, and the
    exchange rule's view of it under one constraint.

    ``nu`` maps each member to its incremental value, and its key order is
    the arrival order over the whole run. ``evaluator``, the oracle's
    running evaluator of S (see ``objectives``), holds f(S) as ``f_s``.
    A pass cannot start from a hand-built state.

    ``signature_of`` and ``capacity_of`` are the tables of ``mp``, the
    constraint the state serves (``PMatchoid``), so the state calls no
    matroid method. ``entry_of`` maps each member to its entry
    ``(nu, seq, member)``, where seq is a filing number, increasing in
    the key order of ``nu``. ``classes`` maps each ``(matroid, class)``
    slot with a non-None key to the entries of exactly S's members in
    that class, kept sorted, so the first entry is the member with the
    smallest nu, the earliest arrival among equals. ``answers`` maps a
    signature whose keys are all non-None to the exchange set
    ``exchange_set`` found for it. ``_file`` and ``_unfile`` are the
    only writers of ``nu`` and the entries, and each forgets the answers.
    """

    __slots__ = ("nu", "evaluator", "signature_of", "capacity_of", "entry_of",
                 "classes", "answers", "next_seq")

    def __init__(self, mp, nu, evaluator=None):
        self.nu = {}
        self.evaluator = evaluator
        self.signature_of = mp.signature_of
        self.capacity_of = mp.capacity_of
        self.entry_of = {}
        self.classes = defaultdict(list)
        self.answers = {}
        self.next_seq = 0
        for e, v in nu.items():
            self._file(e, v)

    @classmethod
    def empty(cls, oracle, mp):
        return cls(mp, {}, oracle.running(()))

    @property
    def f_s(self):
        """f(S), as S's running evaluator holds it."""
        return self.evaluator.total

    @property
    def members(self):
        """S, as a live view of ``nu``'s keys."""
        return self.nu.keys()

    @property
    def order(self):
        """S in arrival order, as a new list."""
        return list(self.nu)

    def copy(self, mp):
        """A copy with its own running evaluator, its members filed afresh
        under ``mp``, the constraint the copy serves."""
        return SolutionState(mp, self.nu, self.evaluator.copy())

    def _file(self, e, v):
        """Append e to S with nu = v and file its entry after every filed
        one, as S's new last member or a walk's next refile: per slot,
        O(log k) comparisons and an O(k) list shift."""
        self.answers.clear()
        self.nu[e] = v
        entry = self.entry_of[e] = (v, self.next_seq, e)
        self.next_seq += 1
        for slot in self.signature_of.get(e, ()):
            if slot[1] is not None:
                insort(self.classes[slot], entry)

    def _unfile(self, e):
        """Remove e, which leaves S or is refiled, and return its nu: per
        slot, O(log k) comparisons find its entry and an O(k) list shift
        deletes it."""
        self.answers.clear()
        entry = self.entry_of.pop(e)
        for slot in self.signature_of.get(e, ()):
            if slot[1] is not None:
                entries = self.classes[slot]
                del entries[bisect_left(entries, entry)]
        return self.nu.pop(e)

    def accept(self, x, evict, oracle, gain):
        """Apply S <- S \\ evict + x and refresh the nu cache, where ``gain``
        is f(x | S), which the caller has measured. An insertion appends
        x with nu = gain; an exchange unfiles the evicted members, appends
        x and re-walks nu from the first evicted position, unless it can
        skip the walk.

        The walk is skipped when f is monotone and every evicted member
        has nu exactly 0. Add the evicted members back to S \\ evict in
        arrival order: each has marginal at most its nu = 0 by
        submodularity and at least 0 by monotonicity. So every survivor's
        prefix value is unchanged, f(S \\ evict) = f(S), and by the same
        two facts f(x | S \\ evict) = f(x | S) = ``gain``. The evaluator
        forgets the evicted members (see ``RunningValue.forget``) and
        takes x unmetered, as an insertion does.

        Returns the evicted elements mapped to their incremental value at
        removal, and whether the walk was skipped.
        """
        nu = self.nu
        walk = bool(evict) and not (
            oracle.monotone and all(nu[c] == 0.0 for c in evict))
        if walk:
            cut = next(i for i, e in enumerate(nu) if e in evict)
        chi = {c: self._unfile(c) for c in evict}
        self._file(x, gain)  # exact unless a walk rewrites the suffix
        if walk:
            recompute_nu(self, oracle, cut)
            return chi, False
        self.evaluator.forget(evict)
        self.evaluator.add(x, meter=False)
        return chi, bool(evict)


def recompute_nu(state, oracle, start_pos=0):
    """Recompute cached incremental values from ``start_pos`` onward.

    After an exchange, only members at or after the first eviction
    position have a changed prefix. A running evaluator of the unchanged
    prefix walks the suffix, one metered call per walked prefix, and then
    serves as S's evaluator. From the first member whose nu it changes,
    the walk refiles each, in arrival order, so the arrival order
    survives; the entries before it stay exact and ahead in seq order.
    """
    nu = state.nu
    order = list(nu)
    evaluator = oracle.running(order[:start_pos])
    running = evaluator.total
    refile = False
    for e in order[start_pos:]:
        nxt = evaluator.add(e)
        v = nxt - running
        running = nxt
        if refile or v != nu[e]:
            refile = True
            state._unfile(e)
            state._file(e, v)
    state.evaluator = evaluator
    return state


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

    A slot with a non-None key is a capacity class, answered in O(1)
    from the length and first entry of the state's sorted list for it:
    no pick while S holds fewer members than the capacity, else the
    first entry's member, and a loop for a full class with no member
    (capacity 0). A slot keyed None is searched by ``scan_pick``. The
    answer is a function of (the state's constraint, x, S, nu) alone,
    and by the ``swap_classes`` contract it depends on x only through
    x's signature once every key in it is non-None; the state keeps such
    an answer in its ``answers`` under the signature until S or nu
    changes, so a full buffer under one uniform matroid costs one search
    per state, not one per element. Loops and the
    ``InfeasibilityError`` path are not cached.
    """
    nu = state.nu
    if x in nu:
        raise PreconditionError(f"element {x} is already in the solution")
    signature = state.signature_of.get(x, ())
    answer = state.answers.get(signature)
    if answer is not None:
        return answer
    shared = True
    chosen = set()
    for slot in signature:
        matroid, key = slot
        if key is None:
            shared = False
            pick = scan_pick(matroid, x, nu)
            if pick is LOOP:
                return None
        else:
            entries = state.classes[slot]
            if len(entries) < state.capacity_of[slot]:
                continue
            if not entries:
                return None  # a full class of capacity 0: x is a loop
            pick = entries[0][2]
        if pick is not None:
            chosen.add(pick)
    answer = frozenset(chosen)
    if shared:
        state.answers[signature] = answer
    return answer


def validate_stream(stream, ground):
    order = integers(stream, "stream elements", DomainError)
    seen = set(order)
    if len(seen) != len(order):
        raise PreconditionError("stream presents an element more than once")
    if not seen <= ground:
        raise DomainError(
            f"stream elements {sorted(seen - ground)} are outside the ground set"
        )
    if seen != ground:
        raise PreconditionError("stream must present every ground element exactly once")
    return order


class PassRunner:
    """Element-at-a-time driver for one pass, with the immediate policy.

    The runner owns what every pass does per arrival: arrivals that are
    already in the initial solution are discarded, every other arrival x
    meets the exchange threshold, and the runner keeps the storage count,
    the pass counters and the trace records. It also meters its own
    oracle calls, so runners sharing one oracle each report theirs;
    building the starting solution is not counted. Only the selection
    policy for an arrival that clears the threshold varies.
    This class exchanges it in at once: a buffer of one whose only member
    is drawn as soon as it arrives. ``randomized.RandomizedPassRunner``
    holds it in a bounded buffer and draws at random instead.

    ``trace`` is any object with an ``append`` method (a list will do);
    it gets one record per processed element.

    ``oracle`` and ``mp`` must have one ground set. The pass starts from a
    copy of ``s_init``, a finished pass's state on ``oracle`` that is
    feasible under ``mp`` and whose evaluator holds exactly its members,
    or from the empty solution, a state serving ``mp``.

    ``finish`` closes the pass and returns the runner itself as the pass
    record: its ``state``, the acceptance set ``accepted`` (initial
    solution included), the eviction values ``evicted``, the objective
    endpoints ``f_init`` and ``f_final``, the counters, and the meters.
    ``oracle_calls`` counts the metered calls of the pass's arrivals and
    its finish, not the building of its starting solution;
    ``shortcut_exchanges`` counts the exchanges that skipped the nu walk
    and ``zero_gain_accepts`` the accepts whose measured gain was exactly 0;
    ``screened`` counts the threshold tests that a driver's shared
    f(x | empty) answered with no call of the runner's own (see
    ``_threshold``; 0 when no driver passes one). A finished runner
    refuses further arrivals and a second finish, so a stored pass does
    not change.
    """

    # admitted arrivals still waiting for selection
    waiting = ()

    def __init__(self, oracle, mp, s_init, alpha, beta, *, trace=None):
        if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
            raise PreconditionError("alpha and beta must be finite and non-negative")
        if oracle.ground != mp.ground:
            raise PreconditionError("objective and constraint ground sets differ")
        if s_init is None:
            self.state = SolutionState.empty(oracle, mp)
        else:
            if not mp.feasible(s_init.members):
                raise PreconditionError("initial solution is infeasible")
            if getattr(s_init.evaluator, "oracle", None) is not oracle:
                raise PreconditionError("initial solution has no evaluator on this oracle")
            if s_init.evaluator.members != s_init.members:
                raise PreconditionError("initial solution's evaluator is over another set")
            self.state = s_init.copy(mp)
        self.oracle = oracle
        self.mp = mp
        self.alpha = alpha
        self.beta = beta
        self.trace = trace
        self.oracle_calls = 0
        self.init_ids = frozenset(self.state.members)
        self.accepted = set(self.init_ids)
        self.evicted = {}
        self.f_init = self.state.f_s
        self.f_final = None  # set by finish
        self.accept_count = self.reject_count = self.discard_count = 0
        self.shortcut_exchanges = self.zero_gain_accepts = self.screened = 0
        self._held = len(self.init_ids)  # the elements of init_ids | S
        self.stored_current = self.stored_peak = self._held
        self._finished = False

    def process(self, x, single=None):
        """Discard, reject or admit one arrival.

        ``single``, when given, is f(x | empty) as a driver measured it
        once for every runner it feeds; ``_threshold`` uses it to skip
        measurements whose outcome it already decides.

        The storage count is the elements held: the initial solution and
        S, which ``_held`` counts, the waiting arrivals, and x unless it
        is an initial member. A validated stream never repeats an
        element, so the last two lie outside the first two.
        """
        if self._finished:
            raise PreconditionError("runner already finished")
        oracle = self.oracle
        calls = oracle._calls
        arriving = x not in self.init_ids
        size = self._held + len(self.waiting) + arriving
        self.stored_current = size
        if size > self.stored_peak:
            self.stored_peak = size
        if not arriving:
            self.discard_count += 1
            if self.trace is not None:
                _trace_write(self.trace, x, "discard", (), self.state)
        else:
            ok, gain, cx = self._threshold(x, single)
            if ok:
                self._admit(x, gain, cx)
            else:
                self.reject_count += 1
                if self.trace is not None:
                    _trace_write(self.trace, x, "reject", cx, self.state)
        self.oracle_calls += oracle._calls - calls

    def finish(self):
        """Close the pass and return the runner as its record."""
        if self._finished:
            raise PreconditionError("runner already finished")
        self._finished = True
        self.accepted = frozenset(self.accepted)
        self.f_final = self.state.f_s
        return self

    @property
    def solution(self):
        return frozenset(self.state.members)

    @property
    def eviction_sum(self):
        return math.fsum(self.evicted.values())

    @property
    def delta(self):
        """Progress ratio f(S_{i-1}) / f(S_i) of the pass; 1 when f(S_i)
        is not positive."""
        return self.f_init / self.f_final if self.f_final > 0.0 else 1.0

    def row(self, i, gamma):
        """The trace columns every driver writes for this finished pass, as
        pass ``i`` with the runner's step ``beta`` and factor ``gamma``."""
        return {"pass": i, "beta": self.beta, "f_S": self.f_final,
                "delta": self.delta, "gamma_certified": gamma,
                "accepts": self.accept_count, "evictions": len(self.evicted),
                "oracle_calls": self.oracle_calls,
                "stored_elements": self.stored_peak}

    def _threshold(self, x, single=None):
        """(cleared, f(x | S), C_x) for x; a loop fails with no oracle call.

        Given ``single`` = f(x | empty), measured once per arrival on an
        empty running evaluator of a submodular f, the test may skip its
        own call. When S is empty, f(x | S) is ``single``, the same
        ``value_with - total`` arithmetic on an empty evaluator. Else
        submodularity gives f(x | S) <= ``single``, so a ``single`` below
        the bar by more than a rounding margin rejects x unmeasured (its
        gain is None); the margin only decides whether to measure, and
        every accept is the exact ``>=`` on a measured gain. Each test
        so answered counts in ``screened``.
        """
        state = self.state
        cx = exchange_set(x, state)
        if cx is None:
            return False, None, ()
        bar = self._bar(cx)
        evaluator = state.evaluator
        total = evaluator.total
        if single is not None:
            if not state.nu:
                self.screened += 1
                return single >= bar, single, cx
            if single < bar - NU_TOL * (1.0 + abs(total)):
                self.screened += 1
                return False, None, cx
        gain = evaluator.value_with(x) - total
        return gain >= bar, gain, cx

    def _bar(self, cx):
        """The bar f(x | S) must reach: alpha + (1 + beta) * sum of nu
        over C_x, the sum taken by ``math.fsum``. For zero or one term the
        sum is written out with fsum's result: 0.0, and the term plus 0.0,
        as fsum([-0.0]) is 0.0."""
        if not cx:
            total = 0.0
        elif len(cx) == 1:
            (c,) = cx
            total = self.state.nu[c] + 0.0
        else:
            nu = self.state.nu
            total = math.fsum([nu[c] for c in cx])
        return self.alpha + (1.0 + self.beta) * total

    def _admit(self, x, gain, cx):
        """Selection policy for an arrival that cleared the threshold."""
        self._accept(x, gain, cx)

    def _accept(self, x, gain, cx):
        """S <- S - C_x + x, where ``gain`` is the current f(x | S)."""
        state = self.state
        chi, skipped = state.accept(x, cx, self.oracle, gain)
        self.evicted.update(chi)
        self.shortcut_exchanges += skipped
        self.zero_gain_accepts += gain == 0.0
        self._held += 1 - sum(c not in self.init_ids for c in chi)
        self.accepted.add(x)
        self.accept_count += 1
        if self.trace is not None:
            _trace_write(self.trace, x, "accept", cx, state)


def streaming_pass(oracle, mp, stream, s_init=None, alpha=0.0, beta=1.0, *,
                   trace=None):
    """Process one pass of the stream against an optional initial solution
    with the immediate policy; returns the finished ``PassRunner``."""
    order = validate_stream(stream, oracle.ground)
    runner = PassRunner(oracle, mp, s_init, alpha, beta, trace=trace)
    for x in order:
        runner.process(x)
    return runner.finish()


def _trace_write(sink, elem, action, cx, state):
    record = {
        "elem": elem,
        "action": action,
        "C_x": sorted(cx),
        "f_S": state.f_s,
        "sum_nu": math.fsum(state.nu.values()),
    }
    sink.append(record)

