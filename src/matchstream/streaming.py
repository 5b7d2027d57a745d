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

A state serves one constraint. Beside S it keeps what ``exchange_set``
needs (see ``matchoids``): a ``ClassIndex`` of S's members per capacity
class under that constraint, which also holds the answers per
signature. The state is built with its index, and a ``copy`` builds its
own: every accept files its evictions and x, each in O(log k)
comparisons plus an O(k) list shift per slot of its signature, and a
walk refiles its members from the first whose nu it changes. Only
``accept`` and ``recompute_nu`` change S or nu.

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

from .errors import DomainError, PreconditionError, integers
from .matchoids import ClassIndex, exchange_set

# the threshold screen's margin, relative to 1 + |f(S)|
NU_TOL = 1e-9


class SolutionState:
    """Arrival-ordered solution with cached incremental values.

    ``nu`` maps each member to its incremental value, and its key order is
    the arrival order over the whole run. ``evaluator``, the oracle's
    running evaluator of S (see ``objectives``), holds f(S) as ``f_s``;
    ``f_empty`` is f(empty). A pass cannot start from a hand-built state.
    ``index`` is ``exchange_set``'s ``ClassIndex`` of S under the
    constraint ``mp``, built with the state; ``accept`` and
    ``recompute_nu`` keep it up to date. It also holds ``exchange_set``'s
    answers, so no other cache needs resetting when S or nu changes.
    """

    __slots__ = ("nu", "f_empty", "evaluator", "index")

    def __init__(self, mp, nu, f_empty, evaluator=None):
        self.nu = dict(nu)
        self.f_empty = float(f_empty)
        self.evaluator = evaluator
        self.index = ClassIndex(mp, self.nu)

    @classmethod
    def empty(cls, oracle, mp):
        evaluator = oracle.running(())
        return cls(mp, {}, evaluator.total, evaluator)

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
        """A copy with its own running evaluator, and its own class index
        under ``mp``, the constraint the copy serves."""
        return SolutionState(mp, self.nu, self.f_empty, self.evaluator.copy())

    def accept(self, x, evict, oracle, gain):
        """Apply S <- S \\ evict + x and refresh the nu cache, where ``gain``
        is f(x | S), which the caller has measured. An insertion appends
        x with nu = gain; an exchange deletes the evicted keys, appends x
        and re-walks nu from the first evicted position, unless it can
        skip the walk.

        The walk is skipped when f is monotone and every evicted member
        has nu exactly 0. Add the evicted members back to S \\ evict in
        arrival order: each has marginal at most its nu = 0 by
        submodularity and at least 0 by monotonicity. So every survivor's
        prefix value is unchanged, f(S \\ evict) = f(S), and by the same
        two facts f(x | S \\ evict) = f(x | S) = ``gain``. The evaluator
        forgets the evicted members (see ``RunningValue.forget``) and
        takes x unmetered, as an insertion does.

        Every accept files its change in the class index the same way:
        the evicted members leave it, and x joins with ``gain``.

        Returns the evicted elements mapped to their incremental value at
        removal, and whether the walk was skipped.
        """
        nu = self.nu
        walk = bool(evict) and not (
            oracle.monotone and all(nu[c] == 0.0 for c in evict))
        if walk:
            cut = next(i for i, e in enumerate(nu) if e in evict)
        chi = {c: nu.pop(c) for c in evict}
        nu[x] = gain  # exact unless a walk rewrites the suffix
        index = self.index
        for c in chi:
            index.remove(c)
        index.add(x, gain)
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
    the walk refiles each in the state's class index, in arrival order;
    the entries before it stay exact and ahead in seq order.
    """
    order = list(state.nu)
    evaluator = oracle.running(order[:start_pos])
    running = evaluator.total
    index = state.index
    refile = False
    for e in order[start_pos:]:
        nxt = evaluator.add(e)
        v = nxt - running
        running = nxt
        if refile or v != state.nu[e]:
            refile = True
            index.remove(e)
            index.add(e, v)
        state.nu[e] = v
    state.evaluator = evaluator
    return state


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
    or from the empty solution, with its class index built under ``mp``.

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

