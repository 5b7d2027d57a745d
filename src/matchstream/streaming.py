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

The state also caches ``exchange_set``'s per-class swap picks
(``SolutionState.picks``, see ``matchoids``). Only ``accept`` and the
public ``recompute_nu`` change S or nu, and both replace the cache with
an empty one; a new state and a ``copy`` start empty.

A non-initial arrival x clears the threshold whenever

    f(x | S) >= alpha + (1 + beta) * sum of nu over its eviction set,

with the comparison made exactly (no tolerance). Evicted elements record
their incremental value at the moment of removal.

One runner, ``PassRunner``, drives every pass element by element; only
its selection policy varies. Under the immediate policy (this module's
``streaming_pass``) an arrival that clears the threshold is exchanged in
at once. Under the buffered policy (``randomized.RandomizedPassRunner``)
it waits in a bounded buffer until a random draw selects it. Each runner
meters its own oracle calls, debug checks and skipped walks, and the
finished runner is the pass's record.
"""

import math

from .errors import DomainError, PreconditionError
from .matchoids import exchange_set

NU_TOL = 1e-9  # the debug checks' tolerance, relative to max(1, |f(S)|)


class SolutionState:
    """Arrival-ordered solution with cached incremental values.

    ``nu`` maps each member to its incremental value, and its key order is
    the arrival order over the whole run. ``evaluator``, the oracle's
    running evaluator of S (see ``objectives``), holds f(S) as ``f_s``;
    ``f_empty`` is f(empty). A pass cannot start from a hand-built state.
    ``picks`` is ``exchange_set``'s cache of swap picks, keyed by
    ``(matroid, swap class)``; it holds at most one entry per class and
    is emptied whenever S or nu changes.
    """

    __slots__ = ("nu", "f_empty", "evaluator", "picks")

    def __init__(self, nu, f_empty, evaluator=None):
        self.nu = dict(nu)
        self.f_empty = float(f_empty)
        self.evaluator = evaluator
        self.picks = {}

    @classmethod
    def empty(cls, oracle):
        evaluator = oracle.running(())
        return cls({}, evaluator.total, evaluator)

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

    def copy(self):
        """A copy with its own copy of the running evaluator."""
        return SolutionState(self.nu, self.f_empty, self.evaluator.copy())

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

        Returns the evicted elements mapped to their incremental value at
        removal, and whether the walk was skipped.
        """
        self.picks = {}
        nu = self.nu
        if not evict:
            self.evaluator.add(x, meter=False)
            nu[x] = gain
            return {}, False
        if oracle.monotone and all(nu[c] == 0.0 for c in evict):
            chi = {c: nu.pop(c) for c in evict}
            nu[x] = gain
            self.evaluator.forget(evict)
            self.evaluator.add(x, meter=False)
            return chi, True
        cut = next(i for i, e in enumerate(nu) if e in evict)
        chi = {c: nu.pop(c) for c in evict}
        nu[x] = gain  # a placeholder until recompute_nu walks the suffix
        recompute_nu(self, oracle, cut)
        return chi, False


def recompute_nu(state, oracle, start_pos=0):
    """Recompute cached incremental values from ``start_pos`` onward.

    After an exchange, only members at or after the first eviction
    position have a changed prefix. A running evaluator of the unchanged
    prefix walks the suffix, one metered call per walked prefix, and then
    serves as S's evaluator. The state's swap picks are dropped.
    """
    state.picks = {}
    order = list(state.nu)
    evaluator = oracle.running(order[:start_pos])
    running = evaluator.total
    for e in order[start_pos:]:
        nxt = evaluator.add(e)
        state.nu[e] = nxt - running
        running = nxt
    state.evaluator = evaluator
    return state


def nu_by_definition(state, oracle):
    """Incremental values straight from the definition (uncounted)."""
    out = {}
    prefix = set()
    running = oracle.peek(prefix)
    for e in state.nu:
        prefix.add(e)
        nxt = oracle.peek(prefix)
        out[e] = nxt - running
        running = nxt
    return out


def validate_stream(stream, ground):
    order = [int(x) for x in stream]
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
    the pass counters, the trace records and the debug checks. It also
    meters its own oracle calls, so runners sharing one oracle each report
    theirs; building the starting solution is not counted. Only the
    selection policy for an arrival that clears the threshold varies.
    This class exchanges it in at once: a buffer of one whose only member
    is drawn as soon as it arrives. ``randomized.RandomizedPassRunner``
    holds it in a bounded buffer and draws at random instead.

    ``trace`` is any object with an ``append`` method (a list will do);
    it gets one record per processed element. With ``debug``
    the solution invariants are re-derived from the oracle after every
    processed element (uncounted evaluations).

    The pass starts from a copy of ``s_init``, a finished pass's state on
    ``oracle`` that is feasible under ``mp`` and whose evaluator holds
    exactly its members, or from the empty solution.

    ``finish`` closes the pass and returns the runner itself as the pass
    record: its ``state``, the acceptance set ``accepted`` (initial
    solution included), the eviction values ``evicted``, the objective
    endpoints ``f_init`` and ``f_final``, the counters, and the meters.
    ``oracle_calls`` counts the metered calls of the pass's arrivals and
    its finish, not the building of its starting solution;
    ``shortcut_exchanges`` counts the exchanges that skipped the nu walk
    and ``zero_gain_accepts`` the accepts whose measured gain was exactly 0;
    ``element_checks`` and ``accept_checks`` count the debug checks (zero
    without debug). A finished runner refuses further arrivals and a
    second finish, so a stored pass does not change.
    """

    # admitted arrivals still waiting for selection
    waiting = ()

    def __init__(self, oracle, mp, s_init, alpha, beta, *, debug=False,
                 trace=None):
        if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
            raise PreconditionError("alpha and beta must be finite and non-negative")
        if s_init is None:
            self.state = SolutionState.empty(oracle)
        else:
            if not mp.feasible(s_init.members):
                raise PreconditionError("initial solution is infeasible")
            if getattr(s_init.evaluator, "oracle", None) is not oracle:
                raise PreconditionError("initial solution has no evaluator on this oracle")
            if s_init.evaluator.members != s_init.members:
                raise PreconditionError("initial solution's evaluator is over another set")
            self.state = s_init.copy()
        self.oracle = oracle
        self.mp = mp
        self.alpha = alpha
        self.beta = beta
        self.debug = debug
        self.trace = trace
        self.oracle_calls = self.element_checks = self.accept_checks = 0
        self.init_ids = frozenset(self.state.members)
        self.accepted = set(self.init_ids)
        self.evicted = {}
        self.f_init = self.state.f_s
        self.f_final = None  # set by finish
        self.accept_count = self.reject_count = self.discard_count = 0
        self.shortcut_exchanges = self.zero_gain_accepts = 0
        self._fresh_members = 0  # members of S outside init_ids
        self.stored_current = self.stored_peak = len(self.init_ids)
        self._finished = False

    def process(self, x):
        """Discard, reject or admit one arrival."""
        if self._finished:
            raise PreconditionError("runner already finished")
        calls = self.oracle.calls
        state = self.state
        self._note_storage(x not in self.init_ids)
        if x in self.init_ids:
            self.discard_count += 1
            _trace_write(self.trace, x, "discard", (), state)
        else:
            ok, gain, cx = self._threshold(x)
            if ok:
                self._admit(x, gain, cx)
            else:
                self.reject_count += 1
                _trace_write(self.trace, x, "reject", cx, state)
        if self.debug:
            _check_element(state, self.oracle, self.mp, self.alpha)
            fresh = len(self.init_ids | state.members) - len(self.init_ids)
            if fresh != self._fresh_members:
                raise AssertionError("the count of new members drifted from S")
            self.element_checks += 1
        self.oracle_calls += self.oracle.calls - calls

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

    def row(self, i, beta, gamma):
        """The trace columns every driver writes for this finished pass, as
        pass ``i`` with step ``beta`` and factor ``gamma``."""
        return {"pass": i, "beta": beta, "f_S": self.f_final,
                "delta": self.delta, "gamma_certified": gamma,
                "accepts": self.accept_count, "evictions": len(self.evicted),
                "oracle_calls": self.oracle_calls,
                "stored_elements": self.stored_peak}

    def _threshold(self, x):
        """(cleared, f(x | S), C_x) for x; a loop fails with no oracle call."""
        state = self.state
        cx = exchange_set(self.mp, x, state)
        if self.debug:
            fresh = exchange_set(self.mp, x, SolutionState(state.nu, state.f_empty))
            if fresh != cx:
                raise AssertionError(f"cached exchange set {cx} for {x}, not {fresh}")
        if cx is None:
            return False, None, ()
        evaluator = state.evaluator
        gain = evaluator.value_with(x) - evaluator.total
        return gain >= self._bar(cx), gain, cx

    def _bar(self, cx):
        """The bar f(x | S) must reach: alpha + (1 + beta) * sum of nu
        over C_x."""
        return self.alpha + (1.0 + self.beta) * math.fsum(self.state.nu[c] for c in cx)

    def _admit(self, x, gain, cx):
        """Selection policy for an arrival that cleared the threshold."""
        self._accept(x, gain, cx)

    def _accept(self, x, gain, cx):
        """S <- S - C_x + x, where ``gain`` is the current f(x | S)."""
        state = self.state
        nu_before = dict(state.nu) if self.debug else None
        chi, skipped = state.accept(x, cx, self.oracle, gain)
        self.evicted.update(chi)
        self.shortcut_exchanges += skipped
        self.zero_gain_accepts += gain == 0.0
        self._fresh_members += 1 - sum(c not in self.init_ids for c in chi)
        self.accepted.add(x)
        self.accept_count += 1
        _trace_write(self.trace, x, "accept", cx, state)
        if self.debug:
            _check_accept(state, self.oracle, nu_before, cx)
            self.accept_checks += 1

    def _note_storage(self, arriving):
        """Count the elements held: the initial solution and S, the waiting
        arrivals, and the arrival in hand when ``arriving``. A validated
        stream never repeats an element, so the last two lie outside the
        first, as do the members of S that ``_fresh_members`` counts."""
        size = (len(self.init_ids) + self._fresh_members + len(self.waiting)
                + arriving)
        self.stored_current = size
        if size > self.stored_peak:
            self.stored_peak = size


def streaming_pass(oracle, mp, stream, s_init=None, alpha=0.0, beta=1.0, *,
                   debug=False, trace=None):
    """Process one pass of the stream against an optional initial solution
    with the immediate policy; returns the finished ``PassRunner``."""
    order = validate_stream(stream, oracle.ground)
    runner = PassRunner(oracle, mp, s_init, alpha, beta, debug=debug,
                        trace=trace)
    for x in order:
        runner.process(x)
    return runner.finish()


def _trace_write(sink, elem, action, cx, state):
    if sink is None:
        return
    record = {
        "elem": elem,
        "action": action,
        "C_x": sorted(cx),
        "f_S": state.f_s,
        "sum_nu": math.fsum(state.nu.values()),
    }
    sink.append(record)


def _check_element(state, oracle, mp, alpha):
    """Invariants that must hold after every processed element."""
    if not mp.feasible(state.members):
        raise AssertionError("solution left the feasible region")
    held, exact = state.evaluator.total, oracle.peek(state.members)
    tol = NU_TOL * max(1.0, abs(exact))
    if abs(held - exact) > tol:
        raise AssertionError(f"running evaluator holds {held}, f(S) is {exact}")
    total = math.fsum(state.nu.values())
    if abs(total - (state.f_s - state.f_empty)) > tol:
        raise AssertionError(
            f"incremental values sum to {total}, expected {state.f_s - state.f_empty}"
        )
    for e, v in state.nu.items():
        if v < alpha - tol:
            raise AssertionError(f"nu[{e}]={v} fell below alpha={alpha}")


def _check_accept(state, oracle, nu_before, evicted_set):
    """Extra invariants re-derived from the oracle after an acceptance."""
    full = oracle.peek(state.members)
    tol = NU_TOL * max(1.0, abs(full))
    exact = nu_by_definition(state, oracle)
    for e, v in exact.items():
        if abs(v - state.nu[e]) > tol:
            raise AssertionError(f"cached nu[{e}]={state.nu[e]} drifted from {v}")
    for e, old in nu_before.items():
        if e not in state.members or e in evicted_set:
            continue
        if evicted_set:
            if state.nu[e] < old - tol:
                raise AssertionError("an eviction decreased a survivor's nu")
        elif abs(state.nu[e] - old) > tol:
            raise AssertionError("a pure insertion changed a survivor's nu")
    for t in state.nu:
        if full - oracle.peek(state.members - {t}) > state.nu[t] + tol:
            raise AssertionError("single-element residual exceeded its nu")
