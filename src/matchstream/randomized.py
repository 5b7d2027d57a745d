"""Randomized buffered local search for non-negative objectives.

A pass is the streaming pass (``streaming.PassRunner``) with the
buffered selection policy. Arrivals that clear the exchange threshold
wait in a bounded buffer instead of entering the solution directly; the
buffer is one arrival-ordered dict from each waiting element to its
threshold data (gain and eviction set). When the buffer fills, one
element is drawn uniformly at random, exchanged into the solution, and
the remaining buffered elements are re-screened against the updated
solution; a buffer of one is the immediate policy.
What survives in the buffer at the end of the pass feeds an offline
solver (exact, or Sample Greedy), whose best output is a second candidate
solution; the run returns the better of the streaming and offline
solutions.

The additive threshold alpha needs a bracket on the unknown optimum
value. A dedicated first pass finds the best feasible singleton tau, and
one copy of the algorithm runs for every power of two in [tau, k*tau];
some copy's guess is within a factor two of the optimum. The copies share each
physical pass over the stream. Each copy keeps one record, a
``LambdaCopyResult``, that the driver fills pass by pass with the
finished runners; each runner meters its own oracle calls, so a copy's
counts are its own even though the copies share one oracle.
"""

import math
from random import Random

from .baselines import check_exact_budget, greedy_basis, max_feasible_subset, offline_greedy
from .errors import ConfigError, PreconditionError
from .matchoids import exchange_set
from .multipass import Schedule
# streaming_pass is unused here, but perfbench's tracer wraps this binding
from .streaming import PassRunner, streaming_pass, validate_stream

OFFLINE_MODES = ("exact", "heuristic")


class BufferState:
    """Bounded candidate pool: ``members`` maps each buffered element to
    its threshold data ``(gain, C_x)``, in stream-arrival order."""

    __slots__ = ("members", "peak")

    def __init__(self, members):
        self.members = dict(members)
        self.peak = len(self.members)

    def draw(self, rng):
        """Remove a uniformly random member; returns it with its data."""
        members = self.members
        x = list(members)[rng.randrange(len(members))]
        return x, members.pop(x)


class GuessGrid:
    """Powers of two bracketing the optimum value within a factor two."""

    __slots__ = ("tau", "lambdas")

    def __init__(self, tau, lambdas):
        self.tau = float(tau)
        self.lambdas = tuple(float(v) for v in lambdas)


def guess_grid(oracle, stream, rank_k):
    """One dedicated pass for the best singleton value tau, then the grid
    {2^i : tau <= 2^i <= k * tau}.

    All-zero singletons degenerate to a single zero guess (the run then
    proceeds with alpha = 0). When no power of two lands in the interval
    (only possible at rank 1), the largest power below tau still brackets
    the optimum and is used instead.
    """
    tau = 0.0
    for e in stream:
        tau = max(tau, oracle.value({e}))
    if tau <= 0.0:
        return GuessGrid(0.0, (0.0,))
    i = math.ceil(math.log2(tau))
    while 2.0 ** (i - 1) >= tau:
        i -= 1
    while 2.0 ** i < tau:
        i += 1
    lambdas = []
    while 2.0 ** i <= rank_k * tau:
        lambdas.append(2.0 ** i)
        i += 1
    if not lambdas:
        lambdas = [2.0 ** math.floor(math.log2(tau))]
    return GuessGrid(tau, lambdas)


class RandomizedPassRunner(PassRunner):
    """One randomized buffered pass, fed one element at a time.

    Feeding elements one by one lets several guess copies share a single
    physical pass over the stream. Only the selection policy differs from
    ``PassRunner``: an arrival that clears the threshold waits in a
    bounded buffer, ``buffer.members``, which maps it to its gain and
    eviction set in arrival order. When the buffer fills, one member is
    drawn uniformly at random and exchanged in, and every other member is
    re-screened against the new solution. The solution changes only at a
    draw, so the cached threshold data is current at every draw.
    ``finish`` solves offline over what is left in the buffer and returns
    the runner as the pass record, which adds to the ``PassRunner`` record
    the residual ``buffer``, its ``buffer_drops``, and the offline
    solution ``s_prime`` worth ``f_s_prime``.
    """

    def __init__(self, oracle, mp, s_init, alpha, beta, m, rng, *, debug=False):
        if rng is None:
            raise ConfigError("a seeded random generator is required")
        if m < 1:
            raise PreconditionError("buffer capacity must be at least 1")
        super().__init__(oracle, mp, s_init, alpha, beta, debug=debug)
        self.m = m
        self.rng = rng
        self.buffer = BufferState({})
        self.buffer_drops = 0

    @property
    def waiting(self):
        return self.buffer.members

    def _admit(self, x, gain, cx):
        members = self.buffer.members
        members[x] = (gain, cx)
        self.buffer.peak = max(self.buffer.peak, len(members))
        if len(members) == self.m:
            self._select_and_sweep()
        self._note_storage(False)

    def _select_and_sweep(self):
        x, (gain, cx) = self.buffer.draw(self.rng)
        self._accept(x, gain, cx)
        before_sweep = self.buffer.members
        survivors = {}
        for y in before_sweep:
            ok, gain, cx = self._threshold(y)
            if ok:
                survivors[y] = (gain, cx)
            else:
                self.buffer_drops += 1
        self.buffer.members = survivors
        if self.debug:
            # the sweep outcome may not depend on its iteration order
            replay = {y for y in reversed(before_sweep) if self._threshold_peek(y)}
            if replay != set(survivors):
                raise AssertionError("sweep outcome depended on iteration order")

    def _threshold_peek(self, x):
        """The threshold test again, with f(x | S) evaluated from scratch."""
        cx = exchange_set(self.mp, x, self.state)
        gain = self.oracle.peek(self.state.members | {x}) - self.state.f_s
        return gain >= self._bar(cx)

    def finish(self, offline_mode="exact"):
        """Close the pass: solve offline over the residual buffer and return
        the runner as its record. The call count includes the offline
        solve and the evaluation of its solution; the buffer keeps its
        members, each mapped to None in place of its threshold data."""
        if self._finished:
            raise PreconditionError("runner already finished")
        calls = self.oracle.calls
        s_prime = offline_solve(self.oracle, self.mp, self.buffer.members,
                                mode=offline_mode, rng=self.rng)
        self.f_s_prime = self.oracle.value(s_prime)
        self.s_prime = frozenset(s_prime)
        self.oracle_calls += self.oracle.calls - calls
        self.buffer.members = dict.fromkeys(self.buffer.members)
        return super().finish()


def randomized_pass(oracle, mp, stream, s_init, alpha, beta, m, rng, *,
                    offline_mode="exact", debug=False):
    """Run one randomized buffered pass over a full stream; returns the
    finished ``RandomizedPassRunner``."""
    order = validate_stream(stream, oracle.ground)
    runner = RandomizedPassRunner(oracle, mp, s_init, alpha, beta, m, rng,
                                  debug=debug)
    for x in order:
        runner.process(x)
    return runner.finish(offline_mode)


def offline_solve(oracle, mp, candidates, mode="exact", rng=None):
    """Best feasible subset of the candidate pool, exactly or by Sample Greedy.

    ``exact`` is ``max_feasible_subset``'s branch-and-bound, within its work
    budget. ``heuristic`` is Sample Greedy (Feldman, Harshaw and Karbasi
    2017): ``offline_greedy`` over the pool elements, in ascending id order,
    that a draw from ``rng`` keeps with probability 1/(p+1) (no ``rng`` is a
    ``ConfigError``); E f >= p OPT / (p+1)^2 for non-negative submodular f
    on a p-extendible system. A p-matchoid is one: for feasible A <= B and
    A + e, each of the at most p matroids M_l holding e has (B & M_l) + e
    independent or with one circuit, which meets B - A as (A & M_l) + e is
    independent, so B - Z + e is feasible for Z one such z_l per M_l.
    """
    if mode not in OFFLINE_MODES:
        raise ConfigError(f"unknown offline mode: {mode}")
    pool = sorted(set(candidates))
    if mode == "exact":
        return max_feasible_subset(oracle, mp, pool).opt_set
    if rng is None:
        raise ConfigError("the heuristic offline mode needs a seeded random generator")
    return offline_greedy(oracle, mp, [e for e in pool if rng.random() < 1.0 / (mp.p + 1)])


class LambdaCopyResult:
    """One guess copy of the randomized driver: its guess ``lam``, threshold
    ``alpha`` and draw seed, the streaming solution it chains across
    passes (``state``), its best offline solution (``s_prime``, worth
    ``f_s_prime``), and one trace row and one finished
    ``RandomizedPassRunner`` per pass. The copy's answer is the better of
    its two solutions, the streaming one on ties."""

    __slots__ = ("lam", "alpha", "seed", "rng", "state", "s_prime",
                 "f_s_prime", "pass_rows", "pass_results")

    def __init__(self, lam, alpha, seed):
        self.lam = lam
        self.alpha = alpha
        self.seed = seed
        self.rng = Random(seed)
        self.state = None
        self.s_prime = frozenset()
        self.f_s_prime = None
        self.pass_rows = []
        self.pass_results = []

    @property
    def f_s(self):
        return self.state.f_s

    @property
    def f_best(self):
        return max(self.f_s, self.f_s_prime)

    @property
    def solution(self):
        if self.f_s >= self.f_s_prime:
            return frozenset(self.state.members)
        return self.s_prime

    def add_pass(self, i, beta, gamma, runner):
        """Record pass ``i`` (a finished ``RandomizedPassRunner``): chain its
        solution, keep the better offline solution and append its row."""
        self.state = runner.state
        self.pass_results.append(runner)
        if self.f_s_prime is None:
            self.f_s_prime = runner.state.f_empty
        if runner.f_s_prime > self.f_s_prime:
            self.f_s_prime, self.s_prime = runner.f_s_prime, runner.s_prime
        self.pass_rows.append({
            **runner.row(i, beta, gamma),
            "lambda": self.lam,
            "m": runner.m,
            "buffer_peak": runner.buffer.peak,
            "f_S_prime": self.f_s_prime,
            "f_S_bar": max(runner.f_final, self.f_s_prime),
            "seed": self.seed,
        })


class RandomizedRunResult:
    __slots__ = ("solution", "f_solution", "copies", "grid", "passes_used",
                 "space_peak", "space_bound", "d", "m", "gamma_off")

    def __init__(self, solution, f_solution, copies, grid, passes_used,
                 space_peak, space_bound, d, m, gamma_off):
        self.solution = solution
        self.f_solution = f_solution
        self.copies = copies
        self.grid = grid
        self.passes_used = passes_used
        self.space_peak = space_peak
        self.space_bound = space_bound
        self.d = d
        self.m = m
        self.gamma_off = gamma_off


def multipass_randomized(oracle, mp, stream, epsilon, passes=None, seed=0, *,
                         offline_mode="exact", debug=False):
    """Full randomized driver for a non-negative objective.

    One copy runs per guess lambda with alpha = eps' * lambda / (2k) and
    buffer capacity ceil(4dk / eps'^2), eps' = epsilon / p. The copies
    consume the same physical passes (one element fanned out to each) and
    each chains its streaming solution across passes while keeping its
    best offline solution; the overall answer is the best solution of any
    copy (the first such copy), streaming solutions preferred on ties.
    ``Schedule.for_matchoid(mp)`` steps the passes (harmonic at p = 1,
    also for a direct sum of several matroids), and each pass row reports
    that schedule's worst-case factor.

    ``gamma_off`` reports the offline solver's factor; nothing in the run
    depends on it: 1 for the exact solver, and (p+1)^2/p, Sample Greedy's
    factor in expectation, for the heuristic, which samples from each copy's
    generator.

    An unknown offline mode raises ``ConfigError``, and an exact mode over
    the work budget ``SizeError``, before any oracle call: a residual pool
    holds at most min(n, m - 1) elements (a full buffer is drawn from at
    once), with a size cut p |its greedy basis| <= p^2 |G| for G the
    stream's greedy basis, even when a supplied ``rank`` understates k.
    """
    if not 0.0 < epsilon <= 0.5:
        raise PreconditionError("epsilon must lie in (0, 1/2]")
    if offline_mode not in OFFLINE_MODES:
        raise ConfigError(f"unknown offline mode: {offline_mode}")
    order = validate_stream(stream, oracle.ground)
    p = mp.p
    k = mp.rank_k
    eps_prime = epsilon / p
    schedule = Schedule.for_matchoid(mp)
    d = schedule.default_passes(epsilon) if passes is None else int(passes)
    if d < 1:
        raise PreconditionError("at least one pass is required")
    m = max(1, math.ceil(4.0 * d * k / eps_prime ** 2))
    if offline_mode == "exact":
        check_exact_budget(min(len(order), m - 1), p * p * len(greedy_basis(mp, order)))

    grid = guess_grid(oracle, [e for e in order if mp.feasible((e,))], k)
    copies = []
    for idx, lam in enumerate(grid.lambdas):
        alpha = eps_prime * lam / (2.0 * k) if (lam > 0.0 and k > 0) else 0.0
        copies.append(LambdaCopyResult(lam, alpha, seed ^ idx))

    space_peak = 0
    for i, (beta_i, gamma_i) in zip(range(1, d + 1), schedule.steps()):
        runners = [RandomizedPassRunner(oracle, mp, copy.state, copy.alpha,
                                        beta_i, m, copy.rng, debug=debug)
                   for copy in copies]
        for x in order:
            total_stored = 0
            for copy, runner in zip(copies, runners):
                runner.process(x)
                total_stored += runner.stored_current + len(copy.s_prime)
            space_peak = max(space_peak, total_stored)
        for copy, runner in zip(copies, runners):
            copy.add_pass(i, beta_i, gamma_i, runner.finish(offline_mode))

    best = max(copies, key=lambda copy: copy.f_best)
    return RandomizedRunResult(
        solution=best.solution, f_solution=best.f_best, copies=copies,
        grid=grid, passes_used=d + 1, space_peak=space_peak,
        space_bound=len(grid.lambdas) * (m + 3 * k), d=d, m=m,
        gamma_off=1.0 if offline_mode == "exact" else (p + 1) ** 2 / p,
    )
