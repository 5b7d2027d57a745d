"""The pass engine's invariants, checked from outside the runner.

``checked()`` replaces ``PassRunner.process`` for the duration of a
``with`` block and yields a ``Tally`` of the checks it ran. Every driver
feeds its runners through ``process``, so the wrapper sees every arrival
of both selection policies. It re-derives what the engine keeps cached
from the oracle's uncounted ``peek`` and the matroids' independence
tests, raises ``AssertionError`` on the first violation, and makes no
metered call, so a checked run decides and meters as a plain one.

* Before an arrival that is not an initial member: its exchange set,
  served from the state's class lists and its answers, is the one that
  scanning S slot by slot gives (``scan_pick``).
* After every arrival: S is feasible, the running evaluator holds f(S),
  the nu sum to f(S) - f(empty), with f(empty) from ``peek`` once per
  runner, every nu is at least alpha, and the runner's held-element
  count is |init | S|.
* After an accept: each cached nu is its definition, an eviction only
  raises a survivor's nu and a pure insertion changes none, and no
  member's single-element residual f(S) - f(S - t) exceeds its nu.
* After a buffered runner's draw: every member it re-screened survives
  exactly when f(y | S), from ``peek``, reaches
  alpha + (1 + beta) * fsum(nu over C_y), with C_y from the scan, unless
  f(y | S) lies within the tolerance of that bar.

Tolerances are ``NU_TOL`` relative to max(1, |f(S)|).

Run as a script, it checks whole runs on instance files:

    PYTHONPATH=src python tests/_checked.py FILE...

For each file it runs, on the identity stream, ``multipass_run`` (3
passes, the constraint's schedule) when the instance is monotone, and
``multipass_randomized`` (epsilon 0.5, one pass, exact offline solver)
when it is not. It prints one line of check counts per file and exits
non-zero on a violation.
"""

import math
import sys
import weakref
from contextlib import contextmanager

import matchstream as ms
from matchstream.matchoids import LOOP, scan_pick
from matchstream.streaming import NU_TOL
from _corpus import feasible_by_definition


class Tally:
    """The checks one ``checked`` block ran: ``exchanges`` exchange sets
    compared with the scan, ``elements`` arrivals and ``accepts`` accepts
    checked, and ``swept`` re-screened buffer members re-derived."""

    __slots__ = ("exchanges", "elements", "accepts", "swept")

    def __init__(self):
        self.exchanges = self.elements = self.accepts = self.swept = 0

    def __str__(self):
        return (f"{self.elements} element checks, {self.accepts} acceptance "
                f"checks, {self.exchanges} exchange sets, "
                f"{self.swept} swept members")


@contextmanager
def checked():
    """Run every ``PassRunner.process`` call in the block under the
    invariant checks; yields their ``Tally``.

    A subclass may hold a ``process`` of its own, such as the inherited
    one that a patch of the subclass's attribute leaves behind when it is
    undone, so each runner class that holds one gets its own wrapper."""
    tally = Tally()
    classes = [ms.PassRunner]
    for cls in classes:
        classes += cls.__subclasses__()
    engines = {cls: cls.__dict__["process"] for cls in classes
               if "process" in cls.__dict__}
    for cls, engine in engines.items():
        cls.process = _checked_process(engine, tally)
    try:
        yield tally
    finally:
        for cls, engine in engines.items():
            cls.process = engine


def _checked_process(engine, tally):
    """``engine``, a runner's ``process``, with the checks around it."""
    f_empty = weakref.WeakKeyDictionary()  # per runner

    def process(runner, x, single=None):
        if runner._finished:
            return engine(runner, x, single)
        state = runner.state
        if x not in runner.init_ids:
            _check_exchange(x, ms.exchange_set(x, state), _scan(runner, x))
            tally.exchanges += 1
        nu_before = dict(state.nu)
        evicted_before = set(runner.evicted)
        waiting_before = list(runner.waiting)
        accepts = runner.accept_count
        engine(runner, x, single)
        if runner not in f_empty:
            f_empty[runner] = runner.oracle.peek(())
        _check_element(runner, f_empty[runner])
        tally.elements += 1
        if runner.accept_count == accepts:
            return
        _check_accept(runner, nu_before, runner.evicted.keys() - evicted_before)
        tally.accepts += 1
        if isinstance(runner, ms.RandomizedPassRunner):
            (drawn,) = state.nu.keys() - nu_before.keys()
            swept = [y for y in waiting_before + [x] if y != drawn]
            _check_sweep(runner, swept)
            tally.swept += len(swept)

    return process


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


def _scan(runner, x):
    """x's exchange set by scanning S with independence tests, slot by
    slot; None when x is a loop."""
    nu = runner.state.nu
    picks = [scan_pick(m, x, nu) for m, _ in runner.mp.signature_of.get(x, ())]
    return None if LOOP in picks else frozenset(picks) - {None}


def _check_exchange(x, cx, fresh):
    if cx != fresh:
        raise AssertionError(f"cached exchange set {cx} for {x}, not {fresh}")


def _check_element(runner, f_empty):
    """Invariants that must hold after every processed element, where
    ``f_empty`` is f(empty)."""
    state, oracle, alpha = runner.state, runner.oracle, runner.alpha
    if not feasible_by_definition(runner.mp, state.members):
        raise AssertionError("solution left the feasible region")
    held, exact = state.evaluator.total, oracle.peek(state.members)
    tol = NU_TOL * max(1.0, abs(exact))
    if abs(held - exact) > tol:
        raise AssertionError(f"running evaluator holds {held}, f(S) is {exact}")
    total = math.fsum(state.nu.values())
    if abs(total - (state.f_s - f_empty)) > tol:
        raise AssertionError(
            f"incremental values sum to {total}, expected {state.f_s - f_empty}"
        )
    for e, v in state.nu.items():
        if v < alpha - tol:
            raise AssertionError(f"nu[{e}]={v} fell below alpha={alpha}")
    if len(runner.init_ids | state.members) != runner._held:
        raise AssertionError("the held-element count drifted from init and S")


def _check_accept(runner, nu_before, evicted_set):
    """Invariants re-derived from the oracle after an acceptance."""
    state, oracle = runner.state, runner.oracle
    full = oracle.peek(state.members)
    tol = NU_TOL * max(1.0, abs(full))
    for e, v in nu_by_definition(state, oracle).items():
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


def _check_sweep(runner, swept):
    """The buffer after a draw holds exactly the members of ``swept`` that
    clear the threshold against the new S, each with its exchange set,
    every set and bar taken here rather than from the engine.

    The engine decides exactly on the gain it measured, which may differ
    from the from-scratch gain here in the last bits, so a member whose
    gain lies within the tolerance of its bar may go either way."""
    state, oracle = runner.state, runner.oracle
    survivors = runner.waiting
    tol = NU_TOL * max(1.0, abs(state.f_s))
    for y in swept:
        cy = _scan(runner, y)
        _check_exchange(y, ms.exchange_set(y, state), cy)
        if y in survivors:
            _check_exchange(y, survivors[y][1], cy)
        gain = oracle.peek(state.members | {y}) - state.f_s
        bar = runner.alpha + (1.0 + runner.beta) * math.fsum([state.nu[c] for c in cy])
        if (y in survivors) != (gain >= bar) and abs(gain - bar) > tol:
            action = "kept" if y in survivors else "dropped"
            raise AssertionError(
                f"the sweep {action} {y} at gain {gain} against its bar {bar}")


def check_file(path):
    """Check the driver's run on one instance file; returns its line."""
    inst = ms.load_instance(path)
    oracle, mp = inst.build_oracle(), inst.build_matchoid()
    stream = ms.stream_order(inst.n)
    with checked() as tally:
        if inst.monotone:
            driver = "multipass_run"
            ms.multipass_run(oracle, mp, stream, ms.Schedule.for_matchoid(mp), 3)
        else:
            driver = "multipass_randomized"
            ms.multipass_randomized(oracle, mp, stream, 0.5, passes=1,
                                    offline_mode="exact")
    return f"{path}: {driver}: {tally}"


def main(paths):
    if not paths:
        print("usage: PYTHONPATH=src python tests/_checked.py FILE...",
              file=sys.stderr)
        return 2
    for path in paths:
        try:
            print(check_file(path))
        except AssertionError as exc:
            print(f"{path}: violation: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
