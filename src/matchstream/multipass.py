"""Multi-pass driver with step-size schedules and online certificates.

Each pass i runs streaming local search with its own beta, which
``Schedule.steps`` alone yields, with the worst-case factor;
``Schedule.for_matchoid`` chooses the kind from p. There are three kinds:

* ``matroid-harmonic``: beta_i = 1/i, factor 2(1 + 1/i) after pass i for
  a matroid constraint (p = 1);
* ``matchoid-recurrence``: beta_1 = 1 and
  beta_i = (g - 1 - p) / (g - 1 + p) where g follows the recurrence
  g_1 = 4p, g_i = 4p g(g - 1) / (g - 1 + p)^2, giving factor
  p + 1 + 4p/i after pass i for any p-matchoid;
* ``fixed``: the same finite beta >= 0 every pass, with no worst-case
  factor (it reads inf).

Independently of the schedule, the driver measures each pass's progress
ratio delta_i = f(S_{i-1}) / f(S_i) and certifies, online, that

    f(OPT) <= min{gamma_{i-1} * delta_i,
                  (p/beta_i + p - 1)(1 - delta_i) + p + beta_i p + 1}
              * f(S_i) + k * alpha.

The certified factor is available after every pass, so a run can stop
early once it reaches a target.
"""

import math
from itertools import count

from .errors import ConfigError, PreconditionError, integer, real
from .streaming import streaming_pass


class Schedule:
    """Per-pass step sizes; ``p`` must match the constraint for the
    recurrence kind. ``for_matchoid`` chooses a constraint's schedule, and
    ``steps`` is the one place that yields a step or a worst-case factor.

    ``p`` is an integer of at least 1 (2.0 is 2; 2.7 and True are not), and
    ``beta``, when given, a finite real that is not a bool; anything else
    raises ``PreconditionError``."""

    __slots__ = ("kind", "p", "beta")

    def __init__(self, kind, p=1, beta=None):
        if kind not in ("matroid-harmonic", "matchoid-recurrence", "fixed"):
            raise PreconditionError(f"unknown schedule kind: {kind}")
        self.kind = kind
        self.p = integer(p, "p")
        if self.p < 1:
            raise PreconditionError(f"p must be at least 1, got {self.p}")
        self.beta = None if beta is None else real(beta, "beta")
        if kind == "fixed" and (self.beta is None or self.beta < 0.0):
            raise PreconditionError("fixed schedule needs a finite beta >= 0")

    @staticmethod
    def matroid_harmonic():
        return Schedule("matroid-harmonic", p=1)

    @staticmethod
    def matchoid_recurrence(p):
        return Schedule("matchoid-recurrence", p=p)

    @staticmethod
    def fixed(beta, p=1):
        return Schedule("fixed", p=p, beta=beta)

    @staticmethod
    def for_matchoid(mp):
        """The schedule with a worst-case factor for ``mp``: harmonic when
        p = 1 (a matroid, also a direct sum of several), else the
        recurrence at p."""
        if mp.p == 1:
            return Schedule.matroid_harmonic()
        return Schedule.matchoid_recurrence(mp.p)

    def steps(self):
        """Yield (beta_i, gamma_i), the step size and worst-case factor of
        passes i = 1, 2, ... as the module docstring gives them. The
        recurrence's map g -> 4p g(g - 1) / (g - 1 + p)^2 is increasing and
        fixes p + 1, so g stays above p + 1 and beta_i stays positive."""
        p = self.p
        if self.kind == "fixed":
            while True:
                yield self.beta, math.inf
        elif self.kind == "matroid-harmonic":
            for i in count(1):
                yield 1.0 / i, 2.0 * (1.0 + 1.0 / i)
        else:
            beta, g = 1.0, 4.0 * p
            for i in count(1):
                yield beta, p + 1.0 + 4.0 * p / i
                beta = (g - 1.0 - p) / (g - 1.0 + p)
                g = 4.0 * p * g * (g - 1.0) / (g - 1.0 + p) ** 2

    def default_passes(self, epsilon):
        """Pass budget reaching the convergence target: ceil(2/eps) for the
        harmonic schedule, ceil(4p/eps) otherwise."""
        if epsilon is None or not 0.0 < epsilon < math.inf:
            raise ConfigError("a finite epsilon > 0 is needed to choose a pass count")
        if self.kind == "matroid-harmonic":
            return math.ceil(2.0 / epsilon)
        return math.ceil(4.0 * self.p / epsilon)


def certified_gamma(gamma_prev, beta, delta, p):
    """Online factor after a pass from the two-branch bound.

    Branch one carries the previous certificate through the measured
    progress; branch two bounds the pass on its own. Pass 1 (or any pass
    following a degenerate one) has no usable first branch.
    """
    if gamma_prev is not None and math.isfinite(gamma_prev) and delta > 0.0:
        carried = gamma_prev * delta
    else:
        carried = math.inf
    if beta > 0.0:
        single = (p / beta + p - 1.0) * (1.0 - delta) + p + beta * p + 1.0
    else:
        single = math.inf
    return min(carried, single)


class GuaranteeCertificate:
    """Certified claim after one pass: f(OPT) <= gamma * f(S_i) + slack."""

    __slots__ = ("pass_index", "beta", "delta", "gamma_certified", "k_alpha_slack")

    def __init__(self, pass_index, beta, delta, gamma_certified, k_alpha_slack):
        self.pass_index = pass_index
        self.beta = beta
        self.delta = delta
        self.gamma_certified = gamma_certified
        self.k_alpha_slack = k_alpha_slack

    def opt_upper_bound(self, f_s):
        """gamma * f_s + k * alpha. An infinite gamma claims nothing, so the
        bound is inf, also at f_s = 0, where the product would be NaN."""
        if math.isinf(self.gamma_certified):
            return math.inf
        return self.gamma_certified * f_s + self.k_alpha_slack

    def __repr__(self):
        return (f"GuaranteeCertificate(pass={self.pass_index}, beta={self.beta:.6g}, "
                f"delta={self.delta:.6g}, gamma={self.gamma_certified:.6g})")


class MultipassResult:
    __slots__ = ("solution", "pass_results", "certificates", "f_final",
                 "stored_peak", "passes_run", "state")

    def __init__(self, solution, pass_results, certificates, f_final,
                 stored_peak, passes_run, state):
        self.solution = solution
        self.pass_results = pass_results
        self.certificates = certificates
        self.f_final = f_final
        self.stored_peak = stored_peak
        self.passes_run = passes_run
        self.state = state


def multipass_run(oracle, mp, stream, schedule, passes, alpha=0.0, *,
                  target_gamma=None, trace=None):
    """Chain streaming passes, certifying a factor after each.

    The solution of each pass seeds the next, over the same stream order.
    Stops early once the certified factor reaches ``target_gamma``, which
    must be finite: no certificate ever reaches a NaN target. A
    ``passes`` that is not an integer (2.0 is) raises ``PreconditionError``.
    """
    passes = integer(passes, "passes")
    if passes < 1:
        raise PreconditionError("at least one pass is required")
    if target_gamma is not None and not math.isfinite(target_gamma):
        raise PreconditionError("target_gamma must be a finite number")
    if schedule.kind == "matchoid-recurrence" and schedule.p != mp.p:
        raise PreconditionError(
            f"schedule p={schedule.p} does not match the constraint p={mp.p}"
        )
    order = list(stream)
    state = None  # the first pass starts from the empty solution
    slack = mp.rank_k * alpha
    p = mp.p
    gamma_cert = math.inf
    pass_results = []
    certificates = []
    stored_peak = 0

    for i, (beta_i, _) in zip(range(1, passes + 1), schedule.steps()):
        res = streaming_pass(oracle, mp, order, state, alpha, beta_i, trace=trace)
        state = res.state
        stored_peak = max(stored_peak, res.stored_peak)
        gamma_cert = (certified_gamma(gamma_cert, beta_i, res.delta, p)
                      if res.f_final > 0.0 else math.inf)
        certificates.append(
            GuaranteeCertificate(i, beta_i, res.delta, gamma_cert, slack))
        pass_results.append(res)
        if target_gamma is not None and gamma_cert <= target_gamma:
            break

    return MultipassResult(
        solution=frozenset(state.members), pass_results=pass_results,
        certificates=certificates, f_final=state.f_s,
        stored_peak=stored_peak, passes_run=len(pass_results), state=state,
    )
