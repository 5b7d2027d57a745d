"""Outside-in layer trace of the matchstream library.

While a traced solve runs, the tracer replaces the library's public
callables with timing wrappers, from the benchmark's own code: nothing
under ``src/`` changes. Each call becomes a span with a name, start and
end (``perf_counter_ns``), the span that was open when it started, and
the id of the driver call it belongs to. Spans stay in flat in-memory
arrays until the run ends, when ``write_csv`` saves them.

Each module binds its own name for ``exchange_set`` and
``streaming_pass``, so both bindings are wrapped. Per-arrival times of
``streaming_pass`` come from a timestamping sink passed through its
public ``trace=`` argument; the sink makes no oracle calls.
"""

import gzip
import math
import time
from array import array

from matchstream import matchoids, multipass, objectives, randomized, streaming

NAMES = (
    "multipass.multipass_run",
    "randomized.multipass_randomized",
    "objectives.value",
    "matchoids.independent",
    "matchoids.feasible",
    "matchoids.exchange_set",
    "streaming.recompute_nu",
    "streaming.streaming_pass",
    "randomized.guess_grid",
    "randomized.offline_solve",
    "randomized.process",
    "randomized.finish",
    "randomized.draw",
    "baselines.max_feasible_subset",
)
CODE = {name: i for i, name in enumerate(NAMES)}
DRIVERS = (CODE["multipass.multipass_run"], CODE["randomized.multipass_randomized"])


class ArrivalSink:
    """``trace=`` sink for ``streaming_pass``: keeps the time, action and
    f(S) of every processed arrival."""

    __slots__ = ("records",)

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append((time.perf_counter_ns(), record["action"], record["f_S"]))


class Tracer:
    def __init__(self):
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.stack = [-1]
        self.run_id = -1
        self.sink = ArrivalSink()
        self.counts = {"walked": 0, "accepts": 0, "evictions": 0,
                       "zero_gain_accepts": 0, "rescreened": 0,
                       "rescreen_kept": 0, "subsets_examined": 0}
        self.offline_pools = []
        self.stream_arrivals_ns = []
        self.sweep_ns = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Timing wrapper around ``fn``. ``before(args, kwargs)`` may edit
        the keyword arguments and returns a context value that is handed
        to ``after(args, result, context, span_id)``."""
        code = CODE[name]
        names, starts, ends, parents, runs = (self.name, self.start, self.end,
                                              self.parent, self.run)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0)
            context = before(args, kwargs) if before is not None else None
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result, context, sid)
            return result
        return traced

    def install(self):
        for owner, attr, name, before, after in self._patches():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, before, after))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patches(self):
        return (
            (objectives.SubmodularOracle, "value", "objectives.value", None, None),
            (matchoids.Matroid, "independent", "matchoids.independent", None, None),
            (matchoids.PMatchoid, "feasible", "matchoids.feasible", None, None),
            (streaming, "exchange_set", "matchoids.exchange_set", None, None),
            (randomized, "exchange_set", "matchoids.exchange_set", None, None),
            (streaming, "recompute_nu", "streaming.recompute_nu", self._before_recompute, None),
            (multipass, "streaming_pass", "streaming.streaming_pass",
             self._before_pass, self._after_pass),
            (randomized, "streaming_pass", "streaming.streaming_pass",
             self._before_pass, self._after_pass),
            (randomized, "guess_grid", "randomized.guess_grid", None, None),
            (randomized, "offline_solve", "randomized.offline_solve", self._before_offline, None),
            (randomized, "max_feasible_subset", "baselines.max_feasible_subset",
             None, self._after_exact),
            (randomized.RandomizedPassRunner, "process", "randomized.process",
             self._before_process, self._after_process),
            (randomized.RandomizedPassRunner, "finish", "randomized.finish", None, None),
            (randomized.BufferState, "draw", "randomized.draw", None, None),
        )

    def _before_recompute(self, args, kwargs):
        state = args[0]
        start_pos = args[2] if len(args) > 2 else kwargs.get("start_pos", 0)
        self.counts["walked"] += len(state.order) - start_pos

    def _before_pass(self, args, kwargs):
        if kwargs.get("trace") is None:
            kwargs["trace"] = self.sink
        return len(self.sink.records) if kwargs["trace"] is self.sink else None

    def _after_pass(self, args, result, first, sid):
        self.counts["accepts"] += result.accept_count
        self.counts["evictions"] += len(result.evicted)
        if first is None:
            return
        prev_t, prev_f = self.start[sid], result.f_init
        for t, action, f_s in self.sink.records[first:]:
            self.stream_arrivals_ns.append(t - prev_t)
            if action == "accept" and not f_s > prev_f:
                self.counts["zero_gain_accepts"] += 1
            prev_t, prev_f = t, f_s

    def _before_offline(self, args, kwargs):
        self.offline_pools.append(len(set(args[2])))

    def _after_exact(self, args, result, context, sid):
        self.counts["subsets_examined"] += result.subsets_examined

    def _before_process(self, args, kwargs):
        return args[0].accept_count

    def _after_process(self, args, result, accepts_before, sid):
        runner = args[0]
        if runner.accept_count > accepts_before:
            # a buffer selection happened: one draw, then the m - 1 other
            # buffered elements were re-screened against the new solution
            self.counts["rescreened"] += runner.m - 1
            self.counts["rescreen_kept"] += len(runner.buffer.members)
            self.sweep_ns += self.end[sid] - self.start[sid]

    # -- output ------------------------------------------------------------

    def write_csv(self, path):
        """Save every span as one gzip-compressed CSV row."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,run\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{NAMES[self.name[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.run[i]}\n")

    def layer_metrics(self):
        """Per-layer metrics from the recorded spans (seconds, counts and
        ratios; a ratio whose base is zero reads 0)."""
        n = len(self.start)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        total = [0] * len(NAMES)
        calls = [0] * len(NAMES)
        own = [0] * len(NAMES)
        child = [0] * n
        under_offline = bytearray(n)
        offline = CODE["randomized.offline_solve"]
        for i in range(n):
            p = parents[i]
            if p >= 0 and (under_offline[p] or names[p] == offline):
                under_offline[i] = 1
        value, exchange = CODE["objectives.value"], CODE["matchoids.exchange_set"]
        independent, process = CODE["matchoids.independent"], CODE["randomized.process"]
        value_parent = {CODE["streaming.recompute_nu"]: "in_recompute",
                        CODE["streaming.streaming_pass"]: "in_threshold",
                        process: "in_threshold",
                        CODE["randomized.guess_grid"]: "in_grid"}
        value_split = {"in_recompute": 0, "in_threshold": 0, "in_offline": 0, "in_grid": 0}
        independent_in_exchange = 0
        arrivals_ns = []
        for i in range(n - 1, -1, -1):
            c, p = names[i], parents[i]
            d = ends[i] - starts[i]
            total[c] += d
            calls[c] += 1
            own[c] += d - child[i]
            if c == process:
                arrivals_ns.append(d)
            if p < 0:
                continue
            child[p] += d
            if c == value:
                key = "in_offline" if under_offline[i] else value_parent.get(names[p])
                if key is not None:
                    value_split[key] += d
            elif c == independent and names[p] == exchange:
                independent_in_exchange += 1

        def s(ns):
            return ns / 1e9

        def t(name):
            return s(total[CODE[name]])

        def ratio(a, b):
            return a / b if b else 0.0

        driver_ns = sum(total[c] for c in DRIVERS)
        counts = self.counts
        out = {
            "objectives.value.calls": calls[value],
            "objectives.value.s": t("objectives.value"),
            "objectives.value.us_per_call": ratio(total[value] / 1e3, calls[value]),
            "matchoids.exchange_set.calls": calls[exchange],
            "matchoids.exchange_set.s": t("matchoids.exchange_set"),
            "matchoids.exchange_set.self_s": s(own[exchange]),
            "matchoids.independent.calls": calls[independent],
            "matchoids.independent.per_exchange": ratio(independent_in_exchange, calls[exchange]),
            "matchoids.feasible.calls": calls[CODE["matchoids.feasible"]],
            "matchoids.feasible.s": t("matchoids.feasible"),
            "streaming.streaming_pass.s": t("streaming.streaming_pass"),
            "streaming.streaming_pass.self_s": s(own[CODE["streaming.streaming_pass"]]),
            "streaming.recompute_nu.calls": calls[CODE["streaming.recompute_nu"]],
            "streaming.recompute_nu.s": t("streaming.recompute_nu"),
            "streaming.recompute_nu.self_s": s(own[CODE["streaming.recompute_nu"]]),
            "streaming.recompute_nu.walked": counts["walked"],
            "streaming.accepts": counts["accepts"],
            "streaming.evictions": counts["evictions"],
            "streaming.zero_gain_accepts": counts["zero_gain_accepts"],
            "streaming.useful_accept_ratio": ratio(counts["accepts"] - counts["zero_gain_accepts"],
                                                   counts["accepts"]),
            "multipass.multipass_run.self_s": s(own[CODE["multipass.multipass_run"]]),
            "randomized.guess_grid.s": t("randomized.guess_grid"),
            "randomized.process.calls": calls[process],
            "randomized.process.s": t("randomized.process"),
            "randomized.process.self_s": s(own[process]),
            "randomized.draws": calls[CODE["randomized.draw"]],
            "randomized.sweep.s": s(self.sweep_ns),
            "randomized.buffer_drops": counts["rescreened"] - counts["rescreen_kept"],
            "randomized.rescreen_keep_ratio": ratio(counts["rescreen_kept"], counts["rescreened"]),
            "randomized.offline_solve.s": t("randomized.offline_solve"),
            "randomized.offline_pool.mean": ratio(sum(self.offline_pools), len(self.offline_pools)),
            "baselines.max_feasible_subset.s": t("baselines.max_feasible_subset"),
            "baselines.subsets_examined": counts["subsets_examined"],
            "objectives.value.share": ratio(total[value], driver_ns),
            "streaming.recompute_nu.share": ratio(total[CODE["streaming.recompute_nu"]], driver_ns),
            "matchoids.exchange_set.share": ratio(total[exchange], driver_ns),
            "baselines.max_feasible_subset.share":
                ratio(total[CODE["baselines.max_feasible_subset"]], driver_ns),
            "trace.uncovered_share": ratio(sum(own[c] for c in DRIVERS), driver_ns),
        }
        for key, ns in value_split.items():
            out[f"objectives.value.{key}.s"] = s(ns)
        for layer, samples in (("streaming", self.stream_arrivals_ns), ("randomized", arrivals_ns)):
            out[f"{layer}.arrival_us.p50"] = percentile(samples, 50) / 1e3
            out[f"{layer}.arrival_us.p99"] = percentile(samples, 99) / 1e3
            out[f"{layer}.arrival_us.samples"] = len(samples)
        return out


def percentile(samples, q):
    """Nearest-rank percentile; 0 for no samples."""
    if not samples:
        return 0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]
