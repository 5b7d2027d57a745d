"""Run one matchstream benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coverage-churn --seed 1 --seconds 20 --trace 0

Run it from the repository root. The script writes the workload's
instance files first, so instance generation stays out of the measured
process. A child process then only loads and solves them: it sets the
batch up several times, solves it, and repeats that until ``--seconds``
have passed. Every solve goes through the correctness gate in
``workloads.gate``; repeated solves must agree exactly. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The lines before it give the
environment, the sample counts and every metric in readable form.

A traced run first solves the batch untraced, then once more with every
layer call wrapped (see ``tracing.py``), and fails if the traced solve
reports different oracle calls, values, solutions or storage.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_SHARE = 0.1       # set-up time before each solve, as a share of the solve
UNTRACED_SHARE = 0.4    # share of --seconds a traced run spends untraced
REFERENCE_SAMPLES = 5   # reference-loop timings before, and again after, each call
CHILD_GRACE_S = 120     # the child is killed if it runs this long past --seconds


def import_library():
    """Import matchstream from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "matchstream" / "__init__.py").is_file():
        raise ImportError(f"no matchstream sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import matchstream
    if Path(matchstream.__file__).resolve().parent != (src / "matchstream").resolve():
        raise ImportError(f"matchstream was imported from {matchstream.__file__}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at smoke-test size")
    ap.add_argument("--child", nargs="+", metavar="INSTANCE", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- child: load and solve only ----------------------------------------------

def setup_batch(paths):
    """Load and build every instance of the batch; returns the built
    objects and the time each set-up step took over the batch."""
    from matchstream import instances
    built = []
    split = {"load_instance": 0.0, "build_oracle": 0.0, "build_matchoid": 0.0}
    for path in paths:
        t0 = time.perf_counter()
        inst = instances.load_instance(path)
        t1 = time.perf_counter()
        oracle = inst.build_oracle()
        t2 = time.perf_counter()
        mp = inst.build_matchoid()
        t3 = time.perf_counter()
        split["load_instance"] += t1 - t0
        split["build_oracle"] += t2 - t1
        split["build_matchoid"] += t3 - t2
        built.append((inst, oracle, mp))
    return built, split


def solve_batch(workload, seed, built, tracer=None):
    """One solve of every driver call of the batch. Returns the outcome
    and the wall time of each call (both ``None`` where it raised) and,
    untraced, the median reference-loop time around each call."""
    from workloads import instance_seed, read_result
    outcomes = []
    seconds = []
    references = []
    for index, (inst, oracle, mp) in enumerate(built):
        for kind, run in workload.calls(inst, instance_seed(seed, index)):
            sink = None
            if tracer is not None:
                name = ("multipass.multipass_run" if kind == "monotone"
                        else "randomized.multipass_randomized")
                run = tracer.wrap(name, run)
                tracer.run_id += 1
                sink = tracer.sink if kind == "monotone" else None
            oracle.reset_counters()
            around = reference_seconds() if tracer is None else []
            try:
                t0 = time.perf_counter()
                result = run(oracle, mp, sink)
                seconds.append(time.perf_counter() - t0)
            except Exception:
                traceback.print_exc()
                outcomes.append(None)
                seconds.append(None)
                references.append(None)
                continue
            if tracer is None:
                references.append(statistics.median(around + reference_seconds()))
            outcome = read_result(kind, result)
            outcome["kind"] = kind
            outcome["oracle_calls"] = oracle.calls
            outcomes.append(outcome)
    return outcomes, seconds, references


def reference_seconds():
    """Times of a fixed pure-Python loop that runs no library code.

    It is timed right before and right after every driver call, and the
    call is reported as a multiple of it. That cancels the slow spells of
    a shared host, which slow the whole machine for minutes at a time.
    """
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        total = 0
        for j in range(100_000):
            total += j * j
        samples.append(time.perf_counter() - t0)
    return samples


def tally(outcomes, first_outcomes, attempts, failures):
    """Count one more attempt of every driver call, and a failure where it
    raised or disagreed with the first solve of the run."""
    for i, (outcome, first) in enumerate(zip(outcomes, first_outcomes)):
        attempts[i] += 1
        failures[i] += outcome is None or outcome != first


def peak_rss_kib():
    """Peak resident memory of this process since it started.

    ``ru_maxrss`` keeps the high-water mark of the forked parent across
    exec, so the kernel's per-address-space ``VmHWM`` is read instead
    where it exists.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_main(args):
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()

    # Set-up repeats are spread over the whole run, a share of each solve's
    # time before it, so that slow spells of a shared machine hit set-up
    # and solve alike. Every timed repeat starts from a collected heap,
    # so the garbage collector runs at the same points in each repeat.
    solve_share = UNTRACED_SHARE if args.trace else 1.0
    deadline = started + solve_share * args.seconds
    setups = []
    first_outcomes = None
    call_seconds = []
    call_references = []
    setup_budget = SETUP_SHARE  # seconds, before the first solve
    while True:
        setup_until = time.perf_counter() + setup_budget
        while True:
            built = None
            gc.collect()
            built, split = setup_batch(args.child)
            setups.append(split)
            if time.perf_counter() >= setup_until:
                break
        gc.collect()
        outcomes, seconds, references = solve_batch(workload, args.seed, built)
        if first_outcomes is None:
            first_outcomes = outcomes
            attempts = [0] * len(outcomes)
            failures = [0] * len(outcomes)
        tally(outcomes, first_outcomes, attempts, failures)
        call_seconds.append(seconds)
        call_references.append(references)
        setup_budget = SETUP_SHARE * sum(t for t in seconds if t is not None)
        if time.perf_counter() >= deadline:
            break

    report = {"setups": setups, "call_seconds": call_seconds,
              "call_references": call_references, "outcomes": first_outcomes}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        gc.collect()
        tracer.install()
        try:
            traced, traced_seconds, _ = solve_batch(workload, args.seed, built, tracer)
        finally:
            tracer.uninstall()
        tally(traced, first_outcomes, attempts, failures)
        layers = tracer.layer_metrics()
        layers["trace.overhead"] = (sum(t for t in traced_seconds if t is not None)
                                    / fastest_solve(call_seconds))
        WORK.mkdir(exist_ok=True)
        tracer.write_csv(WORK / f"spans-{args.workload}-{args.size}.csv.gz")
        report["layers"] = layers
    report["attempts"] = attempts
    report["failures"] = failures
    report["peak_rss_kib"] = peak_rss_kib()
    print(json.dumps(report))
    return 0


# -- parent: generate, measure, gate, report ---------------------------------

def environment(args, samples):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "size": args.size, "seconds": args.seconds, "trace": args.trace,
            "samples": samples}


def git_commit():
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text(encoding="utf-8").strip()
            packed = (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8")
            return next(line.split()[0] for line in packed.splitlines()
                        if line.endswith(" " + name))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def metric_specs(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def fastest_solve(call_seconds):
    """Batch wall time built from each driver call's fastest repeat."""
    per_call = zip(*call_seconds)
    return sum(min(t for t in times if t is not None) for times in per_call)


def solve_in_references(call_seconds, call_references):
    """Batch solve time in reference-loop units: for each driver call, the
    median over repeats of its time over the reference time around it,
    summed over the calls."""
    total = 0.0
    for times, refs in zip(zip(*call_seconds), zip(*call_references)):
        total += statistics.median(t / r for t, r in zip(times, refs) if t is not None)
    return total


def end_to_end(report):
    outcomes = report["outcomes"]

    def mean(key):
        return statistics.fmean(o[key] for o in outcomes)
    return {
        "setup_s": statistics.median(sum(s.values()) for s in report["setups"]),
        "solve_ref": solve_in_references(report["call_seconds"], report["call_references"]),
        "peak_rss_mib": report["peak_rss_kib"] / 1024,
        "oracle_calls": mean("oracle_calls"),
        "stored_peak": mean("stored_peak"),
        "f_value": mean("f_value"),
        "gamma_certified": mean("gamma_certified"),
    }


def per_layer(report):
    values = dict(report["layers"])
    for step in ("load_instance", "build_oracle", "build_matchoid"):
        values[f"instances.{step}.s"] = statistics.median(s[step] for s in report["setups"])
    monotone = [o["passes"] for o in report["outcomes"] if o["kind"] == "monotone"]
    values["multipass.passes_run"] = statistics.fmean(monotone) if monotone else 0
    return values


def write_instances(args, workload):
    from matchstream import instances
    WORK.mkdir(exist_ok=True)
    paths = []
    for i, inst in enumerate(workload.make(args.seed, args.size)):
        path = WORK / f"{args.workload}-{args.size}-{args.seed}-{i}.json"
        instances.save_instance(inst, path)
        paths.append(str(path))
    return paths


def run_child(args, paths):
    """The measured process's report, or ``None`` if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--child", *paths]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + CHILD_GRACE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: the measured process timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: the measured process exited with {proc.returncode}",
              file=sys.stderr)
        return None
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(o is None for o in report["outcomes"]):
        print("perfbench: a driver call raised on its first solve", file=sys.stderr)
        return None
    return report


def count_failures(workload, paths, report):
    """Failed driver calls: those that raised or changed their answer
    within the run, and every attempt of a call whose answer fails the
    gate (all its attempts returned that same answer)."""
    from matchstream import instances
    from workloads import gate
    calls_per_instance = len(report["outcomes"]) // len(paths)
    failed = 0
    for index, outcome in enumerate(report["outcomes"]):
        inst = instances.load_instance(paths[index // calls_per_instance])
        try:
            problems = gate(inst, workload, outcome)
        except Exception:
            traceback.print_exc()
            problems = ["the gate raised"]
        for problem in problems:
            print(f"perfbench: gate: driver call {index}: {problem}", file=sys.stderr)
        failed += report["attempts"][index] if problems else report["failures"][index]
    return failed


def main(argv=None):
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    specs = metric_specs(args.trace)

    paths = write_instances(args, workload)
    try:
        report = run_child(args, paths)
        if report is None:
            return 3
        failed = count_failures(workload, paths, report)
    finally:
        for path in paths:
            os.unlink(path)
    attempted = sum(report["attempts"])

    values = per_layer(report) if args.trace else end_to_end(report)
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 4
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    batch = [sum(rep) for rep in report["call_seconds"] if None not in rep]
    samples = {"instances": len(paths), "driver_calls_per_solve": len(report["outcomes"]),
               "setup_reps": len(report["setups"]), "solve_reps": len(batch),
               "solve_s_fastest": fastest_solve(report["call_seconds"]),
               "solve_s_median": statistics.median(batch), "solve_s_max": max(batch),
               "reference_loop_s": statistics.median(
                   r for refs in report["call_references"] for r in refs if r is not None)}
    print(json.dumps({"environment": environment(args, samples)}))
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'fail_ratio':40s} {failed / attempted:>16.6g} failed/attempted "
          f"({failed}/{attempted} driver calls)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
