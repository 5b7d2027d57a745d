"""The benchmark's workloads, the driver calls they make, and the
correctness gate every solve passes through.

A workload turns a seed into a fixed batch of instances. Instance ``i``
of seed ``s`` is built from the instance seed ``16 * s + i``, so the same
seed always gives the same inputs. Each instance is solved by one or
more calls into a public library driver (``multipass_run`` or
``multipass_randomized``); the benchmark loops the replicates itself.

Why each workload exists, and which layer it loads, is written in
``perfbench/README.md`` beside the held-out seed.
"""

from random import Random

from matchstream import instances, multipass, randomized
from matchstream.instances import Instance

# The smoke test's size: every code path runs, in well under a second.
TINY = "tiny"


class Workload:
    """One named workload: how to build its batch and how to solve it.

    ``make(seed, size)`` returns the instances; ``calls(inst, seed)``
    returns the driver calls for one instance as ``(kind, fn)`` pairs,
    where ``fn(oracle, mp, sink)`` runs the driver and returns its result
    and ``kind`` says how to read that result.
    """

    __slots__ = ("name", "monotone", "alpha", "make", "calls")

    def __init__(self, name, monotone, alpha, make, calls):
        self.name = name
        self.monotone = monotone
        self.alpha = alpha
        self.make = make
        self.calls = calls


def instance_seed(seed, index):
    return 16 * seed + index


# -- coverage-churn --------------------------------------------------------
# Unit item weights on a small item universe: coverage saturates after a
# few picks, so almost every later accept has zero gain and pays a full
# suffix recompute. The saturated value is the item count on every seed,
# which keeps f_value and the call count steady across seeds.

def _coverage_churn_make(seed, size):
    n, k, items, batch = (40, 6, 12, 2) if size == TINY else (400, 60, 60, 3)
    return [instances.generate_instance("coverage+uniform", instance_seed(seed, i),
                                        n=n, capacity=k, items=items, max_weight=1)
            for i in range(batch)]


def _coverage_churn_calls(inst, inst_seed):
    order = instances.stream_order(inst.n)

    def run(oracle, mp, sink):
        return multipass.multipass_run(oracle, mp, order,
                                       multipass.Schedule.matroid_harmonic(),
                                       3, 0.0, trace=sink)
    return [("monotone", run)]


# -- diverse-p2 ------------------------------------------------------------
# Sparse weighted coverage (each set holds 1-12 of many items) does not
# saturate, so accepts keep paying off and the exchange search over a
# full S_l does most of the work. The p=2 constraint is a uniform matroid
# intersected with a partition matroid; its rank has a closed form.

def _diverse_p2_make(seed, size):
    if size == TINY:
        n, items, k, parts, cap, batch = 60, 600, 6, 3, 3, 2
    else:
        n, items, k, parts, cap, batch = 800, 8000, 40, 10, 5, 3
    out = []
    for i in range(batch):
        rng = Random(instance_seed(seed, i))
        sets = [sorted(rng.sample(range(items), rng.randint(1, 12))) for _ in range(n)]
        weights = [rng.randint(1, 5) for _ in range(items)]
        ids = list(range(n))
        rng.shuffle(ids)
        chunks = [sorted(ids[j::parts]) for j in range(parts)]
        ground = list(range(n))
        constraint = {"p": 2, "rank": min(k, parts * cap), "matroids": [
            {"kind": "uniform", "ground": ground, "capacity": k},
            {"kind": "partition", "ground": ground, "parts": chunks,
             "capacities": [cap] * parts},
        ]}
        objective = {"kind": "weighted-coverage", "sets": sets, "item_weights": weights}
        out.append(Instance(n, True, objective, constraint))
    return out


def _diverse_p2_calls(inst, inst_seed):
    order = instances.stream_order(inst.n, inst_seed)

    def run(oracle, mp, sink):
        return multipass.multipass_run(oracle, mp, order,
                                       multipass.Schedule.matchoid_recurrence(2),
                                       3, 1.0, trace=sink)
    return [("monotone", run)]


# -- cut-buffered ----------------------------------------------------------
# eps=0.5 on a matroid gives d=4 passes and a buffer of m=64k elements.
# n is large enough that the buffer fills, so draws and re-screens run.
# k is a power of two, which fixes the guess grid at log2(k) copies
# unless the best singleton is itself a power of two.

def _cut_buffered_make(seed, size):
    n, k, batch = (320, 2, 2) if size == TINY else (1200, 8, 3)
    return [instances.generate_instance("directed-cut+matroid", instance_seed(seed, i),
                                        n=n, arcs=3 * n, capacity=k)
            for i in range(batch)]


def _cut_buffered_calls(inst, inst_seed):
    order = instances.stream_order(inst.n)

    def run(oracle, mp, sink):
        return randomized.multipass_randomized(oracle, mp, order, 0.5,
                                               seed=inst_seed,
                                               offline_mode="heuristic")
    return [("randomized", run)]


# -- cut-exact-offline -----------------------------------------------------
# A complete digraph on 22 vertices: every vertex clears the threshold,
# so each offline pool holds all 22 candidates and the exact search does
# the same amount of work on every seed. The buffer never fills.

def _cut_exact_make(seed, size):
    n, k = (8, 2) if size == TINY else (22, 4)
    return [instances.generate_instance("directed-cut+matroid", instance_seed(seed, 0),
                                        n=n, arcs=n * (n - 1), capacity=k)]


def _cut_exact_calls(inst, inst_seed):
    order = instances.stream_order(inst.n)

    def replicate(rep):
        def run(oracle, mp, sink):
            return randomized.multipass_randomized(oracle, mp, order, 0.5,
                                                   seed=inst_seed ^ rep,
                                                   offline_mode="exact")
        return ("randomized", run)
    return [replicate(rep) for rep in range(2)]


WORKLOADS = {w.name: w for w in (
    Workload("coverage-churn", True, 0.0, _coverage_churn_make, _coverage_churn_calls),
    Workload("diverse-p2", True, 1.0, _diverse_p2_make, _diverse_p2_calls),
    Workload("cut-buffered", False, 0.0, _cut_buffered_make, _cut_buffered_calls),
    Workload("cut-exact-offline", False, 0.0, _cut_exact_make, _cut_exact_calls),
)}


def read_result(kind, result):
    """The fields the benchmark reports from one driver result."""
    if kind == "monotone":
        return {"solution": sorted(result.solution), "f_value": result.f_final,
                "stored_peak": result.stored_peak,
                "gamma_certified": result.certificates[-1].gamma_certified,
                "passes": result.passes_run}
    return {"solution": sorted(result.solution), "f_value": result.f_solution,
            "stored_peak": result.space_peak,
            "gamma_certified": result.copies[0].pass_rows[-1]["gamma_certified"],
            "passes": result.passes_used}


def gate(inst, workload, outcome):
    """Problems with one solve's outcome; an empty list means it passed.

    The solution must be feasible under a freshly built constraint, and a
    fresh oracle must give exactly the reported value (all weights are
    integers, so float sums are exact). On monotone workloads the
    certificate must also hold against the best-singleton lower bound on
    the optimum: max_e f({e}) <= gamma * f + k * alpha.
    """
    problems = []
    oracle = inst.build_oracle()
    mp = inst.build_matchoid()
    solution = outcome["solution"]
    if not mp.feasible(solution):
        problems.append("solution is infeasible")
    value = oracle.value(solution)
    if value != outcome["f_value"]:
        problems.append(f"fresh oracle gives {value}, solve reported {outcome['f_value']}")
    if workload.monotone:
        best_single = max(oracle.value((e,)) for e in range(inst.n))
        bound = outcome["gamma_certified"] * value + mp.rank_k * workload.alpha
        if not best_single <= bound:
            problems.append(f"certificate unsound: best singleton {best_single} > {bound}")
    return problems
