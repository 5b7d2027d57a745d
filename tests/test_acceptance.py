"""Acceptance suite: the package-level guarantees at their stated tolerances.

Every test prints one pass/fail line (written to the real stdout so the
lines show up under pytest's capture). Shared corpora are built once per
session: 200 random monotone instances per constraint family, all run for
16 passes under ``_checked.checked``'s per-element invariant checks, plus
randomized sweeps on directed-cut instances.
"""

import hashlib
import math
import sys
from itertools import combinations
from pathlib import Path
from random import Random

import pytest

import matchstream as ms
from matchstream.baselines import greedy_basis
from _checked import checked
from _corpus import (bipartite_matching, coverage_uniform, directed_cut,
                     enumerate_opt_unpruned, exact_opt, hypergraph_matching)
from conftest import ACCEPTANCE_LINES

TOL = 1e-9
N_PER_FAMILY = 200
MAX_PASSES = 16


def _announce(number, label, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    return ok


class _Record:
    __slots__ = ("inst", "mp", "opt", "run", "schedule")

    def __init__(self, inst, mp, opt, run, schedule):
        self.inst = inst
        self.mp = mp
        self.opt = opt
        self.run = run
        self.schedule = schedule


@pytest.fixture(scope="session")
def invariant_checks():
    """The ``Tally`` of each checked fixture's runs, appended as it runs."""
    return []


@pytest.fixture(scope="session")
def monotone_corpus(invariant_checks):
    """16-pass checked runs over 200 instances per family."""
    corpora = {}
    for name, builder in (("p1", coverage_uniform),
                          ("p2", bipartite_matching),
                          ("p3", hypergraph_matching)):
        records = []
        for seed in range(N_PER_FAMILY):
            inst = builder(seed)
            mp = inst.build_matchoid()
            schedule = ms.Schedule.for_matchoid(mp)
            opt = exact_opt(inst).opt_value
            with checked() as tally:
                run = ms.multipass_run(inst.build_oracle(), mp,
                                       ms.stream_order(inst.n), schedule,
                                       MAX_PASSES, 0.0)
            invariant_checks.append(tally)
            records.append(_Record(inst, mp, opt, run, schedule))
        corpora[name] = records
    return corpora


@pytest.fixture(scope="session")
def randomized_sweep():
    """Full randomized driver on directed-cut instances under a single
    uniform matroid: eps=0.25 (so eps'=eps at p=1), default pass budget
    ceil(2/eps)=8, exact offline solver, 200 seeds per instance."""
    records = []
    for inst_seed in range(3):
        inst = directed_cut(inst_seed)
        opt = exact_opt(inst).opt_value
        mp = inst.build_matchoid()
        runs = []
        for seed in range(N_PER_FAMILY):
            runs.append(ms.multipass_randomized(
                inst.build_oracle(), inst.build_matchoid(),
                ms.stream_order(inst.n), 0.25, seed=seed))
        records.append((inst, mp, opt, runs))
    return records


@pytest.fixture(scope="session")
def small_buffer_runs(invariant_checks):
    """Buffered passes with tiny capacities so selections and sweeps
    actually fire, checked, with a positive additive threshold."""
    records = []
    alpha = 0.5
    for seed in range(24):
        inst = directed_cut(seed % 3)
        mp = inst.build_matchoid()
        opt = exact_opt(inst).opt_value
        with checked() as tally:
            out = ms.randomized_pass(inst.build_oracle(), mp,
                                     ms.stream_order(inst.n), None, alpha, 1.0,
                                     m=2 + seed % 3, rng=Random(seed))
        invariant_checks.append(tally)
        records.append((mp, opt, out, alpha))
    return records


def test_01_first_pass_factor_4p(monotone_corpus):
    checked = 0
    worst = 0.0
    ok = True
    for records in monotone_corpus.values():
        for rec in records:
            f1 = rec.run.pass_results[0].f_final
            bound = 4.0 * rec.mp.p * f1 + TOL
            worst = max(worst, rec.opt / (4.0 * rec.mp.p * f1))
            ok = ok and rec.opt <= bound
            checked += 1
    assert _announce(1, "first pass within factor 4p of optimum", ok,
                     f"{checked} instances, worst share {worst:.3f}")


def test_02_matroid_harmonic_convergence(monotone_corpus):
    ok = True
    for rec in monotone_corpus["p1"]:
        for i, res in enumerate(rec.run.pass_results, 1):
            ok = ok and 2.0 * (1.0 + 1.0 / i) * res.f_final + TOL >= rec.opt
        f8 = rec.run.pass_results[7].f_final
        ok = ok and rec.opt <= 2.25 * f8 + TOL
    assert _announce(2, "harmonic schedule reaches 2(1+1/i) per pass", ok,
                     f"{len(monotone_corpus['p1'])} single-matroid instances, "
                     f"16 passes, ratio <= 2.25 by pass 8")


def test_03_matchoid_recurrence_convergence(monotone_corpus):
    ok = True
    checked = 0
    for name in ("p2", "p3"):
        for rec in monotone_corpus[name]:
            p = rec.mp.p
            for i, res in enumerate(rec.run.pass_results, 1):
                ok = ok and (p + 1.0 + 4.0 * p / i) * res.f_final + TOL >= rec.opt
                checked += 1
    assert _announce(3, "recurrence schedule reaches p+1+4p/i per pass", ok,
                     f"{checked} pass checks over p=2 and p=3 corpora")


def test_04_certificates_sound_and_at_least_closed_form_strength(monotone_corpus):
    ok = True
    checked = 0
    for records in monotone_corpus.values():
        for rec in records:
            k_alpha = rec.mp.rank_k * 0.0
            for res, cert, (_, closed) in zip(rec.run.pass_results,
                                              rec.run.certificates,
                                              rec.schedule.steps()):
                ok = ok and (cert.gamma_certified * res.f_final + k_alpha
                             >= rec.opt - TOL)
                ok = ok and cert.gamma_certified <= closed + TOL
                checked += 1
    assert _announce(4, "certified factors sound and never above closed form",
                     ok, f"{checked} certificates")


def test_05_per_pass_accounting(monotone_corpus, randomized_sweep,
                                small_buffer_runs):
    ok = True
    passes = 0
    for records in monotone_corpus.values():
        for rec in records:
            for res in rec.run.pass_results:
                ok = ok and (res.beta * res.eviction_sum
                             <= res.f_final - res.f_init + TOL)
                ok = ok and res.accepted - res.solution == set(res.evicted)
                passes += 1
    alpha_checks = 0
    for _, _, opt, runs in randomized_sweep:
        for run in runs[:20]:
            for copy in run.copies:
                for res in copy.pass_results:
                    ok = ok and (res.beta * res.eviction_sum
                                 <= res.f_final - res.f_init + TOL)
                    passes += 1
                    if copy.alpha > 0:
                        ok = ok and len(res.accepted) <= opt / copy.alpha + TOL
                        alpha_checks += 1
    for mp, opt, out, alpha in small_buffer_runs:
        res = out
        ok = ok and res.beta * res.eviction_sum <= res.f_final - res.f_init + TOL
        ok = ok and len(res.accepted) <= opt / alpha + TOL
        passes += 1
        alpha_checks += 1
    assert _announce(5, "eviction sums bounded by pass gain, accepts by opt/alpha",
                     ok, f"{passes} passes, {alpha_checks} positive-alpha checks")


def test_06_per_element_invariants(monotone_corpus, small_buffer_runs,
                                   invariant_checks):
    # every run of these two fixtures ran under ``checked``, which raises
    # on the first violation; here are the checks they counted
    elements = sum(tally.elements for tally in invariant_checks)
    accepts = sum(tally.accepts for tally in invariant_checks)
    ok = elements > 0 and accepts > 0
    assert _announce(6, "per-element invariant checks clean across corpus", ok,
                     f"{elements} element checks, {accepts} acceptance checks, "
                     f"0 violations")


def test_07_nonmonotone_statistical_guarantee(randomized_sweep):
    # exact offline solver means the offline factor is 1, so the chained
    # matroid-case factor is (2 + 1 + C*eps) with C = 1
    eps = 0.25
    factor = 2.0 + 1.0 + eps
    ok = True
    details = []
    for inst, mp, opt, runs in randomized_sweep:
        values = [run.f_solution for run in runs]
        mean = sum(values) / len(values)
        var = (sum((v - mean) ** 2 for v in values) / (len(values) - 1))
        se = math.sqrt(var / len(values))
        ok = ok and (1.0 - eps) * opt <= factor * (mean + 2.0 * se) + TOL
        details.append(f"opt={opt:.0f} mean={mean:.2f} se={se:.3f}")
    assert _announce(7, "randomized driver meets (1-eps)opt <= (3+eps)E[f]",
                     ok, "; ".join(details))


def test_08_storage_instrumentation(monotone_corpus, randomized_sweep):
    ok = True
    for records in monotone_corpus.values():
        for rec in records:
            ok = ok and rec.run.stored_peak <= 2 * rec.mp.rank_k + rec.mp.p
    rand_checks = 0
    for _, _, _, runs in randomized_sweep:
        for run in runs:
            ok = ok and run.space_peak <= run.space_bound
            rand_checks += 1
    assert _announce(8, "peak storage within 2k+p (multipass) and "
                        "|grid|(m+3k) (randomized)", ok,
                     f"{sum(len(r) for r in monotone_corpus.values())}"
                     f" multipass runs, {rand_checks} randomized runs")


def _within_budget_bound(result, mp, pool):
    """The search examined at most the sum_{j <= K} C(|pool|, j) subsets
    its budget check assumed, K = p |greedy basis of the pool|."""
    size_cut = mp.p * len(greedy_basis(mp, sorted(pool)))
    bound = sum(math.comb(len(pool), j) for j in range(size_cut + 1))
    return result.subsets_examined <= bound


def test_09_exact_solvers_agree_with_independent_enumeration():
    rng = Random(909)
    ok = True
    for _ in range(100):
        inst = coverage_uniform(rng.randrange(10_000))
        oracle = inst.build_oracle()
        mp = inst.build_matchoid()
        pool = sorted(rng.sample(sorted(oracle.ground),
                                 rng.randint(0, min(12, inst.n))))
        got, _ = ms.offline_solve(oracle, mp, pool)
        best = max((oracle.peek(c)
                    for r in range(len(pool) + 1)
                    for c in combinations(pool, r)
                    if mp.feasible(c)), default=oracle.peek(()))
        ok = ok and abs(oracle.peek(got) - best) <= TOL and mp.feasible(got)
        ok = ok and _within_budget_bound(
            ms.max_feasible_subset(oracle, mp, pool), mp, pool)
    builders = (coverage_uniform, bipartite_matching, hypergraph_matching,
                directed_cut)
    small = 0
    for seed in range(60):
        inst = builders[seed % len(builders)](seed)
        if inst.n > 10:
            continue
        pruned = ms.brute_force_opt(inst.build_oracle(), inst.build_matchoid())
        plain = enumerate_opt_unpruned(inst.build_oracle(),
                                          inst.build_matchoid())
        ok = ok and abs(pruned.opt_value - plain.opt_value) <= TOL
        ok = ok and _within_budget_bound(pruned, inst.build_matchoid(),
                                         range(inst.n))
        small += 1
    assert small >= 20
    assert _announce(9, "exact solvers match unpruned enumeration", ok,
                     f"100 buffers, {small} whole instances")


def test_10_deterministic_traces(tmp_path):
    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    inst = ms.generate_instance("coverage+uniform", 31, n=10, capacity=3)
    mono_path = tmp_path / "mono.json"
    ms.save_instance(inst, mono_path)
    mono_digests = []
    for run in range(2):
        trace = str(tmp_path / f"mono{run}.csv")
        ms.run_experiment(ms.ExperimentConfig(
            instance=str(mono_path), algorithm="monotone-multipass",
            schedule="matchoid", passes=6, shuffle_seed=4, trace=trace))
        mono_digests.append(digest(trace))

    cut = ms.generate_instance("directed-cut+matroid", 8, n=9, capacity=3)
    cut_path = tmp_path / "cut.json"
    ms.save_instance(cut, cut_path)
    rand_digests = []
    for run in range(2):
        trace = str(tmp_path / f"rand{run}.csv")
        ms.run_experiment(ms.ExperimentConfig(
            instance=str(cut_path), algorithm="nonmonotone-randomized",
            epsilon=0.25, passes=3, seed=17, replicates=4, trace=trace))
        rand_digests.append(digest(trace))

    ok = (mono_digests[0] == mono_digests[1]
          and len(set(rand_digests)) == 1)
    assert _announce(10, "seeded experiments rerun to byte-identical traces",
                     ok, "monotone and randomized reruns compared by hash")
