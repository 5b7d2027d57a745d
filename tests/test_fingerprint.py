"""Behaviour fingerprint: one SHA-256 over what the drivers do on the corpus.

For every ``_corpus`` family and seeds 0-5 the test records

* a debug ``multipass_run`` (3 passes, shuffled stream, alpha 0 and 1):
  every trace record, each pass's row, solution in arrival order and
  certificate, and the oracle's call count;
* ``multipass_randomized`` (epsilon 0.5, 2 passes) with the exact
  offline solver, and at p = 1 also with the heuristic: every copy's
  pass rows, the solution, ``space_peak`` and the call count;
* two chained debug ``randomized_pass`` runs for each buffer size
  m in {1, 2, 3}: the solution in arrival order, the residual buffer,
  the offline solution and its value, and the call count.

Floats are written with ``float.hex``, so a change in the last bit of
any value changes the hash. A refactor that claims "same behaviour"
keeps the pinned hash. To regenerate it, run

    PYTHONPATH=src python tests/test_fingerprint.py

which prints the hash of the current code. A change that moves it on
purpose must say why in CHANGES.md when it re-pins ``PINNED``.
"""

import hashlib
import json
from random import Random

import matchstream as ms
import _corpus

PINNED = "d074b4170bbce16787e138c1158300852d6a09c5ca8f7ba14f1acebfd24e2abd"

FAMILIES = (_corpus.coverage_uniform, _corpus.coverage_partition,
            _corpus.bipartite_matching, _corpus.hypergraph_matching,
            _corpus.directed_cut)
SEEDS = range(6)


def _plain(value):
    """A JSON-ready copy with floats as hex and sets sorted."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(_plain(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _schedule(mp):
    return (ms.Schedule.matroid_harmonic() if mp.p == 1
            else ms.Schedule.matchoid_recurrence(mp.p))


def _multipass_records(inst, mp, stream):
    out = []
    for alpha in (0.0, 1.0):
        oracle = inst.build_oracle()
        trace = []
        res = ms.multipass_run(oracle, mp, stream, _schedule(mp), 3, alpha,
                               debug=True, trace=trace)
        passes = [{"row": run.row(cert.pass_index, cert.beta,
                                  cert.gamma_certified),
                   "solution": list(run.state.nu),
                   "gamma": cert.gamma_certified}
                  for run, cert in zip(res.pass_results, res.certificates)]
        out.append({"alpha": alpha, "trace": trace, "passes": passes,
                    "calls": oracle.calls})
    return out


def _randomized_records(inst, mp, stream):
    out = []
    modes = ("exact", "heuristic") if mp.p == 1 else ("exact",)
    for mode in modes:
        oracle = inst.build_oracle()
        run = ms.multipass_randomized(oracle, mp, stream, 0.5, passes=2,
                                      seed=3, offline_mode=mode)
        out.append({"mode": mode,
                    "rows": [copy.pass_rows for copy in run.copies],
                    "solution": run.solution, "f": run.f_solution,
                    "space_peak": run.space_peak, "calls": oracle.calls})
    return out


def _chained_records(inst, mp, stream):
    out = []
    for m in (1, 2, 3):
        oracle = inst.build_oracle()
        rng = Random(m)
        state = None
        for beta in (1.0, 0.5):
            run = ms.randomized_pass(oracle, mp, stream, state, 0.5, beta, m,
                                     rng, debug=True)
            state = run.state
            out.append({"m": m, "solution": list(state.nu),
                        "buffer": list(run.buffer.members),
                        "s_prime": run.s_prime, "f_s_prime": run.f_s_prime,
                        "f": run.f_final, "drops": run.buffer_drops,
                        "calls": oracle.calls})
    return out


def fingerprint():
    records = []
    for family in FAMILIES:
        for seed in SEEDS:
            inst = family(seed)
            mp = inst.build_matchoid()
            stream = ms.stream_order(inst.n, shuffle_seed=seed)
            records.append({
                "family": family.__name__, "seed": seed,
                "multipass": _multipass_records(inst, mp, stream),
                "randomized": _randomized_records(inst, mp, stream),
                "chained": _chained_records(inst, mp, stream),
            })
    text = json.dumps(_plain(records), sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def test_behaviour_fingerprint_is_pinned():
    assert fingerprint() == PINNED


if __name__ == "__main__":
    print(fingerprint())
