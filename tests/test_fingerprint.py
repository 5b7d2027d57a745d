"""Behaviour fingerprint: two SHA-256 hashes over what the drivers do on
the corpus.

For every ``_corpus`` family and seeds 0-5 the test records

* a debug ``multipass_run`` (3 passes, shuffled stream, alpha 0 and 1):
  every trace record, each pass's row, solution in arrival order and
  certificate, and the oracle's call count;
* ``multipass_randomized`` (epsilon 0.5, 2 passes) with the exact and
  the heuristic offline solver: every copy's pass rows, the solution,
  ``space_peak`` and the call count;
* two chained debug ``randomized_pass`` runs for each buffer size
  m in {1, 2, 3}: the solution in arrival order, the residual buffer,
  the offline solution and its value, and the call count.

The records are split in two, and each field lands in exactly one hash:

* ``DECISIONS`` hashes the records with every ``calls`` and
  ``oracle_calls`` key dropped: traces, solutions, buffers, values,
  certificates and the rest of each row;
* ``METERING`` hashes those dropped values, each with the path of the
  record it came from.

So a change that only meters differently (fewer oracle calls for the
same choices) moves ``METERING`` alone, and a change in what the drivers
choose moves ``DECISIONS``.

Floats are written with ``float.hex``, so a change in the last bit of
any value changes a hash. A refactor that claims "same behaviour" keeps
both pinned hashes. To regenerate them, run

    PYTHONPATH=src python tests/test_fingerprint.py

which prints the two hashes of the current code. A change that moves one
on purpose must say why in CHANGES.md when it re-pins it.
"""

import hashlib
import json
from random import Random

import matchstream as ms
import _corpus

DECISIONS = "69fe4a10657a6531f3a4c13531b1232867ea0f4f97c924f092962326eaa3cf55"
METERING = "2ebc25c9ecc8e87c95d87b63aef7b839bb18c91fee2ba06d2558bc8dfb458a54"
METERED_KEYS = ("calls", "oracle_calls")

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


def _multipass_records(inst, mp, stream):
    out = []
    for alpha in (0.0, 1.0):
        oracle = inst.build_oracle()
        trace = []
        res = ms.multipass_run(oracle, mp, stream, ms.Schedule.for_matchoid(mp),
                               3, alpha, debug=True, trace=trace)
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
    for mode in ("exact", "heuristic"):
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


def _split(value, path, metering):
    """``value`` without its metered keys; each dropped value is appended
    to ``metering`` as [path, value]."""
    if isinstance(value, dict):
        kept = {}
        for key, item in value.items():
            if key in METERED_KEYS:
                metering.append([f"{path}.{key}", item])
            else:
                kept[key] = _split(item, f"{path}.{key}", metering)
        return kept
    if isinstance(value, list):
        return [_split(item, f"{path}[{i}]", metering)
                for i, item in enumerate(value)]
    return value


def _sha(value):
    text = json.dumps(value, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint():
    """(decisions hash, metering hash) of the current code."""
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
    metering = []
    decisions = _split(_plain(records), "", metering)
    return _sha(decisions), _sha(metering)


def test_behaviour_fingerprint_is_pinned():
    assert fingerprint() == (DECISIONS, METERING)


def test_split_keeps_every_field():
    metering = []
    record = {"calls": 3, "rows": [{"f_S": "0x1p+0", "oracle_calls": 2}]}
    assert _split(record, "", metering) == {"rows": [{"f_S": "0x1p+0"}]}
    assert metering == [[".calls", 3], [".rows[0].oracle_calls", 2]]


if __name__ == "__main__":
    print("\n".join(fingerprint()))
