"""Instance generation, file round-trips, and loader validation."""

import hashlib
import json
from pathlib import Path

import pytest

import matchstream as ms
from matchstream import instances


def test_every_family_generates_valid_instances():
    expected_p = {
        "coverage+uniform": 1,
        "coverage+partition": 1,
        "bipartite-matching": 2,
        "3-uniform-hypergraph-matching": 3,
        "directed-cut+matroid": 1,
    }
    for family in ms.FAMILIES:
        for seed in range(5):
            inst = ms.generate_instance(family, seed)
            oracle = inst.build_oracle()
            mp = inst.build_matchoid()
            assert len(oracle.ground) == inst.n
            assert mp.p == expected_p[family]
            assert mp.rank_k >= 1
            assert oracle.monotone == inst.monotone
            # a positive optimum is guaranteed by construction
            assert any(oracle.peek({e}) > 0 for e in oracle.ground)


def test_generation_is_deterministic():
    a = ms.generate_instance("bipartite-matching", 42)
    b = ms.generate_instance("bipartite-matching", 42)
    assert a.to_dict() == b.to_dict()
    c = ms.generate_instance("bipartite-matching", 43)
    assert c.to_dict() != a.to_dict()


def test_unknown_family_rejected():
    with pytest.raises(ms.ConfigError):
        ms.generate_instance("knapsack", 0)


def test_save_load_round_trip(tmp_path):
    inst = ms.generate_instance("coverage+partition", 7)
    path = tmp_path / "inst.json"
    ms.save_instance(inst, path)
    loaded = ms.load_instance(path)
    assert loaded.to_dict() == inst.to_dict()
    ms.save_instance(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


def test_loader_rejects_membership_violation(tmp_path):
    data = ms.generate_instance("coverage+uniform", 0, n=4).to_dict()
    data["constraint"]["matroids"].append(
        {"kind": "uniform", "ground": [0], "capacity": 1})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ms.ConfigError):
        ms.load_instance(path).build_matchoid()


def test_loader_rejects_unknown_kinds(tmp_path):
    data = ms.generate_instance("coverage+uniform", 0, n=4).to_dict()
    data["objective"]["kind"] = "mystery"
    path = tmp_path / "bad_obj.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ms.ConfigError):
        ms.load_instance(path).build_oracle()

    data = ms.generate_instance("coverage+uniform", 0, n=4).to_dict()
    data["constraint"]["matroids"][0]["kind"] = "mystery"
    path = tmp_path / "bad_mat.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ms.ConfigError):
        ms.load_instance(path).build_matchoid()


def test_loader_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ms.ConfigError):
        ms.load_instance(path)


@pytest.mark.parametrize("field, bad, reason", [
    ("n", 3.7, "n must be integers"),
    ("n", "3", "n must be integers"),
    ("n", True, "n must be integers"),
    ("monotone", "false", "monotone must be true or false"),
], ids=["fractional n", "text n", "boolean n", "text monotone"])
def test_loader_checks_n_and_monotone(tmp_path, field, bad, reason):
    # int() read 3.7 and "3" as n = 3, and bool() read "false" as true
    data = ms.generate_instance("coverage+uniform", 0, n=3).to_dict()
    data[field] = bad
    path = tmp_path / "bad_header.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ms.ConfigError, match=reason) as caught:
        ms.load_instance(path)
    assert str(path) in str(caught.value)


def test_supplied_rank_is_respected_and_null_rank_computed(tmp_path):
    inst = ms.generate_instance("bipartite-matching", 3)
    assert inst.constraint["rank"] is None
    mp = inst.build_matchoid()
    assert mp.rank_k == ms.compute_rank(mp)

    data = inst.to_dict()
    data["constraint"]["rank"] = mp.rank_k
    path = tmp_path / "ranked.json"
    path.write_text(json.dumps(data))
    assert ms.load_instance(path).build_matchoid().rank_k == mp.rank_k


def test_custom_table_instance_file_builds_its_oracle(tmp_path):
    # f(A) from a table of 2^3 values by bitmask; not submodular, and
    # declared non-monotone, as every table oracle is
    table = [0, 2, 1, 2, 3, 4, 4, 3]
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "schema_version": 1, "n": 3, "monotone": False,
        "objective": {"kind": "custom-table", "table": table},
        "constraint": {"rank": None, "matroids": [
            {"kind": "uniform", "ground": [0, 1, 2], "capacity": 2}]}}))
    inst = ms.load_instance(path)
    oracle = inst.build_oracle()
    assert isinstance(oracle, ms.TableOracle) and not oracle.submodular
    assert [oracle.peek(e for e in range(3) if mask >> e & 1)
            for mask in range(8)] == table
    result = ms.brute_force_opt(oracle, inst.build_matchoid())
    assert (result.opt_value, result.opt_set) == (4.0, {0, 2})


def _null_rank_instance(n, matroids, p=1):
    return ms.Instance.from_dict({
        "n": n, "monotone": True,
        "objective": {"kind": "modular", "weights": [1] * n},
        "constraint": {"p": p, "rank": None, "matroids": matroids}})


def test_null_rank_of_large_single_matroids_is_closed_form():
    n = 45
    edges = [(u, v) for u in range(10) for v in range(u + 1, 10)]  # K10
    cases = [
        ({"kind": "uniform", "ground": list(range(n)), "capacity": 7}, 7),
        ({"kind": "partition", "ground": list(range(n)),
          "parts": [list(range(0, 20)), list(range(20, 40))],
          "capacities": [3, 0]}, 3 + 0 + 5),      # 40..44 are free
        ({"kind": "graphic", "ground": list(range(n)),
          "endpoints": [[e, u, v] for e, (u, v) in enumerate(edges)]}, 9),
    ]
    for matroid, rank in cases:
        assert _null_rank_instance(n, [matroid]).build_matchoid().rank_k == rank
    # p >= 2 keeps the exact search, sized by the work budget; it runs on
    # the first read of rank_k, not at build time
    two = [{"kind": "uniform", "ground": list(range(17)), "capacity": 2}] * 2
    assert _null_rank_instance(17, two, p=2).build_matchoid().rank_k == 2
    wide = [{"kind": "uniform", "ground": list(range(40)), "capacity": 20}] * 2
    mp = _null_rank_instance(40, wide, p=2).build_matchoid()
    assert mp.p == 2
    with pytest.raises(ms.SizeError, match="over budget"):
        mp.rank_k


def test_graphic_and_transversal_instance_files(tmp_path):
    data = {
        "schema_version": 1,
        "n": 4,
        "monotone": True,
        "objective": {"kind": "modular", "weights": [1, 2, 3, 4]},
        "constraint": {"p": 2, "rank": None, "matroids": [
            {"kind": "graphic", "ground": [0, 1, 2],
             "endpoints": [[0, 0, 1], [1, 1, 2], [2, 2, 0]]},
            {"kind": "transversal", "ground": [2, 3],
             "adjacency": [[2, [0]], [3, [0, 1]]]},
        ]},
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(data))
    inst = ms.load_instance(path)
    mp = inst.build_matchoid()
    assert not mp.feasible({0, 1, 2})     # triangle
    assert mp.feasible({0, 1, 3})
    assert mp.rank_k == 3                 # two forest edges plus element 3


def test_stream_order_default_and_shuffle():
    assert ms.stream_order(5) == [0, 1, 2, 3, 4]
    a = ms.stream_order(10, shuffle_seed=3)
    b = ms.stream_order(10, shuffle_seed=3)
    assert a == b
    assert sorted(a) == list(range(10))
    assert a != list(range(10))


def test_declared_p_must_be_the_derived_p(tmp_path):
    # p is the most matroids any element lies in; a file may omit it, and
    # a file that gives another value is rejected, naming both
    data = {"schema_version": 1, "n": 17, "monotone": True,
            "objective": {"kind": "modular", "weights": [1] * 17},
            "constraint": {"p": 2, "rank": None, "matroids": [
                {"kind": "uniform", "ground": list(range(17)), "capacity": 3}]}}
    path = tmp_path / "over.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ms.ConfigError) as caught:
        ms.load_instance(path).build_matchoid()
    assert str(path) in str(caught.value)
    assert "p=2" in str(caught.value) and "p=1" in str(caught.value)
    for declared in (1, None):
        data["constraint"]["p"] = declared
        mp = ms.Instance.from_dict(data).build_matchoid()
        assert (mp.p, mp.rank_k) == (1, 3)
    del data["constraint"]["p"]
    assert ms.Instance.from_dict(data).build_matchoid().p == 1


def test_declared_p_is_checked_before_the_rank(tmp_path):
    # a null rank at p = 2 needs an exact search, which the build does
    # not run; a file under-declaring p is told so at build time, at 17
    # elements (in budget) and at 40 (over it)
    for n, capacity in ((17, 3), (40, 20)):
        two = [{"kind": "uniform", "ground": list(range(n)),
                "capacity": capacity}] * 2
        path = tmp_path / f"under{n}.json"
        ms.save_instance(_null_rank_instance(n, two, p=1), path)
        with pytest.raises(ms.ConfigError,
                           match="declares p=1, its matroids give p=2"):
            ms.load_instance(path).build_matchoid()


@pytest.mark.parametrize("rank", [-1, -1.0])
def test_negative_rank_is_refused(tmp_path, rank):
    # a rank of -1 certified with a negative k alpha slack, which shrinks
    # opt_upper_bound, and sized the randomized buffer at m = 1
    matroids = [ms.UniformMatroid(range(3), 2)]
    with pytest.raises(ms.PreconditionError, match="rank must be non-negative"):
        ms.PMatchoid(range(3), matroids, rank=rank)
    assert ms.PMatchoid(range(3), matroids, rank=0).rank_k == 0
    inst = ms.generate_instance("coverage+uniform", 0, n=3)
    inst.constraint["rank"] = rank
    path = tmp_path / "negative_rank.json"
    ms.save_instance(inst, path)
    with pytest.raises(ms.ConfigError, match="rank must be non-negative") as caught:
        ms.load_instance(path).build_matchoid()
    assert str(path) in str(caught.value)


def test_drivers_read_the_rank_before_any_oracle_call():
    # the 40 x 40, 600-edge matching builds and runs the greedy without a
    # rank; both drivers need k, whose search is over budget, and say so
    # before their first oracle call
    inst = ms.generate_instance("bipartite-matching", 0, left=40, right=40,
                                edges=600)
    assert inst.constraint["rank"] is None
    mp = inst.build_matchoid()
    oracle = inst.build_oracle()
    order = ms.stream_order(inst.n)
    assert mp.feasible(ms.offline_greedy(oracle, mp))
    oracle.reset_counters()
    with pytest.raises(ms.SizeError, match="over budget"):
        ms.multipass_run(oracle, mp, order, ms.Schedule.for_matchoid(mp), 1, 1.0)
    with pytest.raises(ms.SizeError, match="over budget"):
        ms.multipass_randomized(oracle, mp, order, 0.5, 1)
    assert oracle.calls == 0


def test_generate_rejects_parameters_the_family_does_not_take():
    with pytest.raises(ms.ConfigError,
                       match="takes n, items, capacity, max_weight, not parts"):
        ms.generate_instance("coverage+uniform", 0, parts=3)
    assert ms.generate_instance("coverage+partition", 0, parts=3).n == 12


# below these a family wrote a rank-0 constraint over n feasible elements
# (no parts), failed while drawing (too few vertices, items or weights),
# or wrote a file the loaders refuse (negative counts, no edges)
@pytest.mark.parametrize("family, name, value", [
    ("coverage+partition", "parts", 0),
    ("coverage+partition", "parts", -3),
    ("coverage+uniform", "n", -5),
    ("coverage+uniform", "n", 0),
    ("coverage+uniform", "capacity", -1),
    ("coverage+uniform", "capacity", 0),
    ("coverage+uniform", "items", 0),
    ("bipartite-matching", "left", 0),
    ("bipartite-matching", "edges", 0),
    ("3-uniform-hypergraph-matching", "vertices", 2),
    ("directed-cut+matroid", "n", 1),
    ("directed-cut+matroid", "arcs", 0),
    ("directed-cut+matroid", "max_weight", 0),
])
def test_generate_rejects_counts_below_the_family_minimum(family, name, value):
    with pytest.raises(ms.ConfigError, match=rf"needs {name} >= \d+, got {value}$"):
        ms.generate_instance(family, 0, **{name: value})


# each family's documented minimum for every count it takes
MINIMUMS = {
    "coverage+uniform": {"n": 1, "items": 1, "capacity": 1, "max_weight": 1},
    "coverage+partition": {"n": 1, "parts": 1, "items": 1, "max_weight": 1},
    "bipartite-matching": {"left": 1, "right": 1, "edges": 1, "items": 1,
                           "max_weight": 1},
    "3-uniform-hypergraph-matching": {"vertices": 3, "hyperedges": 1,
                                      "items": 1, "max_weight": 1},
    "directed-cut+matroid": {"n": 2, "arcs": 1, "capacity": 1, "max_weight": 1},
}


def test_every_family_generates_at_its_minimums():
    # at all its minimums each family writes a file that loads, with a
    # positive optimum; one below any of them is refused
    assert set(MINIMUMS) == set(ms.FAMILIES)
    for family, least in MINIMUMS.items():
        assert tuple(least) == instances.family_params(family), family
        inst = ms.generate_instance(family, 0, **least)
        loaded = ms.Instance.from_dict(json.loads(json.dumps(inst.to_dict())))
        oracle, mp = loaded.build_oracle(), loaded.build_matchoid()
        assert ms.brute_force_opt(oracle, mp).opt_value > 0, family
        for name, value in least.items():
            with pytest.raises(ms.ConfigError, match=f"needs {name} >= {value}, "):
                ms.generate_instance(family, 0, **{**least, name: value - 1})


def test_readme_instance_example_builds():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("**Instance (JSON)**", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    inst = ms.Instance.from_dict(json.loads(block))
    oracle, mp = inst.build_oracle(), inst.build_matchoid()
    assert len(oracle.ground) == inst.n == 4
    assert oracle.monotone == inst.monotone
    assert (mp.p, mp.rank_k) == (1, 2)
    assert mp.feasible({0, 2}) and not mp.feasible({0, 1})


# SHA-256 over the generated files below. A change that moves it changes
# the files every generated run reads, so re-pinning it needs a reason
# in CHANGES.md
GENERATED = "76d14672ab992932042b71ba98858dde4c3579d4780443f8e5cc41162d1096e0"

# per family: the defaults, the benchmark's sizes up to n = 400, the
# 40 x 40, 600-edge matching, the 60-vertex, 300-hyperedge hypergraph,
# and vertices or parts left without an element
GENERATED_PARAMS = {
    "coverage+uniform": ({}, {"n": 40, "capacity": 6, "items": 12, "max_weight": 1},
                         {"n": 400, "capacity": 60, "items": 60, "max_weight": 1}),
    "coverage+partition": ({}, {"n": 30, "parts": 4, "items": 9},
                           {"n": 5, "parts": 8}),
    "bipartite-matching": ({}, {"left": 40, "right": 40, "edges": 600},
                           {"left": 6, "right": 5, "edges": 3},
                           {"left": 3, "right": 2, "edges": 9}),
    "3-uniform-hypergraph-matching": ({}, {"vertices": 60, "hyperedges": 300},
                                      {"vertices": 9, "hyperedges": 2},
                                      {"vertices": 4, "hyperedges": 9}),
    "directed-cut+matroid": ({}, {"n": 320, "arcs": 960, "capacity": 2},
                             {"n": 22, "arcs": 462, "capacity": 4}),
}


def generated_digest():
    """SHA-256 over every ``GENERATED_PARAMS`` file for seeds 0-3."""
    digest = hashlib.sha256()
    for family, param_sets in GENERATED_PARAMS.items():
        for params in param_sets:
            for seed in range(4):
                inst = ms.generate_instance(family, seed, **params)
                digest.update(json.dumps([family, seed, params, inst.to_dict()],
                                         sort_keys=True).encode())
    return digest.hexdigest()


def test_generated_instances_are_pinned():
    assert set(GENERATED_PARAMS) == set(ms.FAMILIES)
    assert generated_digest() == GENERATED


if __name__ == "__main__":
    # prints the digest of the current generators, to re-pin GENERATED
    print(generated_digest())
