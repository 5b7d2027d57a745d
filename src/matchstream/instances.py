"""Instance files, oracle/constraint builders, and random families.

An instance file is JSON:

    {"schema_version": 1, "n": 12, "monotone": true,
     "objective": {"kind": "weighted-coverage", "sets": [...], "item_weights": [...]},
     "constraint": {"p": 2, "rank": null, "matroids": [
         {"kind": "uniform", "ground": [0, 1, 4], "capacity": 1}, ...]}}

Objective kinds: weighted-coverage (sets + item_weights), directed-cut
(arcs [[u, v, w], ...]), modular (weights), custom-table (table of 2^n
values). Matroid kinds: uniform (capacity), partition (parts +
capacities), graphic (endpoints [[e, u, v], ...]), transversal
(adjacency [[e, [r, ...]], ...]). A rank must be a non-negative integer;
a null one is computed on the first read of ``PMatchoid.rank_k``, which
only the drivers and summaries make. An optional "p" must equal the
derived p, "n" must be integral, and ``monotone``, a JSON boolean, must
equal the built oracle's ``monotone``, a fact of its class. A bad file
raises ConfigError naming its path.

``FAMILIES`` are the keys of the generator table. Each constraint shape
has one builder: ``_uniform_constraint`` serves ``coverage+uniform`` and
``directed-cut+matroid``, and ``_matching`` both matching families (one
capacity-1 uniform matroid per vertex, p the edge size). Every coverage
objective comes from ``_coverage_objective``.
"""

import json
from contextlib import contextmanager
from itertools import combinations
from random import Random

from .errors import ConfigError, integer
from .matchoids import (GraphicMatroid, PartitionMatroid, PMatchoid,
                        TransversalMatroid, UniformMatroid)
from .objectives import (CoverageOracle, DirectedCutOracle, ModularOracle,
                         TableOracle)

SCHEMA_VERSION = 1


class Instance:
    __slots__ = ("n", "monotone", "objective", "constraint", "path")

    def __init__(self, n, monotone, objective, constraint, path=None):
        self.n = integer(n, "n")
        if not isinstance(monotone, bool):
            raise TypeError(f"monotone must be true or false, got {monotone!r}")
        self.monotone = monotone
        self.objective = objective
        self.constraint = constraint
        self.path = path

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "monotone": self.monotone,
            "objective": self.objective,
            "constraint": self.constraint,
        }

    @classmethod
    def from_dict(cls, data, path=None):
        with _reading(path, "instance"):
            if not (isinstance(data, dict) and isinstance(data["objective"], dict)
                    and isinstance(data["constraint"], dict)):
                raise TypeError("the document, objective and constraint must be objects")
            return cls(data["n"], data["monotone"], data["objective"],
                       data["constraint"], path=path)

    def build_oracle(self):
        """Fresh oracle (own call counters) for this instance. The file's
        ``monotone`` must equal the class fact ``oracle.monotone``."""
        obj = self.objective
        kind = obj.get("kind")
        with _reading(self.path, "objective"):
            if kind == "weighted-coverage":
                oracle = CoverageOracle(obj["sets"], obj["item_weights"])
            elif kind == "directed-cut":
                oracle = DirectedCutOracle(self.n, obj["arcs"])
            elif kind == "modular":
                oracle = ModularOracle(obj["weights"])
            elif kind == "custom-table":
                oracle = TableOracle(self.n, obj["table"])
            else:
                raise ValueError(f"unknown kind {kind!r}")
            if self.monotone != oracle.monotone:
                raise ValueError(f"declares monotone={json.dumps(self.monotone)}, "
                                 f"its {kind} objective gives "
                                 f"monotone={json.dumps(oracle.monotone)}")
        if len(oracle.ground) != self.n:
            raise ConfigError(f"{self.path or 'instance'}: objective covers "
                              f"{len(oracle.ground)} elements, n={self.n}")
        return oracle

    def build_matchoid(self):
        """Fresh constraint, built without a rank search. Its p is derived
        from the matroids; a file that also declares one must match it."""
        block = self.constraint
        matroids = []
        with _reading(self.path, "constraint"):
            for rec in block.get("matroids", []):
                kind = rec.get("kind") if isinstance(rec, dict) else None
                ground = rec["ground"]
                if kind == "uniform":
                    matroids.append(UniformMatroid(ground, rec["capacity"]))
                elif kind == "partition":
                    matroids.append(PartitionMatroid(ground, rec["parts"],
                                                     rec["capacities"]))
                elif kind == "graphic":
                    endpoints = {e: (u, v) for e, u, v in rec["endpoints"]}
                    matroids.append(GraphicMatroid(ground, endpoints))
                elif kind == "transversal":
                    adjacency = {e: rs for e, rs in rec["adjacency"]}
                    matroids.append(TransversalMatroid(ground, adjacency))
                else:
                    raise ValueError(f"unknown matroid kind {kind!r}")
            mp = PMatchoid(range(self.n), matroids, rank=block.get("rank"))
            declared = block.get("p")
            if declared not in (None, mp.p):
                raise ValueError(f"declares p={declared}, its matroids give p={mp.p}")
            return mp


@contextmanager
def _reading(path, part):
    """Bad or missing values in ``part`` of file ``path`` raise ConfigError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path or 'instance'}: {part}: {reason}") from exc


def load_instance(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"{path}: not a readable JSON file ({exc})") from exc
    return Instance.from_dict(data, path=str(path))


def save_instance(instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def stream_order(n, shuffle_seed=None):
    """Default arrival order: ascending ids, or one seeded permutation
    reused for every pass."""
    order = list(range(n))
    if shuffle_seed is not None:
        Random(shuffle_seed).shuffle(order)
    return order


def generate_instance(family, seed, **params):
    """Random instance from a named family; deterministic under the seed.

    Every family uses small integer weights so objective comparisons in
    tests are exact, and guarantees a strictly positive optimum. A
    parameter the family does not take raises ConfigError, and so does a
    count below its minimum, before anything is drawn: every count's
    minimum is 1, except n >= 2 for ``directed-cut+matroid`` and
    vertices >= 3 for ``3-uniform-hypergraph-matching``. A None
    ``items`` draws n + 2..6 items, and a None ``arcs`` is 3n.
    """
    names = family_params(family)
    if not set(params) <= set(names):
        raise ConfigError(f"family {family!r} takes {', '.join(names)}, not "
                          f"{', '.join(sorted(set(params) - set(names)))}")
    for name, value in params.items():
        least = _MINIMUMS.get((family, name), 1)
        if value is not None and value < least:
            raise ConfigError(f"family {family!r} needs {name} >= {least}, "
                              f"got {value}")
    return _GENERATORS[family](Random(seed), **params)


def family_params(family):
    """The parameters a family's generator takes, in order; an unknown
    family raises ConfigError."""
    maker = _GENERATORS.get(family)
    if maker is None:
        raise ConfigError(f"unknown instance family: {family!r} "
                          f"(choose from {', '.join(FAMILIES)})")
    # parameters after rng; importing inspect instead adds ~0.6 MiB peak RSS
    return maker.__code__.co_varnames[1:maker.__code__.co_argcount]


def _coverage_objective(rng, n, items, max_weight):
    """n random coverage sets over ``items`` weighted items; a None item
    count draws n + 2..6."""
    items = items if items is not None else n + rng.randint(2, 6)
    sets = []
    for _ in range(n):
        size = rng.randint(1, max(1, items // 2))
        sets.append(sorted(rng.sample(range(items), size)))
    weights = [rng.randint(1, max_weight) for _ in range(items)]
    return {"kind": "weighted-coverage", "sets": sets, "item_weights": weights}


def _uniform_constraint(n, capacity):
    """One uniform matroid of ``capacity`` over all n elements."""
    return {"p": 1, "rank": min(n, capacity), "matroids": [
        {"kind": "uniform", "ground": list(range(n)), "capacity": capacity},
    ]}


def _matching(rng, hyperedges, vertices, p, items, max_weight):
    """Coverage over the elements ``hyperedges`` (vertex tuples of size
    p), under one capacity-1 uniform matroid per vertex that lies in an
    edge, in vertex order."""
    n = len(hyperedges)
    objective = _coverage_objective(rng, n, items, max_weight)
    incident = [[] for _ in range(vertices)]
    for e, edge in enumerate(hyperedges):
        for v in edge:
            incident[v].append(e)
    matroids = [{"kind": "uniform", "ground": ground, "capacity": 1}
                for ground in incident if ground]
    return Instance(n, True, objective, {"p": p, "rank": None, "matroids": matroids})


def _gen_coverage_uniform(rng, n=12, items=None, capacity=3, max_weight=3):
    objective = _coverage_objective(rng, n, items, max_weight)
    return Instance(n, True, objective, _uniform_constraint(n, capacity))


def _gen_coverage_partition(rng, n=12, parts=3, items=None, max_weight=3):
    objective = _coverage_objective(rng, n, items, max_weight)
    ids = list(range(n))
    rng.shuffle(ids)
    chunks = [sorted(ids[j::parts]) for j in range(parts)]
    chunks = [c for c in chunks if c]
    capacities = [rng.randint(1, 2) for _ in chunks]
    rank = sum(min(cap, len(chunk)) for cap, chunk in zip(capacities, chunks))
    constraint = {"p": 1, "rank": rank, "matroids": [
        {"kind": "partition", "ground": list(range(n)),
         "parts": chunks, "capacities": capacities},
    ]}
    return Instance(n, True, objective, constraint)


def _gen_bipartite_matching(rng, left=4, right=4, edges=10, items=None,
                            max_weight=3):
    """Edges (u, v) of K_{left,right}; right vertex v is vertex left + v."""
    pairs = [(u, left + v) for u in range(left) for v in range(right)]
    chosen = sorted(rng.sample(pairs, min(edges, len(pairs))))
    return _matching(rng, chosen, left + right, 2, items, max_weight)


def _gen_hypergraph_matching(rng, vertices=6, hyperedges=8, items=None,
                             max_weight=3):
    triples = list(combinations(range(vertices), 3))
    chosen = sorted(rng.sample(triples, min(hyperedges, len(triples))))
    return _matching(rng, chosen, vertices, 3, items, max_weight)


def _gen_directed_cut(rng, n=10, arcs=None, capacity=4, max_weight=3):
    arcs = arcs if arcs is not None else 3 * n
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = min(arcs, len(pairs))
    chosen = sorted(rng.sample(pairs, arcs))
    arc_list = [[u, v, rng.randint(1, max_weight)] for u, v in chosen]
    objective = {"kind": "directed-cut", "arcs": arc_list}
    return Instance(n, False, objective, _uniform_constraint(n, capacity))


_GENERATORS = {
    "coverage+uniform": _gen_coverage_uniform,
    "coverage+partition": _gen_coverage_partition,
    "bipartite-matching": _gen_bipartite_matching,
    "3-uniform-hypergraph-matching": _gen_hypergraph_matching,
    "directed-cut+matroid": _gen_directed_cut,
}
FAMILIES = tuple(_GENERATORS)

# every count a family takes is at least 1, and these at least their
# value here: below it a family writes an instance with no positive
# optimum or one the loaders refuse, or cannot draw at all
_MINIMUMS = {("directed-cut+matroid", "n"): 2,
             ("3-uniform-hypergraph-matching", "vertices"): 3}
