"""Finite instances of a theory: validation, path evaluation, naturality
and homomorphism search (run on the Hausdorff branch and bound).

Elements of each carrier set are the integers 0..n-1, so the action of a
generator is a plain integer array and composites are array lookups.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, GuardExceeded, InstanceError, TheoryError
from .mm import (
    INF,
    MeasureData,
    MetricData,
    counting_measure,
    discrete_metric,
    shortest_path_metric,
    uniform_measure,
)
from .theory import Path, TheoryPresentation, builtin_theory, parse_theory, render_theory

__all__ = [
    "Instance",
    "Transformation",
    "validate_instance",
    "evaluate_path",
    "find_homomorphism",
    "is_natural",
    "instance_from_json",
    "instance_to_json",
    "load_instance",
    "SEARCH_NODE_GUARD",
]

# node budget of the one search, behind find_homomorphism, hausdorff_distance and the CLI
SEARCH_NODE_GUARD = 10**7


@dataclass(frozen=True, eq=False)
class Instance:
    """A finite C-set, optionally with per-object metric and measure data."""

    theory: TheoryPresentation
    sets: dict[str, int]
    maps: dict[str, np.ndarray]
    metrics: dict[str, MetricData] = field(default_factory=dict)
    measures: dict[str, MeasureData] = field(default_factory=dict)
    fixed: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(
            self,
            "maps",
            {k: np.asarray(v, dtype=int) for k, v in self.maps.items()},
        )
        object.__setattr__(self, "fixed", frozenset(self.fixed))

    def metric(self, obj: str) -> MetricData:
        if obj not in self.metrics:
            raise InstanceError(f"no metric on object {obj!r}")
        return self.metrics[obj]

    def measure(self, obj: str) -> MeasureData:
        if obj not in self.measures:
            raise InstanceError(f"no measure on object {obj!r}")
        return self.measures[obj]

    def with_data(self, metrics=None, measures=None, fixed=None) -> "Instance":
        return Instance(
            self.theory,
            dict(self.sets),
            dict(self.maps),
            dict(self.metrics if metrics is None else metrics),
            dict(self.measures if measures is None else measures),
            frozenset(self.fixed if fixed is None else fixed),
        )


@dataclass(frozen=True, eq=False)
class Transformation:
    """Per-object functions X(c) -> Y(c); not necessarily natural."""

    components: dict[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(
            self,
            "components",
            {k: np.asarray(v, dtype=int) for k, v in self.components.items()},
        )


def validate_instance(x: Instance) -> None:
    """Check carriers, maps and every theory equation; raise InstanceError."""
    problems = []
    for ob in x.theory.objects:
        n = x.sets.get(ob)
        if n is None or n < 0:
            problems.append(f"missing or negative cardinality for object {ob!r}")
    for g in x.theory.generators:
        arr = x.maps.get(g.name)
        if arr is None:
            problems.append(f"missing map for generator {g.name!r}")
            continue
        ndom = x.sets.get(g.dom, 0)
        ncod = x.sets.get(g.cod, 0)
        if arr.shape != (ndom,):
            problems.append(
                f"map {g.name!r} must have length {ndom}, got {arr.shape}"
            )
            continue
        if arr.size and (arr.min() < 0 or arr.max() >= ncod):
            problems.append(f"map {g.name!r} has an entry outside 0..{ncod - 1}")
    if not problems:
        for lhs, rhs in x.theory.equations:
            left = evaluate_path(x, lhs)
            right = evaluate_path(x, rhs)
            if not np.array_equal(left, right):
                bad = int(np.flatnonzero(left != right)[0])
                problems.append(
                    f"equation {lhs} = {rhs} violated at {lhs.dom}[{bad}]"
                )
    for ob, metric in x.metrics.items():
        if metric.n != x.sets.get(ob):
            problems.append(f"metric on {ob!r} has wrong size {metric.n}")
    for ob, measure in x.measures.items():
        if measure.n != x.sets.get(ob):
            problems.append(f"measure on {ob!r} has wrong size {measure.n}")
    for ob in x.fixed:
        if ob not in x.theory.objects:
            problems.append(f"fixed object {ob!r} is not in the theory")
    if problems:
        raise InstanceError("; ".join(problems))


def evaluate_path(x: Instance, p: Path) -> np.ndarray:
    """Array of the composite action along ``p``; identity for the empty path."""
    if p.dom not in x.sets:
        raise InstanceError(f"path domain {p.dom!r} is not an object of the instance")
    out = np.arange(x.sets[p.dom])
    at = p.dom
    for step in p.steps:
        g = x.theory.generator(step)
        if g.dom != at:
            raise TheoryError(f"path {p} is not composable at step {step!r}")
        out = x.maps[step][out]
        at = g.cod
    return out


def _check_same_theory(x: Instance, y: Instance) -> None:
    if x.theory != y.theory:
        raise TheoryError(
            f"instances are over different theories "
            f"({x.theory.name} vs {y.theory.name})"
        )


def _check_fixed(x: Instance, y: Instance) -> None:
    if x.fixed != y.fixed:
        raise InstanceError("instances designate different fixed objects")
    for ob in x.fixed:
        if x.sets[ob] != y.sets[ob]:
            raise InstanceError(
                f"fixed object {ob!r} has different cardinalities "
                f"({x.sets[ob]} vs {y.sets[ob]})"
            )


def is_natural(x: Instance, y: Instance, t: Transformation) -> bool:
    """True when every generator's naturality square commutes."""
    _check_same_theory(x, y)
    for ob in x.theory.objects:
        comp = t.components.get(ob)
        if comp is None or comp.shape != (x.sets[ob],):
            raise DimensionError(f"component at {ob!r} is missing or mis-sized")
        if comp.size and (comp.min() < 0 or comp.max() >= y.sets[ob]):
            raise DimensionError(f"component at {ob!r} lands outside Y({ob})")
    for g in x.theory.generators:
        lhs = t.components[g.cod][x.maps[g.name]]
        rhs = y.maps[g.name][t.components[g.dom]]
        if not np.array_equal(lhs, rhs):
            return False
    return True


class _ZeroRows:
    """Rows of ``n`` costs that read 0 at the points ``hits[v]`` of row
    ``v`` and inf elsewhere.  A row is built when it is read, so the rows
    take no memory of their own."""

    def __init__(self, hits, n: int):
        self.hits, self.n = hits, n

    def __getitem__(self, v: int) -> list[float]:
        row = [INF] * self.n
        for c in self.hits[v]:
            row[c] = 0.0
        return row


def find_homomorphism(
    x: Instance, y: Instance, node_guard: int = SEARCH_NODE_GUARD
) -> Transformation | None:
    """The lexicographically first natural transformation X -> Y, or None.

    Components fill in declaration order of objects, elements ascending, and
    candidate images ascend; components at fixed objects are pinned to the
    identity.  This is the Hausdorff branch and bound at p = inf over every
    transformation, on costs 0 where a naturality square commutes and inf
    where it does not: X's measures are dropped so that every square counts.
    Past ``node_guard`` nodes it raises GuardExceeded.  The search skips a
    candidate for the first entry when an automorphism of Y maps an earlier
    candidate onto it: composing with the inverse automorphism gives a
    natural map that comes earlier, so the answer is the same.  As in the
    Hausdorff search, the automorphisms also keep Y's metrics and measures,
    which costs at most some skips.

    Memory is linear in the sizes of X and Y; time per node is linear in the
    size of Y's sets.  On a symmetric codomain only one candidate per orbit
    is searched at the first entry: ``C3 -> C300`` visits 900 nodes in about
    0.1 s and answers None, where searching every candidate took about 30 s.
    """
    from .hausdorff import HausdorffConfig, _Search

    _check_same_theory(x, y)
    _check_fixed(x, y)

    def charges(g, dom_first):
        # with the dom entry at v, the square commutes only where the cod
        # entry is Y(g)(v); with the cod entry at u, only where the dom entry
        # is a preimage of u under Y(g)
        yf = y.maps[g.name].tolist()
        if dom_first:
            return _ZeroRows([(b,) for b in yf], y.sets[g.cod])
        hits = [[] for _ in range(y.sets[g.cod])]
        for c, b in enumerate(yf):
            hits[b].append(c)
        return _ZeroRows(hits, len(yf))

    cfg = HausdorffConfig(p=INF, component_class="all", guard=node_guard)
    try:
        return _Search(x.with_data(measures={}), y, cfg, charges).run()[1]
    except GuardExceeded as exc:
        raise GuardExceeded(
            f"homomorphism search exceeded {node_guard} nodes", exc.count
        ) from None


# -- JSON input/output --------------------------------------------------------


def _matrix_from_json(rows) -> np.ndarray:
    """A float matrix from JSON rows of numbers, in which the string "inf"
    spells inf."""
    if not isinstance(rows, list):
        raise InstanceError(f"a matrix must be a list of rows, got {rows!r}")
    for row in rows:
        _check_numbers("matrix rows", row, inf_spelled=True)
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise InstanceError(f"matrix rows must have one length, got lengths {lengths}")
    return np.asarray([[INF if v == "inf" else float(v) for v in row] for row in rows])


def _metric_from_json(obj, entry, inst_sets, inst_maps, theory):
    _json_fields(f"metric on {obj!r}", entry, ())
    kind = entry.get("kind")
    (n,) = _json_fields(f"sets (for the metric on {obj!r})", inst_sets, (obj,))
    if kind == "discrete":
        return discrete_metric(n)
    if kind == "shortest_path":
        stub = Instance(theory, dict(inst_sets), dict(inst_maps))
        if obj != "V":
            raise InstanceError("shortest_path metric is defined on the object V")
        weights = entry.get("weights")
        if weights is not None:
            _check_numbers("shortest_path weights", weights)
        return shortest_path_metric(stub, weights)
    if kind == "explicit":
        (matrix,) = _json_fields(f"explicit metric on {obj!r}", entry, ("matrix",))
        return MetricData(n, _matrix_from_json(matrix))
    raise InstanceError(f"unknown metric kind {kind!r} on object {obj!r}")


def _measure_from_json(obj, entry, inst_sets):
    _json_fields(f"measure on {obj!r}", entry, ())
    kind = entry.get("kind")
    (n,) = _json_fields(f"sets (for the measure on {obj!r})", inst_sets, (obj,))
    if kind == "counting":
        return counting_measure(n)
    if kind == "uniform":
        return uniform_measure(n)
    if kind == "explicit":
        (weights,) = _json_fields(f"explicit measure on {obj!r}", entry, ("weights",))
        _check_numbers(f"measure weights on {obj!r}", weights)
        return MeasureData(n, np.asarray(weights, dtype=float))
    raise InstanceError(f"unknown measure kind {kind!r} on object {obj!r}")


def _json_fields(what: str, data, keys) -> list:
    """``data[key]`` for each of ``keys``; raise unless ``data`` is a JSON
    object that has every one of them."""
    if not isinstance(data, dict):
        raise InstanceError(f"{what} must be a JSON object, got {data!r}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise InstanceError(f"{what} lacks {', '.join(map(repr, missing))}")
    return [data[key] for key in keys]


def _json_object(data: dict, key: str) -> dict:
    """``data[key]``, which must be a JSON object; an absent or null one
    reads as empty."""
    value = data.get(key)
    if value is None:
        return {}
    _json_fields(key, value, ())
    return value


def _check_integers(what: str, values) -> None:
    """Raise unless ``values`` is a list of JSON integers that fit in 64
    bits: 0.7, "1" and true are refused, not truncated."""
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise InstanceError(f"{what} must be integers, got {values!r}")
    if any(not -(2**63) <= v < 2**63 for v in values):
        raise InstanceError(f"{what} must fit in 64 bits")


def _check_numbers(what: str, values, inf_spelled: bool = False) -> None:
    """Raise unless ``values`` is a list of JSON numbers within the float
    range: "2.5" and true are refused, not converted.  With ``inf_spelled``
    the string "inf" counts as a number."""
    if not isinstance(values, list) or any(
        type(v) not in (int, float) and not (inf_spelled and v == "inf") for v in values
    ):
        raise InstanceError(f"{what} must be numbers, got {values!r}")
    if any(type(v) is int and abs(v) > sys.float_info.max for v in values):
        raise InstanceError(f"{what} must lie within the float range")


def instance_from_json(data: dict, theory: TheoryPresentation | None = None) -> Instance:
    """Build and validate an Instance from its JSON dict form."""
    _json_fields("instance", data, ())
    if theory is None:
        entry = data.get("theory")
        if isinstance(entry, str):
            theory = builtin_theory(entry)
        elif isinstance(entry, dict) and "dsl" in entry:
            if not isinstance(entry["dsl"], str):
                raise InstanceError(f"a theory's 'dsl' must be a string, got {entry['dsl']!r}")
            theory = parse_theory(entry["dsl"])
        else:
            raise InstanceError("instance JSON needs a 'theory' (builtin name or {'dsl': ...})")
    sets, maps = _json_object(data, "sets"), _json_object(data, "maps")
    for ob in sets:
        if ob not in theory.objects:
            raise InstanceError(f"set {ob!r} names no object of theory {theory.name}")
    generators = {g.name for g in theory.generators}
    for name in maps:
        if name not in generators:
            raise InstanceError(f"map {name!r} names no generator of theory {theory.name}")
    _check_integers("set sizes", list(sets.values()))
    for k, v in maps.items():
        _check_integers(f"map {k!r}", v)
    maps = {k: np.asarray(v, dtype=int) for k, v in maps.items()}
    metrics = {
        ob: _metric_from_json(ob, entry, sets, maps, theory)
        for ob, entry in _json_object(data, "metrics").items()
    }
    measures = {
        ob: _measure_from_json(ob, entry, sets)
        for ob, entry in _json_object(data, "measures").items()
    }
    fixed = data.get("fixed")
    if fixed is None:
        fixed = []
    elif not isinstance(fixed, list) or any(not isinstance(ob, str) for ob in fixed):
        raise InstanceError(f"fixed must be a list of object names, got {fixed!r}")
    inst = Instance(theory, dict(sets), maps, metrics, measures, frozenset(fixed))
    validate_instance(inst)
    return inst


def _metric_to_json(metric: MetricData):
    rows = [["inf" if math.isinf(v) else v for v in row] for row in metric.d.tolist()]
    return {"kind": "explicit", "matrix": rows}


def instance_to_json(x: Instance) -> dict:
    """Serialize an instance; metrics and measures are written explicitly."""
    from .theory import BUILTIN_THEORY_NAMES

    tname = None
    for name in BUILTIN_THEORY_NAMES:
        if builtin_theory(name) == x.theory:
            tname = name
            break
    data = {
        "theory": tname if tname is not None else {"dsl": render_theory(x.theory)},
        "sets": dict(x.sets),
        "maps": {k: v.tolist() for k, v in x.maps.items()},
    }
    if x.metrics:
        data["metrics"] = {ob: _metric_to_json(m) for ob, m in x.metrics.items()}
    if x.measures:
        data["measures"] = {
            ob: {"kind": "explicit", "weights": m.w.tolist()}
            for ob, m in x.measures.items()
        }
    if x.fixed:
        data["fixed"] = sorted(x.fixed)
    return data


def load_instance(path: str) -> Instance:
    """Load an instance from a JSON file or a builtin: URI."""
    if path.startswith("builtin:"):
        from .gallery import builtin_instance

        return builtin_instance(path[len("builtin:"):])
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))
