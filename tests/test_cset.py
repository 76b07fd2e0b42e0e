import json
import tracemalloc

import numpy as np
import pytest

from cset_transport.cset import (
    Instance,
    Transformation,
    evaluate_path,
    find_homomorphism,
    instance_from_json,
    instance_to_json,
    is_natural,
    validate_instance,
)
from cset_transport.errors import GuardExceeded, InstanceError
from cset_transport.gallery import diamond, directed_cycle, loop, path_graph
from cset_transport.theory import Path, builtin_theory

from oracles import all_transformations, random_graph


def cycle(n):
    return directed_cycle(n, "plain")


def test_validate_c3():
    validate_instance(cycle(3))


def test_validate_bad_involution():
    x = Instance(
        builtin_theory("SGraph"),
        {"E": 1, "V": 2},
        {"src": [0], "tgt": [1], "inv": [0]},
    )
    with pytest.raises(InstanceError, match="inv.src = tgt violated"):
        validate_instance(x)


def test_validate_bad_refl():
    x = Instance(
        builtin_theory("RGraph"),
        {"E": 2, "V": 2},
        {"src": [0, 0], "tgt": [0, 1], "refl": [1, 1]},
    )
    with pytest.raises(InstanceError, match="refl.src = id"):
        validate_instance(x)


def test_validate_out_of_range():
    x = Instance(builtin_theory("Graph"), {"E": 1, "V": 1}, {"src": [3], "tgt": [0]})
    with pytest.raises(InstanceError, match="outside"):
        validate_instance(x)


def test_validate_missing_map():
    x = Instance(builtin_theory("Graph"), {"E": 1, "V": 1}, {"src": [0]})
    with pytest.raises(InstanceError, match="missing map"):
        validate_instance(x)


def test_empty_carriers_are_fine():
    x = Instance(builtin_theory("Graph"), {"E": 0, "V": 0}, {"src": [], "tgt": []})
    validate_instance(x)


def test_evaluate_path_c3():
    x = cycle(3)
    assert evaluate_path(x, Path("E", ("src",))).tolist() == [0, 1, 2]
    assert evaluate_path(x, Path("V", ())).tolist() == [0, 1, 2]
    assert evaluate_path(x, Path("E", ("tgt",))).tolist() == [1, 2, 0]


def test_evaluate_path_involution():
    x = Instance(
        builtin_theory("SGraph"),
        {"E": 2, "V": 2},
        {"src": [0, 1], "tgt": [1, 0], "inv": [1, 0]},
    )
    validate_instance(x)
    assert evaluate_path(x, Path("E", ("inv", "inv"))).tolist() == [0, 1]


def test_evaluate_path_functorial():
    rng = np.random.default_rng(7)
    x = Instance(
        builtin_theory("DDS"), {"*": 5}, {"T": rng.integers(0, 5, 5)}
    )
    p = Path("*", ("T", "T", "T"))
    via_composite = evaluate_path(x, p)
    step = evaluate_path(x, Path("*", ("T",)))
    assert np.array_equal(via_composite, step[step[step]])


def test_find_homomorphism_fig5():
    t = find_homomorphism(path_graph(3), diamond())
    assert t is not None
    assert is_natural(path_graph(3), diamond(), t)


def test_find_homomorphism_none():
    assert find_homomorphism(loop(), cycle(3)) is None


def test_find_homomorphism_terminal():
    for x in (cycle(3), diamond(), path_graph(2)):
        t = find_homomorphism(x, loop())
        assert t is not None
        assert np.all(t.components["V"] == 0)
        assert np.all(t.components["E"] == 0)


def _first_natural(x, y):
    return next((t for t in all_transformations(x, y) if is_natural(x, y, t)), None)


def _random_instance(rng, kind, n_attr=2):
    """A small random instance: Graph, VGraph with a fixed attribute object,
    DDS, or SGraph (edges in inverse pairs, plus self-inverse loops)."""
    if kind == "Graph":
        return random_graph(rng, max_v=3, max_e=3)
    if kind == "VGraph":
        g = random_graph(rng, max_v=3, max_e=3)
        nv = g.sets["V"]
        return Instance(
            builtin_theory("VGraph"),
            {"E": g.sets["E"], "V": nv, "A": n_attr},
            {**g.maps, "attr": rng.integers(0, n_attr, nv)},
            fixed={"A"},
        )
    if kind == "DDS":
        n = int(rng.integers(1, 5))
        return Instance(builtin_theory("DDS"), {"*": n}, {"T": rng.integers(0, n, n)})
    nv = int(rng.integers(1, 4))
    src, tgt, inv = [], [], []
    for _ in range(int(rng.integers(0, 3))):
        a, b = (int(v) for v in rng.integers(0, nv, 2))
        e = len(src)
        if a == b and rng.random() < 0.5:
            src, tgt, inv = src + [a], tgt + [a], inv + [e]
        else:
            src, tgt, inv = src + [a, b], tgt + [b, a], inv + [e + 1, e]
    x = Instance(builtin_theory("SGraph"), {"E": len(src), "V": nv},
                 {"src": src, "tgt": tgt, "inv": inv})
    validate_instance(x)
    return x


def test_hom_agrees_with_enumeration():
    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(40):
        x = random_graph(rng, max_v=3, max_e=3)
        y = random_graph(rng, max_v=3, max_e=3)
        pairs.append((x, y))
    for kind in ("VGraph", "DDS", "SGraph"):
        for _ in range(40):
            n_attr = int(rng.integers(1, 4))
            pairs.append(tuple(_random_instance(rng, kind, n_attr) for _ in range(2)))
    for x, y in pairs:
        found = find_homomorphism(x, y)
        first = _first_natural(x, y)
        any_natural = first is not None
        if found is not None:
            assert is_natural(x, y, found)
            assert any_natural
            # the witness is the lexicographically first natural map
            for ob in x.theory.objects:
                assert found.components[ob].tolist() == first.components[ob].tolist()
        else:
            assert not any_natural


def test_hom_checks_fixed_points_of_endomorphisms():
    # a term whose two entries are one entry (T(0) = 0 below, or a
    # self-inverse loop) must be checked too
    dds = builtin_theory("DDS")
    x = Instance(dds, {"*": 2}, {"T": [1, 1]})
    y = Instance(dds, {"*": 5}, {"T": [4, 1, 0, 3, 3]})
    t = find_homomorphism(x, y)
    assert t.components["*"].tolist() == [1, 1]
    assert is_natural(x, y, t)
    sg = builtin_theory("SGraph")
    x = Instance(sg, {"E": 1, "V": 1}, {"src": [0], "tgt": [0], "inv": [0]})
    y = Instance(sg, {"E": 2, "V": 1}, {"src": [0, 0], "tgt": [0, 0], "inv": [1, 0]})
    assert find_homomorphism(x, y) is None


def test_hom_forward_checks_edge_images():
    # Graph declares E before V, so a search that checks an entry only
    # against entries already assigned tries edge images blind: it spent
    # the whole 10^7-node budget here
    x, y = cycle(12), cycle(4)
    t = find_homomorphism(x, y, node_guard=1000)
    assert t is not None
    assert is_natural(x, y, t)


def test_hom_guard_exceeded():
    # C7 -> C14 has no homomorphism; the full search visits 98 nodes: the 14
    # candidates of the first edge and the 84 below the first of them, whose
    # rotations of C14 cover the other 13
    assert find_homomorphism(cycle(7), cycle(14)) is None
    with pytest.raises(GuardExceeded, match="homomorphism search") as exc:
        find_homomorphism(cycle(7), cycle(14), node_guard=50)
    assert exc.value.count > 50
    assert "--force" not in str(exc.value)


def test_hom_symmetry_bounds_the_work():
    # the first edge's 120 candidates and the 240 nodes below the first:
    # rotations of C120 rule out the other 119 candidates.  Without that,
    # the search visits 28,920 nodes
    assert find_homomorphism(cycle(3), cycle(120), node_guard=1000) is None


def test_hom_many_entries():
    # 2,400 component entries, each with one candidate: a search that
    # recurses once per entry passes Python's recursion limit
    t = find_homomorphism(cycle(1200), loop())
    assert t.components["E"].tolist() == [0] * 1200
    assert t.components["V"].tolist() == [0] * 1200


def test_hom_memory_is_linear_in_the_codomain():
    # a cost table of |Y|^2 entries would take about 70 MB here
    x, y = path_graph(2), cycle(3000)
    tracemalloc.start()
    try:
        t = find_homomorphism(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.components["V"].tolist() == [0, 1]
    assert peak < 2_000_000


def test_is_natural_identity():
    x = diamond()
    ident = Transformation({"V": np.arange(4), "E": np.arange(4)})
    assert is_natural(x, x, ident)


def test_is_natural_fig9_map_fails():
    t = Transformation({"V": [0, 1], "E": [0, 1]})
    assert not is_natural(cycle(2), cycle(4), t)


def test_enumeration_counts():
    one = builtin_theory("One")
    a = Instance(one, {"*": 1}, {})
    b = Instance(one, {"*": 3}, {})
    assert len(list(all_transformations(a, a))) == 1
    assert len(list(all_transformations(a, b))) == 3


def test_enumeration_injective_count():
    def injective(f):
        return len(set(f.tolist())) == len(f)

    # every vertex/edge injection pairs up independently
    n = sum(
        all(injective(f) for f in t.components.values())
        for t in all_transformations(cycle(2), cycle(4))
    )
    assert n == 12 * 12 == 144


def test_enumeration_lex_order():
    one = builtin_theory("One")
    a = Instance(one, {"*": 2}, {})
    b = Instance(one, {"*": 2}, {})
    seq = [t.components["*"].tolist() for t in all_transformations(a, b)]
    assert seq == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_enumeration_fixed_pinned():
    aset = builtin_theory("ASet")
    x = Instance(aset, {"*": 1, "A": 2}, {"attr": [0]}, fixed={"A"})
    y = Instance(aset, {"*": 2, "A": 2}, {"attr": [0, 1]}, fixed={"A"})
    ts = list(all_transformations(x, y))
    assert len(ts) == 2
    for t in ts:
        assert t.components["A"].tolist() == [0, 1]


def test_fixed_cardinality_mismatch():
    aset = builtin_theory("ASet")
    x = Instance(aset, {"*": 1, "A": 2}, {"attr": [0]}, fixed={"A"})
    y = Instance(aset, {"*": 1, "A": 3}, {"attr": [0]}, fixed={"A"})
    with pytest.raises(InstanceError, match="cardinalities"):
        find_homomorphism(x, y)


def test_builtin_equation_theories_validate_instances():
    # a filled triangle: the simplicial identities pin the vertex maps
    tri = Instance(
        builtin_theory("Delta2"),
        {"T": 1, "E": 3, "V": 3},
        {
            "e0": [0], "e1": [1], "e2": [2],
            "v0": [0, 0, 1], "v1": [1, 2, 2],
        },
    )
    validate_instance(tri)
    srg = Instance(
        builtin_theory("SRGraph"),
        {"E": 1, "V": 1},
        {"src": [0], "tgt": [0], "inv": [0], "refl": [0]},
    )
    validate_instance(srg)


def test_instance_json_round_trip():
    x = directed_cycle(3, "mm")
    data = instance_to_json(x)
    again = instance_from_json(json.loads(json.dumps(data)))
    assert again.sets == x.sets
    for g in ("src", "tgt"):
        assert np.array_equal(again.maps[g], x.maps[g])
    for ob in ("V", "E"):
        assert np.array_equal(again.metric(ob).d, x.metric(ob).d)
        assert np.array_equal(again.measure(ob).w, x.measure(ob).w)


def test_instance_json_inline_theory():
    data = {
        "theory": {"dsl": "theory Pair { ob A, B }"},
        "sets": {"A": 1, "B": 2},
        "maps": {},
    }
    x = instance_from_json(data)
    assert x.theory.name == "Pair"


def test_instance_json_shortest_path_kind():
    data = {
        "theory": "Graph",
        "sets": {"V": 3, "E": 3},
        "maps": {"src": [0, 1, 2], "tgt": [1, 2, 0]},
        "metrics": {"V": {"kind": "shortest_path"}, "E": {"kind": "discrete"}},
        "measures": {"V": {"kind": "counting"}, "E": {"kind": "uniform"}},
        "fixed": [],
    }
    x = instance_from_json(data)
    assert x.metric("V").d[0, 1] == 1
    assert x.metric("V").d[0, 2] == 2
    assert np.isinf(x.metric("E").d[0, 1])
    assert x.measure("E").total() == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [0.7, 2.9, "1", True, None])
def test_instance_json_rejects_non_integer_sizes_and_maps(bad):
    # a float used to be truncated (0.7 -> 0, 2.9 -> 2) and a string parsed
    def data():
        return {"theory": "Graph", "sets": {"V": 3, "E": 1}, "maps": {"src": [0], "tgt": [1]}}

    sizes = data()
    sizes["sets"]["V"] = bad
    with pytest.raises(InstanceError, match="set sizes must be integers"):
        instance_from_json(sizes)
    for g in ("src", "tgt"):
        entries = data()
        entries["maps"][g] = [bad]
        with pytest.raises(InstanceError, match=f"map '{g}' must be integers"):
            instance_from_json(entries)
    entries = data()
    entries["maps"]["src"] = bad
    with pytest.raises(InstanceError, match="map 'src' must be integers"):
        instance_from_json(entries)
    assert instance_from_json(data()).maps["tgt"].tolist() == [1]


def _two_point_graph(metric_v=None, measure_v=None):
    data = {"theory": "Graph", "sets": {"E": 1, "V": 2}, "maps": {"src": [0], "tgt": [1]}}
    if metric_v is not None:
        data["metrics"] = {"V": metric_v}
    if measure_v is not None:
        data["measures"] = {"V": measure_v}
    return data


@pytest.mark.parametrize("bad", ["2.5", True, None, [1.0]])
def test_instance_json_rejects_non_number_edge_weights(bad):
    # "2.5" used to load as an edge of length 2.5 and true as 1
    with pytest.raises(InstanceError, match="shortest_path weights must be numbers"):
        instance_from_json(_two_point_graph({"kind": "shortest_path", "weights": [bad]}))
    with pytest.raises(InstanceError, match="shortest_path weights must be numbers"):
        instance_from_json(_two_point_graph({"kind": "shortest_path", "weights": "2.5"}))
    x = instance_from_json(_two_point_graph({"kind": "shortest_path", "weights": [2]}))
    assert x.metric("V").d[0, 1] == 2.0


@pytest.mark.parametrize("weights", [["1", True], [1, True], ["inf", 1.0], [1.0, None]])
def test_instance_json_rejects_non_number_measure_weights(weights):
    # ["1", true] used to load as [1.0, 1.0]
    with pytest.raises(InstanceError, match="measure weights on 'V' must be numbers"):
        instance_from_json(_two_point_graph(measure_v={"kind": "explicit", "weights": weights}))
    x = instance_from_json(_two_point_graph(measure_v={"kind": "explicit", "weights": [1, 0.5]}))
    assert x.measure("V").w.tolist() == [1.0, 0.5]


@pytest.mark.parametrize("bad", ["1", True, None, "Infinity"])
def test_instance_json_rejects_non_number_metric_entries(bad):
    matrix = [[0, bad], ["inf", 0]]
    with pytest.raises(InstanceError, match="matrix rows must be numbers"):
        instance_from_json(_two_point_graph({"kind": "explicit", "matrix": matrix}))
    with pytest.raises(InstanceError, match="a matrix must be a list of rows"):
        instance_from_json(_two_point_graph({"kind": "explicit", "matrix": "0"}))
    x = instance_from_json(_two_point_graph({"kind": "explicit", "matrix": [[0, 1.5], ["inf", 0]]}))
    assert x.metric("V").d.tolist() == [[0.0, 1.5], [np.inf, 0.0]]
