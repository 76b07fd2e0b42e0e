import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cset_transport.cset import Instance, Transformation, find_homomorphism, is_natural
from cset_transport.errors import GuardExceeded, InstanceError
from cset_transport.gallery import (
    attributed_set,
    diamond,
    directed_cycle,
    line_metric,
    loop,
    path_graph,
    vertex_attributed_graph,
    weak_pair,
)
from cset_transport.hausdorff import (
    HausdorffConfig,
    _is_automorphism,
    _Orbits,
    classical_hausdorff,
    discrete_hausdorff_is_hom,
    hausdorff_distance,
    transformation_weight,
)
from cset_transport.mm import (
    INF,
    MeasureData,
    MetricData,
    counting_measure,
    discrete_metric,
    shortest_path_metric,
)
from cset_transport.theory import Path, builtin_theory, parse_theory

from oracles import (
    all_transformations,
    brute_hausdorff,
    random_graph,
    random_measure,
    random_metric,
    unbounded_hausdorff,
)

MM1 = HausdorffConfig(p=1.0, component_class="mm")


def test_weight_zero_on_natural():
    x = path_graph(3, "mm")
    y = diamond("mm")
    t = Transformation({"V": [0, 1, 3], "E": [0, 2]})
    for g in ("src", "tgt"):
        assert transformation_weight(x, y, t, g, 1.0) == 0.0


def test_weight_fig9():
    x, y = weak_pair(2, 4)
    t = Transformation({"V": [0, 1], "E": [0, 1]})
    assert transformation_weight(x, y, t, "src", 1.0) == 0.0
    assert transformation_weight(x, y, t, "tgt", 1.0) == 2.0


def test_weight_discrete_mismatch_is_infinite():
    x = directed_cycle(2, "discrete")
    y = directed_cycle(3, "discrete")
    t = Transformation({"V": [0, 0], "E": [0, 0]})
    assert transformation_weight(x, y, t, "tgt", 1.0) == INF


def test_distance_to_self_is_zero():
    for inst in (directed_cycle(4), path_graph(3, "mm"), diamond("mm")):
        res = hausdorff_distance(inst, inst, MM1)
        assert res.distance == 0.0
        assert res.witness is not None


def test_weak_cycle_pair_values():
    x, y = weak_pair(2, 4)
    res = hausdorff_distance(x, y, MM1)
    assert res.distance == 2.0
    assert res.per_generator_weights == {"src": 0.0, "tgt": 2.0}
    back = hausdorff_distance(*weak_pair(4, 2), MM1)
    assert back.distance == INF
    assert back.witness is None


def test_witness_weights_aggregate_to_distance():
    x, y = weak_pair(3, 5)
    res = hausdorff_distance(x, y, MM1)
    total = sum(res.per_generator_weights.values())
    assert total == pytest.approx(res.distance, abs=1e-9)
    # the witness is admissible: injective on vertices and edges
    for ob in ("V", "E"):
        comp = res.witness.components[ob]
        assert len(set(comp.tolist())) == len(comp)


def test_matches_brute_enumeration():
    rng = np.random.default_rng(31)
    theory = builtin_theory("Graph")
    for trial in range(12):
        nv, ne = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        mv, me = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        x = Instance(
            theory,
            {"E": ne, "V": nv},
            {"src": rng.integers(0, nv, ne), "tgt": rng.integers(0, nv, ne)},
            metrics={"V": random_metric(rng, nv), "E": random_metric(rng, ne)},
            measures={"V": MeasureData(nv, rng.uniform(0.2, 1, nv)),
                      "E": MeasureData(ne, rng.uniform(0.2, 1, ne))},
        )
        y = Instance(
            theory,
            {"E": me, "V": mv},
            {"src": rng.integers(0, mv, me), "tgt": rng.integers(0, mv, me)},
            metrics={"V": random_metric(rng, mv), "E": random_metric(rng, me)},
            measures={"V": MeasureData(mv, rng.uniform(0.2, 2, mv)),
                      "E": MeasureData(me, rng.uniform(0.2, 2, me))},
        )
        for cls in ("mm", "met", "all"):
            for p in (float(rng.choice([1.0, 2.0])), INF):
                got = hausdorff_distance(x, y, HausdorffConfig(p=p, component_class=cls))
                want = brute_hausdorff(x, y, p, cls)
                if want == INF:
                    assert got.distance == INF
                else:
                    assert got.distance == pytest.approx(want, abs=1e-9)


def _random_instance(rng, kind, attr_metric):
    """A small Graph, DDS or fixed-attribute VGraph instance whose metrics
    have infinite entries and whose measures have zero-mass elements (or,
    now and then, discrete metrics and counting measures)."""
    if kind == "DDS":
        n = int(rng.integers(1, 6))
        sets, maps = {"*": n}, {"T": rng.integers(0, n, n)}
    else:
        nv, ne = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        sets = {"E": ne, "V": nv}
        maps = {"src": rng.integers(0, nv, ne), "tgt": rng.integers(0, nv, ne)}
        if kind == "VGraph":
            sets["A"] = attr_metric.n
            maps["attr"] = rng.integers(0, attr_metric.n, nv)
    metrics, measures = {}, {}
    for ob, n in sets.items():
        if ob == "A":
            metrics[ob], measures[ob] = attr_metric, counting_measure(n)
        elif rng.random() < 0.2:
            metrics[ob], measures[ob] = discrete_metric(n), counting_measure(n)
        else:
            metrics[ob] = random_metric(rng, n, inf_share=0.3)
            measures[ob] = random_measure(rng, n, zero_share=0.25)
    fixed = {"A"} if kind == "VGraph" else set()
    return Instance(builtin_theory(kind), sets, maps, metrics, measures, fixed)


def test_matches_unbounded_search():
    # the lower bound only cuts branches that cannot strictly improve, so
    # the distance and the lexicographically first witness stay those of
    # the search without it, which visits at least as many nodes
    rng = np.random.default_rng(36)
    for trial in range(120):
        kind = ("Graph", "DDS", "VGraph")[trial % 3]
        attr = random_metric(rng, int(rng.integers(1, 5)), inf_share=0.3)
        x, y = _random_instance(rng, kind, attr), _random_instance(rng, kind, attr)
        for cls in ("mm", "met", "all"):
            for p in (1.0, 2.0, INF):
                got = hausdorff_distance(x, y, HausdorffConfig(p=p, component_class=cls))
                dist, witness, nodes = unbounded_hausdorff(x, y, p, cls)
                assert got.distance == dist
                if witness is None:
                    assert got.witness is None
                else:
                    for ob in x.theory.objects:
                        assert np.array_equal(got.witness.components[ob], witness.components[ob])
                assert got.nodes <= nodes


def _copies(component, k):
    """k disjoint copies of a Graph instance, with the shortest-path vertex
    metric, the discrete edge metric and counting measures."""
    nv, ne = component.sets["V"], component.sets["E"]
    g = Instance(
        builtin_theory("Graph"),
        {"E": k * ne, "V": k * nv},
        {s: np.concatenate([component.maps[s] + i * nv for i in range(k)])
         for s in ("src", "tgt")},
    )
    return g.with_data(
        metrics={"V": shortest_path_metric(g), "E": discrete_metric(k * ne)},
        measures={"V": counting_measure(k * nv), "E": counting_measure(k * ne)},
    )


def _same_as_unbounded(x, y, cfg):
    """The search's distance and witness are those of the search without
    the lower bound and the symmetry skips; returns the result."""
    got = hausdorff_distance(x, y, cfg)
    dist, witness, nodes = unbounded_hausdorff(x, y, cfg.p, cfg.component_class)
    assert got.distance == dist
    if witness is None:
        assert got.witness is None
    else:
        for ob in x.theory.objects:
            assert np.array_equal(got.witness.components[ob], witness.components[ob])
    assert got.nodes <= nodes
    return got


def _orbits(y, ob):
    """The least point of each point's orbit, as far as the first entry's
    orbit test finds them when every point is tested."""
    orbits, earlier = _Orbits(y, ob), []
    for v in range(y.sets[ob]):
        if not orbits.covered(v, earlier, test=True):
            earlier.append(v)
    return [orbits._find(v) for v in range(y.sets[ob])]


def test_symmetry_keeps_witnesses_on_weak_cycle_pairs():
    skips = 0
    for m in range(1, 4):
        for n in range(1, 7):
            for cls in ("mm", "met", "all"):
                for p in (1.0, 2.0, INF):
                    cfg = HausdorffConfig(p=p, component_class=cls)
                    skips += _same_as_unbounded(*weak_pair(m, n), cfg).symmetry_skips
    assert skips > 0


def test_symmetry_keeps_witnesses_on_disjoint_copies():
    # copies of one component can be swapped; the refinement pairs off the
    # copies it cannot tell apart until the pairing is a bijection
    rng = np.random.default_rng(37)
    assert _orbits(_copies(directed_cycle(3, "plain"), 3), "E") == [0] * 9
    assert _orbits(_copies(path_graph(3), 3), "E") == [0, 1] * 3
    skips = 0
    for trial in range(24):
        component = directed_cycle(trial % 3 + 1, "plain") if trial % 2 else path_graph(3)
        y = _copies(component, 2 + trial % 2)
        x = random_graph(rng, 3, 3)
        x = x.with_data(
            metrics={ob: discrete_metric(x.sets[ob]) for ob in ("V", "E")},
            measures={ob: counting_measure(x.sets[ob]) for ob in ("V", "E")},
        )
        for cls in ("mm", "all"):
            for p in (1.0, INF):
                cfg = HausdorffConfig(p=p, component_class=cls)
                skips += _same_as_unbounded(x, y, cfg).symmetry_skips
    assert skips > 0


def test_pairing_rotates_weak_pair_codomains():
    # pinning edge 0 to edge k, src and tgt force the rotation by k
    for n in (7, 8, 10):
        _, y = weak_pair(2, n)
        orbits = _Orbits(y, "E")
        for k in range(1, n):
            rotation = [(i + k) % n for i in range(n)]
            sigma = orbits.pairing(0, k)
            assert sigma == {"E": rotation, "V": rotation}
            assert _is_automorphism(y, sigma)


def test_pairing_swaps_disjoint_copies():
    # nothing links the copy that edge 0 went to back to copy 0: the least
    # point left goes to the least free point of its colour
    swap = [3, 4, 5, 0, 1, 2]
    y = _copies(directed_cycle(3, "plain"), 2)
    assert _Orbits(y, "E").pairing(0, 3) == {"E": swap, "V": swap}
    y = _copies(directed_cycle(3, "plain"), 3)
    sigma = _Orbits(y, "E").pairing(1, 4)
    assert sigma == {"E": swap + [6, 7, 8], "V": swap + [6, 7, 8]}
    assert _is_automorphism(y, sigma)


def test_metric_that_breaks_every_rotation_gets_no_skip():
    # C4's maps are symmetric under rotation, and every row and column of
    # this vertex metric holds 0, 1, 2 and 3, so colour refinement keeps all
    # points alike; but the metric is the cycle 0 -> 2 -> 1 -> 3 -> 0, and no
    # rotation of C4 keeps it, so the check refuses every pairing
    d = np.array([[0, 2, 1, 3], [2, 0, 3, 1], [3, 1, 0, 2], [1, 3, 2, 0]], dtype=float)
    x, y = weak_pair(2, 4)
    assert hausdorff_distance(x, y).symmetry_skips > 0
    y = y.with_data(metrics={"V": MetricData(4, d), "E": discrete_metric(4)})
    orbits = _Orbits(y, "E")
    assert orbits.colour == [orbits.colour[0]] * 4
    assert orbits.pairing(0, 1) == {"E": [1, 2, 3, 0], "V": [1, 2, 3, 0]}
    assert _orbits(y, "E") == [0, 1, 2, 3]
    for p in (1.0, INF):
        assert _same_as_unbounded(x, y, HausdorffConfig(p=p, component_class="mm")).symmetry_skips == 0


def test_search_counts_on_a_seeded_family():
    # small Graph and VGraph searches into disjoint copies of a random
    # component: the nodes searched and the candidates skipped, in all
    rng = np.random.default_rng(39)
    attr = line_metric(2)
    nodes = skips = prunes = 0
    for trial in range(40):
        k = 2 + trial % 2
        nv, ne = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        src, tgt = rng.integers(0, nv, ne), rng.integers(0, nv, ne)
        src = np.concatenate([src + i * nv for i in range(k)])
        tgt = np.concatenate([tgt + i * nv for i in range(k)])
        x = random_graph(rng, 3, 4)
        if trial % 4 < 2:
            y = Instance(builtin_theory("Graph"), {"E": k * ne, "V": k * nv}, {"src": src, "tgt": tgt})
            y = y.with_data(metrics={"V": shortest_path_metric(y), "E": discrete_metric(k * ne)},
                            measures={ob: counting_measure(y.sets[ob]) for ob in ("V", "E")})
            x = x.with_data(metrics={ob: discrete_metric(x.sets[ob]) for ob in ("V", "E")},
                            measures={ob: counting_measure(x.sets[ob]) for ob in ("V", "E")})
        else:
            y = vertex_attributed_graph(k * nv, src, tgt, np.tile(rng.integers(0, 2, nv), k), attr)
            x = vertex_attributed_graph(x.sets["V"], x.maps["src"], x.maps["tgt"],
                                        rng.integers(0, 2, x.sets["V"]), attr)
        for p in (1.0, INF):
            res = hausdorff_distance(x, y, HausdorffConfig(p=p, component_class="mm"))
            nodes += res.nodes
            skips += res.symmetry_skips
            prunes += res.prunes
    assert (nodes, skips, prunes) == (2142, 80, 1002)


def test_hom_symmetry_matches_enumeration():
    # find_homomorphism is the lexicographically first natural map
    rng = np.random.default_rng(38)
    for trial in range(30):
        y = _copies(directed_cycle(trial % 2 + 1, "plain"), 2)
        x = random_graph(rng, 2, 3)
        want = next((t for t in all_transformations(x, y) if is_natural(x, y, t)), None)
        got = find_homomorphism(x, y)
        if want is None:
            assert got is None
        else:
            for ob in x.theory.objects:
                assert np.array_equal(got.components[ob], want.components[ob])
    t = find_homomorphism(directed_cycle(3, "plain"), _copies(directed_cycle(3, "plain"), 4))
    assert t.components["E"].tolist() == [0, 1, 2]


def test_measure_keeps_a_point_apart():
    # C4 is symmetric under rotation, but one edge is heavier: every
    # rotation moves it, so no two edges share an orbit
    y = directed_cycle(4)
    y = y.with_data(measures={"V": counting_measure(4), "E": MeasureData(4, [1, 1, 2, 1])})
    assert _orbits(y, "E") == [0, 1, 2, 3]
    assert _orbits(directed_cycle(4), "E") == [0] * 4
    two = y.with_data(measures={"V": counting_measure(4), "E": MeasureData(4, [1, 2, 1, 2])})
    assert _orbits(two, "E") == [0, 1, 0, 1]
    x = directed_cycle(2, "discrete").with_data(
        measures={"V": counting_measure(2), "E": MeasureData(2, [1, 2])}
    )
    for cls in ("mm", "met"):
        for p in (1.0, INF):
            _same_as_unbounded(x, y, HausdorffConfig(p=p, component_class=cls))


def test_fixed_attributes_keep_points_apart():
    # two loops that differ only in their vertices' attributes: swapping
    # them would move the attribute points, which are fixed
    attr = line_metric(2)
    y = vertex_attributed_graph(2, [0, 1], [0, 1], [0, 1], attr)
    assert _orbits(y, "E") == [0, 1]
    assert _orbits(y.with_data(fixed=()), "E") == [0, 0]
    assert _orbits(vertex_attributed_graph(2, [0, 1], [0, 1], [1, 1], attr), "E") == [0, 0]
    x = vertex_attributed_graph(2, [0, 1], [1, 0], [1, 1], attr)
    for p in (1.0, INF):
        _same_as_unbounded(x, y, HausdorffConfig(p=p, component_class="met"))


def test_parallel_edges_of_different_measure_stay_apart():
    # swapping two loops at one vertex is natural, but moves the heavier one
    y = Instance(builtin_theory("Graph"), {"E": 3, "V": 1}, {"src": [0, 0, 0], "tgt": [0, 0, 0]})
    y = y.with_data(metrics={"V": discrete_metric(1), "E": discrete_metric(3)},
                    measures={"V": counting_measure(1), "E": MeasureData(3, [1, 2, 1])})
    assert _orbits(y, "E") == [0, 1, 0]
    x = directed_cycle(2, "discrete").with_data(
        measures={"V": counting_measure(2), "E": MeasureData(2, [2, 1])}
    )
    for p in (1.0, INF):
        _same_as_unbounded(x, y, HausdorffConfig(p=p, component_class="mm"))


def test_pairings_count_only_once_checked(monkeypatch):
    # a refinement that paired points wrongly would merge nothing: here
    # every pairing is the identity shifted by one, which is not natural
    def wrong(self, r, v):
        return {c: [(i + 1) % n for i in range(n)] for c, n in self.y.sets.items()}

    monkeypatch.setattr(_Orbits, "pairing", wrong)
    y = _copies(path_graph(2), 3)
    assert _orbits(y, "E") == [0, 1, 2]
    _same_as_unbounded(path_graph(2, "discrete"), y, HausdorffConfig(p=INF, component_class="mm"))


def test_asymmetric_metric_keeps_points_apart():
    # C3 is symmetric as a graph; weighted edges make the vertex metric not
    y = directed_cycle(3)
    y = y.with_data(metrics={"V": shortest_path_metric(y, [1.0, 2.0, 3.0]),
                             "E": discrete_metric(3)})
    assert _orbits(y, "E") == [0, 1, 2]
    assert _orbits(y, "V") == [0, 1, 2]
    x = directed_cycle(2, "discrete")
    for cls in ("mm", "met", "all"):
        for p in (1.0, 2.0, INF):
            _same_as_unbounded(x, y, HausdorffConfig(p=p, component_class=cls))


def test_automorphism_check():
    y = directed_cycle(4)
    rot = {"V": np.array([1, 2, 3, 0]), "E": np.array([1, 2, 3, 0])}
    assert _is_automorphism(y, rot)
    assert not _is_automorphism(y, {"V": rot["V"], "E": np.array([1, 1, 3, 0])})
    # not natural: the edges rotate but the vertices stay
    assert not _is_automorphism(y, {"V": np.arange(4), "E": rot["E"]})
    # natural, but not an isometry of a weighted metric
    w = y.with_data(metrics={"V": shortest_path_metric(y, [1.0, 2.0, 1.0, 2.0]),
                             "E": discrete_metric(4)})
    assert not _is_automorphism(w, rot)
    assert _is_automorphism(w, {ob: np.array([2, 3, 0, 1]) for ob in ("V", "E")})
    # natural and an isometry, but it moves a heavier point
    m = y.with_data(measures={"V": MeasureData(4, [1, 1, 1, 2]), "E": counting_measure(4)})
    assert not _is_automorphism(m, rot)
    # natural and it keeps every metric and measure, but moves a fixed point
    attr = line_metric(2)
    swap = {"V": np.array([1, 0]), "E": np.array([1, 0]), "A": np.array([1, 0])}
    v = vertex_attributed_graph(2, [0, 1], [0, 1], [0, 1], attr)
    assert not _is_automorphism(v, swap)
    assert _is_automorphism(v.with_data(fixed=()), swap)


def test_rounding_never_cuts_a_strict_improvement():
    # Both admissible maps send every point to one y, and both cost
    # 1 + 2^-52 in exact arithmetic.  The search adds the terms of the second
    # as (1 + 2^-53) + 2^-53 and gets 1, a strict improvement on the first.
    # Its lower bound sums the same terms as 1 + (2^-53 + 2^-53) = 1 + 2^-52,
    # which ties the incumbent: a cut without slack would keep the first map.
    eps = 2.0**-53
    attr = MetricData(4, [  # points a, b, c0, c1
        [0.0, 1.0, 1.0 + 2 * eps, 1.0],
        [1.0, 0.0, 0.0, eps],
        [1.0 + 2 * eps, 0.0, 0.0, eps],
        [1.0, eps, eps, 0.0],
    ])

    def aset(attrs, metric):
        n = len(attrs)
        return Instance(
            builtin_theory("ASet"), {"*": n, "A": 4}, {"attr": attrs},
            metrics={"*": metric, "A": attr},
            measures={"*": counting_measure(n), "A": counting_measure(4)},
            fixed={"A"},
        )

    x = aset([0, 1, 1], MetricData(3, np.zeros((3, 3))))
    y = aset([2, 3], discrete_metric(2))
    res = hausdorff_distance(x, y, HausdorffConfig(p=1.0, component_class="met"))
    assert res.distance == 1.0
    assert res.witness.components["*"].tolist() == [1, 1, 1]
    dist, witness, _ = unbounded_hausdorff(x, y, 1.0, "met")
    assert dist == 1.0
    assert witness.components["*"].tolist() == [1, 1, 1]


def test_symmetrize_modes():
    x, y = weak_pair(2, 4)
    yx = weak_pair(4, 2)
    fwd = hausdorff_distance(x, y, MM1).distance
    cfg_max = HausdorffConfig(p=1.0, component_class="mm", symmetrize="max")
    cfg_mean = HausdorffConfig(p=1.0, component_class="mm", symmetrize="mean")
    assert hausdorff_distance(x, y, cfg_max).distance == INF  # reverse is inf
    assert hausdorff_distance(x, y, cfg_mean).distance == INF
    z = directed_cycle(4)
    assert hausdorff_distance(z, z, cfg_max).distance == 0.0
    assert hausdorff_distance(z, z, cfg_mean).distance == 0.0
    assert fwd == 2.0


def test_classical_hausdorff_examples():
    attr = line_metric(11)
    a = attributed_set([0], attr)
    b = attributed_set([3], attr)
    assert classical_hausdorff(a, b) == 3.0
    # a subset maps into its superset at distance zero
    sub = attributed_set([2, 5], attr)
    sup = attributed_set([2, 5, 9], attr)
    assert classical_hausdorff(sub, sup) == 0.0
    # brute force over all four maps: the worst point of X sits 2 away
    x = attributed_set([0, 10], attr)
    y = attributed_set([1, 8], attr)
    assert classical_hausdorff(x, y) == 2.0  # max(1, 2), non-symmetric form
    assert max(classical_hausdorff(x, y), classical_hausdorff(y, x)) == 2.0


def test_classical_hausdorff_random_vs_supinf():
    rng = np.random.default_rng(32)
    attr = line_metric(20)
    for _ in range(20):
        xs = attributed_set(rng.integers(0, 20, int(rng.integers(1, 5))), attr)
        ys = attributed_set(rng.integers(0, 20, int(rng.integers(1, 5))), attr)
        want = max(
            min(abs(int(a) - int(b)) for b in ys.maps["attr"])
            for a in xs.maps["attr"]
        )
        assert classical_hausdorff(xs, ys) == want
        general = hausdorff_distance(xs, ys, HausdorffConfig(p=INF, component_class="met"))
        assert general.distance == want


def test_classical_hausdorff_rejects_different_spaces():
    a = attributed_set([0], line_metric(5))
    b = attributed_set([0], line_metric(7))
    with pytest.raises(InstanceError):
        classical_hausdorff(a, b)


def test_discrete_reduction_is_hom():
    x = path_graph(3, "discrete")
    y = diamond("discrete")
    assert discrete_hausdorff_is_hom(x, y)
    assert not discrete_hausdorff_is_hom(loop("discrete"), directed_cycle(3, "discrete"))
    assert discrete_hausdorff_is_hom(y, y)
    rng = np.random.default_rng(35)
    for _ in range(30):
        x, y = (
            g.with_data(metrics={ob: discrete_metric(g.sets[ob]) for ob in ("V", "E")})
            for g in (random_graph(rng, 3, 3), random_graph(rng, 3, 3))
        )
        assert discrete_hausdorff_is_hom(x, y) == (find_homomorphism(x, y) is not None)
        # find_homomorphism runs the same search, so check against enumeration too
        any_natural = any(is_natural(x, y, t) for t in all_transformations(x, y))
        assert discrete_hausdorff_is_hom(x, y) == any_natural


def test_per_generator_weights_are_floats():
    for p in (1.0, 2.0, INF):
        res = hausdorff_distance(*weak_pair(2, 4), HausdorffConfig(p=p, component_class="mm"))
        assert all(type(w) is float for w in res.per_generator_weights.values())
    assert repr(hausdorff_distance(*weak_pair(2, 4)).per_generator_weights) == (
        "{'src': 0.0, 'tgt': 2.0}"
    )


def test_discrete_reduction_requires_discrete_metrics():
    with pytest.raises(InstanceError, match="discrete"):
        discrete_hausdorff_is_hom(directed_cycle(2), directed_cycle(2))


def test_guard_exceeded():
    # the guard counts search nodes: this search visits 1,224 of them
    x, y = weak_pair(4, 8)
    with pytest.raises(GuardExceeded) as exc:
        hausdorff_distance(x, y, HausdorffConfig(p=1.0, component_class="mm", guard=1000))
    assert exc.value.count > 1000
    res = hausdorff_distance(
        x, y, HausdorffConfig(p=1.0, component_class="mm", guard=1000, force=True)
    )
    assert res.distance == 4.0


def test_search_depth_is_not_limited_by_recursion():
    # 1,200 component entries, each with one candidate
    cfg = HausdorffConfig(p=INF, component_class="met")
    res = hausdorff_distance(directed_cycle(600, "discrete"), loop("mm"), cfg)
    assert res.distance == 0.0
    assert res.nodes == 1200


def test_default_guard_answers_weak_pair_5_8():
    # 45,158,400 admissible transformations, but only 1,536 search nodes
    res = hausdorff_distance(*weak_pair(5, 8))
    assert res.distance == 3.0
    assert res.witness is not None
    assert res.nodes < unbounded_hausdorff(*weak_pair(5, 8), 1.0, "mm")[2]


def test_symmetry_answers_weak_pair_6_12():
    # 429,768 nodes without the symmetry skips; 11 of C12's 12 edges are
    # rotations of the first, and only its subtree is searched
    res = hausdorff_distance(*weak_pair(6, 12))
    assert res.distance == 6.0
    assert res.witness.components["E"].tolist() == [0, 1, 2, 3, 4, 5]
    assert res.witness.components["V"].tolist() == [0, 1, 2, 3, 4, 5]
    assert res.symmetry_skips == 11
    assert res.nodes <= 40_000


def test_lower_bound_answers_weak_pair_6_10():
    # the search without the lower bound visits 3,683,810 nodes here; with
    # it, 79,310, and skipping rotations of C10 at the first entry, 8,030
    res = hausdorff_distance(*weak_pair(6, 10))
    assert res.distance == 4.0
    assert res.nodes < 10**5


def test_symmetrized_nodes_sum_both_searches():
    x, y = weak_pair(2, 4)
    fwd = hausdorff_distance(x, y, MM1)
    back = hausdorff_distance(y, x, MM1)
    assert fwd.symmetry_skips == 3 and back.symmetry_skips == 1
    assert fwd.prunes == 17 and back.prunes == 0  # C4 has no admissible map into C2
    for mode in ("max", "mean"):
        cfg = HausdorffConfig(p=1.0, component_class="mm", symmetrize=mode)
        res = hausdorff_distance(x, y, cfg)
        assert res.nodes == fwd.nodes + back.nodes
        assert res.symmetry_skips == fwd.symmetry_skips + back.symmetry_skips
        assert res.prunes == fwd.prunes + back.prunes


@pytest.mark.parametrize(
    "m, n, distance, witness, weights, nodes, skips, prunes",
    [
        # the weak pairs of the hausdorff-search benchmark, at p = 1, class mm
        (4, 8, 4.0, [0, 1, 2, 3], {"src": 0.0, "tgt": 4.0}, 1224, 7, 823),
        (5, 7, 2.0, [5, 1, 2, 3, 4], {"src": 2.0, "tgt": 0.0}, 644, 6, 353),
        (5, 8, 3.0, [5, 1, 2, 3, 4], {"src": 3.0, "tgt": 0.0}, 1536, 7, 942),
        (4, 10, 4.0, [0, 1, 2, 3], {"src": 0.0, "tgt": 4.0}, 470, 9, 309),
    ],
)
def test_search_counts_on_the_weak_pairs(m, n, distance, witness, weights, nodes, skips, prunes):
    # the guard is not reached, so the guarded and the forced search agree
    for force in (False, True):
        res = hausdorff_distance(*weak_pair(m, n), HausdorffConfig(p=1.0, component_class="mm", force=force))
        assert repr(res.distance) == repr(distance)
        assert res.witness.components["E"].tolist() == list(range(m))
        assert res.witness.components["V"].tolist() == witness
        assert repr(res.per_generator_weights) == repr(weights)
        assert (res.nodes, res.symmetry_skips, res.prunes) == (nodes, skips, prunes)


def test_charge_rows_take_memory_once_per_generator():
    # 24 loops on one vertex, each of its own weight, into C100.  The theory
    # orders V before E, so every charge row is a row of the table read
    # through Y(g), built by the search.  The peak stays linear in the table
    # and the rows (one set per generator), and is the same with one weight
    # as with 24: a row set per distinct weight would add about 15 MB here
    vfirst = parse_theory("theory VGraph { ob V, E\n hom src: E -> V\n hom tgt: E -> V }")
    c = directed_cycle(100, "mm")
    y = Instance(vfirst, c.sets, c.maps, c.metrics, c.measures)
    m = 24
    peaks = []
    for w in ([1.0] * m, [(k + 1) / m for k in range(m)]):
        x = Instance(vfirst, {"V": 1, "E": m}, {"src": [0] * m, "tgt": [0] * m},
                     measures={"V": counting_measure(1), "E": MeasureData(m, np.array(w))})
        tracemalloc.start()
        try:
            res = hausdorff_distance(x, y, HausdorffConfig(p=1.0, component_class="all"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # each loop goes onto an edge of C100 and pays 1 at its target
        assert res.distance == pytest.approx(sum(w))
    cells = 100 * 100 + 2 * 100 * 100  # the table, and one row set per generator
    assert max(peaks) < 250 * cells
    assert peaks[1] < 1.1 * peaks[0]


def test_fixed_attribute_graph_formula():
    # with discrete metrics on V and E and a fixed attribute space, the
    # distance is the best worst-case attribute discrepancy over graph
    # homomorphisms
    rng = np.random.default_rng(33)
    attr = line_metric(4)
    for _ in range(10):
        nv, mv = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ne, me = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        x = vertex_attributed_graph(
            nv, rng.integers(0, nv, ne), rng.integers(0, nv, ne),
            rng.integers(0, 4, nv), attr
        )
        y = vertex_attributed_graph(
            mv, rng.integers(0, mv, me), rng.integers(0, mv, me),
            rng.integers(0, 4, mv), attr
        )
        cfg = HausdorffConfig(p=INF, component_class="met")
        got = hausdorff_distance(x, y, cfg).distance

        best = INF
        for ve in itertools.product(range(mv), repeat=nv):
            for ee in itertools.product(range(max(me, 1)), repeat=ne) if me or not ne else []:
                ok = all(
                    y.maps["src"][ee[e]] == ve[x.maps["src"][e]]
                    and y.maps["tgt"][ee[e]] == ve[x.maps["tgt"][e]]
                    for e in range(ne)
                )
                if not ok:
                    continue
                worst = max(
                    (attr.d[x.maps["attr"][v], y.maps["attr"][ve[v]]] for v in range(nv)),
                    default=0.0,
                )
                best = min(best, worst)
        if ne == 0:
            for ve in itertools.product(range(mv), repeat=nv):
                worst = max(
                    (attr.d[x.maps["attr"][v], y.maps["attr"][ve[v]]] for v in range(nv)),
                    default=0.0,
                )
                best = min(best, worst)
        assert got == pytest.approx(best) or (got == INF and best == INF)


def test_composite_weight_subadditive():
    # instances whose internal map is an isometric permutation: the defect at
    # the composite T.T is at most twice the defect at T
    rng = np.random.default_rng(34)
    dds = builtin_theory("DDS")
    for _ in range(10):
        n, m = 4, 4
        cx = 2.0
        cy = 1.0  # smaller off-diagonal constant keeps every map short
        dX = np.full((n, n), cx); np.fill_diagonal(dX, 0.0)
        dY = np.full((m, m), cy); np.fill_diagonal(dY, 0.0)
        x = Instance(
            dds, {"*": n}, {"T": rng.permutation(n)},
            metrics={"*": __import__("cset_transport.mm", fromlist=["MetricData"]).MetricData(n, dX)},
            measures={"*": counting_measure(n)},
        )
        y = Instance(
            dds, {"*": m}, {"T": rng.permutation(m)},
            metrics={"*": __import__("cset_transport.mm", fromlist=["MetricData"]).MetricData(m, dY)},
            measures={"*": counting_measure(m)},
        )
        comp = Path("*", ("T", "T"))
        for t in all_transformations(x, y):
            w1 = transformation_weight(x, y, t, "T", 1.0)
            # weight at the composite path, computed directly
            from cset_transport.cset import evaluate_path
            from cset_transport.mm import lp_distance

            top = t.components["*"][evaluate_path(x, comp)]
            bot = evaluate_path(y, comp)[t.components["*"]]
            w2 = lp_distance(top, bot, x.measure("*"), y.metric("*"), 1.0)
            assert w2 <= 2 * w1 + 1e-9
