import itertools
import math

import numpy as np
import pytest

from cset_transport.cset import Instance, Transformation, find_homomorphism
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
    classical_hausdorff,
    discrete_hausdorff_is_hom,
    hausdorff_distance,
    transformation_weight,
)
from cset_transport.mm import INF, MeasureData, counting_measure, discrete_metric
from cset_transport.theory import Path, builtin_theory

from oracles import all_transformations, brute_hausdorff, random_graph, random_metric

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
            p = float(rng.choice([1.0, 2.0]))
            got = hausdorff_distance(x, y, HausdorffConfig(p=p, component_class=cls))
            want = brute_hausdorff(x, y, p, cls)
            if want == INF:
                assert got.distance == INF
            else:
                assert got.distance == pytest.approx(want, abs=1e-9)


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


def test_discrete_reduction_requires_discrete_metrics():
    with pytest.raises(InstanceError, match="discrete"):
        discrete_hausdorff_is_hom(directed_cycle(2), directed_cycle(2))


def test_guard_exceeded():
    # the guard counts search nodes: this search visits 39,200 of them
    x, y = weak_pair(4, 8)
    with pytest.raises(GuardExceeded) as exc:
        hausdorff_distance(x, y, HausdorffConfig(p=1.0, component_class="mm", guard=1000))
    assert exc.value.count > 1000
    res = hausdorff_distance(
        x, y, HausdorffConfig(p=1.0, component_class="mm", guard=1000, force=True)
    )
    assert res.distance == 4.0


def test_default_guard_answers_weak_pair_5_8():
    # 45,158,400 admissible transformations, but only 121,672 search nodes
    res = hausdorff_distance(*weak_pair(5, 8))
    assert res.distance == 3.0
    assert res.witness is not None


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
