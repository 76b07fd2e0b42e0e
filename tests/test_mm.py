import json
import math

import numpy as np
import pytest

from cset_transport.cset import instance_from_json
from cset_transport.errors import DimensionError, InstanceError
from cset_transport.gallery import directed_cycle, undirected_3cycle
from cset_transport.markov import uniform_kernel
from cset_transport.mm import (
    INF,
    MeasureData,
    MetricData,
    counting_measure,
    discrete_metric,
    is_measure_decreasing,
    is_short_map,
    lp_distance,
    shortest_path_metric,
    uniform_measure,
)

from oracles import brute_shortest_paths, random_graph, random_measure, random_metric


def test_discrete_metric_small():
    assert discrete_metric(1).d.tolist() == [[0.0]]
    d2 = discrete_metric(2).d
    assert d2[0, 0] == 0 and d2[1, 1] == 0
    assert math.isinf(d2[0, 1]) and math.isinf(d2[1, 0])
    assert discrete_metric(0).d.shape == (0, 0)


def test_shortest_path_c4():
    d = shortest_path_metric(directed_cycle(4, "plain")).d
    assert d[0, 1] == 1
    assert d[1, 0] == 3
    assert d[0, 0] == 0


def test_shortest_path_unreachable():
    d = shortest_path_metric(undirected_3cycle()).d
    assert math.isinf(d[0, 1])  # vertex 0 has no out-edges


def test_shortest_path_single_vertex():
    # the loop has a length-1 path 0 -> 0 but the diagonal stays 0
    d = shortest_path_metric(directed_cycle(1, "plain"))
    assert d.d.tolist() == [[0.0]]


def test_shortest_path_weighted():
    x = directed_cycle(3, "plain")
    d = shortest_path_metric(x, weights=[0.5, 2.0, 1.0]).d
    assert d[0, 1] == 0.5
    assert d[0, 2] == 2.5
    assert d[2, 1] == 1.5


def test_shortest_path_negative_weight():
    with pytest.raises(InstanceError, match="negative"):
        shortest_path_metric(directed_cycle(2, "plain"), weights=[-1.0, 1.0])


def test_shortest_path_nan_weight():
    # NaN failed the old `weights < 0` test, so its edge was dropped and the
    # distance read inf; Python's json reads NaN, so it can come from a file
    with pytest.raises(InstanceError, match="negative or NaN"):
        shortest_path_metric(directed_cycle(2, "plain"), weights=[float("nan"), 1.0])
    data = {
        "theory": "Graph",
        "sets": {"E": 1, "V": 2},
        "maps": {"src": [0], "tgt": [1]},
        "metrics": {"V": {"kind": "shortest_path", "weights": [float("nan")]}},
    }
    with pytest.raises(InstanceError, match="negative or NaN"):
        instance_from_json(json.loads(json.dumps(data)))
    data["metrics"]["V"]["weights"] = [float("inf")]
    assert instance_from_json(data).metric("V").d[0, 1] == INF


def test_shortest_path_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = random_graph(rng, max_v=5, max_e=7)
        got = shortest_path_metric(x)
        want = brute_shortest_paths(
            x.sets["V"], x.maps["src"].tolist(), x.maps["tgt"].tolist()
        )
        assert np.array_equal(got.d, want)
        # built without the triangle check, it passes the constructor's
        MetricData(got.n, got.d)


def test_metric_validation():
    with pytest.raises(InstanceError, match="triangle"):
        MetricData(3, [[0, 1, 9], [1, 0, 1], [9, 1, 0]])
    with pytest.raises(InstanceError, match="diagonal"):
        MetricData(2, [[1, 1], [1, 0]])
    with pytest.raises(InstanceError, match="nonnegative"):
        MetricData(2, [[0, -1], [1, 0]])


def test_explicit_metrics_keep_the_triangle_check():
    bad = [[0, 1, 9], [1, 0, 1], [9, 1, 0]]
    data = {
        "theory": "Graph",
        "sets": {"E": 0, "V": 3},
        "maps": {"src": [], "tgt": []},
        "metrics": {"V": {"kind": "explicit", "matrix": bad}},
    }
    with pytest.raises(InstanceError, match="triangle"):
        instance_from_json(data)
    data["metrics"]["V"]["matrix"] = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert instance_from_json(data).metric("V").d[0, 2] == 2.0


def test_discrete_metric_skips_the_triangle_check(monkeypatch):
    # built without the O(n^3) check, the 0/inf matrix passes the constructor's
    for n in (0, 1, 2, 7):
        got = discrete_metric(n)
        MetricData(n, got.d)
        assert got.is_discrete()
    def refuse(self):
        raise AssertionError("triangle check ran")
    monkeypatch.setattr(MetricData, "__post_init__", refuse)
    assert discrete_metric(5).n == 5
    with pytest.raises(AssertionError, match="check ran"):
        MetricData(2, [[0, INF], [INF, 0]])


def test_explicit_zero_inf_matrix_breaking_the_triangle_raises():
    # d(0,2) = inf > d(0,1) + d(1,2) = 0
    with pytest.raises(InstanceError, match="triangle"):
        MetricData(3, [[0, 0, INF], [INF, 0, 0], [INF, INF, 0]])


def test_measure_validation():
    with pytest.raises(InstanceError):
        MeasureData(2, [1.0, INF])
    with pytest.raises(InstanceError):
        MeasureData(2, [1.0, -0.5])


def test_short_map_out_of_discrete():
    rng = np.random.default_rng(5)
    dY = random_metric(rng, 4)
    for _ in range(10):
        f = rng.integers(0, 4, 6)
        assert is_short_map(f, discrete_metric(6), dY)


def test_short_map_identity():
    rng = np.random.default_rng(6)
    d = random_metric(rng, 5)
    assert is_short_map(np.arange(5), d, d)


def test_short_map_c4_examples():
    d = shortest_path_metric(directed_cycle(4, "plain"))
    assert is_short_map([0, 0, 0, 0], d, d)  # constant
    d2 = shortest_path_metric(directed_cycle(2, "plain"))
    # 0 -> 0, 1 -> 2 stretches d(0,1)=1 to d(0,2)=2
    assert not is_short_map([0, 2], d2, d)


def test_measure_decreasing_counting_iff_injective():
    mu3, mu4 = counting_measure(3), counting_measure(4)
    assert is_measure_decreasing(np.array([0, 1, 2]), mu3, mu4)
    assert is_measure_decreasing(np.array([3, 1, 0]), mu3, mu4)
    assert not is_measure_decreasing(np.array([1, 1, 2]), mu3, mu4)


def test_measure_decreasing_uniform_kernel():
    n = 4
    assert is_measure_decreasing(uniform_kernel(n, n), counting_measure(n), counting_measure(n))


def test_lp_distance_zero_on_equal():
    d = discrete_metric(3)
    mu = counting_measure(2)
    assert lp_distance([0, 2], [0, 2], mu, d, 1.0) == 0.0


def test_lp_distance_hand_example():
    dY = MetricData(3, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    mu = counting_measure(2)
    assert lp_distance([0, 0], [1, 2], mu, dY, 1.0) == pytest.approx(3.0)
    assert lp_distance([0, 0], [1, 2], mu, dY, INF) == pytest.approx(2.0)


def test_lp_distance_ignores_null_mass():
    dY = discrete_metric(2)
    mu = MeasureData(2, [1.0, 0.0])
    assert lp_distance([0, 0], [0, 1], mu, dY, 2.0) == 0.0
    assert lp_distance([0, 0], [0, 1], mu, dY, INF) == 0.0


def test_lp_distance_triangle_in_g():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n, m = 4, 5
        dY = random_metric(rng, m)
        mu = random_measure(rng, n)
        f, g, h = (rng.integers(0, m, n) for _ in range(3))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        lhs = lp_distance(f, h, mu, dY, p)
        rhs = lp_distance(f, g, mu, dY, p) + lp_distance(g, h, mu, dY, p)
        assert lhs <= rhs + 1e-9


def test_lp_distance_monotone_in_p():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n, m = 4, 4
        dY = random_metric(rng, m)
        mu = uniform_measure(n)
        f, g = rng.integers(0, m, n), rng.integers(0, m, n)
        d1 = lp_distance(f, g, mu, dY, 1.0)
        d2 = lp_distance(f, g, mu, dY, 2.0)
        dinf = lp_distance(f, g, mu, dY, INF)
        assert d1 <= d2 + 1e-9
        assert d2 <= dinf + 1e-9


def test_lp_distance_overflowing_power_is_inf():
    # (1e200)^2 is past the float range: inf, as the numpy paths give it
    dY = MetricData(2, [[0, 1e200], [1e200, 0]])
    assert lp_distance([0], [1], counting_measure(1), dY, 2.0) == INF
    assert lp_distance([0], [1], counting_measure(1), dY, 1.0) == 1e200


def test_lp_distance_needs_measure_at_finite_p():
    with pytest.raises(InstanceError, match="measure"):
        lp_distance([0], [0], None, discrete_metric(1), 2.0)


def test_lp_distance_dimension_mismatch():
    with pytest.raises(DimensionError):
        lp_distance([0, 1], [0], counting_measure(2), discrete_metric(2), 1.0)
