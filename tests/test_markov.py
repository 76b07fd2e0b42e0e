import json

import numpy as np
import pytest

from cset_transport.errors import DimensionError, InstanceError
from cset_transport.markov import (
    FiniteKernel,
    JointMeasure,
    apply_measure,
    compose_kernels,
    disintegrate,
    embed_function,
    identity_kernel,
    independent_product,
    is_coupling,
    is_deterministic,
    is_product,
    product_measure,
    uniform_kernel,
)
from cset_transport.mm import MeasureData

from oracles import random_kernel


def test_kernel_validation():
    with pytest.raises(InstanceError, match="sum"):
        FiniteKernel(1, 2, [[0.5, 0.4]])
    with pytest.raises(InstanceError, match="nonnegative"):
        FiniteKernel(1, 2, [[1.5, -0.5]])
    with pytest.raises(InstanceError, match="finite"):
        FiniteKernel(1, 2, [[np.nan, np.nan]])
    FiniteKernel(0, 3, np.zeros((0, 3)))  # empty domain is fine


@pytest.mark.parametrize("rows, cols", [(0, 3), (0, 0), (2, 3), (1, 1)])
def test_kernel_json_round_trip(rows, cols):
    # a kernel out of an empty set writes "p": [], which reads back with its
    # column count
    rng = np.random.default_rng(rows * 10 + cols)
    k = random_kernel(rng, rows, cols) if rows else FiniteKernel(0, cols, np.zeros((0, cols)))
    back = FiniteKernel.from_json(json.loads(json.dumps(k.to_json())))
    assert (back.rows, back.cols) == (rows, cols)
    assert back.p.shape == (rows, cols) and np.array_equal(back.p, k.p)


def test_kernel_json_keeps_refusing_the_wrong_shape():
    with pytest.raises(DimensionError, match="3x1"):
        FiniteKernel.from_json({"rows": 3, "cols": 1, "p": [[1, 0, 0]]})
    with pytest.raises(DimensionError, match="1x3"):
        FiniteKernel.from_json({"rows": 1, "cols": 3, "p": []})


def test_compose_identity():
    rng = np.random.default_rng(0)
    m = random_kernel(rng, 3, 4)
    assert np.allclose(compose_kernels(m, identity_kernel(4)).p, m.p)
    assert np.allclose(compose_kernels(identity_kernel(3), m).p, m.p)


def test_compose_hand_example():
    m = FiniteKernel(1, 2, [[0.5, 0.5]])
    n = FiniteKernel(2, 2, [[0.2, 0.8], [0.6, 0.4]])
    assert np.allclose(compose_kernels(m, n).p, [[0.4, 0.6]])


def test_compose_associative():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = random_kernel(rng, 3, 4)
        b = random_kernel(rng, 4, 2)
        c = random_kernel(rng, 2, 5)
        left = compose_kernels(compose_kernels(a, b), c)
        right = compose_kernels(a, compose_kernels(b, c))
        assert np.abs(left.p - right.p).max() <= 1e-9


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionError):
        compose_kernels(uniform_kernel(2, 3), uniform_kernel(2, 3))


def test_apply_measure():
    mu = MeasureData(2, [2.0, 0.0])
    m = FiniteKernel(2, 2, [[0.5, 0.5], [1.0, 0.0]])
    assert np.allclose(apply_measure(mu, m).w, [1.0, 1.0])
    assert apply_measure(mu, identity_kernel(2)).w.tolist() == [2.0, 0.0]


def test_apply_measure_uniform_target():
    mu = MeasureData(3, [0.3, 1.2, 0.5])
    out = apply_measure(mu, uniform_kernel(3, 4))
    assert np.allclose(out.w, mu.total() / 4)


def test_apply_measure_preserves_mass():
    rng = np.random.default_rng(2)
    for _ in range(30):
        mu = MeasureData(3, rng.uniform(0, 2, 3))
        m = random_kernel(rng, 3, 5)
        assert apply_measure(mu, m).total() == pytest.approx(mu.total(), abs=1e-9)


def test_apply_measure_distributes_over_composition():
    rng = np.random.default_rng(3)
    for _ in range(30):
        mu = MeasureData(3, rng.uniform(0, 2, 3))
        m = random_kernel(rng, 3, 4)
        n = random_kernel(rng, 4, 2)
        a = apply_measure(apply_measure(mu, m), n).w
        b = apply_measure(mu, compose_kernels(m, n)).w
        assert np.abs(a - b).max() <= 1e-9


def test_product_measure_examples():
    point = MeasureData(2, [0.0, 1.0])
    m = FiniteKernel(2, 2, [[0.25, 0.75], [0.5, 0.5]])
    out = product_measure(point, m).m
    assert np.allclose(out, [[0, 0], [0.5, 0.5]])
    counting = MeasureData(2, [1.0, 1.0])
    assert np.allclose(product_measure(counting, identity_kernel(2)).m, np.eye(2))
    mu = MeasureData(2, [0.5, 0.5])
    m = FiniteKernel(2, 2, [[1, 0], [0.5, 0.5]])
    assert np.allclose(product_measure(mu, m).m, [[0.5, 0], [0.25, 0.25]])


def test_product_measure_marginals():
    rng = np.random.default_rng(4)
    mu = MeasureData(4, rng.uniform(0, 1, 4))
    m = random_kernel(rng, 4, 3)
    pi = product_measure(mu, m)
    assert np.allclose(pi.m.sum(axis=1), mu.w)
    assert np.allclose(pi.m.sum(axis=0), apply_measure(mu, m).w)


def test_disintegrate_examples():
    mu, k = disintegrate(JointMeasure(np.eye(2) / 2))
    assert np.allclose(mu.w, [0.5, 0.5])
    assert np.allclose(k.p, np.eye(2))
    mu, k = disintegrate(JointMeasure([[0.25, 0.25], [0.25, 0.25]]))
    assert np.allclose(k.p, 0.5)
    mu, k = disintegrate(JointMeasure([[0.3, 0.1], [0.0, 0.6]]))
    assert np.allclose(mu.w, [0.4, 0.6])
    assert np.allclose(k.p, [[0.75, 0.25], [0.0, 1.0]])


def test_disintegrate_zero_row_gets_uniform():
    mu, k = disintegrate(JointMeasure([[0.0, 0.0], [0.5, 0.5]]))
    assert np.allclose(k.p[0], [0.5, 0.5])


def test_disintegrate_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        pi = JointMeasure(rng.uniform(0.01, 1, size=(3, 4)))
        mu, k = disintegrate(pi)
        back = product_measure(mu, k)
        assert np.abs(back.m - pi.m).max() <= 1e-9


def test_is_coupling_deterministic_diagonal():
    rng = np.random.default_rng(6)
    m = random_kernel(rng, 3, 4)
    # couple m with itself along the diagonal of Y x Y
    pi = np.zeros((3, 16))
    for x in range(3):
        for y in range(4):
            pi[x, y * 4 + y] = m.p[x, y]
    assert is_coupling(FiniteKernel(3, 16, pi), m, m)


def test_is_coupling_independent():
    rng = np.random.default_rng(7)
    m = random_kernel(rng, 3, 2)
    n = random_kernel(rng, 3, 4)
    pi = np.einsum("xy,xz->xyz", m.p, n.p).reshape(3, 8)
    assert is_coupling(FiniteKernel(3, 8, pi), m, n)


def test_is_coupling_perturbed_fails():
    rng = np.random.default_rng(8)
    m = random_kernel(rng, 2, 2)
    n = random_kernel(rng, 2, 2)
    pi = np.einsum("xy,xz->xyz", m.p, n.p).reshape(2, 4)
    pi[0, 0] += 0.1
    pi[0, 3] -= 0.1
    assert not is_coupling(FiniteKernel(2, 4, pi), m, n)


def test_is_product_independent():
    rng = np.random.default_rng(9)
    m = random_kernel(rng, 2, 3)
    n = random_kernel(rng, 4, 2)
    assert is_product(independent_product(m, n), m, n)


def test_is_product_singleton_reduces_to_coupling():
    rng = np.random.default_rng(10)
    m = random_kernel(rng, 1, 3)
    n = random_kernel(rng, 1, 3)
    pi = independent_product(m, n)
    assert is_product(pi, m, n) == is_coupling(pi, m, n)


def test_is_product_dimension_mismatch():
    rng = np.random.default_rng(11)
    m = random_kernel(rng, 2, 3)
    n = random_kernel(rng, 4, 2)
    with pytest.raises(DimensionError):
        is_product(independent_product(m, m), m, n)


def test_embed_function():
    assert np.allclose(embed_function([0, 1], 2).p, np.eye(2))
    assert np.allclose(embed_function([1, 1], 2).p, [[0, 1], [0, 1]])
    with pytest.raises(DimensionError):
        embed_function([2], 2)


def test_embed_functorial():
    rng = np.random.default_rng(12)
    for _ in range(30):
        f = rng.integers(0, 4, 3)
        g = rng.integers(0, 5, 4)
        lhs = compose_kernels(embed_function(f, 4), embed_function(g, 5))
        rhs = embed_function(g[f], 5)
        assert np.array_equal(lhs.p, rhs.p)


def test_is_deterministic():
    assert is_deterministic(identity_kernel(3))
    assert not is_deterministic(FiniteKernel(1, 2, [[0.5, 0.5]]))
    rng = np.random.default_rng(13)
    f = rng.integers(0, 3, 5)
    assert is_deterministic(embed_function(f, 3))


def test_gluing_lemma_marginals():
    # couplings sharing the middle marginal glue to a triple measure whose
    # pair marginals are the original couplings
    rng = np.random.default_rng(14)
    for _ in range(30):
        nx, ny, nz = 3, 2, 4
        muy = MeasureData(ny, rng.uniform(0.2, 1, ny))
        kx = random_kernel(rng, ny, nx)
        kz = random_kernel(rng, ny, nz)
        pi_xy = product_measure(muy, kx).m.T  # X x Y with Y-marginal muy
        pi_yz = product_measure(muy, kz).m  # Y x Z with Y-marginal muy
        glue = np.einsum("y,yx,yz->xyz", muy.w, kx.p, kz.p)
        assert np.abs(glue.sum(axis=2) - pi_xy).max() <= 1e-9
        assert np.abs(glue.sum(axis=0) - pi_yz).max() <= 1e-9
