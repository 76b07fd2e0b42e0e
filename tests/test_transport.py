import math
import warnings

import numpy as np
import pytest

from cset_transport import lp, transport
from cset_transport.errors import DimensionError, LpNumericalError
from cset_transport.markov import FiniteKernel, compose_kernels, embed_function
from cset_transport.mm import (
    INF,
    MeasureData,
    MetricData,
    counting_measure,
    lp_distance,
    uniform_measure,
)
from cset_transport.transport import (
    OtResult,
    optimal_coupling,
    wasserstein_deterministic,
    wasserstein_kernels,
    wasserstein_measures,
)

from oracles import (
    brute_transport,
    coupling_solve,
    random_kernel,
    random_measure,
    random_metric,
    same_bits,
    tree_solve,
)


def line(n):
    idx = np.arange(n, dtype=float)
    return MetricData(n, np.abs(idx[:, None] - idx[None, :]))


def test_optimal_coupling_diagonal():
    mu = MeasureData(3, [0.2, 0.3, 0.5])
    cost = np.ones((3, 3)) - np.eye(3)
    res = optimal_coupling(mu, mu, cost)
    assert res.cost == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.coupling, np.diag(mu.w), atol=1e-9)


def test_optimal_coupling_cross():
    res = optimal_coupling(
        MeasureData(2, [0.7, 0.3]), MeasureData(2, [0.4, 0.6]), [[0, 1], [1, 0]]
    )
    assert res.cost == pytest.approx(0.3)
    assert np.allclose(res.coupling.sum(axis=1), [0.7, 0.3], atol=1e-7)
    assert np.allclose(res.coupling.sum(axis=0), [0.4, 0.6], atol=1e-7)


def test_optimal_coupling_all_infinite():
    res = optimal_coupling(MeasureData(1, [1.0]), MeasureData(1, [1.0]), [[INF]])
    assert res.cost == INF
    assert res.coupling is None
    # a positive-mass row, or column, with only infinite cells: no variable
    # can carry its mass, which stays on its artificial edge
    mu = MeasureData(2, [0.5, 0.5])
    for cost in ([[1.0, 2.0], [INF, INF]], [[1.0, INF], [2.0, INF]]):
        res = optimal_coupling(mu, mu, cost)
        assert res.cost == INF
        assert res.coupling is None
    # a zero-mass row with only infinite cells costs nothing
    res = optimal_coupling(
        MeasureData(2, [1.0, 0.0]), MeasureData(2, [0.5, 0.5]), [[1.0, 3.0], [INF, INF]]
    )
    assert res.cost == pytest.approx(2.0)
    assert np.allclose(res.coupling, [[0.5, 0.5], [0.0, 0.0]])


def test_optimal_coupling_mass_mismatch():
    with pytest.raises(DimensionError, match="equal mass"):
        optimal_coupling(MeasureData(1, [1.0]), MeasureData(1, [2.0]), [[0.0]])


def test_optimal_coupling_matches_brute_force():
    rng = np.random.default_rng(21)
    infinite = 0  # finite-cost problems with an infinite cell
    for _ in range(30):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        mu = rng.uniform(0.1, 1, n)
        nu = rng.uniform(0.1, 1, m)
        nu *= mu.sum() / nu.sum()
        cost = rng.uniform(0, 3, (n, m))
        if rng.random() < 0.3:
            cost[rng.integers(0, n), rng.integers(0, m)] = INF
        got = optimal_coupling(MeasureData(n, mu), MeasureData(m, nu), cost)
        want = brute_transport(mu, nu, cost)
        if want == INF:
            assert got.cost == INF
        else:
            assert got.cost == pytest.approx(want, abs=1e-6)
            # the coupling is n x m, exactly 0 where no coupling may go
            assert got.coupling.shape == (n, m)
            assert (got.coupling[np.isinf(cost)] == 0.0).all()
            infinite += np.isinf(cost).any()
    assert infinite > 0


def _transport_problem(rng, n1, n2):
    mu, nu = rng.uniform(0.1, 2.0, n1), rng.uniform(0.1, 2.0, n2)
    nu *= mu.sum() / nu.sum()
    return MeasureData(n1, mu), MeasureData(n2, nu), rng.uniform(0.0, 4.0, (n1, n2))


def _marginals_hold(res, mu, nu):
    return (np.abs(res.coupling.sum(axis=1) - mu.w).max(initial=0.0) <= lp.FEAS_TOL
            and np.abs(res.coupling.sum(axis=0) - nu.w).max(initial=0.0) <= lp.FEAS_TOL
            and res.coupling.min(initial=0.0) >= -lp.FEAS_TOL)


def test_optimal_coupling_is_bit_identical_to_the_tree_on_its_model():
    # every mass positive and every cost finite: the tree gets the same
    # input from the model's rows and from optimal_coupling, and answers
    # both with the same bits.  The simplex, which solves the model whole
    # (the presolve leaves it as it is), agrees on the cost
    rng = np.random.default_rng(71)
    problems = [_transport_problem(rng, n1, n2) for n1 in range(2, 7) for n2 in range(2, 7)]
    problems += [_transport_problem(rng, 30, 30), _transport_problem(rng, 100, 100)]
    for mu, nu, cost in problems:
        model, sol, _ = coupling_solve(mu, nu, cost)
        assert (sol.fixed, sol.dropped_rows, sol.aggregated) == (0, 0, 0)
        got = optimal_coupling(mu, nu, cost)
        values = tree_solve(model)[1]
        want = OtResult(float(cost.reshape(-1) @ values), values.reshape(mu.n, nu.n))
        assert same_bits(got, want)
        assert got.cost == pytest.approx(sol.objective, rel=1e-12)


def _seeded_problem(rng):
    """As ``test_transport_path._seeded_model``: sometimes a line of zero
    mass, sometimes a mass imbalance within TOL, and some cells of infinite
    cost, with many of them breaking Hall's condition."""
    n1, n2 = (int(v) for v in rng.integers(2, 7, 2))
    mu, nu = rng.uniform(0.1, 2.0, n1), rng.uniform(0.1, 2.0, n2)
    if rng.random() < 0.25:
        mu[rng.integers(n1)] = 0.0
    if rng.random() < 0.25:
        nu[rng.integers(n2)] = 0.0
    nu *= mu.sum() / nu.sum()
    imbalanced = rng.random() < 0.2
    if imbalanced:
        nu[nu.argmax()] += float(rng.choice([-5e-10, 5e-10]))
    share = float(rng.choice([0.0, 0.25, 0.5]))
    cost = rng.uniform(0.0, 4.0, (n1, n2))
    cost[rng.random((n1, n2)) < share] = INF
    return MeasureData(n1, mu), MeasureData(n2, nu), cost, imbalanced


def test_optimal_coupling_agrees_with_lp_solve_where_the_presolve_acts():
    # zero-mass lines and lines with one finite cell let the presolve fix
    # cells, and a positive-mass line without a finite cell lets it answer
    # infeasible; the tree alone must reach the simplex's status and cost.
    # An imbalance leaves no exact solution: the two solvers may land the
    # residual on different rows, which moves the cost by up to the
    # imbalance times the largest cost
    rng = np.random.default_rng(72)
    seen = []
    for _ in range(400):
        mu, nu, cost, imbalanced = _seeded_problem(rng)
        _, sol, want = coupling_solve(mu, nu, cost)
        got = optimal_coupling(mu, nu, cost)
        acted = sol.fixed + sol.dropped_rows + sol.aggregated > 0
        seen.append((sol.status, acted, imbalanced))
        if want.cost == INF:
            assert (got.cost, got.coupling) == (INF, None)
        else:
            slack = 5e-10 * 4.0 if imbalanced else 0.0
            assert got.cost == pytest.approx(want.cost, rel=1e-12, abs=1e-12 + slack)
            assert _marginals_hold(got, mu, nu)
    assert seen.count(("optimal", True, False)) > 30
    assert seen.count(("optimal", True, True)) > 10
    assert seen.count(("infeasible", False, False)) > 10  # Hall's condition fails
    verdicts = [case[:2] for case in seen]
    assert verdicts.count(("infeasible", True)) > 10  # the presolve's verdict


def test_optimal_coupling_on_empty_and_zero_mass_problems():
    # no point on either side, or none on one side and zero mass on the
    # other: cost 0 and an empty coupling, as lp.solve answered them
    empty = MeasureData(0, [])
    for other in (empty, MeasureData(2, [0.0, 0.0]), MeasureData(2, [4e-10, 0.0])):
        for mu, nu in ((empty, other), (other, empty)):
            cost = np.zeros((mu.n, nu.n))
            res = optimal_coupling(mu, nu, cost)
            assert res.cost == 0.0 and res.coupling.shape == (mu.n, nu.n)
            assert same_bits(res, coupling_solve(mu, nu, cost)[2])
    # every cost infinite, with mass and without; a zero-mass row whose
    # cells are all infinite
    for w, want in (([0.5, 0.5], INF), ([0.0, 0.0], 0.0)):
        mu, cost = MeasureData(2, w), np.full((2, 2), INF)
        res = optimal_coupling(mu, mu, cost)
        assert res.cost == want and same_bits(res, coupling_solve(mu, mu, cost)[2])
    mu, nu = MeasureData(2, [1.0, 0.0]), MeasureData(2, [0.5, 0.5])
    cost = np.array([[1.0, 3.0], [INF, INF]])
    res = optimal_coupling(mu, nu, cost)
    assert res.cost == pytest.approx(coupling_solve(mu, nu, cost)[2].cost, rel=1e-12)
    assert res.coupling.tolist() == [[0.5, 0.5], [0.0, 0.0]]


def test_marginal_check_refuses_corrupted_flows(monkeypatch):
    mu, nu = MeasureData(2, [0.7, 0.3]), MeasureData(2, [0.4, 0.6])
    cost = [[0, 1], [1, 0]]
    finish = lp._Tree.finish

    def corrupted(self):
        flows, mass, worst = finish(self)
        flows[0] += 1e-6
        return flows, mass, worst

    monkeypatch.setattr(lp._Tree, "finish", corrupted)
    with pytest.raises(LpNumericalError, match="marginals"):
        optimal_coupling(mu, nu, cost)
    # a negative entry that keeps the marginals exact
    monkeypatch.setattr(lp, "_solve_tree", lambda *args: (None, [0.5, -0.1, -0.1, 0.5]))
    with pytest.raises(LpNumericalError, match="entry"):
        optimal_coupling(MeasureData(2, [0.4, 0.4]), MeasureData(2, [0.4, 0.4]), cost)


def test_optimal_coupling_builds_no_model_and_calls_no_lp_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("called")

    for module in (lp, transport):
        monkeypatch.setattr(module, "solve", refuse)
        monkeypatch.setattr(module, "LpModel", refuse)
    res = optimal_coupling(MeasureData(2, [0.7, 0.3]), MeasureData(2, [0.4, 0.6]), [[0, 1], [1, 0]])
    assert res.cost == pytest.approx(0.3)
    k = FiniteKernel(1, 2, [[1.0, 0.0]])
    assert wasserstein_kernels(k, k, MeasureData(1, [1.0]), line(2), 1.0).cost == 0.0


def test_wasserstein_measures_identity():
    mu = MeasureData(3, [0.5, 0.25, 0.25])
    assert wasserstein_measures(mu, mu, line(3), 1.0) == pytest.approx(0.0, abs=1e-9)


def test_wasserstein_measures_point_masses():
    mu = MeasureData(4, [1, 0, 0, 0])
    nu = MeasureData(4, [0, 0, 0, 1])
    for p in (1.0, 2.0):
        assert wasserstein_measures(mu, nu, line(4), p) == pytest.approx(3.0)


def test_wasserstein_measures_overlap():
    mu = MeasureData(3, [0.5, 0.5, 0.0])
    nu = MeasureData(3, [0.0, 0.5, 0.5])
    assert wasserstein_measures(mu, nu, line(3), 1.0) == pytest.approx(1.0)


def test_overflowing_powers_are_inf_without_warnings():
    # (1e200)^2 is past the float range, so the cost is inf, as ext_pow has it
    far = MetricData(2, [[0, 1e200], [1e200, 0]])
    mu, nu = MeasureData(2, [1.0, 0.0]), MeasureData(2, [0.0, 1.0])
    k = FiniteKernel(1, 2, [[1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wasserstein_measures(mu, nu, far, 2.0) == INF
        assert wasserstein_measures(mu, nu, far, 1.0) == 1e200
        m, n = FiniteKernel(1, 2, [[1.0, 0.0]]), FiniteKernel(1, 2, [[0.0, 1.0]])
        assert wasserstein_kernels(m, n, MeasureData(1, [1.0]), far, 2.0).cost == INF
        assert wasserstein_deterministic([0], k, [1, 0], MeasureData(1, [1.0]), far, 2.0) == INF


def test_wasserstein_measures_rejects_infinite_p():
    mu = MeasureData(1, [1.0])
    with pytest.raises(ValueError, match="not\\s+linear"):
        wasserstein_measures(mu, mu, line(1), INF)
    with pytest.raises(ValueError, match="order p"):
        wasserstein_measures(mu, mu, line(1), math.nan)


def test_nan_order_rejected():
    f, mu, d = np.array([0, 1]), counting_measure(2), line(2)
    with pytest.raises(ValueError, match="order p"):
        lp_distance(f, f, mu, d, math.nan)
    with pytest.raises(ValueError, match="order p"):
        wasserstein_deterministic(f, embed_function(f, 2), f, mu, d, math.nan)


def test_kernel_wasserstein_identity():
    rng = np.random.default_rng(22)
    m = random_kernel(rng, 3, 4)
    mu = random_measure(rng, 3)
    res = wasserstein_kernels(m, m, mu, random_metric(rng, 4, symmetric=True), 2.0)
    assert res.cost <= 1e-9


def test_kernel_wasserstein_deterministic_equals_lp_distance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n, k = 4, 5
        f = rng.integers(0, k, n)
        g = rng.integers(0, k, n)
        mu = random_measure(rng, n)
        d = random_metric(rng, k)
        p = float(rng.choice([1.0, 2.0]))
        got = wasserstein_kernels(embed_function(f, k), embed_function(g, k), mu, d, p)
        want = lp_distance(f, g, mu, d, p)
        assert got.cost == pytest.approx(want, abs=1e-7)


def test_kernel_wasserstein_singleton_is_classical():
    rng = np.random.default_rng(24)
    m = random_kernel(rng, 1, 4)
    n = random_kernel(rng, 1, 4)
    d = random_metric(rng, 4)
    mu = MeasureData(1, [1.0])
    got = wasserstein_kernels(m, n, mu, d, 1.0)
    want = wasserstein_measures(
        MeasureData(4, m.p[0]), MeasureData(4, n.p[0]), d, 1.0
    )
    assert got.cost == pytest.approx(want, abs=1e-9)


def test_kernel_wasserstein_skips_null_rows():
    m = FiniteKernel(2, 2, [[1, 0], [0, 1]])
    n = FiniteKernel(2, 2, [[1, 0], [1, 0]])
    mu = MeasureData(2, [1.0, 0.0])
    d = line(2)
    res = wasserstein_kernels(m, n, mu, d, 1.0)
    assert res.cost == pytest.approx(0.0, abs=1e-9)
    assert res.coupling[1] is None


def test_kernel_wasserstein_takes_entries_down_to_minus_tol_as_zero():
    # FiniteKernel accepts an entry in [-TOL, 0); as a measure it is 0
    m = FiniteKernel(1, 2, [[1 + 1e-10, -1e-10]])
    n = FiniteKernel(1, 2, [[0.0, 1.0]])
    res = wasserstein_kernels(m, n, MeasureData(1, [1.0]), line(2), 1.0)
    assert res.cost == pytest.approx(1.0)
    assert type(res.cost) is float
    assert res.coupling[0].min() >= 0.0


def test_kernel_wasserstein_rows_within_tol_of_one_carry_equal_mass():
    # each row sums to 1 within TOL, but the two sums differ by more than TOL
    m = FiniteKernel(1, 2, [[0.5 + 9e-10, 0.5]])
    n = FiniteKernel(1, 2, [[0.5 - 9e-10, 0.5]])
    res = wasserstein_kernels(m, n, MeasureData(1, [1.0]), line(2), 1.0)
    assert res.cost == pytest.approx(0.0, abs=1e-8)
    assert type(res.cost) is float


def test_kernel_wasserstein_triangle():
    rng = np.random.default_rng(25)
    for _ in range(40):
        nx, ny = 3, 3
        mu = random_measure(rng, nx)
        d = random_metric(rng, ny)
        p = float(rng.choice([1.0, 2.0]))
        k1, k2, k3 = (random_kernel(rng, nx, ny) for _ in range(3))
        d13 = wasserstein_kernels(k1, k3, mu, d, p).cost
        d12 = wasserstein_kernels(k1, k2, mu, d, p).cost
        d23 = wasserstein_kernels(k2, k3, mu, d, p).cost
        assert d13 <= d12 + d23 + 1e-6


def test_kernel_wasserstein_symmetry():
    rng = np.random.default_rng(26)
    for _ in range(20):
        mu = random_measure(rng, 3)
        d = random_metric(rng, 4, symmetric=True)
        a = random_kernel(rng, 3, 4)
        b = random_kernel(rng, 3, 4)
        ab = wasserstein_kernels(a, b, mu, d, 1.5).cost
        ba = wasserstein_kernels(b, a, mu, d, 1.5).cost
        assert ab == pytest.approx(ba, abs=1e-9)


def test_kernel_wasserstein_positive_definite_on_support():
    rng = np.random.default_rng(30)
    d = line(3)  # classical metric
    for _ in range(20):
        m = random_kernel(rng, 3, 3)
        n = random_kernel(rng, 3, 3)
        mu = MeasureData(3, [1.0, 1.0, 0.0])
        cost = wasserstein_kernels(m, n, mu, d, 1.0).cost
        differs_on_support = np.abs(m.p[:2] - n.p[:2]).max() > 1e-9
        if differs_on_support:
            assert cost > 0
        else:
            assert cost <= 1e-9
    # differing only on a null row costs nothing
    m = random_kernel(rng, 3, 3)
    n_p = m.p.copy()
    n_p[2] = [1.0, 0.0, 0.0]
    mu = MeasureData(3, [0.5, 0.5, 0.0])
    from cset_transport.markov import FiniteKernel as FK

    assert wasserstein_kernels(m, FK(3, 3, n_p), mu, d, 1.0).cost <= 1e-9


def test_wasserstein_deterministic_identity_kernel():
    rng = np.random.default_rng(27)
    n, k = 4, 5
    f = rng.integers(0, k, n)
    g = rng.integers(0, k, n)
    mu = random_measure(rng, n)
    d = random_metric(rng, k)
    from cset_transport.markov import identity_kernel

    got = wasserstein_deterministic(f, identity_kernel(n), g, mu, d, 2.0)
    assert got == pytest.approx(lp_distance(f, g, mu, d, 2.0), abs=1e-12)


def test_wasserstein_deterministic_agrees_with_lp_path():
    rng = np.random.default_rng(28)
    for _ in range(25):
        nx, ny, nz = 3, 4, 4
        f = rng.integers(0, nz, nx)
        g = rng.integers(0, nz, ny)
        m = random_kernel(rng, nx, ny)
        mu = random_measure(rng, nx)
        d = random_metric(rng, nz)
        p = float(rng.choice([1.0, 2.0]))
        closed = wasserstein_deterministic(f, m, g, mu, d, p)
        lp_route = wasserstein_kernels(
            embed_function(f, nz), compose_kernels(m, embed_function(g, nz)), mu, d, p
        )
        assert closed == pytest.approx(lp_route.cost, abs=1e-7)


def test_wasserstein_deterministic_discrete_zero():
    from cset_transport.mm import discrete_metric
    from cset_transport.markov import identity_kernel

    f = np.array([0, 1])
    got = wasserstein_deterministic(
        f, identity_kernel(2), f, counting_measure(2), discrete_metric(2), 1.0
    )
    assert got == 0.0


def test_independent_coupling_upper_bound():
    rng = np.random.default_rng(29)
    for _ in range(20):
        nx, ny = 3, 3
        mu = uniform_measure(nx)
        d = random_metric(rng, ny)
        a = random_kernel(rng, nx, ny)
        b = random_kernel(rng, nx, ny)
        p = 1.0
        best = wasserstein_kernels(a, b, mu, d, p).cost
        indep = sum(
            mu.w[x] * float(np.outer(a.p[x], b.p[x]).ravel() @ (d.d**p).ravel())
            for x in range(nx)
        )
        assert best <= indep + 1e-9
