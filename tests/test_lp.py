import numpy as np
import pytest

from cset_transport.errors import LpError
from cset_transport.lp import LpModel, export_lp, parse_lp, solve

from oracles import brute_force_lp


def minx_model():
    m = LpModel()
    x = m.add_variable("x")
    m.add_objective(x, 1.0)
    m.add_constraint("c0", [(x, 1.0)], ">=", 1.0)
    return m


def test_min_x():
    sol = solve(minx_model())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.value("x") == pytest.approx(1.0)


def test_infeasible_pair():
    m = LpModel()
    x = m.add_variable("x")
    m.add_constraint("a", [(x, 1.0)], "=", 1.0)
    m.add_constraint("b", [(x, 1.0)], "=", 2.0)
    assert solve(m).status == "infeasible"


def test_transport_2x2():
    m = LpModel()
    v = {(i, j): m.add_variable(f"pi_{i}_{j}") for i in range(2) for j in range(2)}
    mu, nu = [0.7, 0.3], [0.4, 0.6]
    cost = [[0, 1], [1, 0]]
    for i in range(2):
        m.add_constraint(f"r{i}", [(v[i, j], 1.0) for j in range(2)], "=", mu[i])
    for j in range(2):
        m.add_constraint(f"c{j}", [(v[i, j], 1.0) for i in range(2)], "=", nu[j])
    for (i, j), k in v.items():
        m.add_objective(k, cost[i][j])
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.3)
    status, want = brute_force_lp(m)
    assert status == "optimal" and sol.objective == pytest.approx(want, abs=1e-9)


def test_unbounded():
    m = LpModel()
    x = m.add_variable("x")
    m.add_objective(x, -1.0)
    m.add_constraint("c", [(x, 1.0)], ">=", 1.0)
    assert solve(m).status == "unbounded"


def test_upper_bounds_respected():
    m = LpModel()
    x = m.add_variable("x", upper=2.5)
    m.add_objective(x, -1.0)
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.value("x") == pytest.approx(2.5)


def test_validation_errors():
    m = LpModel()
    m.add_variable("x")
    m.add_variable("x")
    with pytest.raises(LpError, match="unique"):
        m.validate()
    m = LpModel()
    x = m.add_variable("x")
    m.add_constraint("c", [(x, 1.0)], "=", float("inf"))
    with pytest.raises(LpError, match="non-finite"):
        m.validate()


def test_export_empty_model():
    assert export_lp(LpModel()) == "MINIMIZE\nSUBJECT TO\nEND\n"


def test_export_minx_golden():
    text = export_lp(minx_model())
    assert text == "MINIMIZE 1 x\nSUBJECT TO\nc0: 1 x >= 1\nEND\n"
    assert len(text.splitlines()) == 4


def test_export_bounds_section():
    m = LpModel()
    m.add_variable("a", upper=0.0)
    m.add_variable("b")
    m.add_constraint("c", [(0, 1.0), (1, -2.0)], "<=", 1.5)
    text = export_lp(m)
    assert "BOUNDS\na <= 0\n" in text
    assert "c: 1 a + -2 b <= 1.5" in text


def test_round_trip_parse():
    m = LpModel()
    a = m.add_variable("a", upper=3.0)
    b = m.add_variable("b")
    m.add_objective(a, 0.1)
    m.add_objective(b, -2.0)
    m.add_constraint("c0", [(a, 1.0), (b, 1.0)], "=", 1.0)
    m.add_constraint("c1", [(b, 0.25)], ">=", 0.125)
    text = export_lp(m)
    again = parse_lp(text)
    assert export_lp(again) == text
    s1, s2 = solve(m), solve(again)
    assert s1.objective == pytest.approx(s2.objective)


def test_deterministic_resolve():
    m = minx_model()
    a, b = solve(m), solve(m)
    assert a.objective == b.objective
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("bound_as_row", [True, False])
def test_beale_cycling_example(bound_as_row):
    # Beale's degenerate program: Dantzig pricing with ratio ties broken by
    # the first row cycles on it forever, so this needs the Bland backstop
    m = LpModel()
    x6_upper = np.inf if bound_as_row else 1.0
    x = [m.add_variable(f"x{i}", upper=x6_upper if i == 6 else np.inf) for i in (4, 5, 6, 7)]
    for idx, coef in zip(x, (-0.75, 150.0, -0.02, 6.0)):
        m.add_objective(idx, coef)
    m.add_constraint("r1", list(zip(x, (0.25, -60.0, -0.04, 9.0))), "<=", 0.0)
    m.add_constraint("r2", list(zip(x, (0.5, -90.0, -0.02, 3.0))), "<=", 0.0)
    if bound_as_row:
        m.add_constraint("r3", [(x[2], 1.0)], "<=", 1.0)
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-0.05)
    assert sol.values == pytest.approx([0.04, 0.0, 1.0, 0.0])


def _random_model(rng):
    n = int(rng.integers(1, 6))
    k = int(rng.integers(1, 6))
    m = LpModel()
    for i in range(n):
        upper = float(rng.uniform(0.5, 3.0)) if rng.random() < 0.3 else np.inf
        m.add_variable(f"x{i}", upper=upper)
    for i in range(n):
        if rng.random() < 0.8:
            m.add_objective(i, float(rng.uniform(-2, 2)))
    for r in range(k):
        terms = [
            (i, float(rng.uniform(-2, 2)))
            for i in range(n)
            if rng.random() < 0.7
        ]
        if not terms:
            terms = [(0, 1.0)]
        rel = rng.choice(["=", "<=", ">="], p=[0.3, 0.4, 0.3])
        m.add_constraint(f"c{r}", terms, str(rel), float(rng.uniform(-2, 2)))
    return m


def test_random_lps_against_vertex_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(120):
        model = _random_model(rng)
        status, want = brute_force_lp(model)
        sol = solve(model)
        assert sol.status == status, f"trial {trial}: {sol.status} vs {status}"
        if status == "optimal":
            assert sol.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"


def test_optimal_solutions_satisfy_constraints():
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(60):
        model = _random_model(rng)
        sol = solve(model)  # solve() itself re-verifies residuals <= 1e-7
        if sol.status != "optimal":
            continue
        checked += 1
        x = sol.values
        for cname, terms, rel, rhs in model.constraints:
            lhs = sum(c * x[i] for i, c in terms)
            if rel == "=":
                assert abs(lhs - rhs) <= 1e-7
            elif rel == "<=":
                assert lhs <= rhs + 1e-7
            else:
                assert lhs >= rhs - 1e-7
    assert checked > 10


def _pinned_ray_model(pin):
    # min -x + y s.t. x + y >= 1: unbounded along x unless x is held at 0
    m = LpModel()
    x = m.add_variable("x", upper=0.0 if pin else np.inf)
    y = m.add_variable("y")
    m.add_objective(x, -1.0)
    m.add_objective(y, 1.0)
    m.add_constraint("c", [(x, 1.0), (y, 1.0)], ">=", 1.0)
    return m


def test_zero_upper_bound_variable_held_at_zero():
    assert solve(_pinned_ray_model(pin=False)).status == "unbounded"
    sol = solve(_pinned_ray_model(pin=True))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0)
    assert sol.value("x") == 0.0
    assert sol.value("y") == pytest.approx(1.0)
    # with no rows left at all the bound alone decides
    m = LpModel()
    m.add_objective(m.add_variable("x", upper=0.0), -1.0)
    sol = solve(m)
    assert sol.status == "optimal" and sol.objective == 0.0


def test_zero_upper_bounds_round_trip():
    m = _pinned_ray_model(pin=True)
    text = export_lp(m)
    assert text.endswith("BOUNDS\nx <= 0\nEND\n")
    again = parse_lp(text)
    assert again.var_upper == [0.0, np.inf]
    assert export_lp(again) == text
    assert solve(again).objective == pytest.approx(solve(m).objective)


def test_rows_over_zero_bounded_variables_only():
    m = LpModel()
    x = m.add_variable("x", upper=0.0)
    y = m.add_variable("y", upper=0.0)
    m.add_constraint("need", [(x, 1.0), (y, 1.0)], ">=", 1.0)
    assert solve(m).status == "infeasible"
    m.constraints[0] = ("need", [(x, 1.0), (y, 1.0)], "=", 0.0)
    sol = solve(m)
    assert sol.status == "optimal" and np.array_equal(sol.values, [0.0, 0.0])
    # a positive bound is still enforced beside the zero ones
    z = m.add_variable("z", upper=2.0)
    m.add_constraint("over", [(x, 1.0), (z, 1.0)], ">=", 3.0)
    assert solve(m).status == "infeasible"


def test_random_lps_with_zero_bounds_against_vertex_enumeration():
    rng = np.random.default_rng(44)
    pinned = 0
    for trial in range(80):
        model = _random_model(rng)
        for i in range(model.num_vars):
            if rng.random() < 0.3:
                model.var_upper[i] = 0.0
                pinned += 1
        status, want = brute_force_lp(model)
        sol = solve(model)
        assert sol.status == status, f"trial {trial}: {sol.status} vs {status}"
        if status == "optimal":
            assert sol.objective == pytest.approx(want, abs=1e-6), f"trial {trial}"
            assert all(sol.values[i] == 0.0 for i, u in enumerate(model.var_upper) if u == 0.0)
    assert pinned > 40
