"""The tree path of ``lp.solve``: which programs take it, and its answers
against HiGHS and ``lp._recheck``."""

import math

import numpy as np
import pytest

from cset_transport import lp, transport
from cset_transport.errors import LpNumericalError
from cset_transport.lp import LpModel, export_lp, parse_lp, solve
from cset_transport.mm import MeasureData

from oracles import coupling_solve, highs_solve, same_bits
from test_lp import _least_cost_example


def _transport_model(supply, demand, cost, forbidden=()):
    """min sum c x over x >= 0 with row sums ``supply`` and column sums
    ``demand``; a cell in ``forbidden`` gets upper bound 0."""
    m = LpModel()
    x = [[m.add_variable(f"x{i}_{j}") for j in range(len(demand))] for i in range(len(supply))]
    for i, row in enumerate(x):
        for j, k in enumerate(row):
            m.add_objective(k, float(cost[i][j]))
            if (i, j) in forbidden:
                m.var_upper[k] = 0.0
    for i, row in enumerate(x):
        m.add_constraint(f"s{i}", [(k, 1.0) for k in row], "=", float(supply[i]))
    for j in range(len(demand)):
        m.add_constraint(f"d{j}", [(row[j], 1.0) for row in x], "=", float(demand[j]))
    return m


def _agrees_with_highs(model, tol=1e-9):
    status, want = highs_solve(model)
    sol = solve(model)
    assert sol.status == status
    if status == "optimal":
        assert math.isclose(sol.objective, want, rel_tol=tol, abs_tol=tol)
        lp._recheck(model, sol.values)
    return sol


def _seeded_model(rng):
    """A seeded transport program: some cells forbidden, sometimes a line
    of zero mass, sometimes a mass imbalance within the tolerance; with
    many cells forbidden, some break Hall's condition."""
    n1, n2 = (int(v) for v in rng.integers(2, 7, 2))
    supply, demand = rng.uniform(0.1, 2.0, n1), rng.uniform(0.1, 2.0, n2)
    if rng.random() < 0.25:
        supply[rng.integers(n1)] = 0.0
    if rng.random() < 0.25:
        demand[rng.integers(n2)] = 0.0
    demand *= supply.sum() / demand.sum()
    imbalanced = rng.random() < 0.2
    if imbalanced:
        demand[0] += float(rng.choice([-1e-9, 1e-9]))
    share = float(rng.choice([0.0, 0.25, 0.5]))
    forbidden = {(i, j) for i in range(n1) for j in range(n2) if rng.random() < share}
    cost = rng.uniform(0.0, 4.0, (n1, n2))
    return _transport_model(supply, demand, cost, forbidden), imbalanced


def test_seeded_programs_against_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(61)
    seen = []
    for trial in range(300):
        model, imbalanced = _seeded_model(rng)
        # an imbalance of 1e-9 leaves no exact solution: the answers may
        # differ where the residual lands, by about the imbalance times a cost
        sol = _agrees_with_highs(model, 1e-8 if imbalanced else 1e-9)
        seen.append((sol.method, sol.status, imbalanced))
    assert seen.count(("transport", "optimal", False)) > 100
    assert seen.count(("transport", "optimal", True)) > 20
    # the tree decides some infeasible programs, the presolve others
    assert seen.count(("transport", "infeasible", False)) > 10
    assert seen.count(("simplex", "infeasible", False)) > 10


@pytest.mark.parametrize("n1, n2", [(20, 30), (40, 40)])
def test_larger_programs_against_highs(n1, n2):
    # past the small programs, where a pivot re-hangs only the subtree the
    # leaving edge held; integer costs and unit marginals make long runs of
    # degenerate pivots, and forbidden cells leave the graph incomplete.
    # The final check prices every cell under potentials hung afresh.
    pytest.importorskip("scipy")
    rng = np.random.default_rng(n1 + n2)
    for integer, share in ((False, 0.0), (True, 0.0), (False, 0.3), (True, 0.3)):
        supply = np.ones(n1) if integer else rng.uniform(0.1, 2.0, n1)
        demand = rng.uniform(0.1, 2.0, n2)
        demand *= supply.sum() / demand.sum()
        cost = rng.integers(0, 4, (n1, n2)) if integer else rng.uniform(0.0, 4.0, (n1, n2))
        forbidden = {(i, j) for i in range(n1) for j in range(n2) if rng.random() < share}
        sol = _agrees_with_highs(_transport_model(supply, demand, cost, forbidden))
        assert (sol.method, sol.status) == ("transport", "optimal")
        assert sol.pivots > n1 // 2


def test_loop_and_vector_pricing_choose_the_same_pivots(monkeypatch):
    # the tree prices up to LOOP_PRICING variables in a Python loop and more
    # with numpy; forced either way, every answer must be the same, bit for
    # bit.  Unit marginals with integer costs make runs of zero steps, so
    # Bland's rule is priced too.
    rng = np.random.default_rng(67)
    models = [_seeded_model(rng)[0] for _ in range(80)]
    for n in (3, 5, 9):
        for _ in range(10):
            models.append(_transport_model(np.ones(n), np.ones(n), rng.integers(0, 3, (n, n))))

    def answers(limit):
        monkeypatch.setattr(lp, "LOOP_PRICING", limit)
        return [solve(model) for model in models]

    loop, vector = answers(10**9), answers(0)
    assert sum(sol.method == "transport" and sol.pivots > 0 for sol in loop) > 40
    for a, b in zip(loop, vector):
        assert (a.status, a.method, a.pivots, a.phase_pivots) == (
            b.status, b.method, b.pivots, b.phase_pivots)
        assert (a.values is None and b.values is None) or np.array_equal(a.values, b.values)


def test_hall_violation_is_infeasible_on_the_tree():
    # s0 and s1 can only ship to d0 and d1, which need 1 between them, not 2;
    # every row keeps two live cells, so the presolve cannot tell
    pytest.importorskip("scipy")
    forbidden = {(i, j) for i in (0, 1) for j in (2, 3)}
    model = _transport_model([1, 1, 1, 1], [0.5, 0.5, 1.5, 1.5], np.ones((4, 4)), forbidden)
    sol = _agrees_with_highs(model)
    assert (sol.method, sol.status, sol.values) == ("transport", "infeasible", None)
    # with enough demand at d0 and d1 it is feasible
    model = _transport_model([1, 1, 1, 1], [1, 1, 1, 1], np.ones((4, 4)), forbidden)
    assert _agrees_with_highs(model).method == "transport"


@pytest.mark.parametrize("gap, status", [(5e-8, "optimal"), (1e-6, "infeasible")])
def test_mass_imbalance(gap, status):
    # the demands exceed the supplies by gap: within FEAS_TOL the residual
    # lands on one row and the point passes _recheck; beyond it, infeasible
    model = _transport_model([0.5, 0.5], [0.25, 0.75 + gap], [[1, 2], [3, 1]])
    sol = solve(model)
    assert (sol.method, sol.status) == ("transport", status)
    if status == "optimal":
        lp._recheck(model, sol.values)
        assert sol.objective == pytest.approx(1.25, abs=1e-6)


@pytest.mark.parametrize("n", range(2, 8))
def test_tie_heavy_assignment_problems(n):
    # unit marginals make every basis degenerate: n of the 2n - 1 tree
    # edges carry flow.  Costs from {0, 1, 2} tie everywhere, and equal
    # costs make every point optimal.  Each solve must end, optimal.
    pytest.importorskip("scipy")
    rng = np.random.default_rng(62 + n)
    costs = [rng.integers(0, 3, (n, n)) for _ in range(50)] + [np.full((n, n), 1.5)]
    for cost in costs:
        model = _transport_model(np.ones(n), np.ones(n), cost)
        sol = _agrees_with_highs(model)
        assert (sol.method, sol.status) == ("transport", "optimal")
        assert sol.values.reshape(n, n).sum(axis=0) == pytest.approx(np.ones(n))


def test_least_cost_start_places_the_cells_of_the_least_cost_method():
    # the start visits cells in the crash's order (cost, then index); the
    # tie at (2,2) closes the lower row, s2, and d2 hangs from the root
    pytest.importorskip("scipy")
    m, x, want = _least_cost_example()
    pre = lp._presolve(m)
    live = list(range(m.num_vars))
    tree = lp._Tree([rhs for _, _, rhs in pre.rows], [m.objective[k] for k in live],
                    *lp._transportation(pre, live))
    placed = {e: tree.flow[e] for e in tree.tree if e < tree.n}
    assert placed == {x[i][j]: v for (i, j), v in want.items()}
    assert [e - tree.n for e in tree.tree if e >= tree.n] == [3 + 2]
    sol = _agrees_with_highs(m)
    assert (sol.method, sol.crashed, sol.refactors) == ("transport", 6, 0)
    assert sum(sol.phase_pivots) == sol.pivots


def test_round_trip_takes_the_same_path():
    rng = np.random.default_rng(63)
    cost = rng.uniform(0.0, 4.0, (4, 5))
    cost[0, 2] = 0.0  # a zero cost, left out of the objective
    mu = rng.uniform(0.5, 1.0, 4)
    mu, nu = MeasureData(4, mu), MeasureData(5, np.full(5, mu.sum() / 5))
    model, sol, want = coupling_solve(mu, nu, cost)
    assert same_bits(transport.optimal_coupling(mu, nu, cost), want)
    back = solve(parse_lp(export_lp(model)))
    assert sol.method == back.method == "transport"
    assert back.status == sol.status == "optimal"
    assert back.objective == pytest.approx(sol.objective, rel=1e-12)


def test_tree_path_needs_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("inv", "solve", "lstsq", "matrix_rank"):
        monkeypatch.setattr(lp.np.linalg, name, refuse)
    model = _transport_model([0.7, 0.3], [0.4, 0.6], [[0, 1], [1, 0]])
    sol = solve(model)
    assert (sol.method, sol.objective, sol.refactors) == ("transport", 0.3, 0)


def _coefficient_two(m):
    name, terms, rel, rhs = m.constraints[0]
    m.constraints[0] = (name, [(terms[0][0], 2.0)] + terms[1:], rel, rhs)


def _inequality(m):
    name, terms, _, rhs = m.constraints[0]
    m.constraints[0] = (name, terms, "<=", rhs)


def _three_rows(m):
    m.add_constraint("extra", [(0, 1.0), (4, 1.0)], "=", 1.0)


def _bound(m):
    m.var_upper[4] = 5.0


def _odd_cycle(m):
    # a triangle of rows: each variable in two rows, but no 2-colouring
    m.constraints.clear()
    m.add_constraint("r0", [(0, 1.0), (1, 1.0)], "=", 1.0)
    m.add_constraint("r1", [(1, 1.0), (2, 1.0)], "=", 1.0)
    m.add_constraint("r2", [(2, 1.0), (0, 1.0)], "=", 1.0)
    for k in range(3, 9):
        m.var_upper[k] = 0.0


@pytest.mark.parametrize("change", [_coefficient_two, _inequality, _three_rows, _bound, _odd_cycle])
def test_near_misses_take_the_simplex(change):
    # a 3x3 transport program changed in one way that makes it not one
    pytest.importorskip("scipy")
    model = _transport_model([1, 2, 3], [2, 2, 2], [[1, 2, 3], [2, 1, 2], [3, 2, 1]])
    change(model)
    pre = lp._presolve(model)
    assert lp._transportation(pre, [j for j in range(model.num_vars) if not pre.is_fixed[j]]) is None
    sol = _agrees_with_highs(model)
    assert (sol.method, sol.status) == ("simplex", "optimal")


def test_suboptimal_tree_is_rejected(monkeypatch):
    # stopping at the least-cost start, which is not optimal here, must
    # not pass the reduced-cost check
    m, _, _ = _least_cost_example()
    assert solve(m).pivots > 0
    monkeypatch.setattr(lp._Tree, "run", lambda self, tol: self._hang())
    with pytest.raises(LpNumericalError, match="not dual feasible"):
        solve(m)


def test_negative_right_hand_side():
    # x + y = -1 has no nonnegative solution; -1e-9 is within FEAS_TOL of 0
    for rhs, status in ((-1.0, "infeasible"), (-1e-9, "optimal")):
        model = _transport_model([1, rhs], [0.5, 0.5], [[1, 2], [2, 1]])
        sol = solve(model)
        assert (sol.method, sol.status) == ("transport", status)
        if status == "optimal":
            lp._recheck(model, sol.values)
            assert sol.objective == pytest.approx(1.5)
