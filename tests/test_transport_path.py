"""The spanning-tree transportation simplex (``lp._solve_tree``): its
answers against HiGHS, ``lp._recheck`` and the simplex of ``lp.solve``,
which solves the same programs by another route."""

import math

import numpy as np
import pytest

from cset_transport import lp, transport
from cset_transport.errors import LpNumericalError
from cset_transport.lp import LpModel, export_lp, parse_lp, solve
from cset_transport.mm import MeasureData

from oracles import coupling_solve, highs_solve, tree_solve
from test_lp import _agrees_with_highs as _simplex_agrees_with_highs
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


def _tree(model):
    """The tree's answer to a program ``_transport_model`` built: the tree,
    for its counts, the status, and the objective and values (None where
    infeasible)."""
    tree, values = tree_solve(model)
    if values is None:
        return tree, "infeasible", None, None
    cost = np.zeros(model.num_vars)
    cost[list(model.objective)] = list(model.objective.values())
    return tree, "optimal", float(cost @ values), values


def _agrees_with_highs(model, tol=1e-9):
    """The tree's answer (``_tree``), checked against HiGHS and, where
    optimal, ``lp._recheck``."""
    status, want = highs_solve(model)
    answer = _tree(model)
    assert answer[1] == status
    if status == "optimal":
        assert math.isclose(answer[2], want, rel_tol=tol, abs_tol=tol)
        lp._recheck(model, answer[3])
    return answer


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
        _, status, _, _ = _agrees_with_highs(model, 1e-8 if imbalanced else 1e-9)
        seen.append((status, imbalanced))
    assert seen.count(("optimal", False)) > 100
    assert seen.count(("optimal", True)) > 20
    assert seen.count(("infeasible", False)) > 20


def test_tree_agrees_with_the_simplex():
    # two independent solvers of one program: lp.solve's simplex on the
    # model, the tree on its supplies, demands and finite cells.  No SciPy.
    # An imbalance of 1e-9 leaves no exact solution, and the two may land
    # the residual on different rows, which moves the objective by up to
    # the imbalance times the largest cost
    rng = np.random.default_rng(64)
    seen = []
    for _ in range(400):
        model, imbalanced = _seeded_model(rng)
        sol = solve(model)
        _, status, objective, _ = _tree(model)
        assert status == sol.status
        if status == "optimal":
            slack = 1e-9 * 4.0 if imbalanced else 0.0
            assert objective == pytest.approx(sol.objective, rel=1e-12, abs=slack)
        seen.append((status, imbalanced))
    assert seen.count(("optimal", False)) > 150 and seen.count(("infeasible", False)) > 30


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
        tree, status, _, _ = _agrees_with_highs(_transport_model(supply, demand, cost, forbidden))
        assert status == "optimal"
        assert tree.pivots > n1 // 2


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
        return [tree_solve(model) for model in models]

    loop, vector = answers(10**9), answers(0)
    assert sum(tree.pivots > 0 for tree, _ in loop) > 40
    for (a, a_values), (b, b_values) in zip(loop, vector):
        assert (a.pivots, a.phase_pivots) == (b.pivots, b.phase_pivots)
        assert (a_values is None and b_values is None) or np.array_equal(a_values, b_values)


def test_hall_violation_is_infeasible_on_the_tree():
    # s0 and s1 can only ship to d0 and d1, which need 1 between them, not 2;
    # every row keeps two live cells, so the presolve cannot tell
    pytest.importorskip("scipy")
    forbidden = {(i, j) for i in (0, 1) for j in (2, 3)}
    model = _transport_model([1, 1, 1, 1], [0.5, 0.5, 1.5, 1.5], np.ones((4, 4)), forbidden)
    _, status, _, values = _agrees_with_highs(model)
    assert (status, values) == ("infeasible", None)
    # with enough demand at d0 and d1 it is feasible
    model = _transport_model([1, 1, 1, 1], [1, 1, 1, 1], np.ones((4, 4)), forbidden)
    assert _agrees_with_highs(model)[1] == "optimal"


@pytest.mark.parametrize("gap, status", [(5e-8, "optimal"), (1e-6, "infeasible")])
def test_mass_imbalance(gap, status):
    # the demands exceed the supplies by gap: within FEAS_TOL the residual
    # lands on one row and the point passes _recheck; beyond it, infeasible
    model = _transport_model([0.5, 0.5], [0.25, 0.75 + gap], [[1, 2], [3, 1]])
    _, got, objective, values = _tree(model)
    assert got == status
    if status == "optimal":
        lp._recheck(model, values)
        assert objective == pytest.approx(1.25, abs=1e-6)


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
        _, status, _, values = _agrees_with_highs(model)
        assert status == "optimal"
        assert values.reshape(n, n).sum(axis=0) == pytest.approx(np.ones(n))


def test_least_cost_start_places_the_cells_of_the_least_cost_method():
    # the start visits cells in the crash's order (cost, then index); the
    # tie at (2,2) closes the lower row, s2, and d2 hangs from the root
    pytest.importorskip("scipy")
    m, x, want = _least_cost_example()
    ends = [(i, 3 + j) for i in range(3) for j in range(4)]
    tree = lp._Tree([rhs for *_, rhs in m.constraints], [m.objective[k] for k in range(12)],
                    ends, lp._components(7, ends))
    placed = {e: tree.flow[e] for e in tree.tree if e < tree.n}
    assert placed == {x[i][j]: v for (i, j), v in want.items()}
    assert [e - tree.n for e in tree.tree if e >= tree.n] == [3 + 2]
    tree, status, _, _ = _agrees_with_highs(m)
    assert status == "optimal" and tree.pivots > 0
    assert sum(tree.phase_pivots) == tree.pivots


def test_round_trip_takes_the_same_path():
    # optimal_coupling's tree, on the model's rows as they stand, and on the
    # model back from the LP text; lp.solve on both models
    rng = np.random.default_rng(63)
    cost = rng.uniform(0.0, 4.0, (4, 5))
    cost[0, 2] = 0.0  # a zero cost, left out of the objective
    mu = rng.uniform(0.5, 1.0, 4)
    mu, nu = MeasureData(4, mu), MeasureData(5, np.full(5, mu.sum() / 5))
    model, sol, _ = coupling_solve(mu, nu, cost)
    res = transport.optimal_coupling(mu, nu, cost)
    want = dict(zip(model.var_names, res.coupling.reshape(-1).tolist()))
    back_model = parse_lp(export_lp(model))  # its variables in another order
    for m in (model, back_model):
        assert dict(zip(m.var_names, tree_solve(m)[1].tolist())) == want
    back = solve(back_model)
    assert back.status == sol.status == "optimal"
    assert back.objective == pytest.approx(sol.objective, rel=1e-12)
    assert res.cost == pytest.approx(sol.objective, rel=1e-12)


def test_tree_path_needs_no_linear_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("inv", "solve", "lstsq", "matrix_rank"):
        monkeypatch.setattr(lp.np.linalg, name, refuse)
    model = _transport_model([0.7, 0.3], [0.4, 0.6], [[0, 1], [1, 0]])
    _, status, objective, _ = _tree(model)
    assert (status, objective) == ("optimal", 0.3)


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
    assert _simplex_agrees_with_highs(model).status == "optimal"


def test_suboptimal_tree_is_rejected(monkeypatch):
    # stopping at the least-cost start, which is not optimal here, must
    # not pass the reduced-cost check
    m, _, _ = _least_cost_example()
    assert tree_solve(m)[0].pivots > 0
    monkeypatch.setattr(lp._Tree, "run", lambda self, tol: self._hang())
    with pytest.raises(LpNumericalError, match="not dual feasible"):
        tree_solve(m)


def test_negative_right_hand_side():
    # x + y = -1 has no nonnegative solution; -1e-9 is within FEAS_TOL of 0
    for rhs, status in ((-1.0, "infeasible"), (-1e-9, "optimal")):
        model = _transport_model([1, rhs], [0.5, 0.5], [[1, 2], [2, 1]])
        _, got, objective, values = _tree(model)
        assert got == status
        if status == "optimal":
            lp._recheck(model, values)
            assert objective == pytest.approx(1.5)
