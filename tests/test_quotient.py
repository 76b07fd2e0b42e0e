"""``lp.solve`` on colour classes: the quotient program has the optimum of
the full one, and its point, lifted back, passes the check of every row and
bound of the full model."""

import math

import numpy as np
import pytest

import cset_transport as ct
from cset_transport import lp, relax
from cset_transport.errors import CsetTransportError
from cset_transport.gallery import BUILTIN_INSTANCE_NAMES, directed_cycle
from cset_transport.lp import LpModel

from oracles import highs_solve
from test_pivot_path import _digraph

pytest.importorskip("scipy")


def _agrees(model):
    """Solve ``model``; status and objective must match HiGHS, and the point
    must pass ``_recheck`` on the full model."""
    sol = lp.solve(model)
    status, want = highs_solve(model)
    assert sol.status == status
    if status == "optimal":
        assert math.isclose(sol.objective, want, rel_tol=1e-9, abs_tol=1e-9)
        lp._recheck(model, sol.values)
    return sol


def test_cycle_pairs_against_highs():
    merged = 0
    for p in (1.0, 2.0):
        for m in range(1, 7):
            for n in range(1, 7):
                prog = relax.wasserstein_cset_lp(directed_cycle(m), directed_cycle(n), p)
                if prog.structurally_infinite is None:
                    merged += _agrees(prog.model).merged_vars > 0
    assert merged > 30


def test_digraph_pairs_against_highs():
    rng = np.random.default_rng(16)
    merged = 0
    for _ in range(20):
        x, y = _digraph(rng, 3, 4, strong=True), _digraph(rng, 4, 6)
        for p in (1.0, 2.0):
            prog = relax.wasserstein_cset_lp(x, y, p)
            if prog.structurally_infinite is None:
                merged += _agrees(prog.model).merged_vars > 0
    assert merged > 10


def test_builtin_feasibility_against_highs():
    instances = {name: ct.load_instance(f"builtin:{name}") for name in BUILTIN_INSTANCE_NAMES}
    solved = merged = 0
    for x in instances.values():
        for y in instances.values():
            try:
                model = relax.markov_feasibility_lp(x, y)
            except CsetTransportError:  # different theories or fixed objects
                continue
            sol = _agrees(model)
            solved += 1
            merged += sol.merged_vars > 0
    assert solved > 400 and merged > 100


def _symmetric_pair(upper_y, coef_x=1.0, coef_y=1.0):
    """min x + y subject to coef_x x + coef_y y >= 3, x <= 20, y <= upper_y:
    x and y look alike in every row."""
    m = LpModel()
    x, y = m.add_variable("x", upper=20.0), m.add_variable("y", upper=upper_y)
    m.add_objective(x, 1.0)
    m.add_objective(y, 1.0)
    m.add_constraint("r", [(x, coef_x), (y, coef_y)], ">=", 3.0)
    return m


def test_different_upper_bounds_stay_apart():
    # x + y >= 15 with x <= 20 and y <= 1: one class would give both
    # members one bound, and either break y's or cut x off at 1
    sol = _agrees(_symmetric_pair(1.0, 0.2, 0.2))
    assert (sol.status, sol.merged_vars) == ("optimal", 0)
    assert sol.objective == pytest.approx(15.0)
    # with equal bounds the two are one class, and so are their bound rows
    sol = _agrees(_symmetric_pair(20.0, 2.0, 2.0))
    assert (sol.status, sol.merged_vars, sol.merged_rows) == ("optimal", 1, 1)
    assert sol.values.tolist() == [0.75, 0.75]


def test_coefficients_compare_exactly():
    # 0.1 + 0.2 is not 0.3: the colours tell x and y apart, so the simplex
    # gets two columns and ends on a vertex, which puts all the mass on one
    # of them.  Which one is a tie the test leaves open: the two vertices'
    # objectives differ by 1.5e-15, far below the solver's tolerances, and
    # _agrees checks the objective against HiGHS
    sol = _agrees(_symmetric_pair(20.0, 0.1 + 0.2, 0.3))
    assert (sol.status, sol.merged_vars) == ("optimal", 0)
    assert sol.values.min() == 0.0 and sol.objective == pytest.approx(10.0, rel=1e-14)
    sol = _agrees(_symmetric_pair(20.0, 0.3, 0.3))
    assert (sol.status, sol.merged_vars) == ("optimal", 1)
    assert sol.values[0] == sol.values[1]


def test_discrete_colouring_keeps_the_full_program():
    # one starting colour for all five (every cost is 1; x3's bound is the
    # row x3 <= 2), which the rows split into singletons: the simplex sees
    # the presolved program as it did before the quotient, with nothing
    # merged.  The program has
    # several optimal vertices of objective 2.5, so the test checks the
    # objective and that the point is one of them, not which one
    m = LpModel()
    x = [m.add_variable(f"x{i}", upper=2.0 if i == 3 else math.inf) for i in range(5)]
    for i in x:
        m.add_objective(i, 1.0)
    m.add_constraint("a", [(x[0], 1.0), (x[1], 1.0)], ">=", 1.0)
    m.add_constraint("b", [(x[1], 1.0), (x[2], 2.0)], ">=", 3.0)
    m.add_constraint("c", [(x[2], 1.0), (x[3], 1.0), (x[4], -1.0)], "=", 1.5)
    m.add_constraint("d", [(x[0], 1.0), (x[4], 1.0)], "<=", 4.0)
    pre = lp._presolve(m)
    assert lp._refine(pre, list(range(5))) is None
    sol = _agrees(m)
    assert (sol.status, sol.objective) == ("optimal", 2.5)
    assert sol.var_names == ["x0", "x1", "x2", "x3", "x4"]
    assert (sol.fixed, sol.dropped_rows, sol.merged_vars, sol.merged_rows) == (0, 0, 0, 0)
    # every cost is 1, so the crash places nothing and the dual simplex
    # pivots from the all-logical start
    assert (sol.pivots, sol.phase_pivots, sol.refactors, sol.crashed) == (3, (3, 0), 2, 0)


def test_columns_build_the_quotient_in_simplex_form():
    # x0, x1 (cost 1, bound 3) and x2, x3 (cost 2, no bound) merge into
    # columns A and B, r0, r1 into one row class, and the bound rows x0 <=
    # 3, x1 <= 3 into another.  By hand: r0 gives -A - B >= -5, negated to
    # A + B <= 5; r2 gives 2A + 2B = 4; then A's bound, A <= 3, as the last
    # row.  5 presolved rows in 3 classes merge 2
    m = LpModel()
    x = [m.add_variable(f"x{i}", upper=3.0 if i < 2 else math.inf) for i in range(4)]
    for i, cost in zip(x, (1.0, 1.0, 2.0, 2.0)):
        m.add_objective(i, cost)
    m.add_constraint("r0", [(x[0], -1.0), (x[2], -1.0)], ">=", -5.0)
    m.add_constraint("r1", [(x[1], -1.0), (x[3], -1.0)], ">=", -5.0)
    m.add_constraint("r2", [(i, 1.0) for i in x], "=", 4.0)
    terms, cost, rels, rhs, column, merged = lp._columns(lp._presolve(m), x)
    assert terms == [[(0, 1.0), (1, 2.0), (2, 1.0)], [(0, 1.0), (1, 2.0)]]
    assert cost == [2.0, 4.0]
    assert (rels, rhs) == (["<=", "=", "<="], [5.0, 4.0, 3.0])
    assert (column, merged) == ([0, 0, 1, 1], (2, 2))
    sol = _agrees(m)
    assert (sol.status, sol.objective) == ("optimal", 4.0)
    assert (sol.merged_vars, sol.merged_rows) == (2, 2)


def test_cycle_program_solves_on_a_handful_of_classes():
    prog = relax.wasserstein_cset_lp(directed_cycle(5), directed_cycle(6), 1.0)
    model = prog.model
    assert (model.num_vars, len(model.constraints)) == (150, 117)
    sol = _agrees(model)
    # 4 columns and 7 rows reach the simplex
    assert (150 - sol.merged_vars, 117 - sol.merged_rows) == (4, 7)
    assert sol.objective == 0.0 and sol.pivots == 1


def test_classes_are_equitable_and_numbered_by_first_appearance():
    # on W_1 C4->C5 every row of a row class has the same summed
    # coefficient on each variable class, and every variable of a class
    # the same summed coefficient in each row class
    model = relax.wasserstein_cset_lp(directed_cycle(4), directed_cycle(5), 1.0).model
    pre = lp._presolve(model)
    live = [j for j in range(model.num_vars) if not pre.is_fixed[j]]
    vcol, rcol = lp._refine(pre, live)
    firsts = [vcol[j] for j in live]
    assert sorted(set(firsts)) == list(range(max(firsts) + 1))
    assert [c for k, c in enumerate(firsts) if c not in firsts[:k]] == sorted(set(firsts))
    nv, nr = max(firsts) + 1, max(rcol) + 1
    sums = np.zeros((len(pre.rows), nv))
    for r, (coef, _, _) in enumerate(pre.rows):
        for j, a in coef.items():
            sums[r, vcol[j]] += a
    for k in range(nr):
        block = sums[[r for r in range(len(pre.rows)) if rcol[r] == k]]
        assert np.allclose(block, block[0], rtol=0, atol=1e-12)
    by_var = np.zeros((model.num_vars, nr))
    for r, (coef, _, _) in enumerate(pre.rows):
        for j, a in coef.items():
            by_var[j, rcol[r]] += a
    for k in range(nv):
        block = by_var[[j for j in live if vcol[j] == k]]
        assert np.allclose(block, block[0], rtol=0, atol=1e-12)
