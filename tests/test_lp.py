import math
import re

import numpy as np
import pytest

import cset_transport as ct
from cset_transport import lp, relax
from cset_transport.errors import CsetTransportError, LpError, LpNumericalError
from cset_transport.gallery import BUILTIN_INSTANCE_NAMES, directed_cycle
from cset_transport.lp import LpModel, export_lp, parse_lp, solve

from oracles import brute_force_lp, highs_solve, tree_solve
from test_pivot_path import _digraph


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


def _sound_model():
    m = LpModel()
    x, y = m.add_variable("x"), m.add_variable("y", upper=4.0)
    m.add_objective(x, 1.0)
    m.add_constraint("c", [(x, 1.0), (y, 1.0)], ">=", 1.0)
    m.add_constraint("d", [(y, 2.0)], "<=", 3.0)
    return m


def _set_term(row, term):
    def fault(m):
        name, terms, rel, rhs = m.constraints[row]
        m.constraints[row] = (name, terms + [term], rel, rhs)
    return fault


def _set_row(row, **fields):
    def fault(m):
        new = dict(zip(("name", "terms", "rel", "rhs"), m.constraints[row]))
        new.update(fields)
        m.constraints[row] = tuple(new.values())
    return fault


# each kind of fault that LpModel.validate refuses, with its message
_FAULTS = {
    "repeated variable name": (lambda m: m.var_names.__setitem__(1, "x"),
                               "variable names are not unique"),
    "repeated constraint name": (_set_row(1, name="c"), "duplicate constraint name 'c'"),
    "bad relation": (_set_row(1, rel="<"), "bad relation '<' in constraint 'd'"),
    "infinite right-hand side": (_set_row(0, rhs=math.inf),
                                 "non-finite right-hand side in constraint 'c'"),
    "NaN right-hand side": (_set_row(1, rhs=math.nan),
                            "non-finite right-hand side in constraint 'd'"),
    "index past the variables": (_set_term(0, (2, 1.0)),
                                 "constraint 'c' references unknown variable 2"),
    "negative index": (_set_term(1, (-1, 1.0)), "constraint 'd' references unknown variable -1"),
    "infinite coefficient": (_set_term(0, (1, -math.inf)), "non-finite coefficient in constraint 'c'"),
    "NaN coefficient": (_set_term(1, (0, math.nan)), "non-finite coefficient in constraint 'd'"),
    "objective index": (lambda m: m.objective.__setitem__(5, 1.0),
                        "objective references unknown variable 5"),
    "objective coefficient": (lambda m: m.objective.__setitem__(1, math.nan),
                              "non-finite objective coefficient"),
    "negative bound": (lambda m: m.var_upper.__setitem__(1, -1.0), "negative or NaN upper bound"),
    "NaN bound": (lambda m: m.var_upper.__setitem__(0, math.nan), "negative or NaN upper bound"),
}


@pytest.mark.parametrize("kind", _FAULTS)
def test_solve_raises_what_validate_raises(kind):
    # solve checks the model in the presolve's first walk, not by calling
    # validate; it must refuse each fault with validate's error
    fault, message = _FAULTS[kind]
    m = _sound_model()
    fault(m)
    for refuse in (LpModel.validate, solve, export_lp):
        with pytest.raises(LpError) as err:
            refuse(m)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "faults, message",
    [
        # applied in this order; the walk's order, not theirs, decides
        (("NaN coefficient", "repeated variable name"), "variable names are not unique"),
        (("bad relation", "repeated constraint name"), "duplicate constraint name 'c'"),
        (("NaN right-hand side", "infinite right-hand side"),
         "non-finite right-hand side in constraint 'c'"),
        (("negative bound", "objective index", "NaN coefficient"),
         "non-finite coefficient in constraint 'd'"),
        (("negative bound", "objective coefficient"), "non-finite objective coefficient"),
        # two faulty terms of one row: the first term's fault
        (("index past the variables", "infinite coefficient"),
         "constraint 'c' references unknown variable 2"),
        (("infinite coefficient", "index past the variables"),
         "non-finite coefficient in constraint 'c'"),
    ],
)
def test_first_fault_is_raised_first(faults, message):
    m = _sound_model()
    for kind in faults:
        _FAULTS[kind][0](m)
    for refuse in (LpModel.validate, solve):
        with pytest.raises(LpError) as err:
            refuse(m)
        assert str(err.value) == message


def test_solve_checks_the_model_once(monkeypatch):
    walks = []
    read = lp._read_rows
    monkeypatch.setattr(lp, "_read_rows", lambda m: walks.append(m) or read(m))
    monkeypatch.setattr(LpModel, "validate", lambda m: pytest.fail("validate called"))
    m = _sound_model()
    assert solve(m).status == "optimal"
    assert walks == [m]


@pytest.mark.parametrize(
    "text, message",
    [
        ("MINIMIZE 1 x\nSUBJECT TO\nc: 1 x >= 1\nc: 1 x <= 2\nEND\n", "duplicate constraint name 'c'"),
        ("MINIMIZE 1 x\nSUBJECT TO\nc: inf x >= 1\nEND\n", "non-finite coefficient in constraint 'c'"),
        ("MINIMIZE nan x\nSUBJECT TO\nEND\n", "non-finite objective coefficient"),
        ("MINIMIZE 1 x\nSUBJECT TO\nBOUNDS\nx <= -1\nEND\n", "negative or NaN upper bound"),
    ],
)
def test_parse_lp_refuses_faulty_models(text, message):
    with pytest.raises(LpError, match=re.escape(message)):
        parse_lp(text)


def test_round_trip_of_exponents_with_plus_signs():
    # "1e+20" used to be split at its "+" into the terms "1e" and "20 x"
    m = LpModel()
    big, tiny = 1e20, -2.5e-300
    huge = 1.0000000000000001e25
    x, y = m.add_variable("x"), m.add_variable("y", upper=huge)
    m.add_objective(x, big)
    m.add_objective(y, huge)
    m.add_constraint("c0", [(x, huge), (y, tiny)], ">=", big)
    m.add_constraint("c1", [(x, tiny), (y, big)], "<=", huge)
    text = export_lp(m)
    assert "1e+20 x + 1.0000000000000001e+25 y" in text
    again = parse_lp(text)
    assert export_lp(again) == text
    assert again.objective == m.objective
    assert again.constraints == m.constraints
    assert again.var_upper == m.var_upper
    # a term glued to its "+" still splits
    glued = parse_lp("MINIMIZE 1e+2 x+2 y +3E+1 z\nSUBJECT TO\nEND\n")
    assert glued.objective == {0: 100.0, 1: 2.0, 2: 30.0}


def test_parse_lp_matches_variables_by_name():
    # only b is in the objective, so the parsed model declares b first: the
    # text round-trips, but the variables and the values move by position
    m = LpModel()
    a, b = m.add_variable("a"), m.add_variable("b")
    m.add_objective(b, 1.0)
    m.add_constraint("r", [(a, 1.0), (b, 1.0)], ">=", 1.0)
    text = export_lp(m)
    again = parse_lp(text)
    assert export_lp(again) == text
    assert (m.var_names, again.var_names) == (["a", "b"], ["b", "a"])
    want, got = solve(m), solve(again)
    assert want.values.tolist() == [1.0, 0.0] and got.values.tolist() == [0.0, 1.0]
    assert [got.value(name) for name in m.var_names] == want.values.tolist()


def test_nan_upper_bound_rejected():
    # a NaN bound fails "u < 0" as it fails every comparison, so it used to
    # pass for +inf: this model answered "unbounded"
    text = "MINIMIZE -1 x\nSUBJECT TO\nc: 1 x >= 0\nBOUNDS\nx <= nan\nEND\n"
    with pytest.raises(LpError, match="NaN upper bound"):
        parse_lp(text)
    m = LpModel()
    m.add_variable("x", upper=float("nan"))
    with pytest.raises(LpError, match="NaN upper bound"):
        solve(m)


@pytest.mark.parametrize(
    "text, line",
    [
        ("MINIMIZE zz x\nSUBJECT TO\nEND\n", "MINIMIZE zz x"),
        ("MINIMIZE\nSUBJECT TO\nc: 1 x <= abc\nEND\n", "c: 1 x <= abc"),
        ("MINIMIZE 1 x\nSUBJECT TO\nBOUNDS\nx <= oops\nEND\n", "x <= oops"),
    ],
)
def test_parse_lp_rejects_non_numbers(text, line):
    # float() used to raise a bare ValueError that named no line
    with pytest.raises(LpError, match=re.escape(repr(line))):
        parse_lp(text)


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


def test_round_trip_keeps_unused_variables():
    # y has no term and no finite bound; it is written as y <= inf
    m = minx_model()
    m.add_variable("y")
    text = export_lp(m)
    assert text == "MINIMIZE 1 x\nSUBJECT TO\nc0: 1 x >= 1\nBOUNDS\ny <= inf\nEND\n"
    again = parse_lp(text)
    assert (again.var_names, again.var_upper) == (["x", "y"], [math.inf, math.inf])
    assert export_lp(again) == text
    # an unused variable with a finite bound was already written
    m.var_upper[1] = 2.0
    again = parse_lp(export_lp(m))
    assert (again.var_names, again.var_upper) == (["x", "y"], [math.inf, 2.0])
    assert export_lp(LpModel()) == "MINIMIZE\nSUBJECT TO\nEND\n"


def test_deterministic_resolve():
    rng = np.random.default_rng(45)
    for m in [minx_model()] + [_degenerate_model(rng) for _ in range(20)]:
        a, b = solve(m), solve(m)
        assert a.status == b.status
        assert a.objective == b.objective
        assert a.values is b.values is None or np.array_equal(a.values, b.values)


@pytest.mark.parametrize("bound_as_row", [True, False])
def test_beale_cycling_example(bound_as_row):
    # Beale's degenerate program: Dantzig pricing with ratio ties broken by
    # the first row cycles on it forever.  Its start is primal feasible, so
    # the dual simplex makes no pivot and the cleanup solves it; the
    # cleanup's Bland's rule after a step of 0 must break the cycle
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


@pytest.mark.parametrize("scale", [1e3, 1e5])
def test_scaled_duplicate_row_stays_feasible(scale):
    # a+b = 5s and 2a+2b = 10s are one row twice: the fixed logical of the
    # twin stays basic at 0 on the exact b, and the answer must not read
    # the pair as contradictory at this scale
    m = LpModel()
    a, b = m.add_variable("a"), m.add_variable("b")
    m.add_objective(a, 1.0)
    m.add_objective(b, 2.0)
    m.add_constraint("r1", [(a, 1.0), (b, 1.0)], "=", 5 * scale)
    m.add_constraint("r2", [(a, 2.0), (b, 2.0)], "=", 10 * scale)
    m.add_constraint("r3", [(a, 1.0)], "<=", 3 * scale)
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(7 * scale)
    assert sol.values == pytest.approx([3 * scale, 2 * scale])


@pytest.mark.parametrize("gap", [1e-5, 1e-4])
def test_infeasible_by_a_gap_far_below_the_scale(gap):
    # x <= 5e6 and x >= 5e6 + gap: infeasible by more than FEAS_TOL, though
    # the gap is about 1e-12 of the right-hand sides
    m = LpModel()
    x = m.add_variable("x")
    m.add_objective(x, 1.0)
    m.add_constraint("hi", [(x, 1.0)], "<=", 5e6)
    m.add_constraint("lo", [(x, 1.0)], ">=", 5e6 + gap)
    assert solve(m).status == "infeasible"


@pytest.mark.parametrize("tight_first", [True, False])
def test_the_tighter_of_two_close_caps_binds(tight_first):
    # min -x over x <= 5e6 and x <= 5e6 + 1e-5, in either order: the answer
    # is the tighter cap exactly, not the looser one clipped into a
    # violation
    m = LpModel()
    x = m.add_variable("x")
    m.add_objective(x, -1.0)
    caps = [5e6, 5e6 + 1e-5]
    for i, cap in enumerate(caps if tight_first else caps[::-1]):
        m.add_constraint(f"c{i}", [(x, 1.0)], "<=", cap)
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.value("x") == 5e6


def _beale_equation_model(k, tight_first):
    """Beale's cycling program as a feasibility question: row e reads
    (Beale's objective) = -k, so whether it holds turns on Beale's
    degenerate rows.  Two close caps on z, in either order, decide the
    optimum."""
    m = LpModel()
    x = [m.add_variable(f"x{i}") for i in (4, 5, 6, 7)]
    z = m.add_variable("z")
    m.add_objective(z, -1.0)
    m.add_constraint("r1", list(zip(x, (0.25, -60.0, -0.04, 9.0))), "<=", 0.0)
    m.add_constraint("r2", list(zip(x, (0.5, -90.0, -0.02, 3.0))), "<=", 0.0)
    m.add_constraint("r3", [(x[2], 1.0)], "<=", 1.0)
    m.add_constraint("e", list(zip(x, (0.75, -150.0, 0.02, -6.0))), "=", k)
    caps = [5e6, 5e6 + 1e-5]
    for i, cap in enumerate(caps if tight_first else caps[::-1]):
        m.add_constraint(f"z{i}", [(z, 1.0)], "<=", cap)
    return m


@pytest.mark.parametrize("tight_first", [True, False])
def test_beale_rows_decide_an_equation(tight_first):
    # Beale's objective reaches at least -0.05, so row e is infeasible for
    # k = 1 and feasible for k = 0.04; both verdicts come from a dual
    # simplex over Beale's degenerate rows, which must not cycle
    assert solve(_beale_equation_model(1.0, tight_first)).status == "infeasible"
    sol = solve(_beale_equation_model(0.04, tight_first))
    assert sol.status == "optimal"
    assert sol.value("z") == 5e6


def _degenerate_model(rng):
    """Small integer program with right-hand sides up to 1e5: most rows pass
    through one lattice point, so vertices are degenerate, and some rows
    come twice, scaled or negated."""
    n = int(rng.integers(2, 8))
    scale = float(rng.choice([1.0, 1e3, 1e5]))
    m = LpModel()
    for i in range(n):
        bounded = rng.random() < 0.25
        m.add_variable(f"x{i}", upper=scale * float(rng.integers(0, 4)) if bounded else np.inf)
        if rng.random() < 0.8:
            m.add_objective(i, float(rng.integers(-3, 4)))
    point = rng.integers(0, 3, n) * (rng.random(n) < 0.5)
    flip = {"=": "=", "<=": ">=", ">=": "<="}
    for r in range(int(rng.integers(1, 7))):
        a = rng.integers(-2, 3, n) * (rng.random(n) < 0.7)
        if not a.any():
            a[int(rng.integers(n))] = 1
        rel = str(rng.choice(["=", "<=", ">="]))
        through = rng.random() < 0.7
        rhs = scale * (float(a @ point) if through else float(rng.integers(-3, 4)))
        terms = [(i, float(v)) for i, v in enumerate(a) if v]
        m.add_constraint(f"c{r}", terms, rel, rhs)
        if rng.random() < 0.25:
            f = float(rng.choice([2.0, -1.0, 3.0]))
            twin = [(i, f * v) for i, v in terms]
            m.add_constraint(f"c{r}_twin", twin, rel if f > 0 else flip[rel], f * rhs)
    return m


def test_degenerate_lps_against_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(46)
    seen = set()
    for trial in range(300):
        model = _degenerate_model(rng)
        status, want = highs_solve(model)
        sol = solve(model)
        seen.add(status)
        assert sol.status == status, f"trial {trial}: {sol.status} vs {status}"
        if status == "optimal":
            assert math.isclose(sol.objective, want, rel_tol=1e-6, abs_tol=1e-6), f"trial {trial}"
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_dual_certificate_rejects_a_suboptimal_basis(monkeypatch):
    # min -x - y over x + 2y <= 4, 3x + y <= 6: the slack basis is the
    # dual simplex's answer (on costs shifted to 0), feasible but not
    # optimal, and stopping the cleanup there must not pass
    m = LpModel()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.add_objective(x, -1.0)
    m.add_objective(y, -1.0)
    m.add_constraint("r1", [(x, 1.0), (y, 2.0)], "<=", 4.0)
    m.add_constraint("r2", [(x, 3.0), (y, 1.0)], "<=", 6.0)
    assert solve(m).objective == pytest.approx(-2.8)
    monkeypatch.setattr(lp._Simplex, "run", lambda self, c, fixed: "optimal")
    with pytest.raises(LpNumericalError, match="not dual feasible"):
        solve(m)


def test_dual_certificate_skips_basic_columns():
    # an ill-scaled program: the cleanup ends optimal, every nonbasic
    # column prices at 77 or more, but the reduced cost computed for basic
    # x4 is -2.3e-9, rounding of |y| |B| eps; priced, it would raise "not
    # dual feasible" (HiGHS: optimal, 312204.2912473955)
    m = LpModel()
    for k in range(5):
        m.add_variable(f"x{k}")
    m.var_upper[4] = 0.0004483733399663746
    for k, v in {0: -0.00039604117080803555, 1: -0.0021745781511706207,
                 2: 0.046410919241244165, 4: 0.007775097601056176}.items():
        m.add_objective(k, v)
    m.add_constraint("r0", [(3, -185.92157719190823), (1, 0.003358080531852913),
                            (0, -0.009242067844662444), (4, 1754.301893366865)],
                     "=", 38.0567778783492)
    m.add_constraint("r1", [(4, -73.48132989463552), (2, -2.031233846073934),
                            (1, 1231.2369268280822)], "=", 0.09844178358400345)
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(312204.2912473955, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="the cleanup's plain ratio test skips a tiny "
                   "direction entry and answers unbounded; Harris's ratio test should mend it")
def test_ill_scaled_program_is_not_unbounded():
    # after one dual pivot the primal cleanup finds no entry above
    # PIVOT_TOL in the entering column and calls the program unbounded
    # (HiGHS: optimal, -5002)
    m = LpModel()
    x0, x1, x2 = (m.add_variable(f"x{i}") for i in range(3))
    m.add_objective(x0, -2.0)
    m.add_objective(x2, -2.0)
    m.add_constraint("r0", [(x0, -30000.0), (x1, 0.1), (x2, -0.0002)], "=", -0.0002)
    m.add_constraint("r1", [(x2, 200.0)], ">=", 200.0)
    m.add_constraint("r2", [(x0, -1.0), (x1, -2000.0)], ">=", -10000.0)
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-5002.0, rel=1e-9)


def _agrees_with_highs(model):
    status, want = highs_solve(model)
    sol = solve(model)
    assert sol.status == status
    if status == "optimal":
        assert math.isclose(sol.objective, want, rel_tol=1e-9, abs_tol=1e-9)
    return sol


def test_presolve_cascade_of_singleton_rows():
    # x = 2 forces y = 3 through x + y = 5, which forces z = 2 through
    # 2y - z = 4; only z + w >= 3 is left for the simplex
    pytest.importorskip("scipy")
    m = LpModel()
    x, y, z, w = (m.add_variable(v) for v in "xyzw")
    m.add_objective(w, 1.0)
    m.add_objective(y, 1.0)
    m.add_constraint("c0", [(x, 1.0)], "=", 2.0)
    m.add_constraint("c1", [(x, 1.0), (y, 1.0)], "=", 5.0)
    m.add_constraint("c2", [(y, 2.0), (z, -1.0)], "=", 4.0)
    m.add_constraint("c3", [(z, 1.0), (w, 1.0)], ">=", 3.0)
    sol = _agrees_with_highs(m)
    assert sol.values == pytest.approx([2.0, 3.0, 2.0, 1.0])
    assert (sol.fixed, sol.dropped_rows) == (3, 3)
    assert sol.pivots + sol.crashed > 0
    # without c3 nothing is left for the simplex: the fixed point is the answer
    del m.constraints[3]
    sol = _agrees_with_highs(m)
    assert (sol.fixed, sol.dropped_rows, sol.pivots) == (3, 3, 0)
    assert sol.values.tolist() == [2.0, 3.0, 2.0, 0.0]


def test_presolve_eliminations_keep_their_order():
    # z's bound of 0 is row 2, z <= 0, after the model's rows; the queue
    # takes the bound rows first, so it fixes z, and is dropped like any
    # emptied row
    m = LpModel()
    x, y, z = (m.add_variable(v) for v in "xyz")
    m.var_upper[z] = 0.0
    m.add_constraint("a", [(x, 1.0), (y, 1.0)], "=", 5.0)
    m.add_constraint("b", [(x, 2.0), (z, 1.0)], "=", 4.0)
    pre = lp._presolve(m)
    assert pre.eliminations == [
        ("fix", z, 0.0, 2), ("fix", x, 2.0, 1), ("drop", 1), ("drop", 2), ("fix", y, 3.0, 0),
        ("drop", 0),
    ]
    assert pre.rows == []
    # a doubleton ties w to y, and u + 2v <= 0 forces both of its variables,
    # each logged with its row; z's bound row is now row 4
    u, v, w = (m.add_variable(name) for name in "uvw")
    m.add_constraint("c", [(y, 1.0), (w, -3.0)], "=", 0.0)
    m.add_constraint("d", [(u, 1.0), (v, 2.0)], "<=", 0.0)
    pre = lp._presolve(m)
    assert pre.eliminations == [
        ("fix", z, 0.0, 4), ("fix", x, 2.0, 1), ("agg", w, y, 1 / 3, 2),
        ("fix", u, 0.0, 3), ("fix", v, 0.0, 3), ("drop", 1), ("drop", 4), ("fix", y, 3.0, 0),
        ("drop", 3), ("drop", 0),
    ]
    assert pre.rows == []
    sol = solve(m)
    assert sol.values.tolist() == [2.0, 3.0, 0.0, 0.0, 0.0, 1.0]
    assert (sol.fixed, sol.dropped_rows, sol.aggregated, sol.pivots) == (5, 4, 1, 0)
    # a row x = 1e-9, within FEAS_TOL of 0, does not move x off its zero
    # bound: the bound row fixes x at exactly 0 first, and the forcing row
    # keeps the residual
    m = LpModel()
    x = m.add_variable("x")
    m.var_upper[x] = 0.0
    m.add_constraint("r", [(x, 1.0)], "=", 1e-9)
    assert lp._presolve(m).eliminations == [("fix", x, 0.0, 1), ("drop", 0), ("drop", 1)]
    sol = solve(m)
    assert sol.status == "optimal"
    assert sol.values.tolist() == [0.0]


def _presolve_model(rng):
    """Random program through a known point, with what the presolve removes:
    singleton equality rows (cascading where a row's other terms are
    forced), duplicate terms that cancel or split a coefficient, zero
    coefficients and zero upper bounds.  A few singleton rows miss the point,
    so some programs are infeasible."""
    n = int(rng.integers(2, 7))
    point = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.7)
    m = LpModel()
    for i in range(n):
        kind = rng.random()
        upper = 0.0 if point[i] == 0 and kind < 0.5 else np.inf
        if kind > 0.7:
            upper = point[i] + float(rng.uniform(0.0, 1.0))
        m.add_variable(f"x{i}", upper=upper)
        if rng.random() < 0.8:
            m.add_objective(i, float(rng.uniform(-2, 2)))
    for r in range(int(rng.integers(1, 5))):
        i = int(rng.integers(n))
        a = float(rng.choice([-2.0, 0.5, 1.0, 3.0]))
        miss = float(rng.choice([1.0, -3.0])) if rng.random() < 0.08 else 0.0
        m.add_constraint(f"s{r}", [(i, a)], "=", a * (point[i] + miss))
    for r in range(int(rng.integers(1, 5))):
        terms = [(i, float(rng.uniform(-2, 2))) for i in range(n) if rng.random() < 0.6]
        terms = terms or [(0, 1.0)]
        lhs = sum(a * point[i] for i, a in terms)
        rel = str(rng.choice(["=", "<=", ">="]))
        slack = {"=": 0.0, "<=": 1.0, ">=": -1.0}[rel] * float(rng.uniform(0.0, 1.0))
        i = int(rng.integers(n))
        if rng.random() < 0.4:
            terms += [(i, 1.0), (i, -1.0)]
        if rng.random() < 0.3:
            j, a = terms.pop(0)
            terms += [(j, 0.5 * a), (j, 0.5 * a)]
        if rng.random() < 0.3:
            terms.append((i, 0.0))
        m.add_constraint(f"c{r}", terms, rel, lhs + slack)
    return m


def test_random_lps_with_presolve_work_against_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(47)
    seen, fixed, dropped, simplex = set(), 0, 0, 0
    for trial in range(300):
        model = _presolve_model(rng)
        status, want = highs_solve(model)
        sol = solve(model)
        assert sol.status == status, f"trial {trial}: {sol.status} vs {status}"
        if status == "optimal":
            assert math.isclose(sol.objective, want, rel_tol=1e-9, abs_tol=1e-9), f"trial {trial}"
        seen.add(status)
        fixed += sol.fixed
        dropped += sol.dropped_rows
        simplex += sol.pivots + sol.crashed > 0
    assert seen == {"optimal", "infeasible", "unbounded"}
    assert fixed > 300 and dropped > 300 and simplex > 100


@pytest.mark.parametrize("rhs", [-1.0, 4.0])
def test_presolve_infeasible_forced_value(rhs):
    # 2x = rhs forces x = -0.5 or x = 2, outside [0, 1]
    m = LpModel()
    x = m.add_variable("x", upper=1.0)
    m.add_constraint("f", [(x, 2.0)], "=", rhs)
    sol = solve(m)
    assert sol.status == "infeasible"
    assert (sol.fixed, sol.pivots) == (1, 0)


def test_presolve_infeasible_empty_row():
    # the row's terms cancel: 0 <= -1 is violated before any simplex
    m = LpModel()
    x = m.add_variable("x")
    m.add_objective(x, 1.0)
    m.add_constraint("r", [(x, 1.0), (x, -1.0), (x, 0.0)], "<=", -1.0)
    sol = solve(m)
    assert (sol.status, sol.pivots, sol.dropped_rows) == ("infeasible", 0, 0)
    m.constraints[0] = ("r", [(x, 1.0), (x, -1.0)], "<=", 1.0)
    sol = solve(m)
    assert (sol.status, sol.objective, sol.dropped_rows) == ("optimal", 0.0, 1)


def test_presolve_aggregation_chain():
    # x1 - 2 x2 = 0 ties x2 to x1, then 3 x0 - x1 = 0 ties x1 to x0: the
    # costs fold into x0, and the recovery runs backwards, x1 before x2
    pytest.importorskip("scipy")
    m = LpModel()
    x0, x1, x2 = (m.add_variable(f"x{i}") for i in range(3))
    for idx in (x0, x1, x2):
        m.add_objective(idx, 1.0)
    m.add_constraint("r0", [(x1, 1.0), (x2, -2.0)], "=", 0.0)
    m.add_constraint("r1", [(x0, 3.0), (x1, -1.0)], "=", 0.0)
    m.add_constraint("r2", [(x0, 1.0), (x2, 1.0)], ">=", 5.0)
    pre = lp._presolve(m)
    assert pre.eliminations == [("agg", x2, x1, 0.5, 0), ("agg", x1, x0, 3.0, 1)]
    assert pre.objective == {x0: 5.5}
    assert pre.rows == [[{x0: 2.5}, ">=", 5.0]]
    sol = _agrees_with_highs(m)
    assert sol.values.tolist() == [2.0, 6.0, 3.0]
    assert (sol.fixed, sol.dropped_rows, sol.aggregated) == (0, 0, 2)


def test_presolve_substitution_cancels_exactly():
    # x1 = x0 turns x0 - x1 + x2 >= 1 into x2 >= 1: the cancelled term is
    # dropped, and fixing x0 later passes over the row it left
    pytest.importorskip("scipy")
    m = LpModel()
    x0, x1, x2 = (m.add_variable(f"x{i}") for i in range(3))
    m.add_objective(x2, 1.0)
    m.add_constraint("r0", [(x0, 1.0), (x1, -1.0)], "=", 0.0)
    m.add_constraint("r1", [(x0, 1.0), (x1, -1.0), (x2, 1.0)], ">=", 1.0)
    m.add_constraint("r2", [(x0, 2.0)], "=", 4.0)
    pre = lp._presolve(m)
    assert pre.eliminations == [("agg", x1, x0, 1.0, 0), ("fix", x0, 2.0, 2), ("drop", 2)]
    assert pre.rows == [[{x2: 1.0}, ">=", 1.0]]
    sol = _agrees_with_highs(m)
    assert sol.values.tolist() == [2.0, 2.0, 1.0]


def test_presolve_drops_an_underflowing_coefficient():
    # 1e-300 x0 - 1e-10 x1 = 0 gives x1 = 1e-290 x0, and 1e-40 x1 then
    # becomes 1e-330 x0, which underflows to 0: no zero term is left
    m = LpModel()
    x0, x1, x2, x3 = (m.add_variable(f"x{i}") for i in range(4))
    m.add_objective(x2, 1.0)
    m.add_constraint("r0", [(x0, 1e-300), (x1, -1e-10)], "=", 0.0)
    m.add_constraint("r1", [(x1, 1e-40), (x2, 1.0), (x3, 1.0)], ">=", 1.0)
    pre = lp._presolve(m)
    ((kind, j, k, t, row),) = pre.eliminations
    assert (kind, j, k, row) == ("agg", x1, x0, 0) and t == pytest.approx(1e-290)
    assert pre.rows == [[{x2: 1.0, x3: 1.0}, ">=", 1.0]]
    sol = solve(m)
    assert sol.status == "optimal" and sol.objective == 0.0


@pytest.mark.parametrize("u0, bound", [(math.inf, 6.0), (5.0, 5.0)])
def test_presolve_carries_the_bound_over(u0, bound):
    # x1 = x0 / 2 with x1 <= 3 caps x0 at 3 / 0.5 = 6, or at its own bound:
    # the fold substitutes 0.5 x0 into x1's bound row, after x0's own
    pytest.importorskip("scipy")
    m = LpModel()
    x0, x1 = m.add_variable("x0", upper=u0), m.add_variable("x1", upper=3.0)
    m.add_objective(x0, -1.0)
    m.add_objective(x1, -1.0)
    m.add_constraint("r", [(x0, 1.0), (x1, -2.0)], "=", 0.0)
    pre = lp._presolve(m)
    assert pre.eliminations == [("agg", x1, x0, 0.5, 0)]
    own = [[{x0: 1.0}, "<=", u0]] if u0 != math.inf else []
    assert pre.rows == own + [[{x0: 0.5}, "<=", 3.0]] and pre.objective == {x0: -1.5}
    sol = _agrees_with_highs(m)
    assert sol.values.tolist() == [bound, bound / 2]
    # without the bound, the ray x0 = 2 x1 is unbounded
    m.var_upper[x1] = math.inf
    if u0 == math.inf:
        assert _agrees_with_highs(m).status == "unbounded"


@pytest.mark.parametrize("rel, coefs", [("=", (1.0, 2.0)), ("<=", (1.0, 2.0)), (">=", (-1.0, -0.5))])
def test_presolve_zero_forcing_rows(rel, coefs):
    # a right-hand side of 0 that every term can only overshoot fixes the
    # row's variables at 0, however much the objective wants them
    pytest.importorskip("scipy")
    m = LpModel()
    x0, x1, x2 = (m.add_variable(f"x{i}") for i in range(3))
    m.add_objective(x0, -1.0)
    m.add_objective(x1, -1.0)
    m.add_objective(x2, 1.0)
    m.add_constraint("force", list(zip((x0, x1), coefs)), rel, 0.0)
    m.add_constraint("r", [(x0, 1.0), (x1, 1.0), (x2, 1.0)], ">=", 1.0)
    pre = lp._presolve(m)
    assert pre.eliminations == [("fix", x0, 0.0, 0), ("fix", x1, 0.0, 0), ("drop", 0)]
    sol = _agrees_with_highs(m)
    assert sol.values.tolist() == [0.0, 0.0, 1.0]
    assert (sol.fixed, sol.dropped_rows, sol.aggregated) == (2, 1, 0)


@pytest.mark.parametrize("rel, coefs", [(">=", (1.0, 2.0)), ("<=", (-1.0, -2.0)), ("<=", (1.0, -2.0))])
def test_presolve_rows_that_do_not_force(rel, coefs):
    # x0 + 2 x1 >= 0 holds for every x >= 0, as does its negation under
    # <=; mixed signs leave room too: only x2 <= 0 fixes anything, and
    # min -x0 - x1 is unbounded
    pytest.importorskip("scipy")
    m = LpModel()
    x0, x1, x2 = (m.add_variable(f"x{i}") for i in range(3))
    m.add_objective(x0, -1.0)
    m.add_objective(x1, -1.0)
    m.add_objective(x2, -1.0)
    m.add_constraint("force", [(x2, 1.0)], "<=", 0.0)
    m.add_constraint("r", list(zip((x0, x1), coefs)), rel, 0.0)
    assert lp._presolve(m).eliminations == [("fix", x2, 0.0, 0), ("drop", 0)]
    assert _agrees_with_highs(m).status == "unbounded"


def test_presolve_forced_zero_empties_an_infeasible_row():
    # x0 + x1 = 0 forces x0 = 0, which leaves x0 + 0 >= 1 as 0 >= 1
    m = LpModel()
    x0, x1 = m.add_variable("x0"), m.add_variable("x1")
    m.add_constraint("force", [(x0, 1.0), (x1, 1.0)], "=", 0.0)
    m.add_constraint("r", [(x0, 1.0)], ">=", 1.0)
    sol = solve(m)
    assert (sol.status, sol.fixed, sol.pivots) == ("infeasible", 2, 0)


def _doubleton_model(rng):
    """Random program through a known point, with doubleton equations
    ``a x_k - (a / t) x_j = 0`` that the point meets (chains among them),
    zero-forcing rows over its zero entries, and some of each that miss
    the point, so some programs are infeasible; finite bounds carry over."""
    n = int(rng.integers(3, 8))
    point = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.75)
    pairs = []
    for j in range(1, n):
        if rng.random() < 0.45:
            k = int(rng.integers(j))
            t = float(rng.choice([0.5, 1.0, 2.0, 3.0, 0.25]))
            point[j] = t * point[k]
            pairs.append((k, j, t))
    m = LpModel()
    for i in range(n):
        upper = math.inf
        if rng.random() < 0.3:
            upper = point[i] + float(rng.choice([0.0, 0.5, 2.0]))
        m.add_variable(f"x{i}", upper=upper)
        if rng.random() < 0.8:
            m.add_objective(i, float(rng.uniform(-2, 2)))
    rows = []
    for k, j, t in pairs:
        a = float(rng.choice([1.0, -2.0, 0.5, 3.0]))
        if rng.random() < 0.08:
            t *= 1.5  # a doubleton the point misses
        rows.append(([(k, a), (j, -a / t)], "=", 0.0))
    zeros = [i for i in range(n) if point[i] == 0.0]
    for _ in range(int(rng.integers(0, 3))):
        support = [i for i in range(n) if rng.random() < 0.3]
        if rng.random() < 0.85:
            support = [i for i in support if i in zeros]
        if support:
            rel = str(rng.choice(["=", "<=", ">="]))
            sign = -1.0 if rel == ">=" else 1.0
            rows.append(([(i, sign * float(rng.uniform(0.5, 2))) for i in support], rel, 0.0))
    for _ in range(int(rng.integers(1, 4))):
        terms = [(i, float(rng.uniform(-2, 2))) for i in range(n) if rng.random() < 0.5]
        terms = terms or [(0, 1.0)]
        lhs = sum(a * point[i] for i, a in terms)
        rel = str(rng.choice(["=", "<=", ">="]))
        slack = {"=": 0.0, "<=": 1.0, ">=": -1.0}[rel] * float(rng.uniform(0.0, 1.0))
        rows.append((terms, rel, lhs + slack))
    for r in rng.permutation(len(rows)):
        m.add_constraint(f"c{r}", *rows[r])
    return m


def test_random_lps_with_doubletons_and_forcing_rows_against_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(49)
    seen, aggregated, forced = set(), 0, 0
    for trial in range(300):
        model = _doubleton_model(rng)
        status, want = highs_solve(model)
        sol = solve(model)
        assert sol.status == status, f"trial {trial}: {sol.status} vs {status}"
        if status == "optimal":
            assert math.isclose(sol.objective, want, rel_tol=1e-9, abs_tol=1e-9), f"trial {trial}"
            lp._recheck(model, sol.values)
        seen.add(status)
        aggregated += sol.aggregated
        forced += sum(1 for e in lp._presolve(model).eliminations
                      if e[0] == "fix" and e[3] is not None and e[2] == 0.0)
    assert seen == {"optimal", "infeasible", "unbounded"}
    assert aggregated > 200 and forced > 100


def test_simplex_decides_infeasibility_without_singleton_rows():
    # no row is a singleton, so the dual simplex must find x + y = 1 and
    # x + y = 2 incompatible
    m = LpModel()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.add_constraint("a", [(x, 1.0), (y, 1.0)], "=", 1.0)
    m.add_constraint("b", [(x, 1.0), (y, 1.0)], "=", 2.0)
    sol = solve(m)
    assert sol.status == "infeasible"
    assert (sol.fixed, sol.dropped_rows) == (0, 0)
    assert sol.pivots + sol.crashed > 0


def test_dense_submatrix_gathers_like_a_column_loop():
    rng = np.random.default_rng(48)
    m, ncols = 7, 12
    cells = [(i, j) for i in range(m) for j in range(ncols) if rng.random() < 0.3]
    vals = rng.uniform(-2, 2, len(cells))
    columns = [[(i, a) for (i, k), a in zip(cells, vals) if k == j] for j in range(ncols)]
    A = lp._SparseCols(m, columns)
    for cols in ([], [3], [11, 0, 5, 5], list(range(ncols))[::-1]):
        want = np.zeros((m, len(cols)))
        for k, j in enumerate(cols):
            rows, vals = A.column(j)
            want[rows, k] = vals
        assert np.array_equal(A.dense_submatrix(cols), want)


def test_starting_basis_is_not_inverted(monkeypatch):
    # the crash puts x, which costs 0, in place of r1's surplus (its ratio
    # in r1, 1, is below the 2 of r2, a <= row, which it never takes); that
    # basis is inverted once, and no other before the first pivot, which
    # here is the cleanup's: the start is feasible but z, costing -1, and
    # then y improve on it
    inverted = []
    real_refactor = lp._Simplex.refactor

    def refactor(self):
        inverted.append(self.pivots)
        real_refactor(self)

    monkeypatch.setattr(lp._Simplex, "refactor", refactor)
    m = LpModel()
    x, y, z = m.add_variable("x"), m.add_variable("y"), m.add_variable("z")
    m.add_objective(z, -1.0)
    m.add_constraint("r1", [(x, 1.0), (y, 1.0)], ">=", 1.0)
    m.add_constraint("r2", [(x, 1.0), (z, 1.0)], "<=", 2.0)
    sol = solve(m)
    assert sol.objective == pytest.approx(-2.0)
    assert (sol.pivots, sol.phase_pivots, sol.crashed) == (2, (0, 2), 1)
    assert inverted.count(0) == 1


def _starts(monkeypatch):
    """The starting basis of every solve that reaches the crash, as
    ``_crash`` returns it: (basis, B, b, x_B, structural columns), with B
    gathered from the crash's columns and the rows' logicals."""
    starts = []
    real = lp._crash

    def crash(entries, cost, b, rels):
        basis, xB = real(entries, cost, b, rels)
        n, m = len(entries), len(b)
        A = np.zeros((m, n + m))
        for j, terms in enumerate(entries):
            for i, a in terms:
                A[i, j] = a
        A[range(m), range(n, n + m)] = [-1.0 if rel == ">=" else 1.0 for rel in rels]
        starts.append((list(basis), A[:, basis], np.array(b), np.array(xB), n))
        return basis, xB

    monkeypatch.setattr(lp, "_crash", crash)
    return starts


def _least_cost_example():
    """Supplies 20, 30, 25 and demands 10, 28, 22, 15.  By hand, the
    least-cost method fills (2,3) with 15 at cost 5 and (0,1) with 20 at 6,
    skips (1,3) and (0,0), fills (1,0) with 10 at 9, skips (0,2), fills
    (2,1) with 8 at 11, skips (1,1), fills (1,2) with 20 at 13, skips (2,0)
    and (0,3), and ends at (2,2) with the 2 left on both sides.  Returns the
    model, its variables and those cells."""
    cost = [[8, 6, 10, 15], [9, 12, 13, 7], [14, 11, 16, 5]]
    supply, demand = [20, 30, 25], [10, 28, 22, 15]
    m = LpModel()
    x = [[m.add_variable(f"x{i}{j}") for j in range(4)] for i in range(3)]
    for i in range(3):
        for j in range(4):
            m.add_objective(x[i][j], float(cost[i][j]))
    for i in range(3):
        m.add_constraint(f"s{i}", [(x[i][j], 1.0) for j in range(4)], "=", supply[i])
    for j in range(4):
        m.add_constraint(f"d{j}", [(x[i][j], 1.0) for i in range(3)], "=", demand[j])
    return m, x, {(2, 3): 15, (0, 1): 20, (1, 0): 10, (2, 1): 8, (1, 2): 20, (2, 2): 2}


def test_crash_places_the_cells_of_the_least_cost_method(monkeypatch):
    # the crash places only columns of cost 0: with the cells of the
    # least-cost start made free, it visits them by index, (0,1) first, and
    # the minimum ratio gives each the value that method gives it; a finite
    # bound on x03, which the start leaves out, adds a bound row whose
    # basic is a slack; the start costs 0 and is feasible, so it is the
    # answer, and no basis is inverted
    pytest.importorskip("scipy")
    m, x, want = _least_cost_example()
    for i, j in want:
        m.objective[x[i][j]] = 0.0
    m.var_upper[x[0][3]] = 100.0
    starts = _starts(monkeypatch)
    sol = _agrees_with_highs(m)
    basis, _, _, xB, n = starts[0]
    placed = {k: v for k, v in zip(basis, xB) if k < n}
    assert sorted(placed) == sorted(x[i][j] for i, j in want)
    for (i, j), v in want.items():
        assert placed[x[i][j]] == pytest.approx(v, abs=1e-6)
        assert sol.value(f"x{i}{j}") == pytest.approx(v, abs=1e-6)
    assert (sol.crashed, sol.pivots, sol.refactors) == (6, 0, 0)


@pytest.mark.parametrize("seed", [50, 51, 52])
def test_crash_basis_is_nonsingular_and_feasible(monkeypatch, seed):
    # the start is nonsingular, its values solve B x_B = b, and it keeps
    # every placed column and every logical of coefficient +1 (a slack, or
    # one fixed at 0) at 0 or above; a surplus may start below 0, and a
    # fixed logical above it, for the dual simplex to mend
    pytest.importorskip("scipy")
    rng = np.random.default_rng(seed)
    starts = _starts(monkeypatch)
    crashed = 0
    for make in (_random_model, _presolve_model, _doubleton_model):
        for _ in range(100):
            crashed += _agrees_with_highs(make(rng)).crashed
    assert crashed > 60 and starts
    for basis, B, b, xB, n in starts:
        tol = 1e-12 * max(1.0, float(np.abs(b).max()))
        assert np.linalg.matrix_rank(B) == len(basis)
        assert np.allclose(B @ xB, b, rtol=0, atol=tol)
        slack = [pos for pos, k in enumerate(basis) if k < n or B[pos, pos] == 1.0]
        assert xB[slack].min(initial=0.0) >= -tol


def test_crash_never_pivots_on_a_tiny_entry(monkeypatch):
    starts = _starts(monkeypatch)
    # x and y cost 0, and x's only positive entry is 1e-8: it is not
    # placed, y is
    m = LpModel()
    x, y = m.add_variable("x"), m.add_variable("y")
    m.add_constraint("a", [(x, 1e-8), (y, 1.0)], "=", 1.0)
    sol = solve(m)
    assert (sol.status, sol.crashed) == ("optimal", 1)
    assert starts[0][0] == [y]
    # x's tiny entry in row a has the least ratio, so x is not placed, though
    # its entry 1 in row b passes GUARD_TOL: taking b at x = 5 would push
    # a's logical, fixed at 0, to 5e-10 - 5e-8; y takes b, and the start is
    # feasible as it stands
    m = LpModel()
    x, y, w, v = (m.add_variable(name) for name in "xywv")
    m.add_objective(w, 2.0)
    m.add_objective(v, 3.0)
    m.add_constraint("a", [(x, 1e-8), (w, -1.0), (v, 1.0)], "=", 0.0)
    m.add_constraint("b", [(x, 1.0), (y, 1.0)], "=", 5.0)
    sol = solve(m)
    assert (sol.status, sol.crashed, sol.pivots, sol.objective) == ("optimal", 1, 0, 0.0)
    basis, _, _, xB, n = starts[1]
    assert basis == [n, y] and xB.tolist() == [0.0, 5.0]


def test_identity_start_when_the_crash_places_nothing(monkeypatch):
    # x and y cost more than 0, so the crash places neither: the start is
    # the logicals' diagonal, inverted once like any other
    inverted = []
    real_refactor = lp._Simplex.refactor

    def refactor(self):
        inverted.append(self.pivots)
        real_refactor(self)

    monkeypatch.setattr(lp._Simplex, "refactor", refactor)
    m = LpModel()
    x, y = m.add_variable("x", upper=0.5), m.add_variable("y", upper=0.75)
    m.add_objective(x, 1.0)
    m.add_objective(y, 2.0)
    m.add_constraint("r", [(x, 1.0), (y, 1.0)], ">=", 1.0)
    sol = solve(m)
    assert sol.objective == pytest.approx(1.5)
    assert sol.pivots > 0 and sol.crashed == 0
    assert inverted.count(0) == 1


def _crash_model(cost_x, cost_y):
    """min cost_x x + cost_y y + z over x + y >= 1, x + 2z <= 3, y <= 2.
    Where x costs 0, the crash puts it in place of the first row's
    surplus, at x = 1, and the other rows' slacks stay at 2."""
    m = LpModel()
    x, y, z = m.add_variable("x"), m.add_variable("y"), m.add_variable("z")
    m.add_objective(x, cost_x)
    m.add_objective(y, cost_y)
    m.add_objective(z, 1.0)
    m.add_constraint("r1", [(x, 1.0), (y, 1.0)], ">=", 1.0)
    m.add_constraint("r2", [(x, 1.0), (z, 2.0)], "<=", 3.0)
    m.add_constraint("r3", [(y, 1.0)], "<=", 2.0)
    return m


def test_crash_optimal_program_needs_no_linear_algebra(monkeypatch):
    # every cost is 0 or more and the crash start is feasible: it is the
    # answer, found without an inverse, a _Simplex or any np.linalg call
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called or _Simplex built")

    for name in ("inv", "solve", "lstsq", "matrix_rank"):
        monkeypatch.setattr(lp.np.linalg, name, refuse)
    monkeypatch.setattr(lp, "_Simplex", refuse)
    sol = solve(_crash_model(0.0, 1.0))
    assert (sol.status, sol.objective, sol.values.tolist()) == ("optimal", 0.0, [1.0, 0.0, 0.0])
    assert (sol.pivots, sol.refactors, sol.crashed) == (0, 0, 1)
    load = ct.load_instance
    sol = solve(relax.markov_feasibility_lp(load("builtin:fig5x"), load("builtin:fig5y")))
    assert (sol.status, sol.pivots, sol.refactors, sol.crashed) == ("optimal", 0, 0, 1)


def test_certified_values_are_snapped_like_the_simplex(monkeypatch):
    # u takes row b at 0.3 / 3 = 0.09999999999999999, which leaves row a a
    # residual of 1.4e-17, and v takes row a at that value: rounding, which
    # the snap makes an exact 0, on this path as on the simplex's
    m = LpModel()
    u, v, w = (m.add_variable(name) for name in "uvw")
    m.add_objective(w, 1.0)
    m.add_constraint("a", [(u, 1.0), (v, 1.0)], "=", 0.1)
    m.add_constraint("b", [(u, 3.0), (w, 1.0)], "=", 0.3)
    sol = solve(m)
    assert (sol.crashed, sol.refactors) == (2, 0)
    assert sol.values.tolist() == [0.3 / 3, 0.0, 0.0]
    monkeypatch.setattr(lp, "_start_is_optimal", lambda *args: False)
    assert solve(m).values.tobytes() == sol.values.tobytes()


@pytest.mark.parametrize("costs, objective", [
    ((0.0, -1.0), -2.0),  # a negative cost: y = 2 improves on the start
    ((1.0, 1.0), 1.0),  # nothing costs 0: the start leaves x + y >= 1 unmet
])
def test_starts_that_are_not_optimal_still_pivot(costs, objective):
    sol = solve(_crash_model(*costs))
    assert (sol.status, sol.objective) == ("optimal", objective)
    assert sol.pivots > 0 and sol.refactors > 0


def test_certified_answers_match_the_simplex(monkeypatch):
    # the feasibility program of every ordered pair of builtin instances of
    # one theory: where the crash start is the answer, it is the one the
    # simplex reaches from that start with 0 pivots, bit for bit
    models = []
    for a in BUILTIN_INSTANCE_NAMES:
        for b in BUILTIN_INSTANCE_NAMES:
            try:
                models.append(relax.markov_feasibility_lp(ct.load_instance(f"builtin:{a}"),
                                                          ct.load_instance(f"builtin:{b}")))
            except CsetTransportError:  # instances of different theories
                pass
    real, verdicts, certified = lp._start_is_optimal, [], []

    def check(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(lp, "_start_is_optimal", check)
    for model in models:
        verdicts.clear()
        sol = solve(model)
        if verdicts == [True]:
            certified.append((model, sol))
    assert len(certified) > 100
    monkeypatch.setattr(lp, "_start_is_optimal", lambda *args: False)
    for model, got in certified:
        want = solve(model)
        assert (want.status, want.pivots, want.crashed) == ("optimal", 0, got.crashed)
        assert got.refactors == 0 and want.refactors > 0
        assert got.values.tobytes() == want.values.tobytes()
        assert got.objective == want.objective


def _solved_programs():
    """300 seeded ``_degenerate_model`` programs and W_2 of a seeded
    digraph pair (one of the pinned paths of ``test_pivot_path.py``)."""
    rng = np.random.default_rng(54)
    models = [_degenerate_model(rng) for _ in range(300)]
    rng = np.random.default_rng(4)
    x, y = _digraph(rng, 3, 4, strong=True), _digraph(rng, 4, 6)
    return models + [relax.wasserstein_cset_lp(x, y, 2.0).model]


def test_the_dual_simplex_starts_dual_feasible(monkeypatch):
    # the dual simplex gets costs >= 0 (negative ones shifted to 0, the rest
    # raised a little) and a start whose basic columns all cost 0, so y = 0
    # and every reduced cost is >= 0; the crash places only columns that
    # cost 0 before the raise
    placed, starts = [], []
    real_crash, real_dual = lp._crash, lp._Simplex.dual

    def crash(entries, cost, b, rels):
        basis, xB = real_crash(entries, cost, b, rels)
        placed.extend(cost[j] for j in basis if j < len(cost))
        return basis, xB

    def dual(self, c, fixed):
        reduced = c - self.A.transpose_dot(c[self.basis] @ self.Binv)
        starts.append((float(reduced[~fixed].min()), float(np.abs(c[self.basis]).max())))
        return real_dual(self, c, fixed)

    monkeypatch.setattr(lp, "_crash", crash)
    monkeypatch.setattr(lp._Simplex, "dual", dual)
    negative = 0
    for model in _solved_programs():
        solve(model)
        negative += min(model.objective.values(), default=0.0) < 0
    assert len(starts) > 200 and negative > 100 and len(placed) > 100
    assert set(placed) == {0.0}
    assert all(worst >= 0.0 and basic == 0.0 for worst, basic in starts)


def test_infeasible_verdicts_carry_a_farkas_row(monkeypatch):
    # y = ±(row r of B^-1) with y.A <= 0 on every column that may enter and
    # y.b > FEAS_TOL: then no x >= 0 with the fixed columns at 0 solves
    # A x = b, so the program is infeasible
    gaps = []  # the largest y.b over the Farkas rows of each verdict
    real_dual = lp._Simplex.dual

    def dual(self, c, fixed):
        status = real_dual(self, c, fixed)
        if status == "infeasible":
            A = self.A.dense_submatrix(range(self.n))
            gap = -math.inf
            for r in range(self.m):
                for y in (self.Binv[r], -self.Binv[r]):
                    if (y @ A)[~fixed].max() <= lp.PIVOT_TOL:
                        gap = max(gap, float(y @ self.b))
            gaps.append(gap)
        return status

    monkeypatch.setattr(lp._Simplex, "dual", dual)
    for model in _solved_programs():
        solve(model)
    assert len(gaps) > 30
    assert min(gaps) > lp.FEAS_TOL


def test_nan_reduced_cost_raises():
    # argmin picks the first NaN; read as "nothing prices below -OPT_TOL" it
    # would pass as optimal, and NaN < -DUAL_TOL is false in the final check
    A = lp._SparseCols(1, [[(0, 2.0)], [(0, 1.0)]])
    sx = lp._Simplex(A, np.array([1.0]), [1])
    free = np.zeros(2, dtype=bool)
    with pytest.raises(LpNumericalError, match="NaN"):
        sx.run(np.array([np.nan, 0.0]), free)
    # a NaN cost on the basic column reaches every reduced cost through y
    with pytest.raises(LpNumericalError, match="NaN"):
        sx.run(np.array([-1.0, np.nan]), free)
    # a fixed NaN column is never priced
    assert sx.run(np.array([np.nan, 0.0]), np.array([True, False])) == "optimal"


@pytest.mark.parametrize(
    "program, cells, row",
    [
        # Phi_E the swap of C2's two edges: row-stochastic, but each edge's
        # source moves and its vertex does not
        ("feasibility", ["E_0_1", "E_1_0", "V_0_0", "V_1_1"], "nat_src_0_0"),
        # both edges onto edge 0: its pushforward, 2, exceeds its mass, 1
        ("wasserstein", ["E_0_0", "E_1_0", "V_0_0", "V_1_1"], "meas_E_0"),
        # edge 0's row sums to 0
        ("wasserstein", ["E_1_1", "V_0_0", "V_1_1"], "phirow_E_0"),
    ],
    ids=["nat", "meas", "phirow"],
)
def test_recheck_names_the_row_a_kernel_breaks(program, cells, row):
    # _recheck is the one check of the kernel properties the library's
    # programs state as rows; the point sets the listed kernel cells to 1
    # and every other variable to 0
    if program == "feasibility":
        c2 = directed_cycle(2, "plain")
        model = relax.markov_feasibility_lp(c2, c2)
    else:
        c2 = directed_cycle(2)
        model = relax.wasserstein_cset_lp(c2, c2, 1.0).model
    x = np.array([float(name[4:] in cells) for name in model.var_names])
    with pytest.raises(LpNumericalError, match=f"constraint '{row}' by 1.000e"):
        lp._recheck(model, x)


def _negative_zero_row():
    """min x subject to -x = 0: the presolve fixes x at 0 / -1, -0.0 in
    floats."""
    m = LpModel()
    x = m.add_variable("x")
    m.add_objective(x, 1.0)
    m.add_constraint("a", [(x, -1.0)], "=", 0.0)
    return m


def _unconstrained():
    m = LpModel()
    m.add_objective(m.add_variable("x"), 1.0)
    return m


def _solved(make, took_path):
    """The values of ``solve(make())``, which must be optimal and take the
    path that ``took_path`` tests for."""
    def values():
        sol = solve(make())
        assert sol.status == "optimal" and took_path(sol)
        return sol.values
    return values


def _tree_values():
    tree, values = tree_solve(_least_cost_example()[0])
    assert tree.pivots > 0
    return values


@pytest.mark.parametrize(
    "values",
    [
        _solved(_negative_zero_row, lambda sol: sol.fixed == 1),
        _solved(_unconstrained, lambda sol: (sol.fixed, sol.crashed, sol.pivots) == (0, 0, 0)),
        _solved(lambda: _crash_model(0.0, 1.0), lambda sol: (sol.crashed, sol.pivots) == (1, 0)),
        _solved(lambda: _crash_model(-1.0, 1.0), lambda sol: sol.pivots > 0),
        _tree_values,
    ],
    ids=["presolve-fix", "no-row-left", "crash-optimal", "simplex", "tree"],
)
def test_values_are_never_negative_zero(values):
    # a value of -0.0 passes every check but pickles, prints and divides
    # differently from 0.0, so every path of solve, and the tree that
    # optimal_coupling calls, returns 0.0 instead
    values = values()
    assert values.min() >= 0 and not np.signbit(values).any()
