import math
import re
import warnings

import numpy as np
import pytest

from cset_transport.cset import Instance, find_homomorphism
from cset_transport.errors import InstanceError, TheoryError
from cset_transport.gallery import (
    attributed_set,
    diamond,
    directed_cycle,
    line_metric,
    loop,
    path_graph,
    undirected_3cycle,
    vertex_attributed_graph,
    weak_pair,
)
from cset_transport.hausdorff import HausdorffConfig
from cset_transport.lp import LpSolution, export_lp, parse_lp, solve
from cset_transport.markov import compose_kernels, embed_function, identity_kernel
from cset_transport.mm import (
    INF,
    MeasureData,
    MetricData,
    counting_measure,
    discrete_metric,
    shortest_path_metric,
    uniform_measure,
)
from cset_transport import relax
from cset_transport.relax import (
    markov_feasibility_lp,
    markov_feasible,
    relaxation_gap,
    wasserstein_cset_distance,
    wasserstein_cset_lp,
)
from cset_transport.theory import builtin_theory
from cset_transport.transport import optimal_coupling, wasserstein_measures

from oracles import highs_solve, random_graph


def _generator_matrix(inst, gen):
    g = inst.theory.generator(gen)
    return embed_function(inst.maps[gen], inst.sets[g.cod]).p


def _check_naturality(x, y, cert, tol=1e-6):
    for g in x.theory.generators:
        lhs = cert.components[g.cod].p[x.maps[g.name], :]
        rhs = cert.components[g.dom].p @ _generator_matrix(y, g.name)
        assert np.abs(lhs - rhs).max(initial=0.0) <= tol


def test_fig5_feasible_and_mixtures():
    x, y = path_graph(3), diamond()
    cert = markov_feasible(x, y)
    assert cert is not None
    _check_naturality(x, y, cert)
    # both graph homomorphisms and their midpoint mixture solve the program
    homs = [({"V": [0, 1, 3], "E": [0, 2]}), ({"V": [0, 2, 3], "E": [1, 3]})]
    for a in np.linspace(0, 1, 5):
        mixV = a * embed_function(homs[0]["V"], 4).p + (1 - a) * embed_function(homs[1]["V"], 4).p
        mixE = a * embed_function(homs[0]["E"], 4).p + (1 - a) * embed_function(homs[1]["E"], 4).p
        for g in ("src", "tgt"):
            lhs = mixV[x.maps[g], :]
            rhs = mixE @ _generator_matrix(y, g)
            assert np.abs(lhs - rhs).max() <= 1e-12


def test_solved_values_pass_through_the_extraction(monkeypatch):
    # the solver's values, Phi_V and Phi_E the identity on C2, are the
    # certificate's kernels as they stand; lp.solve has checked their rows
    # (tests/test_lp.py::test_recheck_names_the_row_a_kernel_breaks)
    x = y = directed_cycle(2, "plain")

    def solved(model):
        values = []
        for name in model.var_names:
            _, _, i, j = name.split("_")
            values.append(float(i == j))
        return LpSolution("optimal", 0.0, np.array(values), list(model.var_names))

    monkeypatch.setattr(relax, "solve", solved)
    cert = markov_feasible(x, y)
    for ob in ("V", "E"):
        assert np.array_equal(cert.components[ob].p, np.eye(2))


def test_preimages_on_seeded_maps():
    rng = np.random.default_rng(11)
    cases = [(np.zeros(0, dtype=int), 0), (np.zeros(0, dtype=int), 3)]
    cases += [(rng.integers(0, n, size), n) for n in (1, 3, 6) for size in (1, 4, 9)]
    for f, n in cases:
        pre = relax._preimages(f, n)
        assert pre == [np.flatnonzero(f == k).tolist() for k in range(n)]
        assert all(type(j) is int for js in pre for j in js)
    # points 0 and 2 of four have no preimage
    assert relax._preimages(np.array([3, 1, 1]), 4) == [[], [1, 2], [], [0]]


def test_fig6_infeasible():
    assert markov_feasible(loop(), undirected_3cycle()) is None


def test_fig7_feasible_without_hom():
    x, y = loop(), directed_cycle(3, "plain")
    assert find_homomorphism(x, y) is None
    cert = markov_feasible(x, y)
    assert cert is not None
    _check_naturality(x, y, cert)
    # the uniform transformation is itself a solution
    uni_v = np.full((1, 3), 1 / 3)
    uni_e = np.full((1, 3), 1 / 3)
    for g in ("src", "tgt"):
        assert np.allclose(uni_v[x.maps[g], :], uni_e @ _generator_matrix(y, g))


def test_fig8_terminal_certificate_unique():
    rng = np.random.default_rng(51)
    for _ in range(5):
        x = random_graph(rng, max_v=4, max_e=5)
        cert = markov_feasible(x, loop())
        assert cert is not None
        assert np.allclose(cert.components["V"].p, 1.0)
        assert np.allclose(cert.components["E"].p, 1.0)


def test_cycles_always_feasible():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            cert = markov_feasible(directed_cycle(m, "plain"), directed_cycle(n, "plain"))
            assert cert is not None


def test_hom_implies_feasible_and_infeasible_implies_no_hom():
    rng = np.random.default_rng(52)
    for _ in range(40):
        x = random_graph(rng, max_v=3, max_e=4)
        y = random_graph(rng, max_v=3, max_e=4)
        hom = find_homomorphism(x, y)
        cert = markov_feasible(x, y)
        if hom is not None:
            assert cert is not None
        if cert is None:
            assert hom is None
        if cert is not None:
            _check_naturality(x, y, cert)


def test_measure_preserving_iso_case():
    rng = np.random.default_rng(53)
    for _ in range(10):
        x = random_graph(rng, max_v=3, max_e=4)
        perm_v = rng.permutation(x.sets["V"])
        perm_e = rng.permutation(x.sets["E"])
        maps = {}
        for g in ("src", "tgt"):
            arr = np.empty(x.sets["E"], dtype=int)
            arr[perm_e] = perm_v[x.maps[g]]
            maps[g] = arr
        y = Instance(x.theory, dict(x.sets), maps)
        counting = lambda inst: {
            "V": counting_measure(inst.sets["V"]),
            "E": counting_measure(inst.sets["E"]),
        }
        cert = markov_feasible(
            x.with_data(measures=counting(x)),
            y.with_data(measures=counting(y)),
            measure_preserving=True,
        )
        assert cert is not None


def test_feasibility_lp_shape():
    model = markov_feasibility_lp(path_graph(3), diamond())
    assert model.num_vars == 3 * 4 + 2 * 4
    names = [c[0] for c in model.constraints]
    assert any(n.startswith("nat_src") for n in names)
    assert solve(model).status == "optimal"


def test_wasserstein_lp_ex64_structure():
    attr = line_metric(11)
    a = attributed_set([0], attr)
    b = attributed_set([3], attr)
    prog = wasserstein_cset_lp(a, b, 1.0)
    # discrete point metric kills the self-product; the fixed codomain turns
    # the generator block into a closed-form objective
    assert prog.layout["pi_obj"] == {}
    assert prog.layout["pi_gen"] == {}
    assert prog.eliminated["pi_gen"]["attr"].startswith("codomain fixed")
    assert prog.model.num_vars == 1  # one stochastic entry
    dist, cert = wasserstein_cset_distance(a, b, 1.0)
    assert dist == pytest.approx(3.0, abs=1e-9)
    assert cert is not None


def test_closed_form_overflowing_power_is_inf():
    # (1e200)^2 is past the float range: the closed-form objective treats it
    # as an infinite cost, as the coupling blocks' powers do, and says nothing
    attr = MetricData(2, [[0, 1e200], [1e200, 0]])
    a, b = attributed_set([0], attr), attributed_set([1], attr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wasserstein_cset_distance(a, b, 2.0)[0] == INF
        assert wasserstein_cset_distance(a, b, 1.0)[0] == 1e200


def test_wasserstein_lp_weak_structure():
    x, y = directed_cycle(3), directed_cycle(4)
    prog = wasserstein_cset_lp(x, y, 1.0)
    assert prog.eliminated["pi_obj"]["E"] == "domain metric is discrete"
    assert "V" in prog.layout["pi_obj"]
    assert set(prog.layout["pi_gen"]) == {"src", "tgt"}


def test_wasserstein_all_discrete_is_feasibility():
    x, y = loop("discrete"), directed_cycle(3, "discrete")
    dist, cert = wasserstein_cset_distance(x, y, 1.0)
    assert dist == pytest.approx(0.0, abs=1e-9)
    x2, y2 = loop("discrete"), undirected_3cycle("discrete")
    dist2, cert2 = wasserstein_cset_distance(x2, y2, 1.0)
    assert dist2 == INF and cert2 is None


def test_wasserstein_cycle_values():
    assert wasserstein_cset_distance(directed_cycle(2), directed_cycle(4), 1.0)[0] <= 1e-7
    assert wasserstein_cset_distance(directed_cycle(3), directed_cycle(2), 1.0)[0] == INF


def test_wasserstein_mass_precheck():
    x, y = directed_cycle(4), directed_cycle(2)
    prog = wasserstein_cset_lp(x, y, 1.0)
    assert prog.structurally_infinite is not None


def test_arguments_are_checked_once_per_call(monkeypatch):
    # a distance checks its arguments once, before it builds or answers inf;
    # wasserstein_cset_lp checks them once too
    calls = []
    check = relax._structural_infinity

    def counted(*args):
        calls.append(args[2:])
        return check(*args)

    monkeypatch.setattr(relax, "_structural_infinity", counted)
    assert wasserstein_cset_distance(directed_cycle(2), directed_cycle(3), 1.0)[0] == 0.0
    assert calls == [(1.0, "mm")]
    assert wasserstein_cset_distance(directed_cycle(3), directed_cycle(2), 2.0) == (INF, None)
    assert calls == [(1.0, "mm"), (2.0, "mm")]
    prog = wasserstein_cset_lp(directed_cycle(3), directed_cycle(2), 1.0, "noshort")
    assert prog.structurally_infinite is None and calls[2:] == [(1.0, "noshort")]


def test_wasserstein_distance_answers_structural_infinity_unbuilt(monkeypatch):
    # the mass tests answer these pairs, so no program is assembled for them
    def no_build(*args):
        raise AssertionError("the program was built")

    monkeypatch.setattr(relax, "_assemble", no_build)
    assert wasserstein_cset_distance(directed_cycle(4), directed_cycle(2), 1.0) == (INF, None)
    attrs = line_metric(2)
    x = vertex_attributed_graph(1, [], [], [0], attrs)
    y = vertex_attributed_graph(1, [], [], [0], attrs)
    y = y.with_data(measures={**y.measures, "A": MeasureData(2, [0.5, 1.0])})
    assert wasserstein_cset_distance(x, y, 2.0) == (INF, None)
    # bad arguments raise the errors they raised before, before any build
    with pytest.raises(ValueError, match="order p"):
        wasserstein_cset_distance(directed_cycle(4), directed_cycle(2), 0.5)
    with pytest.raises(ValueError, match="order p"):
        wasserstein_cset_distance(directed_cycle(4), directed_cycle(2), INF)
    with pytest.raises(ValueError, match="component_class"):
        wasserstein_cset_distance(directed_cycle(4), directed_cycle(2), 1.0, "met")
    with pytest.raises(TheoryError, match="different theories"):
        wasserstein_cset_distance(directed_cycle(4), x, 1.0)
    with pytest.raises(InstanceError, match="fixed object"):
        wasserstein_cset_distance(x, y.with_data(fixed=frozenset()), 1.0)
    # class noshort has no mass test: that pair is built
    with pytest.raises(AssertionError, match="was built"):
        wasserstein_cset_distance(directed_cycle(4), directed_cycle(2), 1.0, "noshort")


def test_wasserstein_certificate_validated():
    x, y = directed_cycle(2), directed_cycle(4)
    dist, cert = wasserstein_cset_distance(x, y, 1.0)
    for ob in ("V", "E"):
        k = cert.components[ob]
        assert np.abs(k.p.sum(axis=1) - 1).max() <= 1e-9
        push = x.measure(ob).w @ k.p
        assert np.all(push <= y.measure(ob).w + 1e-7)


def test_wasserstein_matches_pushforward_ot():
    rng = np.random.default_rng(54)
    attr = line_metric(6)
    for _ in range(10):
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        va = rng.integers(0, 6, na)
        vb = rng.integers(0, 6, nb)
        a = attributed_set(va, attr)
        b = attributed_set(vb, attr)
        p = float(rng.choice([1.0, 2.0]))
        dist, _ = wasserstein_cset_distance(a, b, p)
        push_a = np.bincount(va, weights=a.measure("*").w, minlength=6)
        push_b = np.bincount(vb, weights=b.measure("*").w, minlength=6)
        want = wasserstein_measures(
            MeasureData(6, push_a), MeasureData(6, push_b), attr, p
        )
        assert dist == pytest.approx(want, abs=1e-7)


def test_wasserstein_noshort_relaxes_mm():
    rng = np.random.default_rng(55)
    attrm = line_metric(4)
    for _ in range(6):
        x = vertex_attributed_graph(2, [0], [1], rng.integers(0, 4, 2), attrm)
        y = vertex_attributed_graph(2, [0, 1], [1, 0], rng.integers(0, 4, 2), attrm)
        dmm, _ = wasserstein_cset_distance(x, y, 1.0, "mm")
        dns, _ = wasserstein_cset_distance(x, y, 1.0, "noshort")
        assert dns <= dmm + 1e-9


def test_wasserstein_rejects_infinite_p():
    with pytest.raises(ValueError):
        wasserstein_cset_lp(directed_cycle(2), directed_cycle(2), INF)


def test_pins_match_infinite_cost_cells():
    # codomain with discrete vertex metric: every off-diagonal coupling cell
    # costs inf, so at p = 2 (at p = 1 the blocks are flows) no coupling
    # variable exists for it, and nothing is pinned
    x = directed_cycle(2)
    y = directed_cycle(2, "discrete")
    prog = wasserstein_cset_lp(x, y, 2.0)
    dY = prog.cost_vectors["V"]["delta_y"]
    assert np.isinf(dY).sum() == 2  # two off-diagonal cells
    finite = np.flatnonzero(np.isfinite(dY)).tolist()
    ne = x.sets["E"]
    expected = {f"pigen_{g}_{i}_{k}" for g in ("src", "tgt") for i in range(ne) for k in finite}
    expected |= {f"piobj_V_{a}_{b}_{k}" for a, b in ((0, 1), (1, 0)) for k in finite}
    assert {n for n in prog.model.var_names if n.startswith("pi")} == expected
    assert prog.layout["pi_gen"]["src"][2] == len(finite)
    assert prog.pins == []
    for ob in prog.cost_vectors:
        assert np.all(np.diag(prog.cost_vectors[ob]["delta_x"].reshape(
            x.sets[ob], x.sets[ob])) == 0.0)
    # into a fixed attribute object the closed form pins the kernel cells
    # of infinite cost, and those are all that ``pins`` lists
    attrm = discrete_metric(2)
    x = vertex_attributed_graph(2, [0], [1], [0, 1], attrm)
    y = vertex_attributed_graph(3, [0, 1], [1, 2], [0, 1, 1], attrm)
    prog = wasserstein_cset_lp(x, y, 2.0)
    pi = [n for n in prog.model.var_names if n.startswith(("pigen_", "piobj_"))]
    assert pi and all(int(n.rsplit("_", 1)[1]) in (0, 4, 8) for n in pi)
    assert prog.pins == [
        f"phi_V_{i}_{j}" for i in range(2) for j in range(3) if [0, 1][i] != [0, 1, 1][j]
    ]


def test_flow_on_discrete_codomain_keeps_only_conservation_rows():
    # at p = 1 a discrete codomain metric has no edge, so every flow block is
    # empty and its conservation rows say phi(x1, .) = phi(x2, .) and
    # Xf . Phi_V = Phi_E . Yf: the naturality rows of the feasibility program
    x = directed_cycle(2)
    y = directed_cycle(2, "discrete")
    prog = wasserstein_cset_lp(x, y, 1.0)
    assert prog.layout["edges"] == {"V": []}
    assert prog.eliminated["flow"] == {"V": "W_1 as a flow on 0 of 4 pairs"}
    assert prog.pins == []
    assert prog.model.num_vars == sum(
        nx_ * ny_ for _, nx_, ny_ in prog.layout["phi"].values()
    )
    assert prog.layout["pi_obj"]["V"] == (8, [(0, 1), (1, 0)], 0)
    assert prog.layout["pi_gen"] == {"src": (8, [0, 1], 0), "tgt": (8, [0, 1], 0)}
    names = [c[0] for c in prog.model.constraints]
    flow_rows = [n for n in names if not n.startswith(("phirow_", "meas_"))]
    assert len(flow_rows) == 2 * 2 + 2 * 2 * 2
    assert all(n.startswith(("pof_V_", "pgf_")) for n in flow_rows)
    assert wasserstein_cset_distance(x, y, 1.0)[0] == pytest.approx(0.0, abs=1e-9)


def test_flow_edges_skip_unreachable_and_implied_pairs():
    # the directed path 0 -> 1 -> 2: (0, 2) is split through 1, and the
    # reverse pairs are at infinite distance, so two edges remain
    x = path_graph(2, "mm")
    y = path_graph(3, "mm")
    prog = wasserstein_cset_lp(x, y, 1.0)
    assert prog.layout["edges"]["V"] == [(0, 1), (1, 2)]
    assert prog.eliminated["flow"]["V"] == "W_1 as a flow on 2 of 9 pairs"
    _, pairs, width = prog.layout["pi_obj"]["V"]
    assert pairs == [(0, 1)] and width == 2
    assert wasserstein_cset_distance(x, y, 1.0)[0] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_zero_mass_element_gets_no_flow_block(p):
    # the edge of x has zero mass; measures force its source vertex onto
    # codomain vertex 1 and its image onto the loop at vertex 0, which cannot
    # reach each other.  A zero-mass element costs nothing, so the distance
    # is 0; a flow block for it would demand the unreachable transport, and
    # a coupling block without its infinite cells would too, and either
    # would make the distance infinite
    t = builtin_theory("Graph")
    x = Instance(t, {"E": 1, "V": 1}, {"src": [0], "tgt": [0]}).with_data(
        metrics={"V": discrete_metric(1), "E": discrete_metric(1)},
        measures={"V": MeasureData(1, [1.0]), "E": MeasureData(1, [0.0])},
    )
    y = Instance(t, {"E": 1, "V": 2}, {"src": [0], "tgt": [0]}).with_data(
        metrics={"V": discrete_metric(2), "E": discrete_metric(1)},
        measures={"V": MeasureData(2, [0.0, 1.0]), "E": MeasureData(1, [1.0])},
    )
    prog = wasserstein_cset_lp(x, y, p)
    assert prog.layout["pi_gen"]["src"][1] == []
    dist, cert = wasserstein_cset_distance(x, y, p)
    assert dist == pytest.approx(0.0, abs=1e-9)
    assert cert.components["V"].p[0, 1] == pytest.approx(1.0)


def test_wasserstein_requires_fixed_metric_match():
    a = attributed_set([0], line_metric(5))
    b = attributed_set([0], line_metric(5))
    bad = b.with_data(metrics={**b.metrics, "A": discrete_metric(5)})
    with pytest.raises(InstanceError, match="different metrics"):
        wasserstein_cset_lp(a, bad, 1.0)


def test_gap_zero_on_self():
    x = directed_cycle(3)
    dw, dh = relaxation_gap(x, x, 1.0)
    assert dw == pytest.approx(0.0, abs=1e-9)
    assert dh == 0.0


def test_gap_weak_pair():
    x, y = weak_pair(2, 4)
    dw, dh = relaxation_gap(x, y, 1.0)
    assert dw == pytest.approx(0.0, abs=1e-7)
    assert dh == 2.0


def test_gap_on_random_attributed_graphs():
    rng = np.random.default_rng(56)
    attr = line_metric(4)
    cfg = HausdorffConfig(component_class="mm")
    for _ in range(15):
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
        p = float(rng.choice([1.0, 2.0]))
        dw, dh = relaxation_gap(x, y, p, cfg)
        assert dw <= dh + 1e-6


def test_gap_rejects_met_class():
    with pytest.raises(InstanceError):
        relaxation_gap(
            directed_cycle(2), directed_cycle(2), 1.0,
            HausdorffConfig(component_class="met"),
        )


def test_export_wasserstein_round_trip():
    prog = wasserstein_cset_lp(directed_cycle(2), directed_cycle(3), 1.0)
    text = export_lp(prog.model)
    again = parse_lp(text)
    assert export_lp(again) == text
    s1, s2 = solve(prog.model), solve(again)
    assert s1.status == s2.status == "optimal"
    assert s1.objective == pytest.approx(s2.objective, abs=1e-9)


def _random_lawvere(rng, n):
    """Min-plus closure of a random matrix with inf and zero entries; the
    finite entries sit on a dyadic grid, so exact triangle equalities (the
    rows the builder drops) are common."""
    d = rng.choice([0.5, 0.75, 1.0, 1.25, 1.5, 2.0], size=(n, n))
    u = rng.random((n, n))
    d[u < 0.35] = INF
    d[u > 0.93] = 0.0
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return MetricData(n, d)


def _lawvere_graph(rng, nv, max_e):
    g = random_graph(rng, max_v=nv, max_e=max_e, min_v=nv)
    return g.with_data(
        metrics={"V": _random_lawvere(rng, nv), "E": discrete_metric(g.sets["E"])},
        measures={"V": uniform_measure(nv), "E": uniform_measure(g.sets["E"])},
    )


def _assert_distance_rows(x, y, cert, p, ob):
    """The kernel at ``ob`` satisfies every distance row of the unreduced
    program: W_p(phi(x1, .), phi(x2, .))^p <= d(x1, x2)^p for all finite pairs."""
    phi = cert.components[ob].p
    dX, dY = x.metric(ob).d, y.metric(ob).d
    ny = y.sets[ob]
    for x1 in range(x.sets[ob]):
        for x2 in range(x.sets[ob]):
            if x1 == x2 or dX[x1, x2] == INF:
                continue
            w = optimal_coupling(
                MeasureData(ny, phi[x1]), MeasureData(ny, phi[x2]), dY**p
            ).cost
            assert w <= dX[x1, x2] ** p + 1e-7, (x1, x2, w, dX[x1, x2])


def test_reduced_distance_rows_certify_every_row():
    # the reduced program relaxes the unreduced one, so kernels that satisfy
    # every unreduced row prove the two values equal
    rng = np.random.default_rng(57)
    finite_nonzero = offdiag = implied = certified = 0
    for trial in range(30):
        x = _lawvere_graph(rng, int(rng.integers(3, 6)), 5)
        y = _lawvere_graph(rng, int(rng.integers(2, 5)), 6)
        p = float(1 + trial % 2)
        dX = x.metric("V").d
        off = ~np.eye(x.sets["V"], dtype=bool)
        offdiag += int(off.sum())
        finite_nonzero += int(np.sum(np.isfinite(dX[off]) & (dX[off] > 0)))
        note = wasserstein_cset_lp(x, y, p).eliminated.get("pi_obj_pairs", {})
        found = re.search(r"(\d+) implied", note.get("V", ""))
        implied += int(found.group(1)) if found else 0
        dist, cert = wasserstein_cset_distance(x, y, p)
        if cert is None:
            continue
        certified += 1
        _assert_distance_rows(x, y, cert, p, "V")
    assert 3 * finite_nonzero >= offdiag
    assert certified >= 15 and implied >= 10


def test_zero_distance_pair_does_not_split_rows():
    # d(a,b) = d(b,a) = 0: a split rule allowing a zero leg would drop (a,c)
    # through b and (b,c) through a, leaving c free to follow its attribute
    attr = line_metric(4)
    x = attributed_set([0, 0, 3], attr, measure="counting")
    x = x.with_data(
        metrics={**x.metrics, "*": MetricData(3, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])}
    )
    y = attributed_set([0, 3], attr)
    y = y.with_data(
        metrics={**y.metrics, "*": MetricData(2, [[0, 3], [3, 0]])},
        measures={**y.measures, "*": MeasureData(2, np.array([3.0, 3.0]))},
    )
    dist, cert = wasserstein_cset_distance(x, y, 1.0)
    # a and b stay on the codomain point at attribute 0, and c, 3 away from
    # them, can move only 1/3 of its mass to the point at attribute 3
    assert dist == pytest.approx(2.0, abs=1e-7)
    _assert_distance_rows(x, y, cert, 1.0, "*")


def test_split_rule_compares_distances_not_their_powers():
    # d(a,z) + d(z,b) = 2.5 > d(a,b) = 2 keeps the (a,b) row, although
    # d(a,z)^2 + d(z,b)^2 = 3.25 <= 4; without it the kernels could follow
    # the attributes onto codomain points 2.5 apart
    attr = line_metric(3)
    x = attributed_set([0, 1, 2], attr, measure="counting")
    x = x.with_data(
        metrics={**x.metrics, "*": MetricData(3, [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])}
    )
    y = attributed_set([0, 1, 2], attr)
    y = y.with_data(
        metrics={
            **y.metrics,
            "*": MetricData(3, [[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]),
        },
        measures={**y.measures, "*": MeasureData(3, np.full(3, 3.0))},
    )
    assert wasserstein_cset_lp(x, y, 2.0).eliminated["pi_obj_pairs"]["*"] == (
        "kept 6 of 9 self-product rows; 0 implied by the triangle inequality"
    )
    dist, cert = wasserstein_cset_distance(x, y, 2.0)
    assert dist > 0.1
    _assert_distance_rows(x, y, cert, 2.0, "*")


def test_cycle_rows_reduce_to_edges():
    # C6 -> C9 used to stall the simplex on 30 distance blocks
    x, y = directed_cycle(6), directed_cycle(9)
    prog = wasserstein_cset_lp(x, y, 1.0)
    _, pairs, _ = prog.layout["pi_obj"]["V"]
    assert sorted(pairs) == [(i, (i + 1) % 6) for i in range(6)]
    assert prog.eliminated["pi_obj_pairs"]["V"] == (
        "kept 6 of 36 self-product rows; 24 implied by the triangle inequality"
    )
    dist, _ = wasserstein_cset_distance(x, y, 1.0)
    assert dist == pytest.approx(0.0, abs=1e-9)


def _generator_transport(x, y, cert):
    """The W_1 objective recomputed from the kernels alone: the sum over
    generators g and elements i of mu(i) times W_1 from Phi_cod[Xf(i)] to
    (Phi_dom . Yf)(i), each solved by optimal_coupling."""
    total = 0.0
    for g in x.theory.generators:
        mu, ny = x.measure(g.dom), y.sets[g.cod]
        pushed = cert.components[g.dom].p @ _generator_matrix(y, g.name)
        for i in range(x.sets[g.dom]):
            if mu.w[i] == 0:
                continue
            a = cert.components[g.cod].p[x.maps[g.name][i]]
            w1 = optimal_coupling(
                MeasureData(ny, a), MeasureData(ny, pushed[i]), y.metric(g.cod).d
            ).cost
            total += mu.w[i] * w1
    return total


def test_flow_form_matches_coupling_form(monkeypatch):
    # W_1 as a flow on the codomain's irreducible edges against the coupling
    # form of the same program, solved by HiGHS; the certificate is checked
    # by recomputing the objective from the extracted kernels
    rng = np.random.default_rng(58)
    finite = positive = 0
    for _ in range(120):
        x = _lawvere_graph(rng, int(rng.integers(2, 5)), 4)
        y = _lawvere_graph(rng, int(rng.integers(2, 5)), 5)
        dist, cert = wasserstein_cset_distance(x, y, 1.0)
        with monkeypatch.context() as mp:
            mp.setattr(relax, "_flow_form", lambda p: False)
            coupling = wasserstein_cset_lp(x, y, 1.0)
        assert "flow" not in coupling.eliminated
        want = INF
        if coupling.structurally_infinite is None:
            status, value = highs_solve(coupling.model)
            if status == "optimal":
                want = value + coupling.objective_constant
        if want == INF:
            assert dist == INF
            continue
        finite += 1
        positive += dist > 0
        assert dist == pytest.approx(want, abs=1e-9)
        assert _generator_transport(x, y, cert) == pytest.approx(dist, abs=1e-7)
    assert finite >= 60 and positive >= 30


def test_w1_cycle_table():
    # closed form: 0 for m <= n, inf above (the mass of C_m does not fit)
    for m in range(2, 9):
        for n in range(2, 9):
            got, cert = wasserstein_cset_distance(directed_cycle(m), directed_cycle(n), 1.0)
            if m <= n:
                assert got == pytest.approx(0.0, abs=1e-9), (m, n, got)
                assert cert is not None
            else:
                assert got == INF, (m, n, got)


def test_w1_c10_c10():
    # the coupling form of this program (3200 vars) once ended the simplex on
    # a singular basis; the flow form has 500
    x = directed_cycle(10)
    assert wasserstein_cset_lp(x, x, 1.0).model.num_vars == 500
    assert wasserstein_cset_distance(x, x, 1.0)[0] == pytest.approx(0.0, abs=1e-9)


def _mm_graph(src, tgt):
    """Graph on 6 vertices, shortest-path V metric, discrete E metric, counting
    measures."""
    g = Instance(
        builtin_theory("Graph"), {"E": len(src), "V": 6}, {"src": src, "tgt": tgt}
    )
    return g.with_data(
        metrics={"V": shortest_path_metric(g), "E": discrete_metric(len(src))},
        measures={"V": counting_measure(6), "E": counting_measure(len(src))},
    )


@pytest.mark.parametrize(
    "x_maps, y_maps",
    [
        # the simplex hit a singular basis on this program
        (([3, 5, 0, 4, 2, 1], [2, 0, 4, 3, 1, 5]), ([3, 5, 4, 0, 1, 2], [5, 1, 0, 3, 2, 4])),
        # and stalled at a degenerate phase-1 vertex until its iteration cap here
        (([2, 4, 3, 1, 0, 5], [1, 3, 0, 4, 5, 2]), ([2, 3, 1, 4, 5, 0], [4, 2, 0, 5, 1, 3])),
    ],
)
def test_relabelled_c6_pairs_solve(x_maps, y_maps):
    # both graphs are relabellings of C6, so W_2 between them is 0; the
    # programs (720 vars, 246 rows) are highly degenerate, and a simplex that
    # broke ratio ties lexicographically, with Bland's rule after a stall,
    # failed on each
    x, y = _mm_graph(*x_maps), _mm_graph(*y_maps)
    dist, cert = wasserstein_cset_distance(x, y, 2.0)
    assert dist == pytest.approx(0.0, abs=1e-9)
    assert cert is not None
