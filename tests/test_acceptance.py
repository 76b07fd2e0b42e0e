"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).

Every tolerance and runtime budget is asserted here, not just reported.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cset_transport.cset import Instance, find_homomorphism
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
from cset_transport.hausdorff import HausdorffConfig, classical_hausdorff, hausdorff_distance
from cset_transport.lp import LpModel, solve
from cset_transport.markov import (
    FiniteKernel,
    JointMeasure,
    apply_measure,
    compose_kernels,
    disintegrate,
    embed_function,
    identity_kernel,
    product_measure,
)
from cset_transport.mm import INF, MeasureData, counting_measure, lp_distance
from cset_transport.relax import markov_feasible, wasserstein_cset_distance
from cset_transport.theory import builtin_theory
from cset_transport.transport import (
    wasserstein_deterministic,
    wasserstein_kernels,
    wasserstein_measures,
)

from oracles import (
    brute_force_lp,
    brute_transport,
    random_graph,
    random_kernel,
    random_measure,
    random_metric,
)


@contextmanager
def criterion(number, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"criterion {number:2d} PASS: {label} ({elapsed:.2f}s)")


def _fmat(inst, gen):
    g = inst.theory.generator(gen)
    return embed_function(inst.maps[gen], inst.sets[g.cod]).p


def _naturality_gap(x, y, cert):
    worst = 0.0
    for g in x.theory.generators:
        lhs = cert.components[g.cod].p[x.maps[g.name], :]
        rhs = cert.components[g.dom].p @ _fmat(y, g.name)
        if lhs.size:
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_criterion_1_figure_regression():
    with criterion(1, "figure regression: feasibility of the worked examples", budget=1.0):
        assert markov_feasible(path_graph(3), diamond()) is not None
        assert markov_feasible(loop(), undirected_3cycle()) is None
        cert = markov_feasible(loop(), directed_cycle(3, "plain"))
        assert cert is not None
        uniform = {
            "E": FiniteKernel(1, 3, np.full((1, 3), 1 / 3)),
            "V": FiniteKernel(1, 3, np.full((1, 3), 1 / 3)),
        }

        class _Uniform:
            components = uniform

        assert _naturality_gap(loop(), directed_cycle(3, "plain"), _Uniform) <= 1e-6
        assert _naturality_gap(loop(), directed_cycle(3, "plain"), cert) <= 1e-6
        rng = np.random.default_rng(810)
        for _ in range(10):
            x = random_graph(rng, max_v=4, max_e=5)
            c = markov_feasible(x, loop())
            assert c is not None
            # the one-point target admits exactly one kernel pair
            assert np.allclose(c.components["V"].p, 1.0)
            assert np.allclose(c.components["E"].p, 1.0)


def test_criterion_2_cycle_hausdorff_table():
    with criterion(2, "Hausdorff cycle table d_H(C_m, C_n) = min(m, n-m)", budget=30.0):
        cfg = HausdorffConfig(p=1.0, component_class="mm")
        for m in range(1, 7):
            for n in range(1, 7):
                got = hausdorff_distance(*weak_pair(m, n), cfg).distance
                if m <= n:
                    assert got == float(min(m, n - m)), (m, n, got)
                else:
                    assert got == INF, (m, n, got)


def test_criterion_3_cycle_wasserstein_table():
    with criterion(3, "Wasserstein cycle table: 0 for m <= n, inf above", budget=10.0):
        for m in range(1, 7):
            for n in range(1, 7):
                got, _ = wasserstein_cset_distance(directed_cycle(m), directed_cycle(n), 1.0)
                if m <= n:
                    assert got <= 1e-7, (m, n, got)
                else:
                    assert got == INF, (m, n, got)


def test_criterion_4_relaxation_inequality():
    with criterion(4, "relaxation: d_W <= d_H + 1e-6 on 100 attributed-graph pairs", budget=60.0):
        rng = np.random.default_rng(604)
        attr = line_metric(4)
        cfg = HausdorffConfig(component_class="mm")
        for trial in range(100):
            nv, mv = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            ne, me = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            x = vertex_attributed_graph(
                nv, rng.integers(0, nv, ne), rng.integers(0, nv, ne),
                rng.integers(0, 4, nv), attr,
            )
            y = vertex_attributed_graph(
                mv, rng.integers(0, mv, me), rng.integers(0, mv, me),
                rng.integers(0, 4, mv), attr,
            )
            p = 1.0 if trial % 2 == 0 else 2.0
            dw, _ = wasserstein_cset_distance(x, y, p, "mm")
            dh = hausdorff_distance(
                x, y, HausdorffConfig(p=p, component_class="mm")
            ).distance
            assert dw <= dh + 1e-6, (trial, dw, dh)


def test_criterion_5_classical_recoveries():
    with criterion(5, "classical Hausdorff and Wasserstein special cases"):
        rng = np.random.default_rng(605)
        attr = line_metric(12)
        # (a) 50 random subsets of the line: sup-inf brute force, exact match
        for _ in range(50):
            xs = attributed_set(rng.integers(0, 12, int(rng.integers(1, 5))), attr)
            ys = attributed_set(rng.integers(0, 12, int(rng.integers(1, 5))), attr)
            want = max(
                min(abs(int(a) - int(b)) for b in ys.maps["attr"])
                for a in xs.maps["attr"]
            )
            assert classical_hausdorff(xs, ys) == float(want)
        # (b) 50 attributed-set pairs: the program value equals transport of
        # the pushforward measures
        for _ in range(50):
            na, nb = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            va, vb = rng.integers(0, 12, na), rng.integers(0, 12, nb)
            a, b = attributed_set(va, attr), attributed_set(vb, attr)
            p = 1.0 if rng.random() < 0.5 else 2.0
            dist, _ = wasserstein_cset_distance(a, b, p)
            pa = np.bincount(va, weights=a.measure("*").w, minlength=12)
            pb = np.bincount(vb, weights=b.measure("*").w, minlength=12)
            want = wasserstein_measures(MeasureData(12, pa), MeasureData(12, pb), attr, p)
            assert abs(dist - want) <= 1e-7
        # (c) transport values against the extreme-point oracle (cost = d^1)
        from cset_transport.transport import optimal_coupling

        for _ in range(25):
            n = int(rng.choice([2, 3]))
            m = int(rng.choice([2, 3]))
            mu = rng.uniform(0.1, 1, n)
            nu = rng.uniform(0.1, 1, m)
            nu *= mu.sum() / nu.sum()
            dd = random_metric(rng, max(n, m), symmetric=True).d[:n, :m].copy()
            res = optimal_coupling(MeasureData(n, mu), MeasureData(m, nu), dd)
            want = brute_transport(mu, nu, dd)
            assert abs(res.cost - want) <= 1e-6


def test_criterion_6_kernel_wasserstein_axioms():
    with criterion(6, "kernel Wasserstein metric axioms + closed form"):
        rng = np.random.default_rng(606)
        for _ in range(200):
            nx, ny = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            mu = random_measure(rng, nx)
            d = random_metric(rng, ny, symmetric=True)
            p = 1.0 if rng.random() < 0.5 else 2.0
            k1, k2, k3 = (random_kernel(rng, nx, ny) for _ in range(3))
            assert wasserstein_kernels(k1, k1, mu, d, p).cost <= 1e-9
            ab = wasserstein_kernels(k1, k2, mu, d, p).cost
            ba = wasserstein_kernels(k2, k1, mu, d, p).cost
            assert abs(ab - ba) <= 1e-9
            bc = wasserstein_kernels(k2, k3, mu, d, p).cost
            ac = wasserstein_kernels(k1, k3, mu, d, p).cost
            assert ac <= ab + bc + 1e-6
        for _ in range(100):
            nx, ny, nz = 3, 3, 4
            f = rng.integers(0, nz, nx)
            g = rng.integers(0, nz, ny)
            m = random_kernel(rng, nx, ny)
            mu = random_measure(rng, nx)
            d = random_metric(rng, nz)
            p = 1.0 if rng.random() < 0.5 else 2.0
            closed = wasserstein_deterministic(f, m, g, mu, d, p)
            lp_route = wasserstein_kernels(
                embed_function(f, nz),
                compose_kernels(m, embed_function(g, nz)),
                mu, d, p,
            ).cost
            assert abs(closed - lp_route) <= 1e-7


def _random_mm_graph(rng, max_v=3, max_e=3):
    x = random_graph(rng, max_v=max_v, max_e=max_e)
    return x.with_data(
        metrics={"V": random_metric(rng, x.sets["V"]), "E": random_metric(rng, x.sets["E"])},
        measures={
            "V": MeasureData(x.sets["V"], rng.uniform(0.2, 1.5, x.sets["V"])),
            "E": MeasureData(x.sets["E"], rng.uniform(0.2, 1.5, x.sets["E"])),
        },
    )


def test_criterion_7_hausdorff_metric_axioms():
    with criterion(7, "Hausdorff + Wasserstein triangle inequalities on random triples"):
        rng = np.random.default_rng(607)
        cfg = lambda p: HausdorffConfig(p=p, component_class="mm")

        def plus(a, b):
            return INF if INF in (a, b) else a + b

        for _ in range(50):
            xs = [_random_mm_graph(rng) for _ in range(3)]
            p = 1.0 if rng.random() < 0.5 else 2.0
            for inst in xs:
                assert hausdorff_distance(inst, inst, cfg(p)).distance == 0.0
                dw_self, _ = wasserstein_cset_distance(inst, inst, p, "mm")
                assert dw_self <= 1e-7
            h = {}
            w = {}
            for i, j in ((0, 1), (1, 2), (0, 2)):
                h[i, j] = hausdorff_distance(xs[i], xs[j], cfg(p)).distance
                w[i, j], _ = wasserstein_cset_distance(xs[i], xs[j], p, "mm")
            if h[0, 2] != INF or plus(h[0, 1], h[1, 2]) != INF:
                assert h[0, 2] <= plus(h[0, 1], h[1, 2]) + 1e-6
            if w[0, 2] != INF or plus(w[0, 1], w[1, 2]) != INF:
                assert w[0, 2] <= plus(w[0, 1], w[1, 2]) + 1e-6


def test_criterion_8_hom_lp_consistency():
    with criterion(8, "homomorphism search vs feasibility LP, zero violations"):
        rng = np.random.default_rng(608)
        for _ in range(100):
            x = random_graph(rng, max_v=4, max_e=4)
            y = random_graph(rng, max_v=4, max_e=4)
            hom = find_homomorphism(x, y)
            cert = markov_feasible(x, y)
            if hom is not None:
                assert cert is not None
            if cert is None:
                assert hom is None


def _random_lp(rng):
    n = int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))
    model = LpModel()
    for i in range(n):
        upper = float(rng.uniform(0.5, 3.0)) if rng.random() < 0.2 else INF
        model.add_variable(f"x{i}", upper=upper)
    for i in range(n):
        if rng.random() < 0.8:
            model.add_objective(i, float(rng.uniform(-2, 2)))
    for r in range(k):
        terms = [(i, float(rng.uniform(-2, 2))) for i in range(n) if rng.random() < 0.6]
        if not terms:
            terms = [(int(rng.integers(0, n)), 1.0)]
        rel = str(rng.choice(["=", "<=", ">="], p=[0.25, 0.45, 0.3]))
        model.add_constraint(f"c{r}", terms, rel, float(rng.uniform(-2, 2)))
    return model


def test_criterion_9_lp_solver_oracle():
    with criterion(9, "simplex vs vertex enumeration on 500 random programs"):
        rng = np.random.default_rng(609)
        done = 0
        while done < 500:
            model = _random_lp(rng)
            # keep the oracle's combinatorics tractable
            planes = len(model.constraints) + model.num_vars + sum(
                1 for u in model.var_upper if math.isfinite(u)
            )
            if math.comb(planes, model.num_vars) > 20000:
                continue
            status, want = brute_force_lp(model)
            sol = solve(model)
            assert sol.status == status, (done, sol.status, status)
            if status == "optimal":
                assert abs(sol.objective - want) <= 1e-6, (done, sol.objective, want)
            done += 1


def test_bounds_are_rows_to_the_solver():
    # one bound mechanism: criterion 9's programs, solved as given and with
    # every finite bound written as an explicit <= row in variable order,
    # give the same status, objective and bits
    rng = np.random.default_rng(609)
    bounded = 0
    for _ in range(500):
        model = _random_lp(rng)
        rows = LpModel(list(model.var_names), [INF] * model.num_vars, dict(model.objective),
                       list(model.constraints))
        for j, u in enumerate(model.var_upper):
            if u != INF:
                rows.add_constraint(f"bound_{j}", [(j, 1.0)], "<=", u)
                bounded += 1
        got, want = solve(model), solve(rows)
        assert (got.status, got.objective) == (want.status, want.objective)
        if want.values is not None:
            assert got.values.tobytes() == want.values.tobytes()
    assert bounded > 200


def test_criterion_10_markov_algebra_suite():
    with criterion(10, "kernel algebra: composition, mass, disintegration, gluing"):
        rng = np.random.default_rng(610)
        for _ in range(200):
            a = random_kernel(rng, 3, 4)
            b = random_kernel(rng, 4, 2)
            c = random_kernel(rng, 2, 5)
            left = compose_kernels(compose_kernels(a, b), c).p
            right = compose_kernels(a, compose_kernels(b, c)).p
            assert np.abs(left - right).max() <= 1e-9
            assert np.abs(compose_kernels(a, identity_kernel(4)).p - a.p).max() <= 1e-9
            assert np.abs(compose_kernels(identity_kernel(3), a).p - a.p).max() <= 1e-9
        for _ in range(200):
            mu = random_measure(rng, 3)
            k = random_kernel(rng, 3, 4)
            assert abs(apply_measure(mu, k).total() - mu.total()) <= 1e-9
        for _ in range(200):
            pi = JointMeasure(rng.uniform(0.05, 1.0, size=(3, 4)))
            mu, k = disintegrate(pi)
            assert np.abs(product_measure(mu, k).m - pi.m).max() <= 1e-9
        for _ in range(200):
            ny = 3
            muy = random_measure(rng, ny)
            kx = random_kernel(rng, ny, 2)
            kz = random_kernel(rng, ny, 4)
            pi_xy = product_measure(muy, kx).m.T
            pi_yz = product_measure(muy, kz).m
            glued = np.einsum("y,yx,yz->xyz", muy.w, kx.p, kz.p)
            assert np.abs(glued.sum(axis=2) - pi_xy).max() <= 1e-9
            assert np.abs(glued.sum(axis=0) - pi_yz).max() <= 1e-9
