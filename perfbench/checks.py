"""Correctness checks on benchmark results, run after the timed phase.

Every check compares a result against an independent computation or a
property the result must have, never against stored output:

* closed forms of the cycle family (README, "The weak graph configuration");
* HiGHS (``scipy.optimize.linprog``) on the same Wasserstein, feasibility and
  transport programs;
* the relaxation inequality d_W <= d_H;
* kernels that are row-stochastic, measure-decreasing and natural, and
  homomorphisms that are natural, recomputed here with numpy;
* Hausdorff witnesses that are short and measure-decreasing, with the defect
  sum recomputed here.

scipy is imported inside the HiGHS helpers only, so that importing this
module costs nothing at set-up time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

import cset_transport as ct

INF = math.inf
VALUE_TOL = 1e-6  # distances and LP optima against HiGHS
KERNEL_TOL = 1e-6  # row sums, pushforwards and naturality of kernels
EXACT_TOL = 1e-9  # recomputed defect sums and short-map inequalities


class CheckFailed(Exception):
    """A result does not have a property it must have."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(a: float, b: float, tol: float = VALUE_TOL) -> bool:
    if INF in (a, b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- HiGHS ---------------------------------------------------------------------


def highs(c, rows, bounds):
    """min c.x over rows [(coefficients {idx: coef}, relation, rhs)] and
    per-variable bounds; the optimum, or None when infeasible."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    blocks = {"eq": ([], [], [], []), "ub": ([], [], [], [])}
    for coefs, rel, rhs in rows:
        kind, sign = ("eq", 1.0) if rel == "=" else ("ub", 1.0 if rel == "<=" else -1.0)
        r, cidx, vals, b = blocks[kind]
        for idx, coef in coefs.items():
            r.append(len(b))
            cidx.append(idx)
            vals.append(sign * coef)
        b.append(sign * rhs)

    def matrix(kind):
        r, cidx, vals, b = blocks[kind]
        if not b:
            return None, None
        return csr_matrix((vals, (r, cidx)), shape=(len(b), len(c))), np.asarray(b)

    a_ub, b_ub = matrix("ub")
    a_eq, b_eq = matrix("eq")
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status == 2:
        return None
    require(res.status == 0, f"HiGHS failed: {res.message}")
    return float(res.fun)


def highs_model(model):
    """Solve an LpModel with HiGHS."""
    c = np.zeros(model.num_vars)
    for idx, coef in model.objective.items():
        c[idx] += coef
    rows = []
    for _, terms, rel, rhs in model.constraints:
        coefs: dict[int, float] = {}
        for idx, coef in terms:
            coefs[idx] = coefs.get(idx, 0.0) + coef
        rows.append((coefs, rel, rhs))
    bounds = [(0.0, u if math.isfinite(u) else None) for u in model.var_upper]
    return highs(c, rows, bounds)


def highs_transport(mu, nu, cost):
    """Optimal transport value between weight vectors, built here from the
    cost matrix alone."""
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    rows = [({i * m + j: 1.0 for j in range(m)}, "=", float(mu[i])) for i in range(n)]
    rows += [({i * m + j: 1.0 for i in range(n)}, "=", float(nu[j])) for j in range(m)]
    finite = np.isfinite(cost).reshape(-1)
    c = np.where(finite, cost.reshape(-1), 0.0)
    bounds = [(0.0, None if f else 0.0) for f in finite]
    return highs(c, rows, bounds)


# -- structural properties -----------------------------------------------------


def check_kernels(x, y, cert, measure_decreasing: bool = True) -> None:
    """Every component is a row-stochastic matrix; for the mm class the
    pushforward of each domain measure stays below the codomain measure."""
    for ob in x.theory.objects:
        p = np.asarray(cert.components[ob].p, dtype=float)
        require(p.shape == (x.sets[ob], y.sets[ob]), f"kernel {ob} has shape {p.shape}")
        require(np.all(p >= -KERNEL_TOL), f"kernel {ob} has a negative entry")
        require(
            np.all(np.abs(p.sum(axis=1) - 1.0) <= KERNEL_TOL),
            f"kernel {ob} is not row-stochastic",
        )
        if measure_decreasing and ob in x.measures:
            push = x.measure(ob).w @ p
            require(
                np.all(push <= y.measure(ob).w + KERNEL_TOL),
                f"kernel {ob} is not measure-decreasing",
            )


def check_natural_kernels(x, y, cert) -> None:
    """Phi_cod[X(f)] equals Phi_dom . Y(f) for every generator f."""
    for g in x.theory.generators:
        phi_dom = np.asarray(cert.components[g.dom].p, dtype=float)
        phi_cod = np.asarray(cert.components[g.cod].p, dtype=float)
        yf = np.zeros((y.sets[g.dom], y.sets[g.cod]))
        yf[np.arange(y.sets[g.dom]), y.maps[g.name]] = 1.0
        gap = phi_cod[x.maps[g.name], :] - phi_dom @ yf
        require(
            gap.size == 0 or np.abs(gap).max() <= KERNEL_TOL,
            f"kernels are not natural at {g.name}",
        )


def check_natural_map(x, y, comps) -> None:
    """t_cod . X(f) equals Y(f) . t_dom for every generator f."""
    for ob in x.theory.objects:
        f = np.asarray(comps[ob])
        require(f.shape == (x.sets[ob],), f"component {ob} has shape {f.shape}")
        require(f.size == 0 or (f.min() >= 0 and f.max() < y.sets[ob]), f"component {ob} out of range")
    for g in x.theory.generators:
        lhs = np.asarray(comps[g.cod])[x.maps[g.name]]
        rhs = y.maps[g.name][np.asarray(comps[g.dom])]
        require(np.array_equal(lhs, rhs), f"map is not natural at {g.name}")


def graph_hom_exists(x, y) -> bool:
    """Brute force over vertex maps: a graph homomorphism exists when some
    vertex map sends every edge onto an edge."""
    nx_, ny_ = x.sets["V"], y.sets["V"]
    if nx_ == 0:
        return True
    if ny_ == 0:
        return False
    adj = np.zeros((ny_, ny_), dtype=bool)
    adj[y.maps["src"], y.maps["tgt"]] = True
    maps = np.array(list(itertools.product(range(ny_), repeat=nx_)))
    hits = adj[maps[:, x.maps["src"]], maps[:, x.maps["tgt"]]]
    return bool(hits.all(axis=1).any())


def defect(x, y, comps, p: float) -> float:
    """The Hausdorff objective of a transformation, recomputed: the l^p sum
    over generators of the measure-weighted naturality defects."""
    total = 0.0
    for g in x.theory.generators:
        top = np.asarray(comps[g.cod])[x.maps[g.name]]
        bot = y.maps[g.name][np.asarray(comps[g.dom])]
        d = y.metric(g.cod).d[top, bot]
        w = x.measure(g.dom).w
        live = w > 0
        if np.any(np.isinf(d[live])):
            return INF
        total += float(np.sum(w[live] * d[live] ** p))
    return total ** (1.0 / p)


def check_witness(x, y, res, p: float) -> None:
    """A finite Hausdorff distance comes with a short, measure-decreasing
    witness whose recomputed defect equals the distance."""
    if res.distance == INF:
        require(res.witness is None, "infinite distance with a witness")
        return
    require(res.witness is not None, "finite distance without a witness")
    comps = res.witness.components
    for ob in x.theory.objects:
        f = np.asarray(comps[ob])
        if ob in x.fixed:
            require(np.array_equal(f, np.arange(x.sets[ob])), f"fixed {ob} moved")
        d_x, d_y = x.metric(ob).d, y.metric(ob).d
        require(np.all(d_y[np.ix_(f, f)] <= d_x + EXACT_TOL), f"witness is not short at {ob}")
        push = np.bincount(f, weights=x.measure(ob).w, minlength=y.sets[ob])
        require(np.all(push <= y.measure(ob).w + EXACT_TOL), f"witness is not measure-decreasing at {ob}")
    got = defect(x, y, comps, p)
    require(close(got, res.distance, EXACT_TOL), f"witness defect {got} != distance {res.distance}")


# -- per-operation checks --------------------------------------------------------


def wasserstein(x, y, p: float, result, expected: float | None = None) -> None:
    """W_p(x, y) agrees with HiGHS on the program wasserstein_cset_lp builds
    (inf exactly when HiGHS finds it infeasible) and carries valid kernels."""
    dist, cert = result
    if expected is not None:
        require(close(dist, expected, 1e-7), f"W = {dist}, closed form {expected}")
    prog = ct.wasserstein_cset_lp(x, y, p)
    opt = highs_model(prog.model)
    if opt is None:
        require(dist == INF and cert is None, f"HiGHS: infeasible, W = {dist}")
        return
    want = max(opt + prog.objective_constant, 0.0) ** (1.0 / p)
    require(close(dist, want), f"W = {dist}, HiGHS {want}")
    require(cert is not None, "finite W without kernels")
    check_kernels(x, y, cert)


def hausdorff(x, y, p: float, result, expected: float | None = None) -> None:
    if expected is not None:
        require(result.distance == expected, f"H = {result.distance}, closed form {expected}")
    check_witness(x, y, result, p)


def relaxation(w_result, h_result) -> None:
    """The paper's relaxation inequality d_W <= d_H."""
    dw, dh = w_result[0], h_result.distance
    require(dh == INF or dw <= dh + VALUE_TOL, f"W = {dw} > H = {dh}")


def homomorphism(x, y, result) -> None:
    exists = graph_hom_exists(x, y)
    require((result is not None) == exists, f"search says {result is not None}, brute force {exists}")
    if result is not None:
        check_natural_map(x, y, result.components)


def feasibility(x, y, result) -> None:
    """markov_feasible answers None exactly when HiGHS finds the feasibility
    program infeasible; a returned transformation is natural and stochastic.
    A homomorphism implies feasibility."""
    feasible = highs_model(ct.markov_feasibility_lp(x, y)) is not None
    require((result is not None) == feasible, f"feasible: got {result is not None}, HiGHS {feasible}")
    if result is not None:
        check_kernels(x, y, result, measure_decreasing=False)
        check_natural_kernels(x, y, result)
    elif graph_hom_exists(x, y):
        raise CheckFailed("infeasible although a homomorphism exists")


def transport(mu, nu, cost, result) -> None:
    want = highs_transport(mu.w, nu.w, cost)
    require(close(result.cost, want), f"OT = {result.cost}, HiGHS {want}")
    pi = np.asarray(result.coupling)
    require(np.all(pi >= -EXACT_TOL), "coupling has a negative entry")
    require(np.allclose(pi.sum(axis=1), mu.w, atol=1e-7), "coupling row marginal")
    require(np.allclose(pi.sum(axis=0), nu.w, atol=1e-7), "coupling column marginal")
    require(close(float(np.sum(np.asarray(cost) * pi)), result.cost, EXACT_TOL), "cost of coupling")


def kernel_wasserstein(m, n, mu, d, p: float) -> float:
    """W_p between kernels, recomputed row by row with HiGHS."""
    costp = np.asarray(d, dtype=float) ** p
    total = 0.0
    for i in range(len(mu)):
        if mu[i] > 0:
            total += mu[i] * highs_transport(m[i], n[i], costp)
    return total ** (1.0 / p)
