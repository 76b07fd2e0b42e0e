"""Classical optimal transport on finite measures and the Wasserstein metric
on finite Markov kernels.

Infinite-cost cells never reach the solver: the corresponding coupling mass
is pinned to zero structurally, and if that makes the problem infeasible the
cost is reported as inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .lp import LpModel, solve
from .markov import FiniteKernel
from .mm import (
    INF,
    TOL,
    MeasureData,
    MetricData,
    check_order,
    ext_mul,
    ext_pow,
    ext_pow_array,
    ext_root,
)

__all__ = [
    "OtResult",
    "optimal_coupling",
    "wasserstein_measures",
    "wasserstein_kernels",
    "wasserstein_deterministic",
]

@dataclass(frozen=True, eq=False)
class OtResult:
    """Transport value and the optimal coupling(s) witnessing it.

    For measure problems ``coupling`` is a matrix; for kernel problems it is a
    list with one coupling matrix per domain point (None on rows of zero mass
    or when the value is inf).
    """

    cost: float
    coupling: object = None


def _check_cost(cost, n, m):
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (n, m):
        raise DimensionError(f"cost must be {n}x{m}, got {cost.shape}")
    if np.any(np.isnan(cost)) or np.any(cost < 0):
        raise DimensionError("cost entries must be in [0, inf]")
    return cost


def optimal_coupling(mu: MeasureData, nu: MeasureData, cost) -> OtResult:
    """Minimize sum(cost * pi) over pi >= 0 with row sums mu and column sums nu."""
    cost = _check_cost(cost, mu.n, nu.n)
    if abs(mu.total() - nu.total()) > TOL:
        raise DimensionError(
            f"couplings need equal mass: |mu| = {mu.total()}, |nu| = {nu.total()}"
        )
    finite = ~np.isinf(cost)
    # a positive-mass row (or column) with no finite cell is hopeless
    for i in range(mu.n):
        if mu.w[i] > 0 and not finite[i].any():
            return OtResult(INF, None)
    for j in range(nu.n):
        if nu.w[j] > 0 and not finite[:, j].any():
            return OtResult(INF, None)

    model = LpModel()
    index = {}
    for i in range(mu.n):
        for j in range(nu.n):
            if finite[i, j]:
                index[i, j] = model.add_variable(f"pi_{i}_{j}")
                model.add_objective(index[i, j], float(cost[i, j]))
    for i in range(mu.n):
        terms = [(index[i, j], 1.0) for j in range(nu.n) if (i, j) in index]
        model.add_constraint(f"row_{i}", terms, "=", float(mu.w[i]))
    for j in range(nu.n):
        terms = [(index[i, j], 1.0) for i in range(mu.n) if (i, j) in index]
        model.add_constraint(f"col_{j}", terms, "=", float(nu.w[j]))
    sol = solve(model)
    if sol.status == "infeasible":
        return OtResult(INF, None)
    if sol.status != "optimal":
        raise DimensionError(f"transport LP reported {sol.status}")
    pi = np.zeros((mu.n, nu.n))
    for (i, j), k in index.items():
        pi[i, j] = sol.values[k]
    return OtResult(float(sol.objective), pi)


def wasserstein_measures(mu: MeasureData, nu: MeasureData, d: MetricData, p: float) -> float:
    """Classical W_p between equal-mass measures on a common metric space."""
    check_order(p, finite=True)
    if d.n != mu.n or d.n != nu.n:
        raise DimensionError("metric must live on the common support space")
    return ext_root(optimal_coupling(mu, nu, ext_pow_array(d.d, p)).cost, p)


def wasserstein_kernels(
    m: FiniteKernel, n: FiniteKernel, muX: MeasureData, dY: MetricData, p: float
) -> OtResult:
    """W_p between kernels X -> Y: per-row optimal transport aggregated in L^p.

    Rows of zero mass are skipped (0 * inf = 0) and contribute no coupling.
    """
    check_order(p, finite=True)
    if m.rows != n.rows or m.cols != n.cols:
        raise DimensionError("kernels must share domain and codomain")
    if muX.n != m.rows or dY.n != m.cols:
        raise DimensionError("measure/metric do not match the kernels")
    costp = ext_pow_array(dY.d, p)
    total = 0.0
    couplings: list = [None] * m.rows
    for x in range(m.rows):
        if muX.w[x] <= 0:
            continue
        row = optimal_coupling(
            MeasureData(m.cols, m.p[x]), MeasureData(n.cols, n.p[x]), costp
        )
        couplings[x] = row.coupling
        total += ext_mul(muX.w[x], row.cost)
        if total == INF:
            return OtResult(INF, None)
    return OtResult(ext_root(total, p), couplings)


def wasserstein_deterministic(
    f, m: FiniteKernel, g, muX: MeasureData, dZ: MetricData, p: float
) -> float:
    """Closed form for W_p(f, M.g) with f: X -> Z deterministic, M: X -> Y,
    g: Y -> Z: no linear program is solved."""
    f = np.asarray(f, dtype=int)
    g = np.asarray(g, dtype=int)
    if f.shape != (m.rows,) or g.shape != (m.cols,):
        raise DimensionError("function shapes do not compose with the kernel")
    if muX.n != m.rows:
        raise DimensionError("measure does not match the kernel domain")
    if f.size and (f.max() >= dZ.n or f.min() < 0):
        raise DimensionError("f lands outside the metric space")
    if g.size and (g.max() >= dZ.n or g.min() < 0):
        raise DimensionError("g lands outside the metric space")
    check_order(p, finite=True)
    total = 0.0
    for x in range(m.rows):
        if muX.w[x] <= 0:
            continue
        inner = 0.0
        for y in range(m.cols):
            inner += ext_mul(m.p[x, y], ext_pow(float(dZ.d[f[x], g[y]]), p))
        total += ext_mul(muX.w[x], inner)
        if total == INF:
            return INF
    return ext_root(total, p)
