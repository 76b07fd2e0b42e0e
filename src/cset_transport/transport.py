"""Classical optimal transport on finite measures and the Wasserstein metric
on finite Markov kernels.

A coupling is built by ``_Coupling``, the one coupling builder, which the
Wasserstein program of ``relax`` shares.  A cell of infinite cost is no
variable: no coupling may use it.  ``optimal_coupling`` hands the coupling
straight to the spanning-tree transportation simplex of ``lp`` (no
``LpModel``, no presolve).  A positive-mass row or column without a finite
cell therefore keeps its mass on its artificial edge, as does any row that
Hall's condition leaves short, and the cost is inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import DimensionError, LpNumericalError
from .lp import FEAS_TOL, LpModel
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

# ``optimal_coupling`` calls no ``lp.solve``; the name is kept only because
# the benchmark's tracer (perfbench/tracing.py) wraps ``transport.solve``
solve = lp.solve


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
    if np.isnan(cost).any() or (cost < 0).any():
        raise DimensionError("cost entries must be in [0, inf]")
    return cost


class _Coupling:
    """Coupling blocks priced by one cost matrix, with the interface of the
    flow blocks of the Wasserstein program at p = 1 (``relax._EdgeFlow``).

    A block has one variable per finite cell (``cells``, indices into the
    flattened matrix), ``width`` in all; ``rows[a]`` and ``cols[b]`` hold
    the offsets in the block of row a's and column b's."""

    def __init__(self, cost: np.ndarray):
        n1, n2 = cost.shape
        flat = cost.reshape(-1).tolist()
        if INF in flat:
            self.cells = [k for k, c in enumerate(flat) if c != INF]
            self.rows, self.cols = [[] for _ in range(n1)], [[] for _ in range(n2)]
            for v, k in enumerate(self.cells):
                self.rows[k // n2].append(v)
                self.cols[k % n2].append(v)
            flat = [flat[k] for k in self.cells]  # the costs, in variable order
        else:  # cell k is variable k
            self.cells = range(len(flat))
            self.rows = [range(a * n2, a * n2 + n2) for a in range(n1)]
            self.cols = [range(b, len(flat), n2) for b in range(n2)]
        self.width = len(flat)
        self.cost = flat  # each variable's cost
        self.costs = [(v, c) for v, c in enumerate(flat) if c != 0.0]

    def add_block(self, model: LpModel, kind: str, key: str, first, second) -> list:
        """Add one coupling block: a variable ``pi<kind>_<key>_<cell>`` >= 0
        per finite cell and, for each row a with ``first[a] = (terms, rhs)``,
        the marginal row sum_b pi(a, b) + terms = rhs over the finite cells,
        named ``p<k>m1_<key>_<a>`` with <k> the first letter of ``kind``;
        ``second`` gives the column marginals (``p<k>m2``) the same way.
        Returns the block's cost terms."""
        start = model.num_vars
        for k in self.cells:
            model.add_variable(f"pi{kind}_{key}_{k}")
        for a, (terms, rhs) in enumerate(first):
            row = [(start + v, 1.0) for v in self.rows[a]]
            model.add_constraint(f"p{kind[0]}m1_{key}_{a}", row + terms, "=", rhs)
        for b, (terms, rhs) in enumerate(second):
            row = [(start + v, 1.0) for v in self.cols[b]]
            model.add_constraint(f"p{kind[0]}m2_{key}_{b}", row + terms, "=", rhs)
        return [(start + v, c) for v, c in self.costs]


def optimal_coupling(mu: MeasureData, nu: MeasureData, cost) -> OtResult:
    """Minimize sum(cost * pi) over pi >= 0 with row sums mu and column sums nu.

    The coupling goes straight to the spanning-tree transportation simplex
    (``lp._solve_tree``): one variable per finite cell, the rows mu's points
    and then nu's, cell (a, b) joining rows a and mu.n + b.  Infeasible (mass
    left on an artificial edge) is cost inf with no coupling.  The answer
    is checked here, outside the solver: each row sum must lie within
    ``FEAS_TOL`` of mu, each column sum within it of nu, and no entry below
    ``-FEAS_TOL``, else LpNumericalError is raised."""
    cost = _check_cost(cost, mu.n, nu.n)
    if abs(mu.total() - nu.total()) > TOL:
        raise DimensionError(
            f"couplings need equal mass: |mu| = {mu.total()}, |nu| = {nu.total()}"
        )
    n1, n2 = mu.n, nu.n
    net = _Coupling(cost)
    ends = [(k // n2, n1 + k % n2) for k in net.cells]
    _, flows = lp._solve_tree(mu.w.tolist() + nu.w.tolist(), net.cost, ends,
                              lp._components(n1 + n2, ends))
    if flows is None:
        return OtResult(INF, None)
    values = np.array(flows)
    # exact 0 on the forbidden cells; one array, no reshaped view of another
    coupling = np.zeros((n1, n2))
    np.put(coupling, net.cells, values)
    gap = np.abs(np.concatenate([coupling.sum(axis=1) - mu.w, coupling.sum(axis=0) - nu.w]))
    if not gap.max(initial=0.0) <= FEAS_TOL:
        raise LpNumericalError(f"coupling misses its marginals by {gap.max():.3e}")
    if not coupling.min(initial=0.0) >= -FEAS_TOL:
        raise LpNumericalError(f"coupling has an entry of {coupling.min():.3e}")
    return OtResult(float(np.array(net.cost) @ values), coupling)


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
    Each kernel row is read as the probability measure it stands for: the
    entries ``FiniteKernel`` lets down to ``-TOL`` are taken as 0 and the
    row is divided by its sum, so two rows that each sum to 1 within ``TOL``
    carry equal mass.
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
        row = optimal_coupling(_row_measure(m.p[x]), _row_measure(n.p[x]), costp)
        couplings[x] = row.coupling
        total += ext_mul(float(muX.w[x]), row.cost)
        if total == INF:
            return OtResult(INF, None)
    return OtResult(ext_root(total, p), couplings)


def _row_measure(row: np.ndarray) -> MeasureData:
    """A kernel row as a probability measure: clipped at 0, summing to 1."""
    w = np.maximum(row, 0.0)
    return MeasureData(len(w), w / w.sum())


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
