"""Extended-real Lawvere metrics, finite measures, and the L^p metric on maps.

Distances live in [0, inf].  Only the identity law and the triangle
inequality are required; symmetry and positive definiteness are not.
The measure-theoretic convention 0 * inf = 0 is used everywhere, so
zero-mass points never contribute infinite cost.  For p >= 1,
inf ** p = inf in Python and numpy alike.  A finite power past the float
range is inf in numpy (with a warning) but raises OverflowError on Python
floats, so powers go through ``ext_pow`` (floats) or ``ext_pow_array``
(arrays), which return inf silently.

The library has two tolerance conventions.  ``TOL``, below, judges data
handed in (metric axioms, kernel rows, masses, short maps).  Solver output
is judged by ``lp.FEAS_TOL``, the residual ``lp.solve`` certifies on every
row of its model; ``lp.py`` keeps the solver's own table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InstanceError

__all__ = [
    "INF",
    "TOL",
    "check_order",
    "ext_mul",
    "ext_pow",
    "ext_pow_array",
    "ext_root",
    "MetricData",
    "MeasureData",
    "counting_measure",
    "uniform_measure",
    "discrete_metric",
    "shortest_path_metric",
    "is_short_map",
    "is_measure_decreasing",
    "lp_distance",
]

INF = math.inf
TOL = 1e-9


def check_order(p: float, finite: bool = False) -> None:
    """Reject an order p outside [1, inf] (NaN included); with ``finite``,
    reject p = inf as well."""
    if not 1 <= p <= INF:
        raise ValueError(f"order p must satisfy 1 <= p <= inf, got {p}")
    if finite and p == INF:
        raise ValueError("order p must be finite: the p = inf objective is not "
                         "linear in the coupling")


def ext_mul(a: float, b: float) -> float:
    """Product in [0, inf] with the convention 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def ext_pow(a: float, p: float) -> float:
    """a ** p in [0, inf]; a power past the float range is inf, as in numpy."""
    try:
        return a**p
    except OverflowError:
        return INF


def ext_pow_array(a: np.ndarray, p: float) -> np.ndarray:
    """Entrywise a ** p in [0, inf]; a power past the float range is inf,
    without numpy's overflow warning."""
    with np.errstate(over="ignore"):
        return np.asarray(a, dtype=float) ** p


def ext_root(a: float, p: float) -> float:
    """p-th root in [0, inf]; inf ** (1/p) = inf."""
    if a == INF:
        return INF
    return a ** (1.0 / p)


@dataclass(frozen=True, eq=False)
class MetricData:
    """A Lawvere metric on {0..n-1}: zero diagonal plus the triangle inequality."""

    n: int
    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", d)
        if d.shape != (self.n, self.n):
            raise DimensionError(f"metric matrix must be {self.n}x{self.n}, got {d.shape}")
        if np.any(np.isnan(d)) or np.any(d < 0):
            raise InstanceError("metric entries must be nonnegative (or inf)")
        if self.n and np.any(np.abs(np.diag(d)) > TOL):
            raise InstanceError("metric diagonal must be zero")
        for k in range(self.n):
            # d(i,j) <= d(i,k) + d(k,j) for all i,j
            if np.any(d > d[:, [k]] + d[[k], :] + TOL):
                i, j = np.argwhere(d > d[:, [k]] + d[[k], :] + TOL)[0]
                raise InstanceError(
                    f"triangle inequality fails: d({i},{j}) > d({i},{k}) + d({k},{j})"
                )

    def is_discrete(self) -> bool:
        """True when the metric is 0 on the diagonal and inf everywhere else."""
        off = ~np.eye(self.n, dtype=bool)
        return bool(np.isinf(self.d[off]).all())


@dataclass(frozen=True, eq=False)
class MeasureData:
    """A finite nonnegative measure on {0..n-1}, stored as a weight vector."""

    n: int
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "w", w)
        if w.shape != (self.n,):
            raise DimensionError(f"measure must have length {self.n}, got {w.shape}")
        if not (np.isfinite(w).all() and (w >= 0).all()):
            raise InstanceError("measure weights must be finite and nonnegative")

    def total(self) -> float:
        return float(self.w.sum())

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.w > 0)


def counting_measure(n: int) -> MeasureData:
    return MeasureData(n, np.ones(n))


def uniform_measure(n: int) -> MeasureData:
    if n == 0:
        return MeasureData(0, np.zeros(0))
    return MeasureData(n, np.full(n, 1.0 / n))


def _metric_by_construction(n: int, d: np.ndarray) -> MetricData:
    """A MetricData for an n x n float matrix that is a Lawvere metric by
    construction (a 0/inf matrix, a shortest-path closure), without the
    O(n^3) triangle check of the constructor."""
    metric = object.__new__(MetricData)
    object.__setattr__(metric, "n", n)
    object.__setattr__(metric, "d", d)
    return metric


def discrete_metric(n: int) -> MetricData:
    """0 on the diagonal, inf off it."""
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    return _metric_by_construction(n, d)


def shortest_path_metric(x, weights=None) -> MetricData:
    """All-pairs shortest directed path distance on the vertices of a graph-like
    instance (objects V, E with generators src, tgt); inf when unreachable.

    ``weights`` optionally gives a nonnegative length per edge; the default
    counts edges.
    """
    t = x.theory
    if not (t.has_object("V") and t.has_object("E")):
        raise InstanceError("shortest_path_metric needs objects V and E")
    try:
        src = x.maps["src"]
        tgt = x.maps["tgt"]
    except KeyError:
        raise InstanceError("shortest_path_metric needs generators src and tgt")
    n = x.sets["V"]
    m = x.sets["E"]
    if weights is None:
        weights = np.ones(m)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (m,):
            raise DimensionError(f"expected {m} edge weights, got {weights.shape}")
        if not np.all(weights >= 0):
            raise InstanceError("negative or NaN edge weight")
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for e in range(m):
        a, b = src[e], tgt[e]
        if weights[e] < d[a, b]:
            d[a, b] = weights[e]
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return _metric_by_construction(n, d)


def _as_matrix(k) -> np.ndarray:
    """Accept a FiniteKernel, a stochastic matrix, or a finite function array."""
    p = getattr(k, "p", k)
    p = np.asarray(p)
    if p.ndim == 1:
        # function given by its value array; caller supplies codomain via muY
        return p
    return p.astype(float)


def is_short_map(f, dX: MetricData, dY: MetricData) -> bool:
    """d_Y(f(i), f(j)) <= d_X(i, j) for every pair; inf on the right always passes."""
    f = np.asarray(f, dtype=int)
    if f.shape != (dX.n,):
        raise DimensionError(f"function has length {f.shape}, domain metric has n={dX.n}")
    if f.size and (f.min() < 0 or f.max() >= dY.n):
        raise DimensionError("function value out of range of the codomain metric")
    if dX.n == 0:
        return True
    dff = dY.d[np.ix_(f, f)]
    return bool(np.all(dff <= dX.d + TOL))


def is_measure_decreasing(k, muX: MeasureData, muY: MeasureData) -> bool:
    """Pushforward of muX along a function or kernel is <= muY entrywise,
    within ``TOL``."""
    p = _as_matrix(k)
    if p.ndim == 1:
        if p.shape != (muX.n,):
            raise DimensionError("function length does not match domain measure")
        if muX.n and p.size and (p.min() < 0 or p.max() >= muY.n):
            raise DimensionError("function value out of range of the codomain measure")
        push = np.bincount(p, weights=muX.w, minlength=muY.n) if muX.n else np.zeros(muY.n)
    else:
        if p.shape != (muX.n, muY.n):
            raise DimensionError(
                f"kernel shape {p.shape} does not match measures ({muX.n}, {muY.n})"
            )
        push = muX.w @ p
    return bool((push <= muY.w + TOL).all())


def lp_distance(f, g, muX: MeasureData | None, dY: MetricData, p: float) -> float:
    """L^p distance between functions f, g: X -> Y.

    For finite p this is (sum_x d_Y(f(x), g(x))^p mu(x))^(1/p); for p = inf it
    is the supremum of d_Y(f(x), g(x)) over the support of mu, or over all of X
    when no measure is given.
    """
    f = np.asarray(f, dtype=int)
    g = np.asarray(g, dtype=int)
    if f.shape != g.shape:
        raise DimensionError("functions have different domains")
    n = f.shape[0]
    if muX is not None and muX.n != n:
        raise DimensionError("measure does not match function domain")
    if f.size and (max(f.max(), g.max()) >= dY.n or min(f.min(), g.min()) < 0):
        raise DimensionError("function value out of range of the target metric")
    check_order(p)
    if p == INF:
        idx = np.arange(n) if muX is None else muX.support()
        if idx.size == 0:
            return 0.0
        return float(np.max(dY.d[f[idx], g[idx]]))
    if muX is None:
        raise InstanceError("a measure on the domain is required when p is finite")
    # plain floats, so the result is a float and not a numpy scalar
    total = 0.0
    dvals, w = dY.d[f, g].tolist(), muX.w.tolist()
    for i in range(n):
        total += ext_mul(w[i], ext_pow(dvals[i], p))
        if total == INF:
            return INF
    return ext_root(total, p)
