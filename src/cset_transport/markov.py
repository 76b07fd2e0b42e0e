"""Finite Markov kernels and their algebra: composition, measure action,
products, couplings, disintegration, and the deterministic embedding.

A kernel from a set of size r to a set of size c is an r x c row-stochastic
matrix.  Product spaces are indexed row-major: (y, z) -> y * n_z + z, a
convention shared with the LP variable layout in :mod:`relax`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cset import _check_integers, _json_fields, _matrix_from_json
from .errors import DimensionError, InstanceError
from .mm import TOL, MeasureData

__all__ = [
    "FiniteKernel",
    "JointMeasure",
    "MarkovTransformation",
    "compose_kernels",
    "apply_measure",
    "product_measure",
    "disintegrate",
    "is_coupling",
    "is_product",
    "independent_product",
    "embed_function",
    "is_deterministic",
    "identity_kernel",
    "uniform_kernel",
]

@dataclass(frozen=True, eq=False)
class FiniteKernel:
    """A row-stochastic matrix; rows may be zero only when the domain is empty."""

    rows: int
    cols: int
    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.shape != (self.rows, self.cols):
            raise DimensionError(f"kernel must be {self.rows}x{self.cols}, got {p.shape}")
        if not (p >= -TOL).all():  # NaN fails this test, and inf the row sums
            raise InstanceError("kernel entries must be finite and nonnegative")
        if self.rows and (np.abs(p.sum(axis=1) - 1.0) > TOL).any():
            bad = int(np.argmax(np.abs(p.sum(axis=1) - 1.0)))
            raise InstanceError(f"kernel row {bad} does not sum to 1")

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "p": self.p.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteKernel":
        """The kernel of ``to_json``'s form; sizes must be JSON integers and
        entries JSON numbers (0.7, "1" and true are refused)."""
        rows, cols, entries = _json_fields("kernel", data, ("rows", "cols", "p"))
        _check_integers("kernel rows and cols", [rows, cols])
        p = _matrix_from_json(entries)
        if not entries and cols >= 0:  # [] says nothing of cols
            p = p.reshape(0, cols)
        return cls(rows, cols, p)


@dataclass(frozen=True, eq=False)
class JointMeasure:
    """A nonnegative matrix of joint mass on a product of two finite sets."""

    m: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        object.__setattr__(self, "m", m)
        if m.ndim != 2:
            raise DimensionError("joint measure must be a matrix")
        if not np.all(np.isfinite(m)) or np.any(m < -TOL):
            raise InstanceError("joint measure entries must be finite and nonnegative")

    @property
    def shape(self):
        return self.m.shape


@dataclass(frozen=True, eq=False)
class MarkovTransformation:
    """Per-object kernels X(c) -> Y(c); the probabilistic analogue of a
    transformation."""

    components: dict[str, FiniteKernel]

    def to_json(self) -> dict:
        return {ob: k.to_json() for ob, k in self.components.items()}


def identity_kernel(n: int) -> FiniteKernel:
    return FiniteKernel(n, n, np.eye(n))


def uniform_kernel(rows: int, cols: int) -> FiniteKernel:
    if cols == 0 and rows > 0:
        raise DimensionError("no kernel into the empty set")
    return FiniteKernel(rows, cols, np.full((rows, cols), 1.0 / cols if cols else 0.0))


def compose_kernels(m: FiniteKernel, n: FiniteKernel) -> FiniteKernel:
    if m.cols != n.rows:
        raise DimensionError(f"cannot compose {m.rows}x{m.cols} with {n.rows}x{n.cols}")
    return FiniteKernel(m.rows, n.cols, m.p @ n.p)


def apply_measure(mu: MeasureData, m: FiniteKernel) -> MeasureData:
    """Pushforward mu . m; preserves total mass."""
    if mu.n != m.rows:
        raise DimensionError(f"measure of size {mu.n} does not match kernel rows {m.rows}")
    return MeasureData(m.cols, mu.w @ m.p)


def product_measure(mu: MeasureData, m: FiniteKernel) -> JointMeasure:
    """Joint mass (x, y) -> mu(x) * m(y | x); marginals are mu and mu . m."""
    if mu.n != m.rows:
        raise DimensionError(f"measure of size {mu.n} does not match kernel rows {m.rows}")
    return JointMeasure(mu.w[:, None] * m.p)


def disintegrate(pi: JointMeasure) -> tuple[MeasureData, FiniteKernel]:
    """Factor a joint measure into its first marginal and a conditional kernel.

    Rows of zero mass get the uniform distribution, which is as good as any:
    the factorization is only unique on rows of positive mass.
    """
    rows, cols = pi.shape
    w = pi.m.sum(axis=1)
    p = np.empty((rows, cols))
    for i in range(rows):
        if w[i] > 0:
            p[i] = pi.m[i] / w[i]
        else:
            if cols == 0:
                raise DimensionError("cannot disintegrate a joint measure with empty second factor")
            p[i] = 1.0 / cols
    return MeasureData(rows, w), FiniteKernel(rows, cols, p)


def is_coupling(pi: FiniteKernel, m: FiniteKernel, n: FiniteKernel) -> bool:
    """pi: X -> Y x Z (row-major) has marginal m along Y and n along Z."""
    if m.rows != n.rows or pi.rows != m.rows or pi.cols != m.cols * n.cols:
        raise DimensionError(
            f"coupling shape {pi.rows}x{pi.cols} does not match "
            f"kernels {m.rows}x{m.cols} and {n.rows}x{n.cols}"
        )
    cube = pi.p.reshape(pi.rows, m.cols, n.cols)
    return bool(
        np.all(np.abs(cube.sum(axis=2) - m.p) <= TOL)
        and np.all(np.abs(cube.sum(axis=1) - n.p) <= TOL)
    )


def is_product(pi: FiniteKernel, m: FiniteKernel, n: FiniteKernel) -> bool:
    """pi: W x X -> Y x Z has marginal m along (W, Y) and n along (X, Z)."""
    if pi.rows != m.rows * n.rows or pi.cols != m.cols * n.cols:
        raise DimensionError(
            f"product shape {pi.rows}x{pi.cols} does not match "
            f"kernels {m.rows}x{m.cols} and {n.rows}x{n.cols}"
        )
    hyper = pi.p.reshape(m.rows, n.rows, m.cols, n.cols)
    marg_m = hyper.sum(axis=3)  # (W, X, Y); must equal m for every x
    marg_n = hyper.sum(axis=2)  # (W, X, Z); must equal n for every w
    return bool(
        np.all(np.abs(marg_m - m.p[:, None, :]) <= TOL)
        and np.all(np.abs(marg_n - n.p[None, :, :]) <= TOL)
    )


def independent_product(m: FiniteKernel, n: FiniteKernel) -> FiniteKernel:
    """The product kernel ((w, x), (y, z)) -> m(y|w) * n(z|x)."""
    hyper = m.p[:, None, :, None] * n.p[None, :, None, :]
    return FiniteKernel(m.rows * n.rows, m.cols * n.cols, hyper.reshape(m.rows * n.rows, -1))


def embed_function(f, cod: int) -> FiniteKernel:
    """The deterministic kernel x -> delta_{f(x)}."""
    f = np.asarray(f, dtype=int)
    if f.size and (f.min() < 0 or f.max() >= cod):
        raise DimensionError(f"function value out of range 0..{cod - 1}")
    p = np.zeros((f.shape[0], cod))
    p[np.arange(f.shape[0]), f] = 1.0
    return FiniteKernel(f.shape[0], cod, p)


def is_deterministic(m: FiniteKernel) -> bool:
    """Every row is a point mass."""
    if m.rows == 0:
        return True
    return bool(np.all(np.abs(m.p.max(axis=1) - 1.0) <= TOL))
