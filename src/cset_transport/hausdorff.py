"""Exact Hausdorff-style metric on C-set instances.

The distance minimizes, over admissible transformations, the l^p aggregate
over generators of each generator's naturality defect, where a defect is the
L^p distance between the two legs of the (possibly non-commuting) square.
Admissibility is a per-object component filter:

* ``met``: every component is a short map;
* ``mm``: every component is a short map and measure-decreasing;
* ``all``: no restriction (the values then need not satisfy the triangle
  inequality).

The search is an exhaustive backtracking over component entries in
lexicographic order, with exact incremental pruning, so the reported witness
is the lexicographically first minimizer over all admissible transformations.
Its size guard is a node budget, as in :func:`find_homomorphism`: one node is
one candidate value tried at one entry, and past ``guard`` nodes the search
raises GuardExceeded unless ``force`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cset import (
    SEARCH_NODE_GUARD,
    Instance,
    Transformation,
    _check_fixed,
    _check_same_theory,
)
from .errors import GuardExceeded, InstanceError
from .mm import INF, MeasureData, TOL, ext_mul, ext_root, lp_distance

__all__ = [
    "HausdorffConfig",
    "HausdorffResult",
    "transformation_weight",
    "hausdorff_distance",
    "classical_hausdorff",
    "discrete_hausdorff_is_hom",
    "COMPONENT_CLASSES",
]

COMPONENT_CLASSES = ("met", "mm", "all")
SYMMETRIZE_MODES = ("none", "max", "mean")


@dataclass(frozen=True)
class HausdorffConfig:
    p: float = 1.0
    component_class: str = "mm"
    symmetrize: str = "none"
    guard: int = SEARCH_NODE_GUARD
    force: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("order p must be >= 1")
        if self.component_class not in COMPONENT_CLASSES:
            raise ValueError(f"component_class must be one of {COMPONENT_CLASSES}")
        if self.symmetrize not in SYMMETRIZE_MODES:
            raise ValueError(f"symmetrize must be one of {SYMMETRIZE_MODES}")
        if self.guard <= 0:
            raise ValueError("guard must be positive")


@dataclass(frozen=True, eq=False)
class HausdorffResult:
    distance: float
    witness: Transformation | None
    per_generator_weights: dict[str, float] = field(default_factory=dict)


def _weight_measure(x: Instance, ob: str, p: float) -> MeasureData | None:
    if p == INF:
        return x.measures.get(ob)
    if ob not in x.measures:
        raise InstanceError(
            f"a measure on {ob!r} is required to aggregate weights at finite p"
        )
    return x.measures[ob]


def transformation_weight(x: Instance, y: Instance, t: Transformation, gen: str, p: float) -> float:
    """Naturality defect of ``t`` at one generator, measured in L^p."""
    g = x.theory.generator(gen)
    top = t.components[g.cod][x.maps[gen]]  # X(f) then t at cod
    bot = y.maps[gen][t.components[g.dom]]  # t at dom then Y(f)
    return lp_distance(top, bot, _weight_measure(x, g.dom, p), y.metric(g.cod), p)


def _check_data(x: Instance, y: Instance, cfg: HausdorffConfig) -> None:
    need_metrics = cfg.component_class in ("met", "mm")
    for ob in x.theory.objects:
        if need_metrics:
            x.metric(ob)
            y.metric(ob)
        if cfg.component_class == "mm":
            x.measure(ob)
            y.measure(ob)
    for g in x.theory.generators:
        y.metric(g.cod)
        _weight_measure(x, g.dom, cfg.p)


class _Search:
    """Backtracking minimization over admissible transformations.

    Slots are component entries in declaration order of objects, elements
    ascending; candidates per slot ascend, which makes the traversal
    lexicographic.  Weight terms are accumulated as soon as both entries of a
    generator-element pair are known; admissibility (shortness, measure
    decrease) is checked incrementally, both exactly.  Every candidate value
    tried at a slot is one node of the budget ``cfg.guard``.
    """

    def __init__(self, x, y, cfg):
        self.x, self.y, self.cfg = x, y, cfg
        self.p = cfg.p
        t = x.theory
        self.objects = list(t.objects)
        self.slots = []
        slot_of = {}
        for ob in self.objects:
            for i in range(x.sets[ob]):
                slot_of[ob, i] = len(self.slots)
                self.slots.append((ob, i))
        # term (f, e) fires when the later of its two entries is assigned
        self.triggers = [[] for _ in self.slots]
        for g in t.generators:
            for e in range(x.sets[g.dom]):
                s_dom = slot_of[g.dom, e]
                s_cod = slot_of[g.cod, int(x.maps[g.name][e])]
                self.triggers[max(s_dom, s_cod)].append((g, e))
        self.assign = {ob: np.full(x.sets[ob], -1) for ob in self.objects}
        self.short = cfg.component_class in ("met", "mm")
        self.meas = cfg.component_class == "mm"
        if self.meas:
            self.push = {ob: np.zeros(y.sets[ob]) for ob in self.objects}
        self.weight_mu = {
            g.dom: _weight_measure(x, g.dom, cfg.p) for g in t.generators
        }
        self.best = INF
        self.best_assign = None
        self.nodes = 0
        self.node_guard = INF if cfg.force else cfg.guard

    def _term(self, g, e):
        """mu-weighted p-th power (or sup term) of one naturality defect cell."""
        u = self.assign[g.dom][e]
        w = self.assign[g.cod][int(self.x.maps[g.name][e])]
        dval = self.y.metric(g.cod).d[w, int(self.y.maps[g.name][u])]
        mu = self.weight_mu[g.dom]
        if self.p == INF:
            if mu is not None and mu.w[e] <= 0:
                return 0.0
            return dval
        if mu.w[e] <= 0:
            return 0.0
        return ext_mul(mu.w[e], INF if dval == INF else dval**self.p)

    def _admissible(self, ob, i, v):
        if self.short:
            dX, dY = self.x.metric(ob).d, self.y.metric(ob).d
            comp = self.assign[ob]
            for j in range(self.x.sets[ob]):
                w = comp[j]
                if w < 0:
                    continue
                if dY[v, w] > dX[i, j] + TOL or dY[w, v] > dX[j, i] + TOL:
                    return False
        if self.meas:
            mu_x = self.x.measure(ob).w[i]
            if self.push[ob][v] + mu_x > self.y.measure(ob).w[v] + TOL:
                return False
        return True

    def run(self):
        self._dfs(0, 0.0)
        if self.best_assign is None:
            return INF, None
        witness = Transformation({ob: arr.copy() for ob, arr in self.best_assign.items()})
        return self.best, witness

    def _agg(self, acc, term):
        return max(acc, term) if self.p == INF else acc + term

    def _dfs(self, k, acc):
        if acc > self.best or (acc == self.best and self.best_assign is not None):
            return
        if acc == INF and self.best == INF:
            return
        if k == len(self.slots):
            # the entry pruning guarantees this is a strict improvement
            self.best = acc
            self.best_assign = {ob: arr.copy() for ob, arr in self.assign.items()}
            return
        ob, i = self.slots[k]
        if ob in self.x.fixed:
            values = [i]
        else:
            values = range(self.y.sets[ob])
        self.nodes += len(values)
        if self.nodes > self.node_guard:
            raise GuardExceeded(
                f"Hausdorff search exceeded {self.cfg.guard} nodes; "
                "pass --force to search anyway",
                self.nodes,
            )
        for v in values:
            if not self._admissible(ob, i, v):
                continue
            self.assign[ob][i] = v
            if self.meas:
                self.push[ob][v] += self.x.measure(ob).w[i]
            added = acc
            ok = True
            for g, e in self.triggers[k]:
                added = self._agg(added, self._term(g, e))
                if added > self.best:
                    ok = False
                    break
            if ok:
                self._dfs(k + 1, added)
            if self.meas:
                self.push[ob][v] -= self.x.measure(ob).w[i]
            self.assign[ob][i] = -1


def hausdorff_distance(x: Instance, y: Instance, cfg: HausdorffConfig | None = None) -> HausdorffResult:
    """Exact Hausdorff distance from x to y under the configured component
    class, with the lexicographically first minimizing transformation as
    witness (witness omitted when the distance is infinite)."""
    cfg = cfg or HausdorffConfig()
    _check_same_theory(x, y)
    _check_fixed(x, y)
    _check_data(x, y, cfg)
    agg, witness = _Search(x, y, cfg).run()
    distance = agg if cfg.p == INF else ext_root(agg, cfg.p)
    weights = {}
    if witness is not None:
        weights = {
            g.name: transformation_weight(x, y, witness, g.name, cfg.p)
            for g in x.theory.generators
        }
    result = HausdorffResult(distance, witness, weights)

    if cfg.symmetrize != "none":
        back = hausdorff_distance(
            y, x, HausdorffConfig(cfg.p, cfg.component_class, "none", cfg.guard, cfg.force)
        )
        if cfg.symmetrize == "max":
            combined = max(result.distance, back.distance)
        else:
            combined = (
                INF
                if INF in (result.distance, back.distance)
                else 0.5 * (result.distance + back.distance)
            )
        return HausdorffResult(combined, result.witness, result.per_generator_weights)
    return result


def classical_hausdorff(xs: Instance, ys: Instance) -> float:
    """Hausdorff distance between attributed sets over a shared attribute
    space, in non-symmetric sup-inf form."""
    _check_same_theory(xs, ys)
    _check_fixed(xs, ys)
    t = xs.theory
    attrs = [g for g in t.generators if g.cod in xs.fixed]
    if len(t.generators) != 1 or len(attrs) != 1:
        raise InstanceError("classical form needs exactly one generator into a fixed object")
    g = attrs[0]
    dA_x, dA_y = xs.metric(g.cod), ys.metric(g.cod)
    if not np.array_equal(
        np.nan_to_num(dA_x.d, posinf=-1), np.nan_to_num(dA_y.d, posinf=-1)
    ):
        raise InstanceError("attribute spaces differ")
    ax, ay = xs.maps[g.name], ys.maps[g.name]
    if xs.sets[g.dom] == 0:
        return 0.0
    if ys.sets[g.dom] == 0:
        return INF
    return max(min(float(dA_x.d[a, b]) for b in ay) for a in ax)


def discrete_hausdorff_is_hom(x: Instance, y: Instance, guard: int = SEARCH_NODE_GUARD, force: bool = False) -> bool:
    """With discrete metrics everywhere, zero Hausdorff distance is the same
    thing as the existence of a homomorphism; this tests the distance."""
    for inst in (x, y):
        for ob in inst.theory.objects:
            if not inst.metric(ob).is_discrete():
                raise InstanceError(f"object {ob!r} does not carry the discrete metric")
    cfg = HausdorffConfig(p=INF, component_class="met", guard=guard, force=force)
    return hausdorff_distance(x, y, cfg).distance == 0.0
