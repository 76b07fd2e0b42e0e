"""The two flagship linear programs: Markov-morphism feasibility (with the
measure-preserving variant) and the Wasserstein metric on metric measure
instances.

Infinite metric entries never reach the solver.  A coupling cell of
infinite cost is no variable, so the presolve of ``lp.solve`` answers
"infeasible" where that forbids every image of a point (the flows of p = 1
have no such cells).  Distance rows with an infinite right-hand
side are dropped as vacuous.  Total mass that would have to shrink, and the
identity on a fixed object that is not measure-decreasing, give an infinite
distance before the program is built; an infinite defect of a generator
between fixed objects gives one before it is solved.

Only the irreducible distance rows are built.  The row of a pair (x1, x2) is
dropped when some z has d(x1,z) > 0, d(z,x2) > 0 and
d(x1,z) + d(z,x2) <= d(x1,x2), in the raw domain metric d, compared exactly.
That row is implied: W_p on kernels obeys the directed triangle inequality
(glue the two optimal couplings), so
W_p(phi(x1), phi(x2)) <= W_p(phi(x1), phi(z)) + W_p(phi(z), phi(x2))
<= d(x1,z) + d(z,x2) <= d(x1,x2).  Both legs are strictly shorter than
d(x1,x2), so by induction on distance each is kept, vacuous or itself implied.
The strict "> 0" matters: a Lawvere metric may have d(a,b) = d(b,a) = 0 for
a != b, and a zero leg would let (a,c) and (b,c) each justify dropping the
other.  For unit shortest-path metrics only the edges remain.

For p = 1 each transport block is a flow, not a coupling.  The same rule
applied to the codomain metric d keeps its irreducible edges: pairs (a, b)
off the diagonal with d(a,b) finite and not split as above, weighted d(a,b).
Their shortest-path metric is d.  No path is shorter than d, by the triangle
inequality.  A pair at d(a,b) = 0 is never split, so it is an edge of weight
0.  A split pair has two positive, strictly shorter legs, so by induction on
distance it has a path of length d(a,b).  A pair at infinite distance has no
path, since a finite path would make the distance finite.  So W_1 under d
between equal-mass a and b is the cheapest flow f >= 0 on the edges with
out - in = a - b at every point (Beckmann's problem; Peyre & Cuturi,
Computational Optimal Transport, 2019, ch. 6).  By Kantorovich-Rubinstein
duality both programs have the same dual: potentials u maximizing
<u, b - a> with u(b') - u(a') <= d(a', b'), a condition that holds for all
pairs once it holds on the edges.  Directly: a coupling routed along
shortest paths is a flow of the same cost, and a flow splits into paths from
a to b and cycles of nonnegative weight, so it gives a coupling of no
greater cost.  An unreachable target needs no pin, because no flow reaches
it.  A block's n_y^2 coupling variables become one per edge (C5 -> C6: 6
edges instead of 36 cells).

Every transport block, coupling (``transport._Coupling``) or flow
(``_EdgeFlow``), is added by ``add_block(model, kind, key, first, second)``,
which takes each marginal per codomain point as ``(terms, rhs)`` and returns
the block's cost terms, so one loop builds the self-product blocks and one
the generator blocks, at every p.  A generator element of zero mass gets no
block: it costs nothing, while conservation rows, or a coupling without
its infinite cells, would demand that its two marginals reach each other.
A distance row with no cost term is not added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cset import Instance, _check_fixed, _check_same_theory
from .errors import InstanceError, LpNumericalError
from .hausdorff import HausdorffConfig, hausdorff_distance
from .lp import LpModel, LpSolution, solve
from .markov import FiniteKernel, MarkovTransformation, identity_kernel
from .mm import (
    INF,
    TOL,
    check_order,
    ext_pow,
    ext_pow_array,
    ext_root,
    is_measure_decreasing,
)
from .transport import _Coupling

__all__ = [
    "WassersteinProgram",
    "markov_feasibility_lp",
    "markov_feasible",
    "wasserstein_cset_lp",
    "wasserstein_cset_distance",
    "relaxation_gap",
    "WASSERSTEIN_CLASSES",
]

WASSERSTEIN_CLASSES = ("mm", "noshort")


# -- Markov-morphism feasibility ----------------------------------------------


def _phi_blocks(model: LpModel, x: Instance, y: Instance, objects) -> dict:
    """Create the stochastic-matrix variables for each object in ``objects``."""
    layout = {}
    for ob in objects:
        nx_, ny_ = x.sets[ob], y.sets[ob]
        start = model.num_vars
        for i in range(nx_):
            for j in range(ny_):
                model.add_variable(f"phi_{ob}_{i}_{j}")
        layout[ob] = (start, nx_, ny_)
    return layout


def _phi_var(layout, ob, i, j):
    start, _, ny_ = layout[ob]
    return start + i * ny_ + j


def _preimages(f: np.ndarray, n: int) -> list[list[int]]:
    """The preimage of each point 0..n-1 under the map ``f``, each in
    increasing order, from one pass over ``f``."""
    pre = [[] for _ in range(n)]
    for j, k in enumerate(f.tolist()):
        pre[k].append(j)
    return pre


def _feasibility_program(x: Instance, y: Instance, measure_preserving: bool):
    _check_same_theory(x, y)
    _check_fixed(x, y)
    t = x.theory
    model = LpModel()
    layout = _phi_blocks(model, x, y, t.objects)

    # Phi's entry (i, j) at ob is variable start + i * ny_ + j
    for ob in t.objects:
        start, nx_, ny_ = layout[ob]
        for i in range(nx_):
            row = start + i * ny_
            terms = [(row + j, 1.0) for j in range(ny_)]
            model.add_constraint(f"row_{ob}_{i}", terms, "=", 1.0)
    for ob in sorted(x.fixed):
        start, _, ny_ = layout[ob]
        for i in range(x.sets[ob]):
            model.add_constraint(f"pin_{ob}_{i}", [(start + i * ny_ + i, 1.0)], "=", 1.0)
    for g in t.generators:
        xf = x.maps[g.name].tolist()
        cod, _, ncod = layout[g.cod]
        dom, _, ndom = layout[g.dom]
        preim = _preimages(y.maps[g.name], y.sets[g.cod])
        for i in range(x.sets[g.dom]):
            row_cod, row_dom = cod + xf[i] * ncod, dom + i * ndom
            for k, js in enumerate(preim):
                # (Xf . Phi_cod)[i,k] = (Phi_dom . Yf)[i,k]
                terms = [(row_cod + k, 1.0)] + [(row_dom + j, -1.0) for j in js]
                model.add_constraint(f"nat_{g.name}_{i}_{k}", terms, "=", 0.0)
    if measure_preserving:
        for ob in t.objects:
            start, nx_, ny_ = layout[ob]
            w, muy = x.measure(ob).w.tolist(), y.measure(ob).w.tolist()
            for k in range(ny_):
                terms = [(start + i * ny_ + k, w[i]) for i in range(nx_)]
                model.add_constraint(f"mp_{ob}_{k}", terms, "=", muy[k])
    return model, layout


def markov_feasibility_lp(x: Instance, y: Instance, measure_preserving: bool = False) -> LpModel:
    """The feasibility program: row-stochastic Phi_c with every generator's
    naturality square commuting; objective identically zero."""
    model, _ = _feasibility_program(x, y, measure_preserving)
    return model


def _extract_phi(sol: LpSolution, layout, objects) -> dict[str, FiniteKernel]:
    """The kernel of each object in ``objects``, read off a solved point.
    ``lp.solve`` has checked its rows (stochastic, natural, measure) within
    ``FEAS_TOL`` and its values are >= 0; each row is divided by its sum, so
    that it meets ``FiniteKernel``'s own check at ``TOL``."""
    comps = {}
    for ob in objects:
        start, nx_, ny_ = layout[ob]
        mat = sol.values[start : start + nx_ * ny_].reshape(nx_, ny_)
        if nx_:
            mat = mat / mat.sum(axis=1)[:, None]
        comps[ob] = FiniteKernel(nx_, ny_, mat)
    return comps


def markov_feasible(
    x: Instance, y: Instance, measure_preserving: bool = False
) -> MarkovTransformation | None:
    """Solve the feasibility LP; on success return its row-stochastic,
    natural components, whose rows ``lp.solve`` has checked, else None."""
    model, layout = _feasibility_program(x, y, measure_preserving)
    sol = solve(model)
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise LpNumericalError(f"feasibility LP reported {sol.status}")
    return MarkovTransformation(_extract_phi(sol, layout, x.theory.objects))


# -- Wasserstein program -------------------------------------------------------


@dataclass
class WassersteinProgram:
    """The assembled linear program with its variable layout and the record of
    which blocks were eliminated and why."""

    model: LpModel
    layout: dict
    cost_vectors: dict
    eliminated: dict
    objective_constant: float
    p: float
    component_class: str
    structurally_infinite: str | None = None

    @property
    def pins(self) -> list[str]:
        """The kernel cells of infinite closed-form cost into a fixed object,
        bounded above by 0, which the presolve of ``lp.solve`` fixes at 0."""
        model = self.model
        return [name for name, u in zip(model.var_names, model.var_upper) if u == 0.0]


def _triangle_implied(d: np.ndarray) -> np.ndarray:
    """implied[x1, x2]: some z has d(x1,z) > 0, d(z,x2) > 0 and
    d(x1,z) + d(z,x2) <= d(x1,x2), with the sum compared exactly (the
    rounding error of the float sum is recovered by Knuth's two-sum)."""
    implied = np.zeros(d.shape, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf in the error term of inf sums
        for z in range(d.shape[0]):
            a, b = d[:, [z]], d[[z], :]
            s = a + b
            bv = s - a
            err = (a - (s - bv)) + (b - bv)
            within = (s < d) | ((s == d) & (err <= 0))
            implied |= within & (a > 0) & (b > 0)
    return implied


def _flow_form(p: float) -> bool:
    """Whether the transport blocks are flows on the codomain's irreducible
    edges, exact for W_1 only, rather than couplings."""
    return p == 1


class _EdgeFlow:
    """The irreducible edges (a, b) of a codomain metric d, weighted d(a, b);
    their shortest-path metric is d (see the module docstring).  A block has
    one variable per edge, ``width`` in all."""

    def __init__(self, d: np.ndarray):
        implied = _triangle_implied(d)
        n = d.shape[0]
        self.edges = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b and d[a, b] != INF and not implied[a, b]
        ]
        self.width = len(self.edges)
        self.weights = [float(d[a, b]) for a, b in self.edges]
        self.out = [[] for _ in range(n)]
        self.into = [[] for _ in range(n)]
        for k, (a, b) in enumerate(self.edges):
            self.out[a].append(k)
            self.into[b].append(k)

    def add_block(self, model: LpModel, kind: str, key: str, first, second) -> list:
        """Add one flow block between two marginals, each given per point y
        as ``(terms, rhs)``, meaning the marginal rhs - terms: a variable
        ``f<kind>_<key>_<a>_<b>`` >= 0 per edge and, for each point, the
        conservation row out(y) - in(y) = first(y) - second(y), named
        ``p<k>f_<key>_<y>`` with <k> the first letter of ``kind``.  Returns
        the block's cost terms."""
        start = model.num_vars
        for a, b in self.edges:
            model.add_variable(f"f{kind}_{key}_{a}_{b}")
        for yv, ((terms1, rhs1), (terms2, rhs2)) in enumerate(zip(first, second)):
            row = [(start + k, 1.0) for k in self.out[yv]]
            row += [(start + k, -1.0) for k in self.into[yv]]
            row += terms1 + [(idx, -a) for idx, a in terms2]
            model.add_constraint(f"p{kind[0]}f_{key}_{yv}", row, "=", rhs1 - rhs2)
        return [(start + k, w) for k, w in enumerate(self.weights) if w != 0.0]


def _require_data(x: Instance, y: Instance) -> None:
    t = x.theory
    for ob in t.objects:
        x.metric(ob)
        y.metric(ob)
        if ob not in x.fixed:
            x.measure(ob)
            y.measure(ob)
    for g in t.generators:
        if g.dom in x.fixed and g.dom not in x.measures:
            raise InstanceError(
                f"a measure on fixed object {g.dom!r} is needed to weight "
                f"the objective of generator {g.name!r}"
            )


def _check_fixed_spaces(x: Instance, y: Instance) -> None:
    for ob in sorted(x.fixed):
        dx, dy = x.metric(ob), y.metric(ob)
        if not np.array_equal(dx.d, dy.d):
            raise InstanceError(f"fixed object {ob!r} carries different metrics")


def _structural_infinity(x: Instance, y: Instance, p: float, component_class: str) -> str | None:
    """Check the arguments of the Wasserstein program, raising on bad ones,
    and say why the distance is infinite when that is known without
    building the program: under class ``mm`` a movable object's total mass
    shrinks, or the identity on a fixed object is not measure-decreasing.
    None if neither."""
    check_order(p, finite=True)
    if component_class not in WASSERSTEIN_CLASSES:
        raise ValueError(f"component_class must be one of {WASSERSTEIN_CLASSES}")
    _check_same_theory(x, y)
    _check_fixed(x, y)
    _require_data(x, y)
    _check_fixed_spaces(x, y)
    infinite = None
    if component_class == "mm":
        for ob in x.theory.objects:
            if ob not in x.fixed:
                mass_x, mass_y = x.measure(ob).total(), y.measure(ob).total()
                if mass_x > mass_y + TOL:
                    infinite = (
                        f"total mass on {ob!r} shrinks from {mass_x} "
                        f"to {mass_y}: no measure-decreasing kernel"
                    )
        for ob in sorted(x.fixed):
            if ob in x.measures and ob in y.measures:
                # the identity as a function: its pushforward is x's measure
                if not is_measure_decreasing(np.arange(x.sets[ob]), x.measure(ob), y.measure(ob)):
                    infinite = f"identity on fixed {ob!r} is not measure-decreasing"
    return infinite


def wasserstein_cset_lp(
    x: Instance, y: Instance, p: float, component_class: str = "mm"
) -> WassersteinProgram:
    """Assemble the Wasserstein program for d_{W,p}(x, y)^p.

    Simplifications applied while building:

    * a self-product block for an object is dropped when the domain metric is
      discrete (every kernel out of a discrete space is distance-decreasing);
    * a generator into a fixed object contributes a closed-form linear
      objective in the domain kernel instead of a coupling block;
    * distance rows with infinite right-hand side are dropped, and so is a
      distance row with no cost term;
    * a coupling cell of infinite cost gets no variable, and a kernel cell
      of infinite closed-form cost upper bound 0 (``pins`` lists those);
    * distance rows implied through an intermediate point by the triangle
      inequality are dropped (see the module docstring);
    * a generator element of zero mass gets no block;
    * for p = 1 each transport block is a min-cost flow on the irreducible
      edges of the codomain metric instead of a coupling (see the module
      docstring): per block, one variable per edge and one conservation row
      per codomain point, where a coupling has one variable per finite cell
      and two marginal rows per codomain point.  Either block's
      cost goes into the distance row or, weighted by the element's mass,
      into the objective.

    ``layout["pi_obj"][ob]`` is ``(start, pairs, width)`` and
    ``layout["pi_gen"][g]`` is ``(start, elements, width)``: the block of the
    k-th pair or element holds variables ``start + k*width`` up to
    ``start + (k+1)*width``.  A coupling block has one variable per finite
    cost cell, a flow block one per edge of ``layout["edges"][ob]``.  Only
    the elements of positive mass have blocks.

    With ``component_class="noshort"`` the measure-decreasing rows and the
    self-product blocks are omitted entirely; the value is then a general
    cost optimum, not a metric.
    """
    return _assemble(x, y, p, component_class, _structural_infinity(x, y, p, component_class))


def _assemble(
    x: Instance, y: Instance, p: float, component_class: str, infinite: str | None
) -> WassersteinProgram:
    """The program of :func:`wasserstein_cset_lp` for checked arguments,
    with ``infinite`` what :func:`_structural_infinity` said of them."""
    t = x.theory
    model = LpModel()
    movable = [ob for ob in t.objects if ob not in x.fixed]
    phi = _phi_blocks(model, x, y, movable)
    layout = {"phi": phi, "pi_obj": {}, "pi_gen": {}}
    eliminated = {"pi_obj": {}, "pi_gen": {}}
    constant = 0.0
    mm = component_class == "mm"

    # stochasticity and measure rows for each movable object
    for ob in movable:
        start, nx_, ny_ = phi[ob]
        for i in range(nx_):
            model.add_constraint(
                f"phirow_{ob}_{i}",
                [(_phi_var(phi, ob, i, j), 1.0) for j in range(ny_)],
                "=",
                1.0,
            )
        if mm:
            mux, muy = x.measure(ob), y.measure(ob)
            for k in range(ny_):
                terms = [(_phi_var(phi, ob, i, k), float(mux.w[i])) for i in range(nx_)]
                model.add_constraint(f"meas_{ob}_{k}", terms, "<=", float(muy.w[k]))

    # the flattened d^p over the product of each space with itself
    cost_vectors = {}
    for ob in t.objects:
        cost_vectors[ob] = {
            "delta_x": ext_pow_array(x.metric(ob).d.reshape(-1), p),
            "delta_y": ext_pow_array(y.metric(ob).d.reshape(-1), p),
        }
    builders: dict = {}

    def builder(ob):
        """The transport-block builder into ``ob``'s codomain, chosen by
        ``_flow_form`` and built once per object."""
        if ob not in builders:
            if _flow_form(p):
                builders[ob] = _EdgeFlow(y.metric(ob).d)
                layout.setdefault("edges", {})[ob] = builders[ob].edges
                eliminated.setdefault("flow", {})[ob] = (
                    f"W_1 as a flow on {builders[ob].width} of {y.sets[ob] ** 2} pairs"
                )
            else:
                n = y.sets[ob]
                builders[ob] = _Coupling(cost_vectors[ob]["delta_y"].reshape(n, n))
        return builders[ob]

    # self-product blocks carrying the distance-decreasing constraints
    if mm:
        for ob in movable:
            if x.metric(ob).is_discrete():
                eliminated["pi_obj"][ob] = "domain metric is discrete"
                continue
            nx_, ny_ = x.sets[ob], y.sets[ob]
            dX = cost_vectors[ob]["delta_x"]
            dY = cost_vectors[ob]["delta_y"]
            # a pair whose distance row is vacuous constrains nothing (any two
            # stochastic rows admit a coupling), so its sub-block is not
            # materialized: the diagonal, pairs at infinite domain distance,
            # and pairs dominating every finite codomain cost
            if ny_ and not np.isinf(dY).any():
                dominated = float(np.max(dY))
            else:
                dominated = INF
            candidates = [
                (x1, x2)
                for x1 in range(nx_)
                for x2 in range(nx_)
                if x1 != x2
                and dX[x1 * nx_ + x2] != INF
                and dX[x1 * nx_ + x2] < dominated
            ]
            # a row split by an intermediate point follows from the two
            # shorter rows (see the module docstring)
            implied = _triangle_implied(x.metric(ob).d)
            pairs = [(x1, x2) for (x1, x2) in candidates if not implied[x1, x2]]
            if not pairs:
                eliminated["pi_obj"][ob] = "all distance rows vacuous"
                continue
            if len(pairs) < nx_ * nx_:
                eliminated.setdefault("pi_obj_pairs", {})[ob] = (
                    f"kept {len(pairs)} of {nx_ * nx_} self-product rows; "
                    f"{len(candidates) - len(pairs)} implied by the triangle inequality"
                )
            net = builder(ob)
            layout["pi_obj"][ob] = (model.num_vars, pairs, net.width)
            for (x1, x2) in pairs:
                # the marginals phi(x1, .) and phi(x2, .)
                first = [([(_phi_var(phi, ob, x1, yv), -1.0)], 0.0) for yv in range(ny_)]
                second = [([(_phi_var(phi, ob, x2, yv), -1.0)], 0.0) for yv in range(ny_)]
                cost = net.add_block(model, "obj", f"{ob}_{x1}_{x2}", first, second)
                if cost:
                    model.add_constraint(
                        f"pod_{ob}_{x1}_{x2}", cost, "<=", float(dX[x1 * nx_ + x2])
                    )

    # generator blocks, or the closed form into fixed objects
    for g in t.generators:
        xf, yf = x.maps[g.name], y.maps[g.name]
        mux = x.measure(g.dom)  # present, by _require_data
        dcod = y.metric(g.cod).d
        if g.cod in x.fixed:
            # deterministic target leg: linear (or constant) closed form
            if g.dom in x.fixed:
                for i in range(x.sets[g.dom]):
                    w = float(mux.w[i])
                    cost = ext_pow(float(dcod[int(xf[i]), int(yf[i])]), p)
                    if w > 0 and cost == INF:
                        infinite = (
                            f"generator {g.name!r} between fixed objects has an "
                            f"infinite defect at element {i}"
                        )
                    elif w > 0:
                        constant += w * cost
                eliminated["pi_gen"][g.name] = "both endpoints fixed: constant defect"
                continue
            for i in range(x.sets[g.dom]):
                w = float(mux.w[i])
                if w <= 0:
                    continue
                for j in range(y.sets[g.dom]):
                    cost = ext_pow(float(dcod[int(xf[i]), int(yf[j])]), p)
                    idx = _phi_var(phi, g.dom, i, j)
                    if cost == INF:
                        model.var_upper[idx] = 0.0
                    elif cost != 0.0:
                        model.add_objective(idx, w * cost)
            eliminated["pi_gen"][g.name] = "codomain fixed: closed-form objective"
            continue

        nyc = y.sets[g.cod]
        net = builder(g.cod)
        elements = [i for i in range(x.sets[g.dom]) if mux.w[i] > 0]
        layout["pi_gen"][g.name] = (model.num_vars, elements, net.width)
        preim = _preimages(yf, nyc)
        for i in elements:
            # the marginals (Xf . Phi_cod)(i) and (Phi_dom . Yf)(i), the
            # latter Yf's point indicator when g.dom is fixed
            first = [([(_phi_var(phi, g.cod, int(xf[i]), yv), -1.0)], 0.0) for yv in range(nyc)]
            if g.dom in x.fixed:
                second = [([], 1.0 if int(yf[i]) == yv else 0.0) for yv in range(nyc)]
            else:
                second = [
                    ([(_phi_var(phi, g.dom, i, j), -1.0) for j in js], 0.0)
                    for js in preim
                ]
            w = float(mux.w[i])
            for idx, c in net.add_block(model, "gen", f"{g.name}_{i}", first, second):
                model.add_objective(idx, w * c)

    return WassersteinProgram(
        model,
        layout,
        cost_vectors,
        eliminated,
        constant,
        p,
        component_class,
        infinite,
    )


def wasserstein_cset_distance(
    x: Instance, y: Instance, p: float, component_class: str = "mm"
) -> tuple[float, MarkovTransformation | None]:
    """Solve the Wasserstein program; the distance is the p-th root of its
    value.  Structural impossibility or LP infeasibility yields inf; a pair
    that the mass tests already answer is not built."""
    if _structural_infinity(x, y, p, component_class) is not None:
        return INF, None
    prog = _assemble(x, y, p, component_class, None)
    if prog.structurally_infinite is not None:
        return INF, None
    sol = solve(prog.model)
    if sol.status == "infeasible":
        return INF, None
    if sol.status != "optimal":
        raise LpNumericalError(f"Wasserstein LP reported {sol.status}")
    value = max(sol.objective + prog.objective_constant, 0.0)
    comps = _extract_phi(sol, prog.layout["phi"], list(prog.layout["phi"]))
    for ob in sorted(x.fixed):
        comps[ob] = identity_kernel(x.sets[ob])
    return ext_root(value, p), MarkovTransformation(comps)


def relaxation_gap(
    x: Instance, y: Instance, p: float, cfg: HausdorffConfig | None = None
) -> tuple[float, float]:
    """(Wasserstein, Hausdorff) distances on the same data; the former can
    never exceed the latter."""
    cfg = cfg or HausdorffConfig()
    if cfg.component_class == "met":
        raise InstanceError("the Wasserstein side needs measures; use class mm or all")
    wcls = "mm" if cfg.component_class == "mm" else "noshort"
    hcfg = HausdorffConfig(p, cfg.component_class, "none", cfg.guard, cfg.force)
    dw, _ = wasserstein_cset_distance(x, y, p, wcls)
    return dw, hausdorff_distance(x, y, hcfg).distance
