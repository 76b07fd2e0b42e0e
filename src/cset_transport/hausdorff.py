"""Exact Hausdorff-style metric on C-set instances.

The distance minimizes, over admissible transformations, the l^p aggregate
over generators of each generator's naturality defect, where a defect is the
L^p distance between the two legs of the (possibly non-commuting) square.
Admissibility is a per-object component filter:

* ``met``: every component is a short map;
* ``mm``: every component is a short map and measure-decreasing;
* ``all``: no restriction (the values then need not satisfy the triangle
  inequality).

The search is a branch and bound over component entries in lexicographic
order.  A branch is cut when its running aggregate, plus an admissible lower
bound on what its unassigned entries must still add, cannot strictly beat
the best transformation found so far.  The lower bound comes from the
naturality terms with one entry assigned: each charges its other entry, per
candidate value, what it would add, and each unassigned entry will add at
least the least of its summed charges.  Only branches without a strict improvement
are cut, and the traversal order is fixed, so the reported witness is the
lexicographically first minimizer over all admissible transformations.
Its size guard is a node budget: one node is one candidate value tried at one
entry, and past ``guard`` nodes the search raises GuardExceeded unless
``force`` is set.  The traversal keeps an explicit stack, so the number of
entries is not bounded by Python's recursion limit.

On a symmetric codomain the search would prove the same subtree once per
symmetric copy.  An automorphism of Y (a bijection on every object, natural,
the identity on fixed objects, and keeping every metric and measure of Y)
carries each admissible transformation to an admissible one with the same
naturality terms, hence the same aggregate.  So the lexicographically first
minimizer takes, at the first entry, the least value of its orbit, and the
search skips a first-entry candidate onto which a known automorphism maps an
earlier candidate (the lex-leader rule): every distance and witness stays
the same.  Automorphisms come from Y alone: its colour refinement, the
coarsest equitable partition that the LP quotient's classes come from too
(``lp._equitable_partition``), and a pin of one point to another that
propagates along Y's maps (McKay & Piperno, *Practical graph isomorphism
II*, 2014).  They count only once checked on
their own (:class:`_Orbits`).
They are looked for only when the search comes back to the first entry from
a subtree of at least |Y| nodes, the sum of Y's set sizes, so that small
searches pay little for them.

The same search answers :func:`find_homomorphism` at its zero level: at
p = inf over every transformation, with costs 0 where a naturality square
commutes and inf where it does not, only zero-defect branches are explored
and the lower bound cuts an entry that has no consistent candidate left.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul

import numpy as np

from .cset import (
    SEARCH_NODE_GUARD,
    Instance,
    Transformation,
    _check_fixed,
    _check_same_theory,
)
from .errors import GuardExceeded, InstanceError
from .lp import _equitable_partition
from .mm import INF, MeasureData, TOL, check_order, ext_pow, ext_root, lp_distance

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
        check_order(self.p)
        if self.component_class not in COMPONENT_CLASSES:
            raise ValueError(f"component_class must be one of {COMPONENT_CLASSES}")
        if self.symmetrize not in SYMMETRIZE_MODES:
            raise ValueError(f"symmetrize must be one of {SYMMETRIZE_MODES}")
        if self.guard <= 0:
            raise ValueError("guard must be positive")


@dataclass(frozen=True, eq=False)
class HausdorffResult:
    """The distance, the lexicographically first minimizing transformation
    (None when the distance is infinite), its defect per generator, the
    search nodes visited, the first entry's candidates skipped because an
    automorphism of Y maps an earlier candidate onto them, and the
    admissible candidates whose subtree the bound cut (each the sum of both
    searches when symmetrized)."""

    distance: float
    witness: Transformation | None
    per_generator_weights: dict[str, float]
    nodes: int
    symmetry_skips: int
    prunes: int


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


def _is_automorphism(y: Instance, sigma: dict) -> bool:
    """True when ``sigma``, the images of each object's points, is an
    automorphism of Y: a bijection on every object, the identity on fixed
    objects, natural on every generator, and exactly preserving every metric
    and measure Y carries.  What ``sigma`` leaves in place needs no check."""
    moved = {}
    for ob in y.theory.objects:
        images, points = list(sigma[ob]), list(range(y.sets[ob]))
        if images != points:
            if ob in y.fixed or sorted(images) != points:
                return False
            moved[ob] = images
    for g in y.theory.generators:
        if g.dom in moved or g.cod in moved:
            f = y.maps[g.name].tolist()
            dom, cod = moved.get(g.dom), moved.get(g.cod)
            if ([cod[b] for b in f] if cod else f) != ([f[a] for a in dom] if dom else f):
                return False
    for ob, images in moved.items():
        if ob in y.metrics:
            d = y.metrics[ob].d.tolist()
            if any([d[a][b] for b in images] != row for a, row in zip(images, d)):
                return False
        if ob in y.measures:
            w = y.measures[ob].w.tolist()
            if [w[a] for a in images] != w:
                return False
    return True


class _Orbits:
    """Orbits of one object of Y under the automorphisms of Y found so far,
    kept in a union-find whose roots are the least points of their orbits,
    and the colour refinement of Y that guides the search for those
    automorphisms.

    Points of Y are numbered object by object, ``0..N-1``.  Y's colours
    are the coarsest equitable partition (``lp._equitable_partition``) of a
    graph built with the orbits.  Points start coloured by object, measure
    and (on fixed objects) index.  An edge joins each point to its image
    under each generator, both ways, labelled by the generator and the
    direction; on an object whose metric is not constant off the diagonal,
    edges join each point to every point, labelled by the distance each
    way.  So the points of a class agree on how many of their images and
    preimages under each generator lie in each class, and on the multiset
    of metric distances to and from it, and no automorphism joins points of
    two colours.  To look for one sending ``r`` to ``v`` of the same
    colour, ``r`` is pinned to ``v``, and a pin carries each image of a
    point along to the same image of its partner.  The pins then propagate
    along Y's maps in the order they were made: a pinned point's preimages
    under each generator go to its partner's, each to the least one of its
    colour whose images agree with the pins so far.  When nothing is left
    to propagate, the least point not yet pinned goes to the least free
    point of its colour (parallel edges and disjoint copies, say, are paired
    like any other points).  A clash (a point taken twice, two colours, no
    preimage that fits) ends the try.  The
    bijection counts only once :func:`_is_automorphism` has checked it on
    its own; when no check passes, the points stay apart, which is always
    sound.
    """

    def __init__(self, y: Instance, ob: str):
        self.y, self.ob = y, ob
        self.parent = list(range(y.sets[ob]))
        objects = y.theory.objects
        start, n = {}, 0
        for c in objects:
            start[c] = n
            n += y.sets[c]
        self.start, self.n = start, n
        # per point, its image under each generator out of its object and its
        # preimages under each generator into it, generators in their order;
        # and the graph whose colour refinement guides the pairing: an edge
        # each way per image, labelled by the generator and its direction
        images = [[] for _ in range(n)]
        preimages = [[] for _ in range(n)]
        adj = [[] for _ in range(n)]
        for i, g in enumerate(y.theory.generators):
            s, t = start[g.dom], start[g.cod]
            up, down = (1, i), (2, i)
            into = [[] for _ in range(y.sets[g.cod])]
            for a, b in enumerate(y.maps[g.name].tolist()):
                images[s + a].append(t + b)
                into[b].append(s + a)
                adj[s + a].append((t + b, up))  # b counts a preimage in a's class
                adj[t + b].append((s + a, down))  # a counts its image in b's class
            for b, ps in enumerate(into):
                preimages[t + b].append(ps)
        self.images, self.preimages = images, preimages
        # the metric entries to and from every point of an object whose
        # points are not told apart from the start; a metric constant off the
        # diagonal holds for every bijection
        for c, metric in y.metrics.items():
            off = metric.d[~np.eye(metric.n, dtype=bool)]
            if c not in y.fixed and off.size and off.min() < off.max():
                first, d = start[c], metric.d.tolist()
                points = range(first, first + metric.n)
                for i, row in enumerate(d):
                    # each point q counts its distance to i, and i's to q
                    adj[first + i] += zip(points, zip(repeat(-1), [r[i] for r in d]))
                    adj[first + i] += zip(points, zip(repeat(-2), row))
        keys = []
        for c in objects:
            masses = y.measures[c].w.tolist() if c in y.measures else [None] * y.sets[c]
            keys += [(c, mass, i if c in y.fixed else -1) for i, mass in enumerate(masses)]
        self.cell_of = _equitable_partition(keys, adj)
        self.cells = [[] for _ in range(max(self.cell_of, default=-1) + 1)]
        for p, k in enumerate(self.cell_of):
            self.cells[k].append(p)
        self.colour = self.cell_of[start[ob]:start[ob] + y.sets[ob]]

    def _find(self, v: int) -> int:
        while self.parent[v] != v:
            v = self.parent[v]
        return v

    def pairing(self, r: int, v: int) -> dict[str, list[int]] | None:
        """The bijection of Y that pinning point ``r`` of the object to ``v``
        propagates to, or None when the propagation clashes."""
        images, preimages, colour, n = self.images, self.preimages, self.cell_of, self.n
        image, used, queue = [-1] * n, [False] * n, []

        def fits(a, b):
            # b is free and of a's colour, and each of its images is the one
            # a's image is pinned to, or free where a's is not pinned
            if used[b] or colour[a] != colour[b]:
                return False
            for s, t in zip(images[a], images[b]):
                if (t != image[s]) if image[s] >= 0 else used[t]:
                    return False
            return True

        def pin(a, b):
            # a goes to b and each image of a to the same image of b; False
            # on a clash
            todo = [(a, b)]
            while todo:
                a, b = todo.pop()
                if image[a] < 0:
                    if not fits(a, b):
                        return False
                    image[a], used[b] = b, True
                    queue.append(a)
                    todo += zip(images[a], images[b])
                elif image[a] != b:
                    return False
            return True

        p, q = self.start[self.ob] + r, self.start[self.ob] + v
        least = done = 0
        while pin(p, q):
            # a pinned point's images are pinned; its preimages go to those
            # of its image, each to the least that fits, in the order the
            # points were pinned.  Two points of one colour have as many
            # preimages under each generator, so none is left over
            while done < len(queue):
                p = queue[done]
                done += 1
                for ps, qs in zip(preimages[p], preimages[image[p]]):
                    for a in ps:
                        if image[a] < 0:
                            b = next((b for b in qs if fits(a, b)), -1)
                            if b < 0 or not pin(a, b):
                                return None
            while least < n and image[least] >= 0:
                least += 1
            if least == n:
                return {c: [b - s for b in image[s:s + self.y.sets[c]]] for c, s in self.start.items()}
            p = least
            q = min(b for b in self.cells[colour[p]] if not used[b])
        return None

    def covered(self, v: int, earlier: list[int], test: bool) -> bool:
        """True when a known automorphism maps a point below ``v`` onto it.
        With ``test``, first look for an automorphism sending one of the
        ``earlier`` points of ``v``'s colour to ``v``."""
        if test and self._find(v) == v:
            for r in earlier:
                if self._find(r) == r and self.colour[r] == self.colour[v]:
                    sigma = self.pairing(r, v)
                    if sigma is not None and _is_automorphism(self.y, sigma):
                        for a, b in enumerate(sigma[self.ob]):
                            ra, rb = self._find(a), self._find(b)
                            self.parent[max(ra, rb)] = min(ra, rb)
                        break
        return self._find(v) < v


class _Search:
    """Branch and bound over admissible transformations.

    Slots are component entries in declaration order of objects, elements
    ascending; candidates per slot ascend, which makes the traversal
    lexicographic.  A term ``(g, e)`` joins the slot of ``e`` at ``g.dom`` with
    the slot of ``X(g)(e)`` at ``g.cod``.  It fires when the later of the two
    is assigned, adding its mu-weighted cost to the aggregate ``acc``.
    Admissibility (shortness, measure decrease) filters each slot's
    candidates exactly.  Every candidate value tried at a slot, admissible
    or not, is one node of the budget ``cfg.guard``.

    The costs come from the caller, per generator, as ``charges(g,
    dom_first)``: rows indexed by the value of the entry assigned first,
    each indexed by the candidates of the other entry.  With ``dom_first``,
    row ``v`` holds the cost from each candidate to ``Y(g)(v)``; otherwise
    row ``u`` holds the cost from ``u`` to ``Y(g)`` of each candidate.  The
    cost is ``d^p`` for the Hausdorff distance, whose caller returns a shared
    column of its table per ``v`` and builds the rows read through ``Y(g)``
    once, |Y(g.dom)|·|Y(g.cod)| entries; and 0/inf for the homomorphism
    search, whose rows are built when read, so that its memory stays linear
    in ``|Y|``.  The search asks for each generator's rows once, and only for
    the kinds its terms need.

    A term is pending when exactly one of its slots is assigned.  It charges
    the other slot, per candidate, the value it would add: the row of the
    value assigned first, and the fire reads the same row at the candidate
    it takes.  ``lb`` sums over the unassigned slots the least,
    over candidates, of the summed charges (at p = inf: the max over slots of
    the least of the maxed charges), and a branch is cut when ``acc + lb``
    cannot strictly beat the incumbent.  At finite p the cut keeps a relative
    slack larger than the rounding of both sums, so rounding never cuts a
    branch where the plain search would find a strict improvement.  Assigning
    a slot pushes its charges onto the later slots; backtracking restores the
    saved sums and minimums instead of subtracting, since ``inf - inf`` is
    NaN.  A push is one C-level map that adds a row (times the term's weight,
    when that is not 1) to the slot's sums, the same floats in the same order
    as an element-by-element loop, so a node costs time linear in ``|Y|``.
    An admissible candidate whose subtree the bound cuts counts in
    ``prunes``.  The traversal keeps one frame per assigned slot on an
    explicit stack.  Slot 0's candidates come through :meth:`_first_slot`,
    which drops those that a known automorphism of Y maps an earlier
    candidate onto.
    """

    def __init__(self, x, y, cfg, charges):
        self.cfg = cfg
        self.inf_p = cfg.p == INF
        short = cfg.component_class in ("met", "mm")
        meas = cfg.component_class == "mm"
        t = x.theory
        slots, slot_of, self.spans = [], {}, {}
        for ob in t.objects:
            self.spans[ob] = (len(slots), x.sets[ob])
            for i in range(x.sets[ob]):
                slot_of[ob, i] = len(slots)
                slots.append((ob, i))
        n = len(slots)
        fixes = [i if ob in x.fixed else -1 for ob, i in slots]
        fire = [[] for _ in range(n)]
        pushes = [[] for _ in range(n)]
        nterms = 0
        for g in t.generators:
            xf = x.maps[g.name].tolist()
            mu = _weight_measure(x, g.dom, cfg.p)
            weights = [1.0] * x.sets[g.dom] if mu is None else mu.w.tolist()
            tables = {}  # the generator's rows, per kind, asked for once
            for e, w in enumerate(weights):
                if w <= 0:
                    continue  # adds and charges nothing
                nterms += 1
                s_dom, s_cod = slot_of[g.dom, e], slot_of[g.cod, xf[e]]
                dom_first = s_dom <= s_cod
                if dom_first not in tables:
                    tables[dom_first] = charges(g, dom_first)
                first, later = (s_dom, s_cod) if dom_first else (s_cod, s_dom)
                table = tables[dom_first]
                fire[later].append((first, w, table))
                if first < later:
                    # c and 1.0 * c are the same float, and p = inf reads no weight
                    scale = None if w == 1.0 or self.inf_p else w
                    pushes[first].append((later, fixes[later], scale, table))
        # shortness against the earlier entries of each component, per slot,
        # only for pairs that X's metric bounds one way or the other (an
        # infinite bound both ways holds for every candidate); and, for each
        # object with such checks, Y's metric and its transpose, as lists
        checks = [[] for _ in range(n)]
        dys = {}
        for ob in t.objects if short else ():
            d = x.metric(ob).d
            dx, (first, size) = d.tolist(), self.spans[ob]
            bounded = np.isfinite(d)
            ends = np.nonzero(bounded | bounded.T)
            for i, j in zip(ends[0].tolist(), ends[1].tolist()):
                if j < i:
                    checks[first + i].append((first + j, dx[i][j] + TOL, dx[j][i] + TOL))
            if any(checks[first:first + size]):
                dy = y.metric(ob).d
                dys[ob] = (dy.tolist(), dy.T.tolist())
        # per object: the mass pushed onto each point of Y so far, each
        # point's capacity, and X's masses
        pushed = {ob: ([0.0] * y.sets[ob], [w + TOL for w in y.measure(ob).w.tolist()],
                       x.measure(ob).w.tolist()) for ob in t.objects} if meas else {}
        # lists that are only ever replaced, never changed, are shared
        every = {ob: list(range(y.sets[ob])) for ob in t.objects}
        zeros = {ob: [0.0] * y.sets[ob] for ob in t.objects}
        self.info = []
        for k, (ob, i) in enumerate(slots):
            values = [i] if fixes[k] >= 0 else every[ob]
            dy, dyt = dys.get(ob, (None, None))
            push = cap = mass = None
            if meas:
                push, cap, masses = pushed[ob]
                mass = masses[i]
            self.info.append((values, checks[k], dy, dyt, push, cap, mass, fire[k], pushes[k]))
        self.n = n
        self.val = [-1] * n
        # per slot, the sum (max at p = inf) of its charges per candidate,
        # and the slot's share of lb: nothing is charged yet, and an empty
        # set of Y has no candidate
        self.sums = [zeros[ob] for ob, _ in slots]
        self.mins = [0.0 if y.sets[ob] else INF for ob, _ in slots]
        # each sum adds at most n + nterms non-negative floats, so it lies
        # within (n + nterms) * eps / 2 of its exact value, relatively
        self.slack = 1.0 + 2 * (n + nterms + 1) * sys.float_info.epsilon
        self.nodes = 0
        self.y, self.first = y, slots[0][0] if slots else None
        self.symmetry_skips = 0
        self.node_guard = INF if cfg.force else cfg.guard

    def _first_slot(self, values):
        """Slot 0's candidates, less each one that a known automorphism of Y
        maps an earlier candidate onto.  Automorphisms are looked for only
        when the search comes back from a subtree of at least |Y| nodes, the
        sum of Y's set sizes."""
        orbits, grown, earlier = None, 0, []
        size = sum(self.y.sets.values())
        for v in values:
            test = grown >= size
            if test and orbits is None:
                orbits = _Orbits(self.y, self.first)
            if orbits is not None and orbits.covered(v, earlier, test):
                self.symmetry_skips += 1
                continue
            earlier.append(v)
            mark = self.nodes
            yield v
            grown = self.nodes - mark

    def run(self):
        n, info, val = self.n, self.info, self.val
        sums, mins, inf_p, slack = self.sums, self.mins, self.inf_p, self.slack
        combine = max if inf_p else add
        best, best_val, prunes = INF, None, 0
        # one frame per assigned slot: its candidates left, the aggregate
        # before the slot, the candidate it holds and what assigning that
        # changed (the saved sums, the mass it had before)
        frames, added, descend = [], 0.0, True
        while True:
            if descend:
                k = len(frames)
                if k == n:
                    # the cuts guarantee this is a strict improvement; costs
                    # are non-negative, so none follows an aggregate of 0
                    best, best_val = added, val[:]
                    if best == 0:
                        break
                else:
                    values, checks, dy, dyt, push, cap, mass, _, _ = info[k]
                    self.nodes += len(values)
                    if self.nodes > self.node_guard:
                        raise GuardExceeded(
                            f"Hausdorff search exceeded {self.cfg.guard} nodes; "
                            "pass --force to search anyway",
                            self.nodes,
                        )
                    for j, a, b in checks:
                        into, out = dyt[val[j]], dy[val[j]]
                        values = [v for v in values if into[v] <= a and out[v] <= b]
                    if push is not None:
                        values = [v for v in values if push[v] + mass <= cap[v]]
                    if frames or len(values) < 2:
                        candidates = iter(values)
                    else:
                        candidates = self._first_slot(values)
                    frames.append([candidates, added, -1, (), 0.0])
            if not frames:
                break
            k = len(frames) - 1
            frame = frames[k]
            candidates, acc, v, saved, before = frame
            _, _, _, _, push, _, mass, fire, pushes = info[k]
            if v >= 0:  # take back the candidate searched below
                for s, old, m in reversed(saved):
                    sums[s], mins[s] = old, m
                if push is not None:
                    push[v] = before
            descend = False
            for v in candidates:
                val[k] = v
                if push is not None:
                    before = push[v]
                    push[v] = before + mass
                added = acc
                for j, w, table in fire:
                    term = table[val[j]][v]
                    if inf_p:
                        added = max(added, term)
                    else:
                        added += w * term
                    if added > best:
                        break
                if added < best:
                    saved = []
                    for s, f, scale, table in pushes:
                        row = table[v]
                        if scale is not None:
                            row = map(mul, repeat(scale), row)
                        old = sums[s]
                        new = list(map(combine, old, row))
                        saved.append((s, old, mins[s]))
                        sums[s] = new
                        mins[s] = new[f] if f >= 0 else min(new, default=INF)
                    if inf_p:
                        descend = max(mins[k + 1:], default=0.0) < best
                    else:
                        descend = added + sum(mins[k + 1:]) < best * slack
                    if descend:
                        frame[2:] = v, saved, before
                        break
                    for s, old, m in reversed(saved):
                        sums[s], mins[s] = old, m
                prunes += 1
                if push is not None:
                    push[v] = before
            else:
                frames.pop()
        self.prunes = prunes
        if best_val is None:
            return INF, None
        witness = Transformation({
            ob: np.array(best_val[start:start + size], dtype=int)
            for ob, (start, size) in self.spans.items()
        })
        return best, witness


def hausdorff_distance(x: Instance, y: Instance, cfg: HausdorffConfig | None = None) -> HausdorffResult:
    """Exact Hausdorff distance from x to y under the configured component
    class, with the lexicographically first minimizing transformation as
    witness (witness omitted when the distance is infinite)."""
    cfg = cfg or HausdorffConfig()
    _check_same_theory(x, y)
    _check_fixed(x, y)
    _check_data(x, y, cfg)
    # d^p of each codomain metric (d itself at p = 1, where v ** 1.0 is v,
    # and at p = inf), as nested lists by rows and by columns
    tables = {}
    for ob in {g.cod for g in x.theory.generators}:
        d = y.metric(ob).d.tolist()
        if cfg.p not in (1, INF):
            d = [[ext_pow(v, cfg.p) for v in row] for row in d]
        tables[ob] = (d, [list(c) for c in zip(*d)])

    def charges(g, dom_first):
        # a column of the table per dom value, shared; or a row of the table
        # read through Y(g), built once
        rows, cols = tables[g.cod]
        yf = y.maps[g.name].tolist()
        if dom_first:
            return [cols[b] for b in yf]
        return [[row[c] for c in yf] for row in rows]

    search = _Search(x, y, cfg, charges)
    agg, witness = search.run()
    distance = agg if cfg.p == INF else ext_root(agg, cfg.p)
    weights = {}
    if witness is not None:
        weights = {
            g.name: transformation_weight(x, y, witness, g.name, cfg.p)
            for g in x.theory.generators
        }
    result = HausdorffResult(
        distance, witness, weights, search.nodes, search.symmetry_skips, search.prunes
    )

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
        return HausdorffResult(
            combined, result.witness, result.per_generator_weights, result.nodes + back.nodes,
            result.symmetry_skips + back.symmetry_skips, result.prunes + back.prunes,
        )
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
    if not np.array_equal(dA_x.d, dA_y.d):
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
