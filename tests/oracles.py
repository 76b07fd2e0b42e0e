"""Independent oracles used to derive expected values.

These deliberately avoid the code paths they check: the LP oracles
enumerate polytope vertices with dense linear algebra or call HiGHS (scipy,
a test-only dependency), transport values come from the vertex oracle,
shortest paths from explicit path enumeration, transformations from the
full product of component maps, and Hausdorff minima from that product with
a from-scratch weight formula.
"""

from __future__ import annotations

import contextlib
import itertools
import math

import numpy as np

INF = math.inf


# -- LP oracle: vertex enumeration --------------------------------------------


def _hyperplanes(model):
    """Rows of the polyhedron as (normal, rhs, kind) with kind in {eq, le, ge}."""
    n = model.num_vars
    planes = []
    for _, terms, rel, rhs in model.constraints:
        row = np.zeros(n)
        for idx, coef in terms:
            row[idx] += coef
        kind = {"=": "eq", "<=": "le", ">=": "ge"}[rel]
        planes.append((row, float(rhs), kind))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        planes.append((e, 0.0, "ge"))
        if math.isfinite(model.var_upper[i]):
            planes.append((e, float(model.var_upper[i]), "le"))
    return planes


def _feasible(planes, x, tol=1e-7):
    for row, rhs, kind in planes:
        v = row @ x - rhs
        if kind == "eq" and abs(v) > tol:
            return False
        if kind == "le" and v > tol:
            return False
        if kind == "ge" and v < -tol:
            return False
    return True


def _independent_rows(rows):
    """Greedy maximal linearly independent subset (indices)."""
    picked = []
    mat = None
    for i, r in enumerate(rows):
        cand = r[None, :] if mat is None else np.vstack([mat, r])
        if np.linalg.matrix_rank(cand, tol=1e-9) == cand.shape[0]:
            picked.append(i)
            mat = cand
    return picked


def enumerate_vertices(model, tol=1e-9):
    """All vertices of the feasible region (x >= 0 makes it pointed).

    A maximal independent set of equality planes is always active; the
    remaining active planes are chosen from the inequalities and bounds.
    Every candidate is checked against the full constraint list, so
    dependent equalities are still enforced.
    """
    n = model.num_vars
    planes = _hyperplanes(model)
    eqs = [(r, b) for r, b, k in planes if k == "eq"]
    others = [(r, b) for r, b, k in planes if k != "eq"]
    keep = _independent_rows([r for r, _ in eqs]) if eqs else []
    eq_rows = [eqs[i][0] for i in keep]
    eq_rhs = [eqs[i][1] for i in keep]
    vertices = []
    need = n - len(eq_rows)
    if need < 0:
        return []
    for combo in itertools.combinations(range(len(others)), need):
        rows = eq_rows + [others[i][0] for i in combo]
        rhs = eq_rhs + [others[i][1] for i in combo]
        A = np.asarray(rows).reshape(n, n)
        try:
            x = np.linalg.solve(A, np.asarray(rhs))
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        if _feasible(planes, x):
            if not any(np.allclose(x, v, atol=1e-7) for v in vertices):
                vertices.append(x)
    return vertices


def _recession_unbounded(model, tol=1e-9):
    """True when some recession direction has negative cost."""
    import cset_transport.lp as lpmod

    n = model.num_vars
    ray = lpmod.LpModel()
    for i, name in enumerate(model.var_names):
        upper = 0.0 if math.isfinite(model.var_upper[i]) else INF
        ray.add_variable(name, upper=upper)
    for cname, terms, rel, rhs in model.constraints:
        ray.add_constraint(cname, terms, rel if rel != "=" else "=", 0.0)
    ray.add_constraint("norm", [(i, 1.0) for i in range(n)], "=", 1.0)
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] = coef
    best = None
    for v in enumerate_vertices(ray):
        val = c @ v
        if best is None or val < best:
            best = val
    return best is not None and best < -1e-9


def brute_force_lp(model):
    """(status, objective) by vertex enumeration; independent of the simplex."""
    c = np.zeros(model.num_vars)
    for idx, coef in model.objective.items():
        c[idx] = coef
    vertices = enumerate_vertices(model)
    if not vertices:
        return "infeasible", None
    if _recession_unbounded(model):
        return "unbounded", None
    return "optimal", min(float(c @ v) for v in vertices)


def highs_solve(model):
    """(status, objective) from HiGHS through ``scipy.optimize.linprog``; a
    second, production-grade solver for programs too large to enumerate."""
    from scipy.optimize import linprog

    n = model.num_vars
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] += coef
    ub, b_ub, eq, b_eq = [], [], [], []
    for _, terms, rel, rhs in model.constraints:
        row = np.zeros(n)
        for idx, coef in terms:
            row[idx] += coef
        if rel == "=":
            eq.append(row)
            b_eq.append(rhs)
        else:
            sign = 1.0 if rel == "<=" else -1.0
            ub.append(sign * row)
            b_ub.append(sign * rhs)
    res = linprog(
        c,
        A_ub=np.array(ub) if ub else None,
        b_ub=b_ub or None,
        A_eq=np.array(eq) if eq else None,
        b_eq=b_eq or None,
        bounds=[(0.0, u if math.isfinite(u) else None) for u in model.var_upper],
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    if status is None:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return status, float(res.fun) if status == "optimal" else None


# -- solve recorder ------------------------------------------------------------


@contextlib.contextmanager
def recorded_solves():
    """Every LpSolution that ``relax`` gets from ``lp.solve`` inside the
    ``with`` block, in order: its ``solve`` is swapped for a recording one
    and restored on exit, so the recorder needs no pytest fixture and runs
    in a child process too.  (``optimal_coupling`` calls no ``lp.solve``:
    ``recorded_trees`` records its solves.)"""
    from cset_transport import lp, relax

    seen = []

    def recording(model):
        sol = lp.solve(model)
        seen.append(sol)
        return sol

    saved = relax.solve
    relax.solve = recording
    try:
        yield seen
    finally:
        relax.solve = saved


@contextlib.contextmanager
def recorded_trees():
    """Every ``(tree, flows)`` that ``lp._solve_tree`` returns inside the
    ``with`` block, in order, as ``recorded_solves`` records ``lp.solve``:
    the tree of each ``optimal_coupling`` call, for its counts."""
    from cset_transport import lp

    seen = []
    saved = lp._solve_tree

    def recording(*args):
        seen.append(saved(*args))
        return seen[-1]

    lp._solve_tree = recording
    try:
        yield seen
    finally:
        lp._solve_tree = saved


def tree_solve(model):
    """``lp._solve_tree`` on a transportation program given as a model whose
    rows are all equations with unit coefficients: the rows as they stand,
    and one edge per variable that no zero upper bound forbids, joining the
    two rows it sits in.  Returns the tree, for its counts, and the values
    of all the model's variables (0 on the forbidden ones), or None where
    the tree finds the program infeasible."""
    from cset_transport import lp

    free = [j for j, u in enumerate(model.var_upper) if u != 0.0]
    rows = {j: [] for j in free}
    for i, (_, terms, _, _) in enumerate(model.constraints):
        for j, _ in terms:
            if j in rows:
                rows[j].append(i)
    ends = [tuple(rows[j]) for j in free]
    m = len(model.constraints)
    tree, flows = lp._solve_tree([rhs for *_, rhs in model.constraints],
                                 [model.objective.get(j, 0.0) for j in free],
                                 ends, lp._components(m, ends))
    if flows is None:
        return tree, None
    values = np.zeros(model.num_vars)
    values[free] = flows
    return tree, values


def coupling_solve(mu, nu, cost):
    """The linear program that ``transport._Coupling`` builds for
    ``optimal_coupling(mu, nu, cost)``; ``lp.solve``'s solution of it, by
    the simplex, which makes it an oracle for ``optimal_coupling``'s tree;
    and that solution as an OtResult (cost inf and no coupling when
    infeasible, the coupling exact 0 on forbidden cells)."""
    from cset_transport import lp
    from cset_transport.transport import OtResult, _Coupling

    model = lp.LpModel()
    net = _Coupling(np.asarray(cost, dtype=float))
    rows = [([], w) for w in mu.w.tolist()]
    cols = [([], w) for w in nu.w.tolist()]
    for idx, c in net.add_block(model, "ot", "mu_nu", rows, cols):
        model.add_objective(idx, c)
    sol = lp.solve(model)
    if sol.status == "infeasible":
        return model, sol, OtResult(INF, None)
    coupling = np.zeros(mu.n * nu.n)
    coupling[net.cells] = sol.values
    return model, sol, OtResult(sol.objective, coupling.reshape(mu.n, nu.n))


def same_bits(a, b):
    """Whether two OtResults have the same cost, by repr, and the same
    coupling, byte for byte."""
    if repr(a.cost) != repr(b.cost) or (a.coupling is None) != (b.coupling is None):
        return False
    return a.coupling is None or (
        a.coupling.shape == b.coupling.shape and a.coupling.tobytes() == b.coupling.tobytes()
    )


# -- colour refinement by rounds ------------------------------------------------


def equitable_partition(start, adj):
    """The coarsest equitable partition by rounds: every node is recoloured
    at once by its colour and the sorted multiset of (colour, token) over
    the edges into it, until a round splits nothing.  Same contract as
    ``lp._equitable_partition``: ``adj[p]`` lists ``(q, token)``, and
    classes are numbered in order of first appearance."""
    into = [[] for _ in start]
    for p, edges in enumerate(adj):
        for q, t in edges:
            into[q].append((p, t))
    ids = {}
    col = [ids.setdefault(key, len(ids)) for key in start]
    while True:
        count, ids = len(ids), {}
        col = [ids.setdefault((col[q], *sorted((col[p], t) for p, t in edges)), len(ids))
               for q, edges in enumerate(into)]
        if len(ids) == count:
            return col


# -- transport oracle ----------------------------------------------------------


def brute_transport(mu, nu, cost):
    """Optimal transport value by vertex enumeration of the coupling polytope."""
    import cset_transport.lp as lpmod

    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    model = lpmod.LpModel()
    idx = {}
    for i in range(n):
        for j in range(m):
            if not math.isinf(cost[i, j]):
                idx[i, j] = model.add_variable(f"x{i}_{j}")
    for i in range(n):
        terms = [(idx[i, j], 1.0) for j in range(m) if (i, j) in idx]
        if not terms and mu[i] > 0:
            return INF
        model.add_constraint(f"r{i}", terms, "=", float(mu[i]))
    for j in range(m):
        terms = [(idx[i, j], 1.0) for i in range(n) if (i, j) in idx]
        if not terms and nu[j] > 0:
            return INF
        model.add_constraint(f"c{j}", terms, "=", float(nu[j]))
    best = None
    for v in enumerate_vertices(model):
        val = sum(cost[i, j] * v[k] for (i, j), k in idx.items())
        if best is None or val < best:
            best = val
    return INF if best is None else float(best)


# -- shortest paths by explicit path enumeration --------------------------------


def brute_shortest_paths(nv, src, tgt, weights=None):
    """d[i][j] = min total weight over directed paths of at most nv edges."""
    if weights is None:
        weights = [1.0] * len(src)
    d = np.full((nv, nv), INF)
    np.fill_diagonal(d, 0.0)
    # breadth-first over explicit paths, up to nv edges
    frontier = {(v,): 0.0 for v in range(nv)}
    for _ in range(nv):
        nxt = {}
        for path, cost in frontier.items():
            v = path[-1]
            for e in range(len(src)):
                if src[e] == v:
                    w = tgt[e]
                    c = cost + weights[e]
                    if c < d[path[0], w]:
                        d[path[0], w] = c
                    key = path + (w,)
                    if len(key) <= nv and (key not in nxt or nxt[key] > c):
                        nxt[key] = c
        frontier = nxt
    return d


# -- Hausdorff oracle ------------------------------------------------------------


def _all_maps(n_from, n_to):
    if n_from == 0:
        yield ()
        return
    yield from itertools.product(range(n_to), repeat=n_from)


def all_transformations(x, y):
    """Every transformation X -> Y, natural or not, in lexicographic order of
    component tuples (objects in declaration order); fixed objects are pinned
    to the identity."""
    from cset_transport.cset import Transformation

    objects = list(x.theory.objects)
    cands = [
        [tuple(range(x.sets[ob]))] if ob in x.fixed else list(_all_maps(x.sets[ob], y.sets[ob]))
        for ob in objects
    ]
    for combo in itertools.product(*cands):
        yield Transformation(dict(zip(objects, combo)))


def _lp_weight(x, y, comps, gen, p):
    """Naturality defect recomputed from scratch."""
    g = x.theory.generator(gen)
    d = y.metric(g.cod).d
    mu = x.measures.get(g.dom)
    xf = x.maps[gen]
    yf = y.maps[gen]
    cdom = comps[g.dom]
    ccod = comps[g.cod]
    vals = [float(d[ccod[xf[e]], yf[cdom[e]]]) for e in range(x.sets[g.dom])]
    if p == INF:
        picked = [v for e, v in enumerate(vals) if mu is None or mu.w[e] > 0]
        return max(picked, default=0.0)
    total = 0.0
    for e, v in enumerate(vals):
        w = mu.w[e]
        if w > 0:
            total += w * v**p if v != INF else INF
    return total ** (1.0 / p) if total != INF else INF


def brute_hausdorff(x, y, p, component_class="mm"):
    """Minimum aggregated weight over the full product of admissible maps."""
    from cset_transport.mm import is_measure_decreasing, is_short_map

    objects = list(x.theory.objects)
    cands = []
    for ob in objects:
        if ob in x.fixed:
            cands.append([tuple(range(x.sets[ob]))])
            continue
        ok = []
        for f in _all_maps(x.sets[ob], y.sets[ob]):
            arr = np.asarray(f, dtype=int)
            if component_class in ("met", "mm") and not is_short_map(
                arr, x.metric(ob), y.metric(ob)
            ):
                continue
            if component_class == "mm" and not is_measure_decreasing(
                arr, x.measure(ob), y.measure(ob)
            ):
                continue
            ok.append(f)
        cands.append(ok)
    best = INF
    for combo in itertools.product(*cands):
        comps = {ob: np.asarray(c, dtype=int) for ob, c in zip(objects, combo)}
        weights = [_lp_weight(x, y, comps, g.name, p) for g in x.theory.generators]
        if p == INF:
            agg = max(weights, default=0.0)
        else:
            tot = 0.0
            for w in weights:
                tot += w**p if w != INF else INF
            agg = tot ** (1.0 / p) if tot != INF else INF
        best = min(best, agg)
    return best


class _UnboundedSearch:
    """The exhaustive backtracking search without a lower bound: slots are
    component entries (objects in declaration order, elements ascending),
    candidates ascend, a term is added once both of its entries are set, and
    only a strict improvement replaces the incumbent."""

    def __init__(self, x, y, p, component_class):
        from cset_transport.mm import INF, TOL

        self.x, self.y, self.p, self.tol = x, y, p, TOL
        self.slots = [(ob, i) for ob in x.theory.objects for i in range(x.sets[ob])]
        slot_of = {s: k for k, s in enumerate(self.slots)}
        self.triggers = [[] for _ in self.slots]
        for g in x.theory.generators:
            for e in range(x.sets[g.dom]):
                s_dom = slot_of[g.dom, e]
                s_cod = slot_of[g.cod, int(x.maps[g.name][e])]
                self.triggers[max(s_dom, s_cod)].append((g, e))
        self.assign = {ob: np.full(x.sets[ob], -1) for ob in x.theory.objects}
        self.short = component_class in ("met", "mm")
        self.meas = component_class == "mm"
        self.push = {ob: np.zeros(y.sets[ob]) for ob in x.theory.objects}
        self.mu = {
            g.dom: x.measures.get(g.dom) if p == INF else x.measure(g.dom)
            for g in x.theory.generators
        }
        self.best, self.best_assign, self.nodes = INF, None, 0

    def _term(self, g, e):
        from cset_transport.mm import INF, ext_mul

        u = self.assign[g.dom][e]
        w = self.assign[g.cod][int(self.x.maps[g.name][e])]
        dval = self.y.metric(g.cod).d[w, int(self.y.maps[g.name][u])]
        mu = self.mu[g.dom]
        if mu is not None and mu.w[e] <= 0:
            return 0.0
        if self.p == INF:
            return dval
        return ext_mul(mu.w[e], INF if dval == INF else dval**self.p)

    def _admissible(self, ob, i, v):
        x, y, tol = self.x, self.y, self.tol
        if self.short:
            dX, dY = x.metric(ob).d, y.metric(ob).d
            for j, w in enumerate(self.assign[ob]):
                if w >= 0 and (dY[v, w] > dX[i, j] + tol or dY[w, v] > dX[j, i] + tol):
                    return False
        if self.meas:
            if self.push[ob][v] + x.measure(ob).w[i] > y.measure(ob).w[v] + tol:
                return False
        return True

    def dfs(self, k, acc):
        from cset_transport.mm import INF

        if acc >= self.best:
            return
        if k == len(self.slots):
            self.best = acc
            self.best_assign = {ob: a.copy() for ob, a in self.assign.items()}
            return
        ob, i = self.slots[k]
        values = [i] if ob in self.x.fixed else range(self.y.sets[ob])
        self.nodes += len(values)
        for v in values:
            if not self._admissible(ob, i, v):
                continue
            self.assign[ob][i] = v
            self.push[ob][v] += self.x.measure(ob).w[i] if self.meas else 0.0
            added = acc
            for g, e in self.triggers[k]:
                t = self._term(g, e)
                added = max(added, t) if self.p == INF else added + t
            self.dfs(k + 1, added)
            self.push[ob][v] -= self.x.measure(ob).w[i] if self.meas else 0.0
            self.assign[ob][i] = -1


def unbounded_hausdorff(x, y, p, component_class="mm"):
    """The Hausdorff distance, its lexicographically first minimizing
    transformation (None when the distance is infinite) and the number of
    nodes searched, by the search without a lower bound."""
    from cset_transport.cset import Transformation

    search = _UnboundedSearch(x, y, p, component_class)
    search.dfs(0, 0.0)
    if search.best_assign is None:
        return INF, None, search.nodes
    dist = search.best if p == INF else search.best ** (1.0 / p)
    return dist, Transformation(search.best_assign), search.nodes


# -- random generators -----------------------------------------------------------


def random_graph(rng, max_v=4, max_e=5, min_v=1):
    from cset_transport.cset import Instance
    from cset_transport.theory import builtin_theory

    nv = int(rng.integers(min_v, max_v + 1))
    ne = int(rng.integers(0, max_e + 1))
    return Instance(
        builtin_theory("Graph"),
        {"E": ne, "V": nv},
        {"src": rng.integers(0, nv, ne), "tgt": rng.integers(0, nv, ne)},
    )


def random_metric(rng, n, max_d=4.0, symmetric=False, inf_share=0.0):
    """Random Lawvere metric: min-plus closure of a nonnegative matrix, with
    about ``inf_share`` of the off-diagonal entries infinite before closure."""
    from cset_transport.mm import MetricData

    d = rng.uniform(0.5, max_d, size=(n, n))
    if symmetric:
        d = (d + d.T) / 2
    if inf_share:
        d[rng.random((n, n)) < inf_share] = INF
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return MetricData(n, d)


def random_measure(rng, n, max_w=2.0, zero_share=0.0):
    from cset_transport.mm import MeasureData

    w = rng.uniform(0.1, max_w, size=n)
    if zero_share:
        w[rng.random(n) < zero_share] = 0.0
    return MeasureData(n, w)


def random_kernel(rng, rows, cols):
    from cset_transport.markov import FiniteKernel

    p = rng.uniform(0.05, 1.0, size=(rows, cols))
    p /= p.sum(axis=1, keepdims=True)
    return FiniteKernel(rows, cols, p)
