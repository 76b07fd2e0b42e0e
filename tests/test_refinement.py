"""One colour refinement for the LP quotient and for Y's orbits:
``lp._equitable_partition`` against the round-based reference of
``oracles``, on seeded labelled digraphs and on the programs the library
builds, and the contracts of its two callers."""

import numpy as np

import cset_transport as ct
from cset_transport import lp, relax
from cset_transport.cset import Instance
from cset_transport.errors import CsetTransportError
from cset_transport.gallery import BUILTIN_INSTANCE_NAMES
from cset_transport.hausdorff import _Orbits
from cset_transport.lp import LpModel
from cset_transport.mm import MetricData
from cset_transport.theory import builtin_theory

from oracles import equitable_partition

TOKENS = (0.0, -0.0, 1.0, 0.5, 1 / 3, 2.0)


def _random_graph(rng):
    """A labelled digraph with self-loops, parallel edges and float tokens:
    a random component, then 1 to 3 copies of it with their nodes shuffled
    together, so that the copies' nodes have classes to share."""
    size = int(rng.integers(1, 7))
    keys = [int(k) for k in rng.integers(0, 2, size)]
    count = int(rng.integers(0, 3 * size + 1))
    edges = [(int(p), int(q), TOKENS[t]) for p, q, t in
             zip(*(rng.integers(0, hi, count) for hi in (size, size, len(TOKENS))))]
    edges += edges[:2]  # parallel edges, the same token included
    copies = int(rng.integers(1, 4))
    node = rng.permutation(copies * size)
    start = [0] * (copies * size)
    adj = [[] for _ in start]
    for c in range(copies):
        for p in range(size):
            start[node[c * size + p]] = keys[p]
        for p, q, t in edges:
            adj[node[c * size + p]].append((int(node[c * size + q]), t))
    return start, adj


def _classes(col):
    """The partition as a set of frozensets of nodes."""
    classes = {}
    for p, k in enumerate(col):
        classes.setdefault(k, set()).add(p)
    return {frozenset(c) for c in classes.values()}


def test_random_digraphs_match_the_reference():
    rng = np.random.default_rng(41)
    merged = 0
    for _ in range(400):
        start, adj = _random_graph(rng)
        got = lp._equitable_partition(start, adj)
        assert got == equitable_partition(start, adj)
        merged += len(set(got)) < len(got)
        # the same partition, read as sets, in any node order
        perm = [int(p) for p in rng.permutation(len(start))]
        start2 = [None] * len(start)
        adj2 = [None] * len(start)
        for p, q in enumerate(perm):
            start2[q] = start[p]
            adj2[q] = [(perm[r], t) for r, t in adj[p]]
        moved = lp._equitable_partition(start2, adj2)
        assert _classes(moved) == {frozenset(perm[p] for p in c) for c in _classes(got)}
    assert merged > 100


def test_zero_and_negative_zero_are_one_token():
    # node 0 hands 0.0 to node 1 and -0.0 to node 2, which compare equal
    adj = [[(1, 0.0), (2, -0.0)], [], []]
    assert lp._equitable_partition([0, 1, 1], adj) == [0, 1, 1]
    assert equitable_partition([0, 1, 1], adj) == [0, 1, 1]
    adj = [[(1, 0.0), (2, 1.0)], [], []]
    assert lp._equitable_partition([0, 1, 1], adj) == [0, 1, 2]


def _program_graph(pre, live):
    """The graph ``lp._refine`` refines, written out again: live variables,
    then rows; each term an edge each way, labelled by its coefficient."""
    node = {j: k for k, j in enumerate(live)}
    start = [(0, pre.objective.get(j, 0.0)) for j in live]
    adj = [[] for _ in live]
    for r, (coef, rel, rhs) in enumerate(pre.rows, len(live)):
        start.append((1, rel, rhs))
        adj.append([(node[j], a) for j, a in coef.items()])
        for j, a in coef.items():
            adj[node[j]].append((r, a))
    return start, adj


def test_programs_of_builtin_pairs_match_the_reference():
    # the W_1, W_2 and feasibility programs of every ordered pair of
    # builtin instances that have them
    instances = [ct.load_instance(f"builtin:{name}") for name in BUILTIN_INSTANCE_NAMES]
    models = []
    for x in instances:
        for y in instances:
            for p in (1.0, 2.0):
                try:
                    prog = relax.wasserstein_cset_lp(x, y, p)
                except CsetTransportError:  # different theories, say
                    continue
                if prog.structurally_infinite is None:
                    models.append(prog.model)
            try:
                models.append(relax.markov_feasibility_lp(x, y))
            except CsetTransportError:
                pass
    refined = 0
    for model in models:
        pre = lp._presolve(model)
        if pre.infeasible:
            continue
        live = [j for j in range(model.num_vars) if not pre.is_fixed[j]]
        start, adj = _program_graph(pre, live)
        col = equitable_partition(start, adj)
        assert lp._equitable_partition(start, adj) == col
        # _refine's answer is the reference's classes, split into variables
        # and rows, or None where every variable is alone
        n = len(live)
        nv = len(set(col[:n]))
        if nv == n:
            assert lp._refine(pre, live) is None
        else:
            vcol, rcol = lp._refine(pre, live)
            assert [vcol[j] for j in live] == col[:n]
            assert rcol == [c - nv for c in col[n:]]
            refined += 1
    assert len(models) > 800 and refined > 200


def test_discrete_variables_keep_duplicate_rows_apart():
    # x0 and x1 cost alike, so _refine builds its graph; but their
    # coefficients differ, so each ends alone, and _refine answers None.  The
    # rows r0 and r1 are one class of the partition, and stay two rows
    m = LpModel()
    x0, x1 = m.add_variable("x0"), m.add_variable("x1")
    m.add_objective(x0, 1.0)
    m.add_objective(x1, 1.0)
    for name in ("r0", "r1"):
        m.add_constraint(name, [(x0, 1.0), (x1, 2.0)], ">=", 1.0)
    pre = lp._presolve(m)
    assert lp._equitable_partition(*_program_graph(pre, [0, 1])) == [0, 1, 2, 2]
    assert lp._refine(pre, [0, 1]) is None
    sol = lp.solve(m)
    assert (sol.status, sol.objective) == ("optimal", 0.5)
    assert (sol.merged_vars, sol.merged_rows) == (0, 0)


def test_orbits_tell_points_apart_by_the_metric_direction():
    # T is the identity, so only the metric can tell the three points
    # apart.  Each point is at distances 1, 1, 2, 2 to and from the others,
    # counted both ways; counted by direction, point 0 is at 1 and 1 to the
    # others, point 1 at 2 and 1, and point 2 at 2 and 2
    d = np.array([[0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [2.0, 2.0, 0.0]])
    both = [sorted([*np.delete(d[i], i), *np.delete(d[:, i], i)]) for i in range(3)]
    assert both == [[1.0, 1.0, 2.0, 2.0]] * 3
    y = Instance(builtin_theory("DDS"), {"*": 3}, {"T": [0, 1, 2]}, {"*": MetricData(3, d)})
    assert _Orbits(y, "*").colour == [0, 1, 2]
    y = Instance(builtin_theory("DDS"), {"*": 3}, {"T": [0, 1, 2]})
    assert _Orbits(y, "*").colour == [0, 0, 0]
