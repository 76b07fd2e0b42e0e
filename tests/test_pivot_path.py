"""The simplex's pivot path, pinned: status, pivot count and objective of
programs the library builds.  A change of pricing, ratio test or tie-break
shows here as a changed pivot count.  The pinned solves run in a child
process with one BLAS thread, the setting the README advises, because the
path can depend on the thread count.  The transport programs were recorded
before the simplex iteration was rewritten for fewer array calls; their
colouring is discrete and their rows have nonzero right-hand sides, so
neither the colour-class quotient nor the doubleton and zero-forcing rules
of the presolve change their path.  The Wasserstein and feasibility
programs were re-recorded when ``solve`` began to solve on colour classes,
at the default BLAS thread count: W_1 C5->C6 went from 280 pivots to 3,
the W_2 digraph pair from 262 to 179 (180 with one OpenBLAS thread) and
fig5 from 13 to 8.  They were re-recorded again, with one thread, when the
presolve began to fold doubleton equations and fix the variables of
zero-forcing rows: the W_2 pair went from 180 pivots to 160 (objective
0.4999999999999998) and fig5 from 8 to 1; C5->C6 stays at 3.  They were
re-recorded once more, with one thread, when ``solve`` began to start
phase 1 from a least-cost triangular crash basis: C5->C6 went from 3
pivots to 2, the W_2 pair from 160 to 91 (objective 0.5000000000000001),
fig5 from 1 to 0, and the 20 transport programs from 4-11 pivots each to
0-3, with every objective unchanged.  Since ``solve`` answers
transportation problems on a spanning tree (``lp._Tree``), the transport
programs' counts are tree pivots: each is the same as the simplex's but
the 4x5 one with objective 1.688..., which went from 2 to 1; the pinned
objectives still hold within 1e-12.  The Wasserstein programs were
re-recorded, with one thread, when a dual simplex from the crash start
replaced phase 1: C5->C6 went from 2 pivots to 1 and the W_2 pair from 91
to 28 (objective 0.5); fig5 stays at 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cset_transport as ct
from cset_transport import lp, relax, transport
from cset_transport.gallery import directed_cycle
from cset_transport.theory import builtin_theory

from oracles import recorded_solves

HERE = Path(__file__).resolve().parent

# (n, m, pivots, objective) of optimal_coupling on _ot_problems()
OT_PATHS = [
    (6, 3, 2, 9.141067403430949),
    (5, 2, 0, 14.688359886547685),
    (5, 4, 0, 5.629471606158015),
    (4, 6, 2, 2.6516757975388265),
    (6, 2, 3, 14.478891667006346),
    (2, 6, 0, 3.951446167820116),
    (5, 3, 1, 5.1639639705929135),
    (6, 5, 3, 6.891569645593164),
    (3, 2, 1, 2.9211934250943137),
    (3, 3, 0, 1.4115925676524388),
    (6, 2, 2, 4.080387187875774),
    (4, 5, 1, 1.688165135197793),
    (4, 6, 1, 5.793683882105243),
    (5, 3, 2, 3.8387756833016518),
    (4, 5, 3, 4.971651277312234),
    (4, 2, 1, 12.407357985423802),
    (6, 5, 3, 4.485577898612084),
    (2, 4, 1, 1.262196161457444),
    (2, 4, 0, 4.916440231075441),
    (4, 2, 0, 10.414021385744595),
]


def _same_path(path, status, pivots, objective):
    assert tuple(path[:2]) == (status, pivots)
    if objective is None:
        assert path[2] is None
    else:
        assert path[2] == pytest.approx(objective, rel=1e-12, abs=1e-12)


def _digraph(rng, nv, ne, strong=False):
    """A seeded digraph as the benchmark draws them: shortest-path vertex
    metric, discrete edge metric, counting measures; ``strong`` routes the
    first nv edges along a random Hamiltonian cycle."""
    src, tgt = rng.integers(0, nv, ne), rng.integers(0, nv, ne)
    if strong:
        perm = rng.permutation(nv)
        src[:nv], tgt[:nv] = perm, np.roll(perm, -1)
    x = ct.Instance(builtin_theory("Graph"), {"E": ne, "V": nv}, {"src": src, "tgt": tgt})
    return x.with_data(
        metrics={"V": ct.shortest_path_metric(x), "E": ct.discrete_metric(ne)},
        measures={"V": ct.counting_measure(nv), "E": ct.counting_measure(ne)},
    )


def _ot_problems():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, m = (int(v) for v in rng.integers(2, 7, 2))
        mu, nu = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, m)
        nu *= mu.sum() / nu.sum()
        yield ct.MeasureData(n, mu), ct.MeasureData(m, nu), rng.uniform(0.0, 4.0, (n, m))


def _wasserstein_solves():
    rng = np.random.default_rng(4)
    x, y = _digraph(rng, 3, 4, strong=True), _digraph(rng, 4, 6)
    return [relax.wasserstein_cset_distance(directed_cycle(5), directed_cycle(6), 1.0)[0],
            relax.wasserstein_cset_distance(x, y, 2.0)[0]]


def _transport_solves():
    sizes = []
    for mu, nu, cost in _ot_problems():
        transport.optimal_coupling(mu, nu, cost)
        sizes.append((mu.n, nu.n))
    return sizes


def _feasibility_solves():
    load = ct.load_instance
    return [relax.markov_feasible(load("builtin:fig5x"), load("builtin:fig5y")) is not None,
            relax.markov_feasible(load("builtin:loop"), load("builtin:c3undirected")) is None]


FAMILIES = {
    "wasserstein": _wasserstein_solves,
    "transport": _transport_solves,
    "feasibility": _feasibility_solves,
}


def _record(family):
    """What one family's calls answer, and the (status, pivots, objective)
    of each solve they make."""
    with recorded_solves() as seen:
        answers = FAMILIES[family]()
    return answers, [(sol.status, sol.pivots, sol.objective) for sol in seen]


def _child(code, threads):
    """What ``code`` prints as JSON, run with this module in a child
    process with ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    paths = [str(HERE.parent / "src"), str(HERE), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def one_thread():
    """Every family's record, from a child process with one BLAS thread:
    LAPACK's inverse rounds differently at each thread count, which can
    flip near-ties in pricing and so the pivot path."""
    code = "import json, test_pivot_path as t; print(json.dumps({f: t._record(f) for f in t.FAMILIES}))"
    return _child(code, "1")


def test_wasserstein_pivot_paths(one_thread):
    answers, paths = one_thread["wasserstein"]
    assert answers[0] == 0.0 and answers[1] == pytest.approx(0.5**0.5)
    assert len(paths) == 2
    _same_path(paths[0], "optimal", 1, 0.0)
    _same_path(paths[1], "optimal", 28, 0.5)


def test_transport_pivot_paths(one_thread):
    sizes, paths = one_thread["transport"]
    assert len(paths) == len(OT_PATHS)
    for (n, m), path, (n_want, m_want, pivots, objective) in zip(sizes, paths, OT_PATHS):
        assert (n, m) == (n_want, m_want)
        _same_path(path, "optimal", pivots, objective)


def test_feasibility_pivot_paths(one_thread):
    answers, paths = one_thread["feasibility"]
    assert answers == [True, True]
    _same_path(paths[0], "optimal", 0, 0.0)
    _same_path(paths[1], "infeasible", 0, None)


def _empty_graph(nv):
    """A graph with ``nv`` vertices, no edges and counting measures."""
    x = ct.Instance(builtin_theory("Graph"), {"E": 0, "V": nv},
                    {"src": np.zeros(0, dtype=int), "tgt": np.zeros(0, dtype=int)})
    return x.with_data(measures={"V": ct.counting_measure(nv), "E": ct.counting_measure(0)})


# builtin pairs whose feasibility program the crash start answers
CERTIFIED_PAIRS = (("fig5x", "fig5y"), ("c6", "c3"), ("c2", "fig9x"))


def _solves_without_an_inverse():
    """(status, method, pivots, refactors, crashed, values) of the transport
    programs, of a measure-preserving feasibility program between edgeless
    graphs, whose rows are those of an assignment problem, and of the
    feasibility programs of ``CERTIFIED_PAIRS``."""
    load = ct.load_instance
    with recorded_solves() as seen:
        _transport_solves()
        relax.markov_feasible(_empty_graph(4), _empty_graph(4), measure_preserving=True)
        for x, y in CERTIFIED_PAIRS:
            relax.markov_feasible(load(f"builtin:{x}"), load(f"builtin:{y}"))
    return [(sol.status, sol.method, sol.pivots, sol.refactors, sol.crashed,
             sol.values.tolist()) for sol in seen]


def test_answers_without_an_inverse_do_not_depend_on_the_blas_thread_count():
    # the tree path makes no BLAS call, and neither does a simplex solve
    # whose crash start is already optimal: status, pivots and every value
    # agree bit for bit between one and two threads
    code = ("import json, test_pivot_path as t; "
            "print(json.dumps(t._solves_without_an_inverse()))")
    one, two = _child(code, "1"), _child(code, "2")
    assert len(one) == len(OT_PATHS) + 1 + len(CERTIFIED_PAIRS)
    tree, certified = one[:len(OT_PATHS) + 1], one[len(OT_PATHS) + 1:]
    assert all(sol[1] == "transport" for sol in tree)
    # the crash placed columns, so these programs reached it
    assert all(sol[:4] == ["optimal", "simplex", 0, 0] and sol[4] > 0 for sol in certified)
    assert one == two


def test_merged_counts():
    # the transport programs have distinct costs, so nothing merges; the
    # cycle program folds onto a handful of classes
    with recorded_solves() as solves:
        for problem in _ot_problems():
            transport.optimal_coupling(*problem)
        assert [(sol.merged_vars, sol.merged_rows) for sol in solves] == [(0, 0)] * len(OT_PATHS)
        relax.wasserstein_cset_distance(directed_cycle(5), directed_cycle(6), 1.0)
    sol = solves[-1]
    assert sol.merged_vars > 0 and sol.merged_rows > 0
    assert all(type(k) is int for k in (sol.merged_vars, sol.merged_rows))


def test_solution_counts():
    # pivots split in two: on the simplex into the dual simplex's and the
    # cleanup's, on the tree into those that enter on a negative artificial
    # price and the others; a simplex solve that pivoted has inverted a
    # basis before its verdict, and a tree is never inverted
    rng = np.random.default_rng(4)
    x, y = _digraph(rng, 3, 4, strong=True), _digraph(rng, 4, 6)
    with recorded_solves() as solves:
        relax.wasserstein_cset_distance(directed_cycle(5), directed_cycle(6), 1.0)
        for p in (1.0, 2.0):
            relax.wasserstein_cset_distance(x, y, p)
        for problem in _ot_problems():
            transport.optimal_coupling(*problem)
        relax.markov_feasible(ct.load_instance("builtin:fig5x"),
                              ct.load_instance("builtin:fig5y"))
        relax.markov_feasible(ct.load_instance("builtin:loop"),
                              ct.load_instance("builtin:c3undirected"))
    for sol in solves:
        assert len(sol.phase_pivots) == 2
        assert all(type(k) is int and k >= 0 for k in sol.phase_pivots)
        assert sum(sol.phase_pivots) == sol.pivots
        assert type(sol.refactors) is int
        if sol.method == "simplex":
            assert sol.refactors >= 1 or sol.pivots == 0
        else:
            assert sol.refactors == 0
    simplex = [sol for sol in solves if sol.method == "simplex"]
    tree = [sol for sol in solves if sol.method == "transport"]
    assert any(sol.phase_pivots[0] for sol in simplex)
    assert any(sol.phase_pivots[1] for sol in tree)
    # the presolve answers this one: no simplex at all
    assert (solves[-1].pivots, solves[-1].refactors) == (0, 0)


def _stream(m):
    return np.random.default_rng(0).uniform(0.5, 1.0, m)


@pytest.mark.parametrize("m", [1, 5, 64, 200, 1000])
def test_perturbation_pattern_is_a_prefix_of_one_stream(m):
    got = lp._perturbation(m)
    assert np.array_equal(got, _stream(m))
    assert not got.flags.writeable
    # a shorter pattern after a longer one is still the prefix
    assert np.array_equal(lp._perturbation(3), _stream(3))


def test_perturbation_pattern_grows_past_its_length(monkeypatch):
    drawn = _stream(8)
    drawn.flags.writeable = False
    monkeypatch.setattr(lp, "_pattern", drawn)
    # below the drawn length: a view of the same draw
    got = lp._perturbation(5)
    assert np.shares_memory(got, drawn) and np.array_equal(got, _stream(5))
    # above it: a new, longer draw of the same stream
    got = lp._perturbation(9)
    assert lp._pattern.size >= 16 and not lp._pattern.flags.writeable
    assert np.array_equal(got, _stream(9))
    assert np.array_equal(lp._pattern, _stream(lp._pattern.size))
