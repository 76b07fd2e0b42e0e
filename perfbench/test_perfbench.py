"""Fast test of the benchmark itself: every workload's checks pass on a few
real answers and fail on corrupted ones; the tracer and the round
bookkeeping do what run.py relies on.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import cset_transport as ct  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from cset_transport.gallery import directed_cycle, weak_pair  # noqa: E402
from speed import PROBE_REF_S, Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

INF = math.inf


def passes_then_fails(op, corrupt, results=None):
    """The op's real answer passes its check; the corrupted one does not."""
    result = op.call()
    results = results or {op.name: result}
    op.check(result, results)
    with pytest.raises(checks.CheckFailed):
        op.check(corrupt(result), results)


def with_kernel(cert, ob, p):
    """A stand-in certificate with one component replaced; FiniteKernel
    itself would refuse a non-stochastic matrix."""
    comps = dict(cert.components)
    comps[ob] = SimpleNamespace(p=p)
    return SimpleNamespace(components=comps)


def with_witness(res, ob, f):
    comps = {k: v.copy() for k, v in res.witness.components.items()}
    comps[ob] = np.asarray(f)
    return dataclasses.replace(res, witness=ct.Transformation(comps))


# -- wasserstein-lp --------------------------------------------------------------


def test_cycle_closed_form_and_highs():
    op = wl.w_op("W C3->C5", "cycles", directed_cycle(3), directed_cycle(5), 1.0, 0.0)
    passes_then_fails(op, lambda r: (0.5, r[1]))
    plain = wl.w_op("W C3->C5", "cycles", directed_cycle(3), directed_cycle(5), 1.0)
    passes_then_fails(plain, lambda r: (0.25, r[1]))  # HiGHS says 0


def test_cycle_infinite_answer():
    op = wl.w_op("W C5->C3", "cycles", directed_cycle(5), directed_cycle(3), 1.0, INF)
    passes_then_fails(op, lambda r: (0.0, r[1]))
    plain = wl.w_op("W C5->C3", "cycles", directed_cycle(5), directed_cycle(3), 1.0)
    passes_then_fails(plain, lambda r: (7.0, r[1]))  # HiGHS: infeasible


def test_kernels_stochastic_and_measure_decreasing():
    op = wl.w_op("W C3->C4", "cycles", directed_cycle(3), directed_cycle(4), 1.0, 0.0)
    half = np.full((3, 4), 0.125)
    passes_then_fails(op, lambda r: (r[0], with_kernel(r[1], "V", half)))
    piled = np.zeros((3, 4))
    piled[:, 0] = 1.0  # every vertex onto vertex 0: mass 3 > 1
    passes_then_fails(op, lambda r: (r[0], with_kernel(r[1], "V", piled)))


def test_digraph_against_highs():
    rng = np.random.default_rng(5)
    for k in range(4):
        x, y = wl.digraph(rng, 3, 4, strong=True), wl.digraph(rng, 4, 6)
        op = wl.w_op(f"W digraph {k}", "digraphs", x, y, 2.0)
        passes_then_fails(op, lambda r: (1.5 if r[0] == INF else r[0] + 0.01, r[1]))


# -- hausdorff-search ------------------------------------------------------------


def test_weak_pair_closed_form_and_witness():
    op = wl.weak_op(3, 6, force=False)
    passes_then_fails(op, lambda r: dataclasses.replace(r, distance=r.distance + 1))
    # all of C_3 onto one vertex: not measure-decreasing under counting measures
    passes_then_fails(op, lambda r: with_witness(r, "V", [0, 0, 0]))
    # a different edge map changes the defect, which then differs from the distance
    passes_then_fails(op, lambda r: with_witness(r, "E", (r.witness.components["E"] + 1) % 6))


def test_guard_refusal_is_a_failure_not_a_wrong_answer():
    x, y = weak_pair(3, 6)
    op = wl.Op("refused", "guarded",
               lambda: ct.hausdorff_distance(x, y, ct.HausdorffConfig(guard=1)), lambda r, _: None)
    results = [[run.run_op(op)], [run.run_op(op)]]
    assert isinstance(results[0][0], wl.Failure) and results[0][0].kind == "GuardExceeded"
    assert run.verify([op], results) == (2, True)


# -- small-batch -----------------------------------------------------------------


def test_relaxation_and_attributed_pairs():
    rng = np.random.default_rng(3)
    x, y = wl.attributed_graph(rng, 2, 3), wl.attributed_graph(rng, 3, 4)
    h = wl.h_op("H vgraph", "small", x, y, 1.0)
    w = wl.w_op("W vgraph", "small", x, y, 1.0, pair_with="H vgraph")
    hr, wr = h.call(), w.call()
    results = {"H vgraph": hr, "W vgraph": wr}
    passes_then_fails(w, lambda r: (r[0] + 0.5, r[1]), results)
    passes_then_fails(h, lambda r: dataclasses.replace(r, distance=r.distance + 1), results)
    with pytest.raises(checks.CheckFailed):
        checks.relaxation((hr.distance + 1.0, None), hr)


def test_homomorphism_and_feasibility():
    c2, c4 = directed_cycle(2, "plain"), directed_cycle(4, "plain")
    hom = wl.Op("hom", "small", lambda: ct.find_homomorphism(c4, c2),
                lambda r, _: checks.homomorphism(c4, c2, r))
    passes_then_fails(hom, lambda r: ct.Transformation({"V": np.zeros(4, int), "E": np.zeros(4, int)}))
    passes_then_fails(hom, lambda r: None)
    feasible = wl.Op("feasible", "small", lambda: ct.markov_feasible(c2, c4),
                     lambda r, _: checks.feasibility(c2, c4, r))
    passes_then_fails(feasible, lambda r: None)
    passes_then_fails(feasible, lambda r: with_kernel(r, "E", np.eye(2, 4)))
    loop, tri = ct.gallery.loop(), ct.gallery.undirected_3cycle()
    none = wl.Op("infeasible", "small", lambda: ct.markov_feasible(loop, tri),
                 lambda r, _: checks.feasibility(loop, tri, r))
    uniform = ct.MarkovTransformation({ob: ct.uniform_kernel(1, 3) for ob in ("E", "V")})
    passes_then_fails(none, lambda r: uniform)


def test_transport():
    rng = np.random.default_rng(2)
    mu, nu, cost = wl.transport_problem(rng, 3, 4)
    op = wl.Op("ot", "small", lambda: ct.optimal_coupling(mu, nu, cost),
               lambda r, _: checks.transport(mu, nu, cost, r))
    passes_then_fails(op, lambda r: ct.OtResult(r.cost * 1.01, r.coupling))
    passes_then_fails(op, lambda r: ct.OtResult(r.cost, r.coupling * 1.01))


def bump_json(key):
    def corrupt(text):
        body = json.loads(text)
        body[key] = 0.0 if body[key] == "inf" else body[key] + 1.0
        return json.dumps(body)

    return corrupt


def test_operation_names_are_unique(tmp_path):
    assert run.WORKLOADS == wl.WORKLOADS
    for name in wl.WORKLOADS:
        ops = wl.build(name, 1, tmp_path)
        assert len({op.name for op in ops}) == len(ops)


def test_every_cli_answer(tmp_path):
    ops = {op.name: op for op in wl.cli_ops(np.random.default_rng(4), tmp_path)}
    out = {name: op.call() for name, op in ops.items()}
    exports = ("cli export-lp c2 c3", "cli export-lp loop c3undirected")
    corruptions = {
        "cli validate": lambda t: "bad\n",
        "cli hom": lambda t: "none\n",
        "cli markov-feasible loop": lambda t: "feasible\n",
        "cli markov-feasible fig5": lambda t: json.dumps({"feasible": False}),
        "cli hausdorff fig9": lambda t: "3\n",
        "cli wasserstein c2 c4": lambda t: "inf\n",
        "cli gap": lambda t: "wasserstein: 3\nhausdorff: 2\n",
        exports[0]: lambda t: out[exports[1]][1],
        exports[1]: lambda t: out[exports[0]][1],
        "cli hausdorff file": bump_json("distance"),
        "cli wasserstein file": bump_json("distance"),
        "cli ot": lambda t: repr(float(t) * 1.01),
        "cli wk": bump_json("cost"),
    }
    assert {"cli hausdorff fig9", "cli wasserstein c2 c4", "cli markov-feasible loop c3undirected"} <= set(ops)
    for name, op in ops.items():
        code, text = out[name]
        op.check((code, text), {})
        corrupt = next(f for prefix, f in corruptions.items() if name.startswith(prefix))
        with pytest.raises(checks.CheckFailed):
            op.check((code, corrupt(text)), {})
        with pytest.raises(checks.CheckFailed):
            op.check((1, text), {})


# -- bookkeeping -----------------------------------------------------------------


def test_rounds_must_repeat_the_first():
    values = iter([(0.0, None), (0.5, None)])
    op = wl.Op("flaky", "cycles", lambda: next(values), lambda r, _: None)
    assert run.verify([op], [[run.run_op(op)], [run.run_op(op)]]) == (1, False)


def test_tracer_spans_self_times_and_restore():
    original = ct.relax.solve
    tracer = Tracer()
    with tracer.installed():
        assert ct.relax.solve is not original
        tracer.round, tracer.family = 0, "cycles"
        ct.wasserstein_cset_distance(directed_cycle(2), directed_cycle(3), 1.0)
        ct.wasserstein_cset_distance(directed_cycle(3), directed_cycle(2), 1.0)
    assert ct.relax.solve is original
    m = tracer.metrics(1)
    assert m["lp.solves"] == 1 and m["relax.structural_inf"] == 1
    assert m["lp.solve_cycles_s"] == m["lp.solve_s"] > 0 and m["lp.solve_digraphs_s"] == 0
    assert m["lp.vars"] == 66 and m["lp.bound_rows"] == 0
    assert 0 <= m["relax.extract_s"] < m["lp.solve_s"] + m["relax.build_s"]


def test_scaled_clock_skips_probe_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    speed = Speed()
    with speed.running():
        c0, r0, p0 = speed.read(), time.process_time(), speed.probe_cpu
        while time.process_time() - r0 < 0.4:
            pass
        work = time.process_time() - r0 - (speed.probe_cpu - p0)
        scaled = speed.read() - c0
    assert signal.getsignal(signal.SIGALRM) is before
    assert speed.probes > 3
    # every probe of this run took between a quarter and four times the reference
    assert work * 0.25 < scaled < work * 4
    assert 0.25 < PROBE_REF_S / speed.last_probe < 4


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
