"""The benchmark's workloads: seeded inputs and the fixed list of operations
that one round runs.

Every operation calls the library through a module attribute at call time
(``ct.wasserstein_cset_distance``, ``cli.main``, ...), so that a traced run
can substitute timing wrappers without changing the operations.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import cset_transport as ct
from cset_transport import cli
from cset_transport.gallery import directed_cycle, line_metric, vertex_attributed_graph, weak_pair
from cset_transport.theory import builtin_theory

INF = math.inf
WORKLOADS = ("wasserstein-lp", "hausdorff-search", "small-batch")

# wasserstein-lp: directed-cycle pairs (the last three are answered inf by the
# mass test, without a solve) and seeded digraph pairs
CYCLE_PAIRS = ((3, 5), (4, 5), (4, 6), (5, 6), (5, 3), (6, 4), (6, 5))
DIGRAPH_PAIRS = 10

# hausdorff-search: weak pairs under the default guard, and forced.  The
# guarded (5, 8) is refused with GuardExceeded although the forced search
# answers 3 in about a second: the guard bounds a product of candidate
# counts, not the search.  It stays in as the workload's one failure.
GUARDED_PAIRS = ((4, 8), (5, 7), (5, 8))
FORCED_PAIRS = ((5, 8), (4, 10))

# small-batch: (vertices, edges) schedules, so that the seed changes the
# structure of each input but not the mix of sizes
VGRAPH_SIZES = tuple(itertools.product(range(1, 5), range(0, 6)))
VGRAPH_PAIRS = tuple(itertools.product(VGRAPH_SIZES, VGRAPH_SIZES))[::2]
GRAPH_SIZES = tuple(itertools.product(range(1, 5), range(0, 5)))
GRAPH_PAIRS = tuple(itertools.product(GRAPH_SIZES, GRAPH_SIZES))
OT_SIZES = tuple(itertools.product(range(2, 7), range(2, 7))) * 12


@dataclass
class Op:
    """One operation of a round.

    ``family`` tags the spans of a traced run; ``check(result, results)``
    raises ``checks.CheckFailed`` on a wrong result, where ``results`` maps
    every operation name of the round to its result; ``twin`` is the forced
    search of a guarded Hausdorff pair, run once by a traced run.
    """

    name: str
    family: str
    call: Callable[[], object]
    check: Callable[[object, dict], None]
    twin: Callable[[], object] | None = None


@dataclass(frozen=True)
class Failure:
    """An operation that raised instead of returning."""

    kind: str
    message: str


# -- inputs --------------------------------------------------------------------


def digraph(rng, nv: int, ne: int, strong: bool = False):
    """A random digraph with shortest-path vertex metric (inf where
    unreachable), discrete edge metric and counting measures.  ``strong``
    routes the first nv edges along a random Hamiltonian cycle."""
    src = rng.integers(0, nv, ne)
    tgt = rng.integers(0, nv, ne)
    if strong:
        perm = rng.permutation(nv)
        src[:nv], tgt[:nv] = perm, np.roll(perm, -1)
    x = ct.Instance(builtin_theory("Graph"), {"E": ne, "V": nv}, {"src": src, "tgt": tgt})
    return x.with_data(
        metrics={"V": ct.shortest_path_metric(x), "E": ct.discrete_metric(ne)},
        measures={"V": ct.counting_measure(nv), "E": ct.counting_measure(ne)},
    )


def plain_graph(rng, nv: int, ne: int):
    return ct.Instance(
        builtin_theory("Graph"),
        {"E": ne, "V": nv},
        {"src": rng.integers(0, nv, ne), "tgt": rng.integers(0, nv, ne)},
    )


def attributed_graph(rng, nv: int, ne: int):
    """The setup of acceptance criterion 4: discrete metrics on V and E,
    attributes in a 4-point line metric."""
    return vertex_attributed_graph(
        nv, rng.integers(0, nv, ne), rng.integers(0, nv, ne), rng.integers(0, 4, nv), line_metric(4)
    )


def transport_problem(rng, n: int, m: int):
    mu = rng.uniform(0.1, 2.0, n)
    nu = rng.uniform(0.1, 2.0, m)
    nu *= mu.sum() / nu.sum()
    return ct.MeasureData(n, mu), ct.MeasureData(m, nu), rng.uniform(0.0, 4.0, (n, m))


def cycle_json(rng, n: int, dressing: str) -> dict:
    """C_n with vertices and edges relabelled at random, as an instance file:
    ``weak`` carries discrete metrics, ``mm`` the shortest-path vertex metric."""
    perm = rng.permutation(n)
    order = rng.permutation(n)
    src, tgt = perm[order], perm[(order + 1) % n]
    vmetric = {"kind": "discrete"} if dressing == "weak" else {"kind": "shortest_path"}
    return {
        "theory": "Graph",
        "sets": {"V": n, "E": n},
        "maps": {"src": src.tolist(), "tgt": tgt.tolist()},
        "metrics": {"V": vmetric, "E": {"kind": "discrete"}},
        "measures": {"V": {"kind": "counting"}, "E": {"kind": "counting"}},
    }


# -- operations ----------------------------------------------------------------


def w_op(name, family, x, y, p, expected=None, pair_with=None) -> Op:
    """W_p(x, y); with ``pair_with``, also the relaxation inequality against
    that Hausdorff operation's result."""

    def check(result, results):
        checks.wasserstein(x, y, p, result, expected)
        if pair_with is not None and not isinstance(results[pair_with], Failure):
            checks.relaxation(result, results[pair_with])

    return Op(name, family, lambda: ct.wasserstein_cset_distance(x, y, p), check)


def search(x, y, p, force=False):
    return lambda: ct.hausdorff_distance(x, y, ct.HausdorffConfig(p=p, component_class="mm", force=force))


def h_op(name, family, x, y, p, force=False, expected=None) -> Op:
    return Op(name, family, search(x, y, p, force), lambda r, _: checks.hausdorff(x, y, p, r, expected))


def weak_op(m: int, n: int, force: bool) -> Op:
    """H_1 on weak_pair(m, n); a guarded search has the forced one as twin."""
    x, y = weak_pair(m, n)
    kind = "forced" if force else "guarded"
    op = h_op(f"H weak({m},{n}) {kind}", kind, x, y, 1.0, force, float(min(m, n - m)))
    if not force:
        op.twin = search(x, y, 1.0, force=True)
    return op


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_op(name, argv, check) -> Op:
    def check_output(result, _):
        code, text = result
        checks.require(code == 0, f"exit code {code}")
        check(text)

    return Op(name, "small", lambda: run_cli(list(argv)), check_output)


def expect_text(want: str):
    def check(text):
        checks.require(text.strip() == want, f"printed {text.strip()!r}, expected {want!r}")

    return check


def expect_json(key: str, want):
    """The JSON output's ``key`` is ``want``; ``"inf"`` is spelled out."""

    def check(text):
        got = json.loads(text)[key]
        ok = got == want if "inf" in (got, want) else checks.close(got, want, 1e-7)
        checks.require(ok, f"{key} = {got!r}, expected {want!r}")

    return check


def _export_value(want):
    """The exported program, parsed back and solved by HiGHS, has optimum
    ``want`` (None: infeasible)."""

    def check(text):
        opt = checks.highs_model(ct.parse_lp(text))
        checks.require(
            (opt is None) == (want is None) and (want is None or checks.close(opt, want)),
            f"HiGHS on the export: {opt}, expected {want}",
        )

    return check


def _natural_hom(x, y):
    def check(text):
        lines = text.splitlines()
        checks.require(lines[0] == "found", f"printed {lines[0]!r}")
        checks.check_natural_map(x, y, json.loads(lines[1]))

    return check


def _feasible_cert(x, y):
    def check(text):
        body = json.loads(text)
        checks.require(body["feasible"], "reported infeasible")
        cert = {ob: ct.FiniteKernel.from_json(k) for ob, k in body["certificate"].items()}
        checks.check_kernels(x, y, ct.MarkovTransformation(cert), measure_decreasing=False)
        checks.check_natural_kernels(x, y, ct.MarkovTransformation(cert))

    return check


def _gap(text):
    lines = dict(line.split(": ") for line in text.splitlines())
    dw, dh = float(lines["wasserstein"]), float(lines["hausdorff"])
    checks.require(dh == 2.0, f"hausdorff {dh}, closed form 2")
    checks.require(dw <= dh + checks.VALUE_TOL, f"wasserstein {dw} > hausdorff {dh}")


def _ot_file(problem):
    def check(text):
        want = checks.highs_transport(problem["mu"], problem["nu"], problem["cost"])
        checks.require(checks.close(float(text), want), f"OT {text.strip()}, HiGHS {want}")

    return check


def _wk_file(problem):
    def check(text):
        want = checks.kernel_wasserstein(
            np.asarray(problem["m"]["p"]), np.asarray(problem["n"]["p"]),
            problem["mu"], problem["d"], problem["p"],
        )
        got = json.loads(text)["cost"]
        checks.require(checks.close(got, want), f"W(kernels) {got}, HiGHS {want}")

    return check


# -- workloads -----------------------------------------------------------------


def wasserstein_inputs(rng):
    """(name, family, x, y, p, closed form or None) of each wasserstein-lp operation."""
    for m, n in CYCLE_PAIRS:
        yield f"W C{m}->C{n}", "cycles", directed_cycle(m), directed_cycle(n), 1.0, 0.0 if m <= n else INF
    for k in range(DIGRAPH_PAIRS):
        x = digraph(rng, 3, 4, strong=True)
        y = digraph(rng, 4, 6)
        yield f"W digraph {k}", "digraphs", x, y, 1.0 + k % 2, None


def wasserstein_lp(rng) -> list[Op]:
    return [w_op(*args) for args in wasserstein_inputs(rng)]


def hausdorff_search(rng) -> list[Op]:
    """The weak-pair list is fixed; the seed sets its order."""
    ops = [weak_op(m, n, False) for m, n in GUARDED_PAIRS]
    ops += [weak_op(m, n, True) for m, n in FORCED_PAIRS]
    return [ops[i] for i in rng.permutation(len(ops))]


def small_batch(rng, workdir: Path) -> list[Op]:
    ops = []
    for k, ((nv, ne), (mv, me)) in enumerate(VGRAPH_PAIRS):
        x, y = attributed_graph(rng, nv, ne), attributed_graph(rng, mv, me)
        p = 1.0 + k % 2
        ops.append(h_op(f"H vgraph {k}", "small", x, y, p))
        ops.append(w_op(f"W vgraph {k}", "small", x, y, p, pair_with=f"H vgraph {k}"))
    for k, ((nv, ne), (mv, me)) in enumerate(GRAPH_PAIRS):
        x, y = plain_graph(rng, nv, ne), plain_graph(rng, mv, me)
        ops.append(Op(f"hom {k}", "small", lambda x=x, y=y: ct.find_homomorphism(x, y),
                      lambda r, _, x=x, y=y: checks.homomorphism(x, y, r)))
        ops.append(Op(f"feasible {k}", "small", lambda x=x, y=y: ct.markov_feasible(x, y),
                      lambda r, _, x=x, y=y: checks.feasibility(x, y, r)))
    for k, (n, m) in enumerate(OT_SIZES):
        mu, nu, cost = transport_problem(rng, n, m)
        ops.append(Op(f"ot {k}", "small", lambda a=(mu, nu, cost): ct.optimal_coupling(*a),
                      lambda r, _, a=(mu, nu, cost): checks.transport(*a, r)))
    return ops + cli_ops(rng, workdir)


def cli_ops(rng, workdir: Path) -> list[Op]:
    """Every subcommand, on builtin instances (answers from the README) and
    on instance and problem files generated from the seed."""
    files = {}

    def write(name, data):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(data))
        files[name] = str(path)

    for m in (2, 3):
        write(f"weak{m}", cycle_json(rng, m, "weak"))
    for n in (2, 3, 4, 5, 6):
        write(f"c{n}", cycle_json(rng, n, "mm"))
    ot_problems = []
    for k, (n, m) in enumerate(((3, 4), (4, 4), (5, 3))):
        mu, nu, cost = transport_problem(rng, n, m)
        ot_problems.append({"mu": mu.w.tolist(), "nu": nu.w.tolist(), "cost": cost.tolist()})
        write(f"ot{k}", ot_problems[-1])
    wk_problems = []
    for k, (rows, cols) in enumerate(((2, 3), (3, 4))):
        m, n = (rng.uniform(0.05, 1.0, (rows, cols)) for _ in range(2))
        m /= m.sum(axis=1, keepdims=True)
        n /= n.sum(axis=1, keepdims=True)
        d = ct.shortest_path_metric(digraph(rng, cols, 2 * cols, strong=True)).d
        wk_problems.append({
            "m": {"rows": rows, "cols": cols, "p": m.tolist()},
            "n": {"rows": rows, "cols": cols, "p": n.tolist()},
            "mu": rng.uniform(0.2, 1.5, rows).tolist(), "d": d.tolist(), "p": 1 + k,
        })
        write(f"wk{k}", wk_problems[-1])

    fig5x, fig5y = ct.load_instance("builtin:fig5x"), ct.load_instance("builtin:fig5y")
    ops = [
        cli_op("cli validate c3", ["validate", "builtin:c3"], expect_text("ok")),
        cli_op("cli hom fig5", ["hom", "builtin:fig5x", "builtin:fig5y"], _natural_hom(fig5x, fig5y)),
        cli_op("cli markov-feasible loop c3undirected",
               ["markov-feasible", "builtin:loop", "builtin:c3undirected"], expect_text("infeasible")),
        cli_op("cli markov-feasible fig5", ["--format", "json", "markov-feasible", "builtin:fig5x", "builtin:fig5y"],
               _feasible_cert(fig5x, fig5y)),
        cli_op("cli hausdorff fig9", ["hausdorff", "builtin:fig9x", "builtin:fig9y", "--p", "1", "--class", "mm"],
               expect_text("2")),
        cli_op("cli wasserstein c2 c4", ["wasserstein", "builtin:c2", "builtin:c4", "--p", "1"], expect_text("0")),
        cli_op("cli gap fig9", ["gap", "builtin:fig9x", "builtin:fig9y", "--p", "1"], _gap),
        cli_op("cli export-lp c2 c3", ["export-lp", "builtin:c2", "builtin:c3", "--problem", "wasserstein"],
               _export_value(0.0)),
        cli_op("cli export-lp loop c3undirected", ["export-lp", "builtin:loop", "builtin:c3undirected"],
               _export_value(None)),
    ]
    ops += [cli_op(f"cli validate file {name}", ["validate", path], expect_text("ok"))
            for name, path in files.items() if name.startswith(("weak", "c"))]
    for m, n in ((2, 4), (2, 5), (3, 5), (3, 6)):
        ops.append(cli_op(f"cli hausdorff file weak{m} c{n}",
                          ["--format", "json", "hausdorff", files[f"weak{m}"], files[f"c{n}"]],
                          expect_json("distance", min(m, n - m))))
    for m, n, want in ((2, 4, 0), (3, 4, 0), (5, 3, "inf")):
        ops.append(cli_op(f"cli wasserstein file c{m} c{n}",
                          ["--format", "json", "wasserstein", files[f"c{m}"], files[f"c{n}"]],
                          expect_json("distance", want)))
    ops += [cli_op(f"cli ot file {k}", ["ot", files[f"ot{k}"]], _ot_file(prob)) for k, prob in enumerate(ot_problems)]
    # JSON output: the text form of a fractional wk cost is numpy's repr
    ops += [cli_op(f"cli wk file {k}", ["--format", "json", "wk", files[f"wk{k}"]], _wk_file(prob))
            for k, prob in enumerate(wk_problems)]
    return ops


def seeded(workload: str, seed: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one round of ``workload``, from ``seed``."""
    rng = seeded(workload, seed)
    if workload == "wasserstein-lp":
        return wasserstein_lp(rng)
    if workload == "hausdorff-search":
        return hausdorff_search(rng)
    return small_batch(rng, workdir)


def warm_up() -> None:
    """One small call down every path, so that lazy imports and first-call
    costs land in set-up rather than in the first timed round."""
    ct.wasserstein_cset_distance(directed_cycle(2), directed_cycle(3), 1.0)
    ct.hausdorff_distance(*weak_pair(2, 4))
    ct.find_homomorphism(directed_cycle(2, "plain"), directed_cycle(4, "plain"))
    ct.markov_feasible(directed_cycle(2, "plain"), directed_cycle(4, "plain"))
    ct.optimal_coupling(ct.counting_measure(2), ct.counting_measure(2), np.ones((2, 2)))
    run_cli(["--format", "json", "validate", "builtin:c2"])
