"""Command-line front end.

Exit codes: 0 for a computed result (an infeasible problem or an infinite
distance is a result, not an error), 1 for domain errors, 2 for usage and
parse errors.  All diagnostics go to stderr; results go to stdout.  Output is
byte-deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .cset import (
    SEARCH_NODE_GUARD,
    _check_numbers,
    _json_fields,
    _matrix_from_json,
    load_instance,
    validate_instance,
)
from .errors import CsetTransportError, InstanceError, LpNumericalError
from .hausdorff import HausdorffConfig, hausdorff_distance
from .lp import export_lp
from .markov import FiniteKernel
from .mm import INF, MeasureData, MetricData
from .relax import (
    markov_feasibility_lp,
    markov_feasible,
    relaxation_gap,
    wasserstein_cset_distance,
    wasserstein_cset_lp,
)
from .transport import optimal_coupling, wasserstein_kernels

SCHEMA = "cset-transport/1"


def _num(v: float) -> str:
    if v == INF:
        return "inf"
    if v == int(v):
        return str(int(v))
    return repr(float(v))  # numpy scalars repr as np.float64(...)


def _json_num(v: float):
    return "inf" if v == INF else v


def _emit(args, text_lines, payload):
    if args.format == "json":
        body = {"schema": SCHEMA, "command": args.command}
        body.update(payload)
        print(json.dumps(body))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args):
    inst = load_instance(args.instance)
    validate_instance(inst)
    _emit(args, ["ok"], {"result": "ok"})
    return 0


def cmd_hom(args):
    from .cset import find_homomorphism

    x, y = load_instance(args.x), load_instance(args.y)
    t = find_homomorphism(x, y)
    if t is None:
        _emit(args, ["none"], {"found": False})
    else:
        comps = {ob: arr.tolist() for ob, arr in t.components.items()}
        _emit(args, ["found", json.dumps(comps)], {"found": True, "components": comps})
    return 0


def cmd_markov_feasible(args):
    x, y = load_instance(args.x), load_instance(args.y)
    t = markov_feasible(x, y, measure_preserving=args.measure_preserving)
    if t is None:
        _emit(args, ["infeasible"], {"feasible": False})
    else:
        _emit(
            args,
            ["feasible", json.dumps(t.to_json())],
            {"feasible": True, "certificate": t.to_json()},
        )
    return 0


def cmd_hausdorff(args):
    x, y = load_instance(args.x), load_instance(args.y)
    cfg = HausdorffConfig(
        p=args.p,
        component_class=args.component_class,
        symmetrize=args.symmetrize,
        guard=args.guard,
        force=args.force,
    )
    res = hausdorff_distance(x, y, cfg)
    lines = [_num(res.distance)]
    payload = {
        "distance": _json_num(res.distance),
        "per_generator_weights": {
            k: _json_num(v) for k, v in res.per_generator_weights.items()
        },
    }
    if res.witness is not None:
        witness = {ob: arr.tolist() for ob, arr in res.witness.components.items()}
        payload["witness"] = witness
        if args.verbose:
            lines.append(json.dumps(witness))
            lines.append(
                " ".join(
                    f"{k}={_num(v)}" for k, v in sorted(res.per_generator_weights.items())
                )
            )
    _emit(args, lines, payload)
    return 0


def cmd_wasserstein(args):
    x, y = load_instance(args.x), load_instance(args.y)
    dist, cert = wasserstein_cset_distance(x, y, args.p, args.component_class)
    lines = [_num(dist)]
    payload = {"distance": _json_num(dist)}
    if cert is not None:
        payload["certificate"] = cert.to_json()
        if args.verbose:
            lines.append(json.dumps(payload["certificate"]))
    _emit(args, lines, payload)
    return 0


def cmd_gap(args):
    x, y = load_instance(args.x), load_instance(args.y)
    cfg = HausdorffConfig(
        component_class=args.component_class, guard=args.guard, force=args.force
    )
    dw, dh = relaxation_gap(x, y, args.p, cfg)
    _emit(
        args,
        [f"wasserstein: {_num(dw)}", f"hausdorff: {_num(dh)}"],
        {"wasserstein": _json_num(dw), "hausdorff": _json_num(dh)},
    )
    return 0


def _load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _measure_from_json(what, weights):
    _check_numbers(what, weights)
    return MeasureData(len(weights), weights)


def cmd_ot(args):
    data = _load_json_file(args.problem_file)
    mu, nu, cost = _json_fields("problem", data, ("mu", "nu", "cost"))
    mu = _measure_from_json("mu", mu)
    nu = _measure_from_json("nu", nu)
    res = optimal_coupling(mu, nu, _matrix_from_json(cost))
    lines = [_num(res.cost)]
    payload = {"cost": _json_num(res.cost)}
    if res.coupling is not None:
        payload["coupling"] = res.coupling.tolist()
        if args.verbose:
            lines.append(json.dumps(payload["coupling"]))
    _emit(args, lines, payload)
    return 0


def cmd_wk(args):
    data = _load_json_file(args.problem_file)
    m, n, mu, d = _json_fields("problem", data, ("m", "n", "mu", "d"))
    m, n = FiniteKernel.from_json(m), FiniteKernel.from_json(n)
    mu = _measure_from_json("mu", mu)
    d = _matrix_from_json(d)
    p = args.p
    if p is None:
        p = data.get("p", 1)
        # a JSON number or "inf": "2.5" and true are refused, not converted
        if type(p) not in (int, float) and p != "inf":
            raise InstanceError(f'p must be a number or "inf", got {p!r}')
        _check_numbers("p", [p], inf_spelled=True)
        p = float(p)
    res = wasserstein_kernels(m, n, mu, MetricData(len(d), d), p)
    payload = {"cost": _json_num(res.cost)}
    _emit(args, [_num(res.cost)], payload)
    return 0


def cmd_export_lp(args):
    x, y = load_instance(args.x), load_instance(args.y)
    if args.problem == "feasibility":
        model = markov_feasibility_lp(x, y, measure_preserving=args.measure_preserving)
    else:
        model = wasserstein_cset_lp(x, y, args.p, args.component_class).model
    sys.stdout.write(export_lp(model))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged).  It holds the ``cmd_*`` functions as they are at the first
    call; what they call, they look up when they run."""
    ap = argparse.ArgumentParser(
        prog="cset-transport",
        description="Exact and relaxed matching of finite C-sets "
        "(instance files are JSON; builtin:NAME names a stock instance).",
    )
    ap.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    ap.add_argument("-v", "--verbose", action="store_true", help="print witnesses too")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, *specs, **kw):
        sp = sub.add_parser(name, **kw)
        for spec in specs:
            spec(sp)
        sp.set_defaults(fn=fn)
        return sp

    def arg_xy(sp):
        sp.add_argument("x")
        sp.add_argument("y")

    def arg_p(sp):
        sp.add_argument("--p", type=float, default=1.0, help="order p, or inf")

    def arg_guard(sp):
        sp.add_argument(
            "--guard", type=int, default=SEARCH_NODE_GUARD,
            help="most search nodes (candidate values tried) before refusing",
        )
        sp.add_argument("--force", action="store_true", help="search past the guard")

    sp = sub.add_parser("validate", help="validate an instance file")
    sp.add_argument("instance")
    sp.set_defaults(fn=cmd_validate)

    add("hom", cmd_hom, arg_xy, help="exhaustive homomorphism search")

    sp = add("markov-feasible", cmd_markov_feasible, arg_xy, help="Markov-morphism feasibility LP")
    sp.add_argument("--measure-preserving", action="store_true")

    sp = add("hausdorff", cmd_hausdorff, arg_xy, help="exact Hausdorff distance")
    arg_p(sp)
    sp.add_argument("--class", dest="component_class", choices=("met", "mm", "all"), default="mm")
    sp.add_argument("--symmetrize", choices=("none", "max", "mean"), default="none")
    arg_guard(sp)

    sp = add("wasserstein", cmd_wasserstein, arg_xy, help="Wasserstein distance (LP)")
    arg_p(sp)
    sp.add_argument("--class", dest="component_class", choices=("mm", "noshort"), default="mm")

    sp = add("gap", cmd_gap, arg_xy, help="Wasserstein vs Hausdorff on the same pair")
    arg_p(sp)
    sp.add_argument("--class", dest="component_class", choices=("mm", "all"), default="mm")
    arg_guard(sp)

    sp = sub.add_parser("ot", help="optimal transport between two measures")
    sp.add_argument("problem_file", help="JSON with mu, nu, cost")
    sp.set_defaults(fn=cmd_ot)

    sp = sub.add_parser("wk", help="Wasserstein distance between two kernels")
    sp.add_argument("problem_file", help="JSON with m, n, mu, d, p")
    sp.add_argument("--p", type=float, help="order p, or inf (default: the file's p, else 1)")
    sp.set_defaults(fn=cmd_wk)

    sp = add("export-lp", cmd_export_lp, arg_xy, help="print a program in LP text form")
    sp.add_argument("--problem", choices=("feasibility", "wasserstein"), default="feasibility")
    arg_p(sp)
    sp.add_argument("--class", dest="component_class", choices=("mm", "noshort"), default="mm")
    sp.add_argument("--measure-preserving", action="store_true")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LpNumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except (CsetTransportError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
