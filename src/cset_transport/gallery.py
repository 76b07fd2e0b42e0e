"""Stock instances: the small graphs used throughout the docs and tests,
directed cycles with standard metric/measure dressings, and attributed
examples.  All are addressable from the CLI as ``builtin:<name>``.

Cycle dressings:

* ``mm``:       shortest-path metric on V, discrete on E, counting measures.
* ``discrete``: discrete metrics on V and E, counting measures.  This is the
  domain-side dressing of the weak graph configuration: any map out of a
  discrete space is short, so admissibility reduces to the measure
  constraints, while costs are still priced by the codomain's shortest-path
  metric.
* ``plain``:    no metrics or measures (feasibility problems only).
"""

from __future__ import annotations

import numpy as np

from .cset import Instance, validate_instance
from .errors import InstanceError
from .mm import MetricData, counting_measure, discrete_metric, shortest_path_metric, uniform_measure
from .theory import builtin_theory

__all__ = [
    "directed_cycle",
    "weak_pair",
    "loop",
    "path_graph",
    "diamond",
    "undirected_3cycle",
    "line_metric",
    "attributed_set",
    "vertex_attributed_graph",
    "builtin_instance",
    "BUILTIN_INSTANCE_NAMES",
]


def _graph(nv, src, tgt) -> Instance:
    src = np.asarray(src, dtype=int)
    tgt = np.asarray(tgt, dtype=int)
    return Instance(
        builtin_theory("Graph"),
        {"E": len(src), "V": nv},
        {"src": src, "tgt": tgt},
    )


def _dress_graph(x: Instance, dressing: str) -> Instance:
    if dressing == "plain":
        return x
    if dressing == "mm":
        metrics = {"V": shortest_path_metric(x), "E": discrete_metric(x.sets["E"])}
    elif dressing == "discrete":
        metrics = {"V": discrete_metric(x.sets["V"]), "E": discrete_metric(x.sets["E"])}
    else:
        raise InstanceError(f"unknown dressing {dressing!r}")
    measures = {"V": counting_measure(x.sets["V"]), "E": counting_measure(x.sets["E"])}
    return x.with_data(metrics=metrics, measures=measures)


def directed_cycle(n: int, dressing: str = "mm") -> Instance:
    """The directed cycle C_n: edge i runs from vertex i to vertex i+1 mod n."""
    if n < 1:
        raise InstanceError("a cycle needs at least one vertex")
    src = np.arange(n)
    tgt = (np.arange(n) + 1) % n
    return _dress_graph(_graph(n, src, tgt), dressing)


def weak_pair(m: int, n: int) -> tuple[Instance, Instance]:
    """The ordered pair (C_m, C_n) in the weak graph configuration: discrete
    metrics on the domain, shortest-path vertex metric on the codomain."""
    return directed_cycle(m, "discrete"), directed_cycle(n, "mm")


def loop(dressing: str = "plain") -> Instance:
    """One vertex carrying one self-loop; the terminal graph."""
    return directed_cycle(1, dressing)


def path_graph(n: int, dressing: str = "plain") -> Instance:
    """n vertices chained by n-1 edges."""
    return _dress_graph(_graph(n, np.arange(n - 1), np.arange(1, n)), dressing)


def diamond(dressing: str = "plain") -> Instance:
    """Two directed paths of length 2 sharing their endpoints."""
    return _dress_graph(_graph(4, [0, 0, 1, 2], [1, 2, 3, 3]), dressing)


def undirected_3cycle(dressing: str = "plain") -> Instance:
    """Three vertices, edges 1->0, 1->2, 2->0: a cycle but not a directed one."""
    return _dress_graph(_graph(3, [1, 1, 2], [0, 2, 0]), dressing)


def line_metric(k: int) -> MetricData:
    """|i - j| on the points 0..k-1."""
    idx = np.arange(k, dtype=float)
    return MetricData(k, np.abs(idx[:, None] - idx[None, :]))


def attributed_set(values, attr_metric: MetricData, measure: str = "uniform") -> Instance:
    """An attributed set over a fixed attribute space with the given metric."""
    values = np.asarray(values, dtype=int)
    n = len(values)
    k = attr_metric.n
    meas = uniform_measure(n) if measure == "uniform" else counting_measure(n)
    return Instance(
        builtin_theory("ASet"),
        {"*": n, "A": k},
        {"attr": values},
        metrics={"*": discrete_metric(n), "A": attr_metric},
        measures={"*": meas, "A": counting_measure(k)},
        fixed=frozenset({"A"}),
    )


def vertex_attributed_graph(nv, src, tgt, attrs, attr_metric: MetricData) -> Instance:
    """A vertex-attributed graph over a fixed attribute space: discrete
    metrics on V and E, counting measures everywhere."""
    src = np.asarray(src, dtype=int)
    tgt = np.asarray(tgt, dtype=int)
    attrs = np.asarray(attrs, dtype=int)
    ne = len(src)
    k = attr_metric.n
    return Instance(
        builtin_theory("VGraph"),
        {"E": ne, "V": nv, "A": k},
        {"src": src, "tgt": tgt, "attr": attrs},
        metrics={
            "V": discrete_metric(nv),
            "E": discrete_metric(ne),
            "A": attr_metric,
        },
        measures={
            "V": counting_measure(nv),
            "E": counting_measure(ne),
            "A": counting_measure(k),
        },
        fixed=frozenset({"A"}),
    )


def _builtins() -> dict:
    reg = {
        "loop": lambda: loop(),
        "terminal": lambda: loop(),
        "fig5x": lambda: path_graph(3),
        "fig5y": lambda: diamond(),
        "fig6x": lambda: loop(),
        "fig6y": lambda: undirected_3cycle(),
        "c3undirected": lambda: undirected_3cycle(),
        "fig7x": lambda: loop(),
        "fig7y": lambda: directed_cycle(3, "plain"),
        "fig8y": lambda: loop(),
        "fig9x": lambda: directed_cycle(2, "discrete"),
        "fig9y": lambda: directed_cycle(4, "mm"),
        "aset_line_x": lambda: attributed_set([0], line_metric(11)),
        "aset_line_y": lambda: attributed_set([3], line_metric(11)),
        "vgraph_x": lambda: vertex_attributed_graph(
            3, [0, 1], [1, 2], [0, 1, 2], line_metric(3)
        ),
        "vgraph_y": lambda: vertex_attributed_graph(
            3, [0, 1, 2], [1, 2, 0], [0, 1, 1], line_metric(3)
        ),
    }
    for n in range(1, 7):
        reg[f"c{n}"] = lambda n=n: directed_cycle(n, "mm")
        reg[f"c{n}discrete"] = lambda n=n: directed_cycle(n, "discrete")
    return reg


_REGISTRY = _builtins()
BUILTIN_INSTANCE_NAMES = tuple(sorted(_REGISTRY))


def builtin_instance(name: str) -> Instance:
    """Build and validate the stock instance ``name``."""
    if name not in _REGISTRY:
        raise InstanceError(
            f"unknown builtin instance {name!r}; available: "
            + ", ".join(BUILTIN_INSTANCE_NAMES)
        )
    inst = _REGISTRY[name]()
    validate_instance(inst)
    return inst
