"""Per-layer tracing for the benchmark's traced runs.

The tracer replaces the public functions that each module of the library
imported (``relax.solve``, ``cli.load_instance``, ...) with wrappers that
record one span per call: layer, the operation's family, the round, start
and end on the given clock (run.py passes its scaled CPU clock), and the
enclosing span.  A span's self time
is its duration minus the time of the spans it encloses.  Counts come from
public data: the models passed to ``solve`` and the programs returned by
``wasserstein_cset_lp``.  The library itself is not changed.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import time
from collections import defaultdict

import cset_transport as ct
from cset_transport import cli, cset, relax, transport

# (layer, modules whose attribute is replaced, attribute)
TARGETS = (
    ("lp.solve", (relax, transport), "solve"),
    ("relax.build", (relax, cli), "wasserstein_cset_lp"),
    ("relax.build", (cli,), "markov_feasibility_lp"),
    ("relax.distance", (ct, relax, cli), "wasserstein_cset_distance"),
    ("relax.feasible", (ct, cli), "markov_feasible"),
    ("hausdorff.search", (ct, relax, cli), "hausdorff_distance"),
    ("cset.hom", (ct, cset), "find_homomorphism"),
    ("cset.load", (ct, cli), "load_instance"),
    ("cset.validate", (cset, cli), "validate_instance"),
    ("transport.ot", (ct, transport, cli), "optimal_coupling"),
    ("transport.ot", (cli,), "wasserstein_kernels"),
    ("cli.main", (cli,), "main"),
)

# per-layer metric -> (layer, family or None for all) whose self time it sums
SELF_TIMES = {
    "lp.solve_s": ("lp.solve", None),
    "lp.solve_cycles_s": ("lp.solve", "cycles"),
    "lp.solve_digraphs_s": ("lp.solve", "digraphs"),
    "relax.build_s": ("relax.build", None),
    "relax.extract_s": ("relax.distance", None),
    "relax.feasible_s": ("relax.feasible", None),
    "hausdorff.guarded_s": ("hausdorff.search", "guarded"),
    "hausdorff.forced_s": ("hausdorff.search", "forced"),
    "hausdorff.small_s": ("hausdorff.search", "small"),
    "cset.hom_s": ("cset.hom", None),
    "cset.load_s": ("cset.load", None),
    "cset.validate_s": ("cset.validate", None),
    "transport.ot_s": ("transport.ot", None),
    "cli.self_s": ("cli.main", None),
}
COUNTS = ("lp.solves", "lp.vars", "lp.rows", "lp.nnz", "lp.bound_rows", "relax.structural_inf")
# every per-layer metric a traced run reports; the last two are derived by run.py
UNITS = {name: "s" for name in SELF_TIMES} | {name: "count" for name in COUNTS}
UNITS |= {"hausdorff.guard_s": "s", "trace.cpu_s": "s"}

# span fields
LAYER, FAMILY, ROUND, START, END, PARENT, CHILDREN = range(7)


class Tracer:
    """Spans and counts of one traced run, kept in memory until the end."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[tuple[str, int], float] = defaultdict(float)
        self.family = ""
        self.round = -1

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [layer, self.family, self.round, self.clock(), 0.0, parent, 0.0]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = self.clock()
                self.stack.pop()
                if parent >= 0:
                    self.spans[parent][CHILDREN] += span[END] - span[START]
            self._count(layer, args, result, parent)
            return result

        return traced

    def _count(self, layer, args, result, parent):
        if layer == "lp.solve":
            model = args[0]
            for name, value in (
                ("lp.solves", 1),
                ("lp.vars", model.num_vars),
                ("lp.rows", len(model.constraints)),
                ("lp.nnz", sum(len(terms) for _, terms, _, _ in model.constraints)),
                ("lp.bound_rows", sum(1 for u in model.var_upper if math.isfinite(u))),
            ):
                self.counts[name, self.round] += value
        elif (
            layer == "relax.build"
            and parent >= 0
            and self.spans[parent][LAYER] == "relax.distance"
            and result.structurally_infinite is not None
        ):
            self.counts["relax.structural_inf", self.round] += 1

    @contextlib.contextmanager
    def installed(self):
        """Replace every target with its wrapper; restore on exit."""
        saved = []
        wrappers = {}
        try:
            for layer, modules, attr in TARGETS:
                for module in modules:
                    fn = getattr(module, attr)
                    if (layer, fn) not in wrappers:
                        wrappers[layer, fn] = self.wrap(layer, fn)
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrappers[layer, fn])
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_time(self, layer, family) -> float:
        return sum(
            s[END] - s[START] - s[CHILDREN]
            for s in self.spans
            if s[LAYER] == layer and s[FAMILY] == family
        )

    def metrics(self, rounds: int) -> dict[str, float]:
        """Median over rounds of each per-round self time and count."""
        by_layer = defaultdict(list)
        for name, (layer, family) in SELF_TIMES.items():
            by_layer[layer].append((name, family))
        per_round = defaultdict(lambda: [0.0] * rounds)
        for s in self.spans:
            if s[ROUND] < 0:
                continue
            for name, family in by_layer[s[LAYER]]:
                if family is None or s[FAMILY] == family:
                    per_round[name][s[ROUND]] += s[END] - s[START] - s[CHILDREN]
        for (name, r), value in self.counts.items():
            if r >= 0:
                per_round[name][r] += value
        names = list(SELF_TIMES) + list(COUNTS)
        return {name: statistics.median(per_round[name]) for name in names}
