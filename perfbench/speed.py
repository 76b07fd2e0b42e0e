"""A CPU clock scaled to a reference speed.

On a shared host the same code runs up to 1.6x faster or slower for seconds
to minutes at a time, and process CPU time follows (see README.md).  A
wall-clock timer therefore runs a fixed probe every PROBE_EVERY_S, and the CPU
seconds until the next probe count at the speed the probe measured: at the
reference speed the probe takes PROBE_REF_S.  The probe calls no library code
and does the kinds of work the library does: a tight Python loop, dense numpy
products, and interpreter work spread over many builtins (JSON, sorting,
formatting, dicts).  A change to the library leaves the probe as it is, so it
moves scaled CPU seconds as it moves raw ones.
"""

import contextlib
import json
import signal
import time

import numpy as np

PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.05
PROBE_DOC = {"sets": {"V": 5, "E": 7}, "maps": {"src": [0, 1, 2, 3, 4, 0, 2], "tgt": [1, 2, 3, 4, 0, 2, 4]}}


class Speed:
    """A CPU clock that runs at the reference speed: the CPU seconds between
    two probes count at the speed the first of them measured.  Probe time
    itself is not counted."""

    def __init__(self):
        self.matrix = np.random.default_rng(0).uniform(0.0, 1.0, (300, 300))
        self.busy = False
        self.probes = 0
        self.probe_cpu = 0.0
        self.scaled = 0.0
        self.last_probe = self.probe()
        self.last_cpu = time.process_time()

    def probe(self) -> float:
        c0 = time.process_time()
        acc, table = 0, {}
        for i in range(8000):
            acc += i * i
            table[i & 63] = acc
        v = self.matrix[0]
        for _ in range(16):
            v = self.matrix @ v
            v = v / v.max()
        for _ in range(24):
            doc = json.loads(json.dumps(PROBE_DOC))
            ends = sorted(doc["maps"]["src"] + doc["maps"]["tgt"], reverse=True)
            names = [f"pi_{i}_{j}" for i in range(4) for j in ends[:4]]
            index = {name: k for k, name in enumerate(names)}
            sum(index[name] for name in names if name.endswith("1"))
        spent = time.process_time() - c0
        self.probes += 1
        self.probe_cpu += spent
        return spent

    def tick(self, *_):
        """Signal handler: book the CPU seconds since the last probe, probe."""
        if self.busy:
            return
        self.busy = True
        try:
            self.scaled = self.read()
            self.last_probe = self.probe()
            self.last_cpu = time.process_time()
        finally:
            self.busy = False

    def read(self) -> float:
        """Scaled CPU seconds so far."""
        return self.scaled + (time.process_time() - self.last_cpu) * PROBE_REF_S / self.last_probe

    def scale(self) -> float:
        """The factor from CPU seconds to scaled ones, at the last probe."""
        return PROBE_REF_S / self.last_probe

    @contextlib.contextmanager
    def running(self):
        """Probe on a wall-clock timer (SIGALRM) while the block runs."""
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
