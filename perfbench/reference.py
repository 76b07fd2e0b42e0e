"""Reference figures for README.md; not part of the timed benchmark.

    python3 perfbench/reference.py --seed 1

Prints, for one seed: the size of every program of wasserstein-lp (vars,
rows, pinned variables) with the in-house and HiGHS solve times; per-operation
CPU percentiles of one round of each workload; and the CPU and wall time of
one solve with one BLAS thread and with two.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import cset_transport as ct  # noqa: E402
import workloads  # noqa: E402

PINNING_PROBE = """
import time
from cset_transport.gallery import directed_cycle
import cset_transport as ct
c, w = time.process_time(), time.perf_counter()
ct.wasserstein_cset_distance(directed_cycle(5), directed_cycle(6), 1.0)
print(f"{time.process_time() - c:.2f} {time.perf_counter() - w:.2f}")
"""


def program_sizes(seed):
    print("wasserstein-lp programs: vars rows pins | in-house s | HiGHS s (the first includes importing scipy)")
    for name, _, x, y, p, _ in workloads.wasserstein_inputs(workloads.seeded("wasserstein-lp", seed)):
        prog = ct.wasserstein_cset_lp(x, y, p)
        m = prog.model
        c0 = time.process_time()
        ct.wasserstein_cset_distance(x, y, p)
        ours = time.process_time() - c0
        c0 = time.process_time()
        checks.highs_model(m)
        theirs = time.process_time() - c0
        inf = " (inf without a solve)" if prog.structurally_infinite else ""
        print(f"  {name:16s} {m.num_vars:5d} {len(m.constraints):5d} {len(prog.pins):4d}"
              f" | {ours:7.3f} | {theirs:6.3f}{inf}")


def percentiles(seed):
    print("per-operation CPU ms over one round: n, p50, p90, p99, max")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in workloads.WORKLOADS:
            ops = workloads.build(name, seed, Path(tmp))
            times = []
            for op in ops:
                c0 = time.process_time()
                try:
                    op.call()
                except ct.errors.CsetTransportError:
                    pass
                times.append(1000 * (time.process_time() - c0))
            if len(times) >= 100:
                q = statistics.quantiles(times, n=100)
                print(f"  {name:16s} {len(times):5d} {q[49]:9.2f} {q[89]:9.2f} {q[98]:9.2f} {max(times):9.2f}")
            else:  # too few operations for tail percentiles
                print(f"  {name:16s} {len(times):5d} {statistics.median(times):9.2f}"
                      f" {'-':>9s} {'-':>9s} {max(times):9.2f}")


def pinning():
    print("W(C5, C6), CPU s and wall s: BLAS threads 1, then 2")
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=str(HERE.parent / "src"))
        out = subprocess.run([sys.executable, "-c", PINNING_PROBE], env=env,
                             capture_output=True, text=True, check=True).stdout
        print(f"  {threads}: {out.strip()}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    program_sizes(args.seed)
    percentiles(args.seed)
    pinning()
