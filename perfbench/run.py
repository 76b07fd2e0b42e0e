"""Benchmark of cset-transport: times fixed rounds of operations in CPU
seconds, checks every answer, and prints one JSON line of results.

    python3 perfbench/run.py --workload wasserstein-lp --seed 1 --seconds 30 --trace 0

``--workload`` is one of wasserstein-lp, hausdorff-search, small-batch, or
``all`` (each in turn, in this process).  The run repeats whole rounds of the
workload's operations while the next round is expected to end within
``--seconds`` (at least one round).  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(spans are written to perfbench/runs/).  The library is imported from the
``src/`` directory next to this one; without it the run fails.  CPU
seconds are counted by the scaled clock of speed.py.  See README.md in this
directory for the workloads, the metrics and their spread.
"""

import os

# one BLAS thread, set before numpy loads: the thread count changes results
# as well as times (see README.md)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKLOADS = ("wasserstein-lp", "hausdorff-search", "small-batch")
SETUP_REPEATS = 3
# what a fresh process spends before its first operation: interpreter start
# and the imports of run.py
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; "
    "import speed, workloads; print(time.process_time())"
)

END_TO_END_UNITS = {"cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import the library from this checkout's src/, never from elsewhere."""
    if not (SRC / "cset_transport" / "__init__.py").is_file():
        raise SystemExit(f"error: no library at {SRC}/cset_transport")
    sys.path.insert(0, str(SRC))
    import cset_transport

    if Path(cset_transport.__file__).resolve().parent != SRC / "cset_transport":
        raise SystemExit(f"error: imported cset_transport from {cset_transport.__file__}")


def run_op(op):
    from workloads import Failure

    try:
        return op.call()
    except Exception as exc:  # the round goes on; the failure is counted
        return Failure(type(exc).__name__, str(exc))


def timed_rounds(ops, seconds, tracer, speed):
    """Whole rounds while the next one is expected to end within ``seconds``.
    Returns the scaled and the raw CPU seconds of each round, the wall
    seconds of each round, and every result."""
    cpu, raw, wall, results = [], [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.round = len(results)
        w0, r0, p0, c0 = time.perf_counter(), time.process_time(), speed.probe_cpu, speed.read()
        out = []
        for op in ops:
            if tracer is not None:
                tracer.family = op.family
            out.append(run_op(op))
        cpu.append(speed.read() - c0)
        raw.append(time.process_time() - r0 - (speed.probe_cpu - p0))
        wall.append(time.perf_counter() - w0)
        results.append(out)
        if time.perf_counter() - start + wall[-1] > seconds:
            return cpu, raw, wall, results


def verify(ops, results):
    """Check the first round's answers; later rounds must repeat them exactly.
    Returns (failed operations over all rounds, whether every answer that
    did not raise is correct)."""
    from workloads import Failure

    first = results[0]
    by_name = {op.name: r for op, r in zip(ops, first)}
    wrong = []
    for op, r in zip(ops, first):
        if isinstance(r, Failure):
            print(f"failed: {op.name}: {r.kind}: {r.message}", file=sys.stderr)
            wrong.append(False)
            continue
        try:
            op.check(r, by_name)
            wrong.append(False)
        except Exception as exc:  # a malformed result can break a check too
            print(f"WRONG: {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            wrong.append(True)
    digests = [pickle.dumps(r) for r in first]
    failed, correct = 0, not any(wrong)
    for k, out in enumerate(results):
        for i, r in enumerate(out):
            if isinstance(r, Failure) or wrong[i]:
                failed += 1
            elif k and pickle.dumps(r) != digests[i]:
                print(f"WRONG: {ops[i].name}: round {k} differs from round 0", file=sys.stderr)
                failed += 1
                correct = False
    return failed, correct


def import_cpu():
    """CPU seconds of interpreter start and imports, in SETUP_REPEATS fresh
    processes."""
    code = IMPORT_PROBE.format(src=str(SRC), here=str(HERE))
    return [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def run_workload(name, seed, seconds, trace):
    import workloads

    workdir = RUNS / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        imports = import_cpu()
        speed = Speed()
        scales = []
        for _ in range(SETUP_REPEATS):
            speed.tick()
            scales.append(speed.scale())
        import_scaled = statistics.median(imports) * statistics.median(scales)
        setups = []
        with speed.running():
            for _ in range(SETUP_REPEATS):
                c0 = speed.read()
                ops = workloads.build(name, seed, workdir)
                workloads.warm_up()
                setups.append(speed.read() - c0)

            if trace:
                from tracing import Tracer

                tracer = Tracer(speed.read)
                with tracer.installed():
                    cpu, raw, wall, results = timed_rounds(ops, seconds, tracer, speed)
                    # one forced search of each pair the guard let through
                    tracer.round, tracer.family = -1, "calibration"
                    for op, r in zip(ops, results[0]):
                        if op.twin is not None and not isinstance(r, workloads.Failure):
                            op.twin()
            else:
                tracer = None
                cpu, raw, wall, results = timed_rounds(ops, seconds, None, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed, correct = verify(ops, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        from tracing import UNITS

        metrics = tracer.metrics(len(cpu))
        # guarded time minus the forced time of the same searches: what the
        # guard itself costs (a refused pair spends all of its time there)
        metrics["hausdorff.guard_s"] = metrics["hausdorff.guarded_s"] - tracer.self_time(
            "hausdorff.search", "calibration"
        )
        metrics["trace.cpu_s"] = statistics.median(cpu)
        units = UNITS
        write_trace(name, seed, tracer, metrics)
    else:
        metrics = {
            "cpu_s": statistics.median(cpu),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": import_scaled + statistics.median(setups),
        }
        units = END_TO_END_UNITS
    print(
        f"{name}: seed {seed}, {len(cpu)} rounds of {len(ops)} operations, {speed.probes} probes; "
        f"per round: scaled CPU {[round(c, 3) for c in cpu]}, CPU {[round(c, 3) for c in raw]}, "
        f"wall {[round(w, 3) for w in wall]}; set-up: imports {[round(c, 3) for c in imports]} CPU, "
        f"{import_scaled:.3f} scaled, then {[round(c, 3) for c in setups]} scaled",
        file=sys.stderr,
    )
    return {
        "correct": correct,
        "attempted": len(ops) * len(results),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def write_trace(name, seed, tracer, metrics):
    RUNS.mkdir(parents=True, exist_ok=True)
    fields = ("layer", "family", "round", "start", "end", "parent", "children")
    with open(RUNS / f"trace-{name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "fields": fields,
                   "spans": tracer.spans, "metrics": metrics}, fh)


def main(argv=None):
    args = parse_args(argv)
    import_library()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if len(names) == 1:
        result = reports[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{n}.{m}": v for n, r in reports.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
