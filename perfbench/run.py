"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact_lu --seed 1 --seconds 20 --trace 0

Untraced (``--trace 0``) the last line of standard output is one JSON object
with the end-to-end metrics:

- ``wall_ref``: median over rounds of the round time (first operation to
  last, set-up and checks excluded) divided by the time of a fixed reference
  computation that uses no ``incproc`` code, run just before the round in
  the same process. The speed of the shared host this benchmark was written
  on drifts by up to 1.8x within minutes; the ratio cancels that drift, the
  raw round time does not.
- ``setup_s``: median over separate processes of interpreter start,
  ``import incproc`` and input generation.
- ``peak_rss_mb``: the process's RSS high-water mark at the end of its first
  round, before any check ran.

Traced (``--trace 1``) the object holds the per-layer metrics instead, with
the raw median round time as ``bench.wall_s``; rounds alternate between
tracing off and on, so ``trace.overhead_s`` compares the two within one
process, and the spans are written to
``.bench_out/trace_<workload>_<seed>.json`` in the checkout.

Every operation is checked against its oracle after the round; a failed
check, an exception or an operation over its time limit counts as a failed
operation and the run goes on. ``fail_rate`` is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("exact_lu", "mc_ensemble", "long_path", "analysis")

# Thread caps, set before numpy loads; replica functions also get threads=1.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
MIN_ROUNDS = 3  # untraced; a traced run makes one more
# An operation may take OP_LIMIT_S (the slowest known one, an exact-rational
# certificate at n=32, takes about 30 s); no operation runs past RUN_LIMIT_S
# after the start, so a run ends well within 180 s whatever hangs.
OP_LIMIT_S = 120.0
RUN_LIMIT_S = 150.0


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded its time limit")


class Reference:
    """A fixed computation that uses no ``incproc`` code, about 45 ms, mixing
    what the workloads spend their time on: an interpreted loop, rational
    arithmetic, a numpy sort and a sparse LU solve of a 2-D Laplacian."""

    def __init__(self):
        # numpy loads here, after main() has set the thread caps
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        side = 50
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(side, side))
        eye = sp.identity(side)
        self._matrix = (sp.kron(line, eye) + sp.kron(eye, line)
                        + 0.1 * sp.identity(side * side)).tocsc()
        self._rhs = np.ones(side * side)
        self._data = np.random.default_rng(0).random(500_000)
        self._splu = spla.splu
        self._sort = np.sort

    def seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        sum(Fraction(1, k) for k in range(1, 1200))
        self._sort(self._data)
        self._splu(self._matrix).solve(self._rhs)
        return time.perf_counter() - t0


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time fresh processes that import the package and draw the inputs."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import workloads; workloads.make({name!r}, {seed})")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times


def run_round(wl, tracer, rnd: int, log, deadline: float = math.inf) -> dict:
    """Run every operation of one round, then check each result.

    Each operation may run for OP_LIMIT_S, and not past ``deadline`` (a
    ``time.perf_counter`` value). An operation that raises or times out ends
    the round; the operations after it are not attempted. Returns the
    round's wall time (first operation to last, checks excluded), the RSS
    high-water mark before the checks, and the attempted and failed counts.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    ops = wl.operations()
    done = []
    failed = 0
    root = tracer.begin("bench.round")
    t0 = time.perf_counter()
    for op in ops:
        span = tracer.begin("bench." + op.name)
        limit = min(OP_LIMIT_S, deadline - time.perf_counter())
        signal.setitimer(signal.ITIMER_REAL, max(limit, 1e-3))
        try:
            result = op.run(tracer, rnd)
        except Exception as exc:  # any failure of the program counts; the run goes on
            failed += 1
            log(f"round {rnd} {op.name}: {type(exc).__name__}: {exc}")
            break
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            tracer.end(span)
        wl.results[op.name] = result
        done.append((op, result))
    wall = time.perf_counter() - t0
    tracer.end(root)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op, result in done:
        try:
            op.check(result)
        except Exception as exc:  # a check that cannot run is a failed check
            failed += 1
            log(f"round {rnd} {op.name} check: {type(exc).__name__}: {exc}")
    complete = len(done) == len(ops)
    return {"wall": wall, "peak_mb": peak, "failed": failed, "complete": complete,
            "attempted": len(done) + (0 if complete else 1)}


def machine_facts() -> dict:
    import numpy as np
    import scipy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        return int(out) if out.isdigit() else None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l1d_bytes": getconf("LEVEL1_DCACHE_SIZE"),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {k: os.environ[k] for k in THREAD_CAPS},
        "replica_threads": 1,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    os.environ.update(THREAD_CAPS)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        setup = setup_seconds(args.workload, args.seed)
        sys.path.insert(0, str(HERE))
        import tracing
        import workloads
        wl = workloads.make(args.workload, args.seed)
    except Exception:
        traceback.print_exc()
        return 2

    reference = Reference()
    untraced, traced, refs = [], [], []
    untraced_ref_index = []
    tracer = tracing.Tracer(enabled=False)
    attempted = failed = 0
    peak = None
    start = time.perf_counter()
    rnd, last = 0, 0.0

    def another_round() -> bool:
        now = time.perf_counter()
        if now + last > deadline:
            return False
        return now - start < args.seconds or rnd < MIN_ROUNDS + args.trace

    while rnd == 0 or another_round():
        t_round = time.perf_counter()
        # traced runs alternate, tracing the even rounds: round 0 is traced so
        # that exact.rss_growth_mb sees the first rise of the high-water mark
        tracer.enabled = bool(args.trace and rnd % 2 == 0)
        refs.append(reference.seconds())
        res = run_round(wl, tracer, rnd, log, deadline)
        last = time.perf_counter() - t_round
        attempted += res["attempted"]
        failed += res["failed"]
        if peak is None:
            peak = res["peak_mb"]
        if res["complete"] and tracer.enabled:
            traced.append(res["wall"])
        elif res["complete"]:
            untraced.append(res["wall"])
            untraced_ref_index.append(len(refs) - 1)
        rnd += 1
        if not res["complete"]:
            break  # a raised or timed-out operation: stop rather than risk a hang
    refs.append(reference.seconds())
    # each round against the mean of the reference times just before and after it
    ratios = [wall / (0.5 * (refs[i] + refs[i + 1]))
              for wall, i in zip(untraced, untraced_ref_index)]
    if not untraced:
        log("no untraced round completed")
        untraced = ratios = [0.0]
    wall = statistics.median(untraced)
    ref = statistics.median(refs)

    facts = machine_facts()
    facts.update({"workload": args.workload, "seed": args.seed, "rounds": rnd,
                  "untraced_rounds": len(untraced), "traced_rounds": len(traced),
                  "fail_rate": failed / attempted if attempted else 1.0,
                  "setup_runs_s": setup})
    print("machine " + json.dumps(facts, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.unit(name)} for name, value
                   in tracing.per_layer_metrics(tracer.spans, wall, ref).items()}
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace_{args.workload}_{args.seed}.json",
                    {"machine": facts, "untraced_wall_s": untraced, "traced_wall_s": traced,
                     "reference_s": refs})
    else:
        metrics = {
            "wall_ref": {"value": statistics.median(ratios), "unit": "ref"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
