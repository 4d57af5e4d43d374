"""Run benchmark workloads on one checkout and record every run in a BENCH file.

    python bench/bench.py --label L --checkout DIR --workloads long_path mc_ensemble \
        --seeds 4101 --runs 2 --trace 0
    python bench/bench.py --label L --checkout DIR --workloads kernel.long_path \
        kernel.trace_long_path kernel.trace_fixed kernel.stretch_L16 kernel.stretch_L32 \
        kernel.stretch_L64 kernel.channels kernel.hitting --seeds 4101

For each of ``--runs`` passes, each workload and each seed, this runs the
benchmark command of ``DIR/BENCHMARK.json`` (``perfbench/run.py``) in DIR,
in its own process, for the run length that file fixes. It merges the
``machine`` line and the metrics line the run prints into one row: the
workload, the seed, the trace flag, the metrics (name -> value) and
``fail_rate``, with the operation and round counts. The rows go to ``BENCH_<L>.json`` in the working directory, which
also holds the checkout's commit (``git -C DIR rev-parse HEAD``), the
machine facts perfbench reports and the run length. An existing file of
the same label and commit gets the new rows appended, so runs of two
checkouts can alternate, one driver call per run.

The ``kernel.*`` workloads are event-kernel layer rows, each also run in
a process of its own against DIR's ``src`` (``kernel_probe.py`` beside this
file, run in DIR): the microseconds per event of
``kernel.long_path``, the 300,000-event 3-cycle path of the ``long_path``
workload at the seed, of ``kernel.trace_long_path``, that workload's
``trace_project`` call on the path, and of ``kernel.stretch_L<L>``, the third-site
stretches of ``run_condensate(spec, 1.0, seed)`` on the 2-D nearest-neighbour
torus of side L with N = 32 and d_L = L^-2, each weight 1/4, with the
stretch bound lowered to 2^17 events, and of ``kernel.channels``, the
channel steps of the condensate excursions of ``measure_diffusion`` on the
``mc_ensemble`` torus (1-D, L = 16, rho = 2, d_L = 16^-5, 32 replicas,
t = 0.025) at the seed; its events are those steps. A row holds the median
CPU time of its repeats (``cpu_s``), the events of one repeat and their
ratio. ``kernel.hitting`` is the per-replica fixed cost of the hitting
estimators: the CPU time of the ``hitting_inclusion`` and
``hitting_auxiliary`` operations of the ``mc_ensemble`` workload over its
first 10 rounds at the seed, in milliseconds per replica
(``ms_per_replica``, with ``replicas`` in place of ``events``).
``kernel.trace_fixed`` is the fixed cost of ``trace_project``: the
microseconds per call (``us_per_call``, with ``calls`` in place of
``events``) on the first 50 events of the ``long_path`` 3-cycle at the seed,
and ``us_per_call_torus64``, the same on a 50-event path of a 64-site torus.

Standard library only. Exits 1 if a run printed no metrics line; its row
then has ``fail_rate`` 1.0 and the tail of its standard error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

# facts of one run; every other key of the machine line describes the machine
RUN_FACTS = ("workload", "seed", "rounds", "untraced_rounds", "traced_rounds",
             "fail_rate", "setup_runs_s")

# the kernel layer rows: (probe, argument, repeats)
KERNEL_ROWS = {"kernel.long_path": ("path", 0, 5),
               "kernel.trace_long_path": ("trace_path", 0, 5),
               "kernel.trace_fixed": ("trace_fixed", 0, 5),
               **{f"kernel.stretch_L{side}": ("stretch", side, 3) for side in (16, 32, 64)},
               "kernel.channels": ("channels", 0, 5), "kernel.hitting": ("hitting", 0, 5)}

# run as ``python kernel_probe.py kind arg seed repeats`` in the checkout
PROBE = Path(__file__).with_name("kernel_probe.py")


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> tuple[dict, dict]:
    """(row, machine facts) of one run of the benchmark ``command``."""
    started = time.time()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    row = {"workload": workload, "seed": seed, "trace": trace, "started": started}
    lines = proc.stdout.splitlines()
    facts = next((json.loads(line[len("machine "):]) for line in lines
                  if line.startswith("machine ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode or facts is None or result is None:
        row.update(metrics={}, fail_rate=1.0, returncode=proc.returncode,
                   stderr=proc.stderr[-2000:])
        return row, {}
    row.update(metrics={name: m["value"] for name, m in result["metrics"].items()},
               attempted=result["attempted"], failed=result["failed"],
               correct=result["correct"])
    row.update({k: facts[k] for k in RUN_FACTS if k not in row})
    return row, {k: v for k, v in facts.items() if k not in RUN_FACTS}


def run_kernel_row(checkout: Path, workload: str, seed: int) -> dict:
    """The row of one kernel layer probe, run in a process of its own."""
    kind, arg, repeats = KERNEL_ROWS[workload]
    started = time.time()
    proc = subprocess.run([sys.executable, str(PROBE), kind, str(arg), str(seed),
                           str(repeats)], cwd=checkout, capture_output=True, text=True)
    row = {"workload": workload, "seed": seed, "trace": 0, "started": started,
           "repeats": repeats}
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        row.update(metrics={}, fail_rate=1.0, returncode=proc.returncode,
                   stderr=proc.stderr[-2000:])
    else:
        row.update(metrics=json.loads(lines[-1]), fail_rate=0.0)
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--checkout", required=True, type=Path)
    ap.add_argument("--workloads", required=True, nargs="+")
    ap.add_argument("--seeds", required=True, nargs="+", type=int)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    contract = json.loads((checkout / "BENCHMARK.json").read_text())
    command, seconds = contract["command"], contract["run_seconds"]
    commit = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()
    path = Path(f"BENCH_{args.label}.json")
    bench = (json.loads(path.read_text()) if path.exists() else
             {"label": args.label, "commit": commit, "run_seconds": seconds,
              "machine": {}, "rows": []})
    if (bench["commit"], bench["run_seconds"]) != (commit, seconds):
        print(f"{path} holds commit {bench['commit']} at {bench['run_seconds']} s, "
              f"not {commit} at {seconds} s", file=sys.stderr)
        return 2
    failed = False
    for _ in range(args.runs):
        for workload in args.workloads:
            for seed in args.seeds:
                if workload in KERNEL_ROWS:
                    row, machine = run_kernel_row(checkout, workload, seed), {}
                else:
                    row, machine = run_once(checkout, command, workload, seed, seconds,
                                            args.trace)
                bench["machine"] = bench["machine"] or machine
                bench["rows"].append(row)
                failed |= not row["metrics"]
                print(json.dumps(row, sort_keys=True), flush=True)
                # written after every run, so an interrupted session keeps its rows
                path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
