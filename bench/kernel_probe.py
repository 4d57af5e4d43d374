"""One kernel layer probe of ``bench.py``, run in a checkout against its ``src``.

    cd CHECKOUT && python PATH/TO/bench/kernel_probe.py path|stretch ARG SEED REPEATS

``path`` times the ``simulate_cycle`` operation of the checkout's
``long_path`` workload at SEED (ARG unused); ``stretch`` times the
third-site stretches of ``run_condensate(spec, 1.0, SEED)`` on the 2-D
nearest-neighbour torus of side ARG, N = 32, d_L = ARG^-2, with the stretch
bound lowered to 2^17 events. Prints the median wall time of the repeats,
the events of one repeat and their ratio in microseconds as one JSON line;
exits non-zero if the repeats ran different event counts.
"""

import json
import statistics
import sys
import time
from pathlib import Path

kind, arg, seed, repeats = sys.argv[1], *map(int, sys.argv[2:])
src = (Path.cwd() / "src").resolve()
sys.path[:0] = [str(src), str(Path.cwd() / "perfbench")]
import incproc as ip
if src not in Path(ip.__file__).resolve().parents:
    sys.exit(f"incproc imported from {ip.__file__}, not {src}")
clock = time.perf_counter
walls, counts = [], []
if kind == "path":
    import workloads

    class Direct:
        def call(self, name, f, *args, count=None, **kwargs):
            return f(*args, **kwargs)

    (op,) = [op for op in workloads.make("long_path", seed).operations()
             if op.name == "simulate_cycle"]
    for _ in range(repeats):
        start = clock()
        traj = op.run(Direct(), 0)
        walls.append(clock() - start)
        counts.append(traj.n_events)
else:
    simulate, thermo = sys.modules["incproc.simulate"], sys.modules["incproc.thermo"]
    thermo._STRETCH_EVENTS = 1 << 17
    spent, events = [0.0], [0]
    run, finish = simulate._Kernel.run, thermo._ThirdSite.finish

    def counted(self, *args):
        dts, moves = run(self, *args)
        events[0] += len(moves)
        return dts, moves

    def timed(self, *args):
        start = clock()
        try:
            return finish(self, *args)
        finally:
            spent[0] += clock() - start

    simulate._Kernel.run, thermo._ThirdSite.finish = counted, timed
    step = {(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25}
    spec = ip.build_torus(2, arg, step, rho=32 / arg ** 2, d_l=float(arg) ** -2)
    for _ in range(repeats):
        spent[0], events[0] = 0.0, 0
        try:
            ip.run_condensate(spec, 1.0, seed=seed)
        except ip.BudgetExceeded:
            pass
        walls.append(spent[0])
        counts.append(events[0])
if len(set(counts)) != 1 or not counts[0]:
    sys.exit(f"events per repeat {counts}")
wall = statistics.median(walls)
print(json.dumps({"us_per_event": wall / counts[0] * 1e6, "events": counts[0],
                  "wall_s": wall}))
