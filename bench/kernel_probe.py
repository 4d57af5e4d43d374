"""One kernel layer probe of ``bench.py``, run in a checkout against its ``src``.

    cd CHECKOUT && python PATH/TO/bench/kernel_probe.py \
        path|trace_path|trace_fixed|stretch|channels|hitting ARG SEED REPEATS

``path`` times the ``simulate_cycle`` operation of the checkout's
``long_path`` workload at SEED (ARG unused), and ``trace_path`` the
``trace_project`` call of that workload on the path it makes, whose events
are the path's; ``trace_fixed`` times ``TRACE_CALLS`` calls of
``trace_project`` on the first 50 events of that workload's 3-cycle at SEED,
projected onto every site with theta 1 as ``mc_mean_jump_rate`` does, and
reports the microseconds per call (``us_per_call``, with ``calls`` in place
of events) and, as ``us_per_call_torus64``, the same on a 50-event path of
the 2-D nearest-neighbour torus of side 8, N = 32, d_L = 8^-2 (ARG unused),
so the fixed cost shows against the site count; ``stretch`` times the
third-site stretches of ``run_condensate(spec, 1.0, SEED)`` on the 2-D
nearest-neighbour torus of side ARG, N = 32, d_L = ARG^-2, with the stretch
bound lowered to 2^17 events. A stretch's events are the total
``_ThirdSite.finish`` returns, or, for a stretch cut at the bound, the count
its ``BudgetExceeded`` names. ``channels`` times
``measure_diffusion(spec, 0.025, 32, SEED)`` on the torus of the
``mc_ensemble`` workload (1-D, L = 16, rho = 2, d_L = 16^-5, weights 1/2;
ARG unused), and its events are the channel steps of the condensate runs:
the ``events`` of every run, less the one sojourn event each excursion adds
(a third-site stretch, about one excursion in 10^5 here, adds its events
too). ``hitting`` times the ``hitting_inclusion`` and ``hitting_auxiliary``
operations of the checkout's ``mc_ensemble`` workload at SEED over its
first ``HITTING_ROUNDS`` rounds (ARG unused), and counts replicas in place
of events: the per-replica fixed cost of the hitting estimators. Prints the
median CPU time of the repeats (``time.process_time``: the event kernel is
single-threaded, and CPU time does not count the time other processes
take), the events of one repeat and their ratio in microseconds (for
``hitting``, the replicas and the milliseconds per replica) as one JSON
line; exits non-zero if the repeats ran different event counts.
"""

import json
import re
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
clock = time.process_time
spans, counts = [], []
# rounds of the mc_ensemble workload a hitting repeat runs
HITTING_ROUNDS = 10
# trace_project calls a trace_fixed repeat makes on each path
TRACE_CALLS = 2000


class Direct:
    """A tracer that only calls: the operations run untraced."""

    def call(self, name, f, *args, count=None, **kwargs):
        return f(*args, **kwargs)


if kind == "path":
    import workloads

    (op,) = [op for op in workloads.make("long_path", seed).operations()
             if op.name == "simulate_cycle"]
    for _ in range(repeats):
        start = clock()
        traj = op.run(Direct(), 0)
        spans.append(clock() - start)
        counts.append(traj.n_events)
elif kind == "trace_path":
    import workloads

    work = workloads.make("long_path", seed)
    (op,) = [op for op in work.operations() if op.name == "simulate_cycle"]
    traj = op.run(Direct(), 0)
    for _ in range(repeats):
        start = clock()
        ip.trace_project(traj, (0, 1, 2), theta=work.theta)
        spans.append(clock() - start)
        counts.append(traj.n_events)
elif kind == "trace_fixed":
    import workloads

    work = workloads.make("long_path", seed)
    step = {(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25}
    torus = ip.build_torus(2, 8, step, rho=0.5, d_l=8.0 ** -2)
    paths = [ip.simulate(work.cycle, work.params, work.start, 1e300, seed, max_events=50),
             ip.simulate(ip.torus_walk(torus), ip.ProcessParams(torus.n, torus.d_l),
                         ip.Configuration.single_site(64, torus.n, 0), 1e300, seed,
                         max_events=50)]
    if [p.n_events for p in paths] != [50, 50]:
        sys.exit(f"paths of {[p.n_events for p in paths]} events, not 50")
    torus_spans = []
    for _ in range(repeats):
        for traj, out in zip(paths, (spans, torus_spans)):
            sites = range(len(traj.initial))
            start = clock()
            for _ in range(TRACE_CALLS):
                ip.trace_project(traj, sites, 1.0)
            out.append(clock() - start)
        counts.append(TRACE_CALLS)
elif kind == "hitting":
    import workloads

    ops = [op for op in workloads.make("mc_ensemble", seed).operations()
           if op.name in ("hitting_inclusion", "hitting_auxiliary")]
    for _ in range(repeats):
        replicas = 0
        start = clock()
        for rnd in range(HITTING_ROUNDS):
            for op in ops:
                replicas += op.run(Direct(), rnd).values.size
        spans.append(clock() - start)
        counts.append(replicas)
elif kind == "channels":
    thermo = sys.modules["incproc.thermo"]
    tally = [0]
    draw_chunk, result = thermo._CondensateReplica.draw_chunk, thermo._CondensateReplica.result

    def drawn(self, ch):
        excursions = draw_chunk(self, ch)
        tally[0] -= excursions
        return excursions

    def counted(self):
        tally[0] += self.events
        return result(self)

    thermo._CondensateReplica.draw_chunk = drawn
    thermo._CondensateReplica.result = counted
    spec = ip.build_torus(1, 16, {1: 0.5, -1: 0.5}, rho=2.0, d_l=16.0 ** -5)
    for _ in range(repeats):
        tally[0] = 0
        start = clock()
        ip.measure_diffusion(spec, 0.025, replicas=32, seed=seed)
        spans.append(clock() - start)
        counts.append(tally[0])
else:
    thermo = sys.modules["incproc.thermo"]
    thermo._STRETCH_EVENTS = 1 << 17
    spent, events = [0.0], [0]
    finish = thermo._ThirdSite.finish

    def timed(self, *args):
        start = clock()
        try:
            done = finish(self, *args)
        except ip.BudgetExceeded as exc:
            spent[0] += clock() - start
            events[0] += int(re.search(r"took (\d+) events", str(exc)).group(1))
            raise
        spent[0] += clock() - start
        events[0] += done[1]
        return done

    thermo._ThirdSite.finish = timed
    step = {(1, 0): 0.25, (-1, 0): 0.25, (0, 1): 0.25, (0, -1): 0.25}
    spec = ip.build_torus(2, arg, step, rho=32 / arg ** 2, d_l=float(arg) ** -2)
    for _ in range(repeats):
        spent[0], events[0] = 0.0, 0
        try:
            ip.run_condensate(spec, 1.0, seed=seed)
        except ip.BudgetExceeded:
            pass
        spans.append(spent[0])
        counts.append(events[0])
if len(set(counts)) != 1 or not counts[0]:
    sys.exit(f"events per repeat {counts}")
cpu = statistics.median(spans)
if kind == "hitting":
    print(json.dumps({"ms_per_replica": cpu / counts[0] * 1e3, "replicas": counts[0],
                      "cpu_s": cpu}))
elif kind == "trace_fixed":
    print(json.dumps({"us_per_call": cpu / counts[0] * 1e6, "calls": counts[0], "cpu_s": cpu,
                      "us_per_call_torus64": statistics.median(torus_spans) / counts[0] * 1e6}))
else:
    print(json.dumps({"us_per_event": cpu / counts[0] * 1e6, "events": counts[0],
                      "cpu_s": cpu}))
