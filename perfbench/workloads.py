"""The benchmark's four workloads: seeded inputs, timed operations, checks.

Every input is drawn from the workload seed with Philox, one stream per kind
of input, and the package receives only the drawn values. A workload is a
list of operations; one pass over the list is a round, the unit that
``wall_s`` times. Exact workloads repeat the same inputs every round; Monte
Carlo operations draw a fresh master seed per round. Each operation calls
public ``incproc`` functions through a :class:`tracing.Tracer`, whose span
names (``layer.function``) are the per-layer metric names' prefixes.

``small=True`` shrinks every size so the tests can run each workload in
seconds; the benchmark itself always runs the full sizes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

import oracles as orc

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_incproc():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import incproc
    if SRC not in Path(incproc.__file__).resolve().parents:
        raise ImportError(f"incproc imported from {incproc.__file__}, not {SRC}")
    return incproc


ip = _import_incproc()

ROUND_SEEDS = 4096

# one Philox stream per kind of input
_WALK, _START, _ROUNDS, _MATRIX, _PICK = range(5)


def philox(seed: int, kind: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed), kind)))


def is_reversible(rates: np.ndarray) -> bool:
    """Detailed balance of the walk against its own invariant measure."""
    gen = rates - np.diag(rates.sum(axis=1))
    m = np.linalg.svd(gen.T)[2][-1]
    m = m / m.sum()
    flux = m[:, None] * rates
    return bool(np.abs(flux - flux.T).max() <= 1e-9 * flux.max())


def near_uniform_start(rng: np.random.Generator, n: int, spread: int) -> tuple[int, int, int]:
    a, b = (n // 3 + int(v) for v in rng.integers(-spread, spread + 1, size=2))
    return (a, b, n - a - b)


@dataclass
class Operation:
    """One timed call (or short sequence of calls) with its oracle check."""

    name: str
    run: Callable[[Any, int], Any]      # (tracer, round) -> result
    check: Callable[[Any], None]        # result -> None, raises CheckFailed


def _count(**fields):
    """Span counts read off a result: each field maps the result to a number."""
    return lambda res: {k: float(f(res)) for k, f in fields.items()}


class Workload:
    name = ""

    def __init__(self, seed: int, small: bool = False):
        self.results: dict[str, Any] = {}
        self.round_seeds = philox(seed, _ROUNDS).integers(0, 2 ** 62, size=ROUND_SEEDS)
        self._oracle: dict[str, Any] = {}

    def round_seed(self, rnd: int) -> int:
        return int(self.round_seeds[rnd % ROUND_SEEDS])

    def oracle(self, key: str, make: Callable[[], Any]):
        """Reference data for a check, computed once per run."""
        if key not in self._oracle:
            self._oracle[key] = make()
        return self._oracle[key]

    def operations(self) -> list[Operation]:
        raise NotImplementedError


class ExactLU(Workload):
    """Sparse LU: stationary solve and the four hitting solves of the trace
    rates on a non-reversible 4-site walk."""

    name = "exact_lu"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        rng = philox(seed, _WALK)
        while True:  # redraw rule: irreducible (all rates > 0) and non-reversible
            rates = rng.uniform(0.5, 1.5, size=(4, 4))
            np.fill_diagonal(rates, 0.0)
            if not is_reversible(rates):
                break
        self.walk = ip.WalkSpec.from_matrix(rates)
        self.params = ip.ProcessParams(8 if small else 35, 1e-4)
        self.a_set = (0, 1, 2, 3)
        self.r_set = tuple(sorted(int(v) for v in philox(seed, _START).choice(4, 2, replace=False)))

    def generator(self, enum):
        return self.oracle("generator", lambda: ip.build_generator(self.walk, self.params, enum))

    def operations(self):
        walk, params = self.walk, self.params

        def enumerate_(tr, rnd):
            enum = tr.call("states.enumerate_states", ip.enumerate_states, walk.kappa, params.n)
            counts = tr.call("states.counts_matrix", enum.counts_matrix,
                             count=_count(states=len))
            return enum, counts

        def build(tr, rnd):
            enum, _ = self.results["enumerate"]
            return tr.call("exact.build_rate_matrix", ip.build_rate_matrix, walk, params, enum,
                           count=_count(nnz=lambda m: m.nnz), rss=True)

        def stationary(tr, rnd):
            return tr.call("exact.stationary_exact", ip.stationary_exact, walk, params,
                           count=_count(states=lambda mu: mu.enum.size), rss=True)

        def trace_rates(tr, rnd):
            return tr.call("exact.mean_jump_rate_exact", ip.mean_jump_rate_exact, walk, params,
                           self.a_set, rss=True)

        def regions(tr, rnd):
            mu = self.results["stationary"]
            region = tr.call("regions.RegionSpec", ip.RegionSpec, walk, mu.enum, self.r_set)
            report = tr.call("regions.region_masses", ip.region_masses, mu, [region])
            profiles = [tr.call("regions.flow_profile", ip.flow_profile, walk, params, mu,
                                self.a_set, x) for x in self.a_set]
            return report, profiles

        def check_trace_rates(rates):
            mu = self.results["stationary"]
            xi = np.array([mu.xi_mass(x) for x in self.a_set])
            orc.check_trace_rates(rates.stationary(), xi)

        def check_regions(res):
            report, profiles = res
            mu = self.results["stationary"]
            orc.check_masses(report, mu.weights, mu.enum.xi_index, mu.enum.counts_matrix(),
                             self.r_set)
            orc.check_flow_balance(profiles)

        return [
            Operation("enumerate", enumerate_,
                      lambda res: orc.check_enumeration(res[1], walk.kappa, params.n)),
            Operation("build", build,
                      lambda m: orc.check_rate_matrix(m, self.results["enumerate"][1],
                                                      walk.rates, params.d)),
            Operation("stationary", stationary,
                      lambda mu: orc.check_stationary(mu.weights, self.generator(mu.enum))),
            Operation("trace_rates", trace_rates, check_trace_rates),
            Operation("regions", regions, check_regions),
        ]


class MCEnsemble(Workload):
    """Many independent Gillespie replicas: torus diffusion, hitting times on
    the inclusion and auxiliary chains, and Monte Carlo trace rates."""

    name = "mc_ensemble"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        walk_rng = philox(seed, _WALK)
        start_rng = philox(seed, _START)
        self.torus = ip.build_torus(1, 16, {1: 0.5, -1: 0.5}, rho=2.0, d_l=16.0 ** -5)
        self.diff_t = 0.02 if small else 0.025
        self.diff_replicas = 3 if small else 32
        self.allones = ip.WalkSpec.from_matrix(np.ones((3, 3)) - np.eye(3))
        n_hit = 30 if small else 120
        self.hit_params = ip.ProcessParams(n_hit, float(n_hit) ** -3.0)
        self.hit_start = near_uniform_start(start_rng, n_hit, 5)
        self.hit_replicas = 10 if small else 50
        self.cycle = ip.WalkSpec.cycle(3, float(walk_rng.uniform(0.6, 0.8)))
        self.aux_params = ip.ProcessParams(n_hit, 1e-6)
        self.aux_start = near_uniform_start(start_rng, n_hit, 5)
        self.aux_replicas = 10 if small else 40
        self.rate_params = ip.ProcessParams(6, 0.05)
        self.rate_replicas = 6
        self.rate_horizon = 100.0 if small else 800.0

    def inclusion_moments(self):
        """Exact mean and variance of the time until some site holds at most
        log N particles, from the generator restricted to the other states."""
        params = self.hit_params
        enum = ip.enumerate_states(3, params.n)
        q = ip.build_generator(self.allones, params, enum)
        keep = np.nonzero(enum.counts_matrix().min(axis=1) > math.log(params.n))[0]
        mean, var = orc.hitting_moments(q[keep][:, keep], discrete=False)
        pos = int(np.searchsorted(keep, enum.rank(self.hit_start)))
        return mean[pos], var[pos]

    def auxiliary_moments(self):
        """Exact mean and variance of the auxiliary chain's steps until some
        site of R holds at most floor(eps log N) particles."""
        params = self.aux_params
        enum = ip.enumerate_states(3, params.n)
        counts = enum.counts_matrix().astype(np.int64)
        floor_c = math.floor(0.1 * math.log(params.n))
        keep = np.nonzero(counts.min(axis=1) > floor_c)[0]
        index = np.full(enum.size, -1)
        index[keep] = np.arange(keep.size)
        sub = counts[keep]
        r = self.cycle.rates
        weights, targets = [], []
        for x in range(3):
            for y in range(3):
                if x != y:
                    weights.append(sub[:, y] * (params.d + sub[:, x]) * r[y, x])
                    moved = sub.copy()
                    moved[:, x] -= 1
                    moved[:, y] += 1
                    targets.append(index[enum.rank_many(moved)])
        weights = np.array(weights)
        targets = np.array(targets)
        probs = weights / weights.sum(axis=0)
        inside = targets >= 0
        rows = np.broadcast_to(np.arange(keep.size), targets.shape)
        p = sp.csr_matrix((probs[inside], (rows[inside], targets[inside])),
                          shape=(keep.size, keep.size))
        mean, var = orc.hitting_moments(p, discrete=True)
        pos = index[enum.rank(self.aux_start)]
        return mean[pos], var[pos]

    def operations(self):
        hit_count = _count(replicas=lambda res: res.values.size,
                           censored=lambda res: res.n_censored)

        def diffusion(tr, rnd):
            return tr.call("thermo.measure_diffusion", ip.measure_diffusion, self.torus,
                           t_rescaled=self.diff_t, replicas=self.diff_replicas,
                           seed=self.round_seed(rnd),
                           count=_count(relocations=lambda e: e.total_relocations))

        def hitting_inclusion(tr, rnd):
            task = ip.HittingTask(chain="inclusion", start=self.hit_start,
                                  replicas=self.hit_replicas, seed=self.round_seed(rnd),
                                  threshold=math.log(self.hit_params.n))
            return tr.call("simulate.mc_hitting", ip.mc_hitting, task, self.allones,
                           self.hit_params, threads=1, count=hit_count)

        def hitting_auxiliary(tr, rnd):
            task = ip.HittingTask(chain="auxiliary", start=self.aux_start,
                                  replicas=self.aux_replicas, seed=self.round_seed(rnd),
                                  r_set=(0, 1, 2), eps=0.1)
            return tr.call("simulate.mc_hitting", ip.mc_hitting, task, self.cycle,
                           self.aux_params, threads=1, count=hit_count)

        def trace_rates(tr, rnd):
            return tr.call("simulate.mc_mean_jump_rate", ip.mc_mean_jump_rate, self.cycle,
                           self.rate_params, (0, 1, 2), replicas=self.rate_replicas,
                           horizon=self.rate_horizon, seed=self.round_seed(rnd), threads=1)

        def check_inclusion(res):
            mean, var = self.oracle("inclusion", self.inclusion_moments)
            orc.check_hitting(res, mean, var, self.hit_replicas)

        def check_auxiliary(res):
            mean, var = self.oracle("auxiliary", self.auxiliary_moments)
            orc.check_hitting(res, mean, var, self.aux_replicas)

        def check_rates(est):
            exact = self.oracle("rates", lambda: ip.mean_jump_rate_exact(
                self.cycle, self.rate_params, (0, 1, 2)))
            orc.check_mc_rates(est, exact.raw)

        return [
            Operation("diffusion", diffusion,
                      lambda est: orc.check_diffusion(est, float(self.torus.s2[0, 0]),
                                                      self.diff_t, self.torus.side,
                                                      self.diff_replicas)),
            Operation("hitting_inclusion", hitting_inclusion, check_inclusion),
            Operation("hitting_auxiliary", hitting_auxiliary, check_auxiliary),
            Operation("mc_trace_rates", trace_rates, check_rates),
        ]


class LongPath(Workload):
    """Few long serial paths, stored and then replayed: a 300,000-event
    3-cycle path with its trace projection, a small-torus path with its
    condensate statistics, and a two-replica drift measurement."""

    name = "long_path"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        walk_rng = philox(seed, _WALK)
        start_rng = philox(seed, _START)
        self.cycle = ip.WalkSpec.cycle(3, float(walk_rng.uniform(0.6, 0.8)))
        self.params = ip.ProcessParams(100, 1e-5)
        self.start = ip.Configuration.single_site(3, 100, int(start_rng.integers(3)))
        self.events = 5_000 if small else 300_000
        chain = ip.limit_chain(self.cycle, ip.classify(self.cycle), "nrv")
        self.theta = chain.theta(self.params.n, self.params.d)
        self.small_torus = ip.build_torus(1, 6, {1: 0.8, -1: 0.2}, rho=2.0, d_l=6.0 ** -3)
        self.torus_walk = ip.torus_walk(self.small_torus)
        self.torus_params = ip.ProcessParams(self.small_torus.n, self.small_torus.d_l)
        self.torus_start = ip.Configuration.single_site(
            6, self.small_torus.n, int(start_rng.integers(6)))
        self.torus_horizon = self.small_torus.theta * (20.0 if small else 300.0)
        self.drift_torus = ip.build_torus(1, 24, {1: 0.8, -1: 0.2}, rho=3.0, d_l=24.0 ** -3)
        self.drift_t = 1.0 if small else 4.0
        self.drift_replicas = 2

    def operations(self):
        events = _count(events=lambda traj: traj.n_events)

        def simulate_cycle(tr, rnd):
            return tr.call("simulate.simulate", ip.simulate, self.cycle, self.params,
                           self.start, horizon=1e300, seed=self.round_seed(rnd),
                           max_events=self.events, count=events)

        def trace_project(tr, rnd):
            traj = self.results["simulate_cycle"]
            return tr.call("simulate.trace_project", ip.trace_project, traj, (0, 1, 2),
                           theta=self.theta, count=_count(events=lambda _: traj.n_events))

        def simulate_torus(tr, rnd):
            return tr.call("simulate.simulate", ip.simulate, self.torus_walk,
                           self.torus_params, self.torus_start, horizon=self.torus_horizon,
                           seed=self.round_seed(rnd), stream=1, count=events)

        def condensate(tr, rnd):
            return tr.call("thermo.condensate_statistics", ip.condensate_statistics,
                           self.results["simulate_torus"], self.small_torus,
                           min_relocations=10)

        def drift(tr, rnd):
            return tr.call("thermo.measure_drift", ip.measure_drift, self.drift_torus,
                           t_rescaled=self.drift_t, seed=self.round_seed(rnd),
                           replicas=self.drift_replicas, min_relocations=20)

        target = self.drift_torus.rho * float(self.drift_torus.v[0])
        return [
            Operation("simulate_cycle", simulate_cycle,
                      lambda traj: orc.check_trajectory(traj, 100, 3, self.events)),
            Operation("trace_project", trace_project,
                      lambda path: orc.check_trace_path(path, self.results["simulate_cycle"])),
            Operation("simulate_torus", simulate_torus,
                      lambda traj: orc.check_trajectory(traj, self.small_torus.n, 6, None)),
            Operation("condensate_statistics", condensate,
                      lambda st: orc.check_condensate_statistics(
                          st, self.results["simulate_torus"], 6)),
            Operation("drift", drift,
                      lambda est: orc.check_drift(est, target, self.drift_t,
                                                  self.drift_torus.side, self.drift_replicas)),
        ]


class Analysis(Workload):
    """Exact analysis without LU: closed form, ranking, the torus partition
    convolution, certificates, the test function, generator gaps and the
    rational reciprocal sums."""

    name = "analysis"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        walk_rng = philox(seed, _WALK)
        # a weighted sum of cyclic shifts is doubly stochastic, so the walk
        # measure is uniform; 5 is prime, so every shift generates all sites.
        # Three distinct shifts keep the generator's sparsity the same for
        # every seed.
        rates = np.zeros((5, 5))
        for shift, weight in zip(walk_rng.choice(np.arange(1, 5), size=3, replace=False),
                                 walk_rng.uniform(0.5, 1.5, size=3)):
            rates[np.arange(5), (np.arange(5) + shift) % 5] += weight
        self.walk = ip.WalkSpec.from_matrix(rates)
        self.params = ip.ProcessParams(6 if small else 30, 1e-3)
        self.cycle = ip.WalkSpec.cycle(3, float(walk_rng.uniform(0.6, 0.8)))
        self.tf_n = 30 if small else 120
        side = 6 if small else 32
        self.torus2d = ip.build_torus(2, side, {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5,
                                                (0, -1): 0.5}, rho=1.0, d_l=float(side) ** -3)
        self.gap_kernel = {1: 0.5, -1: 0.5}
        self.gap_torus = ip.build_torus(1, 32, self.gap_kernel, rho=1.0, d_l=32.0 ** -5)
        mat_rng = philox(seed, _MATRIX)
        self.skew = []
        for size in ((3, 4) if small else (8, 16, 24, 32)):
            a = mat_rng.normal(size=(size, size))
            self.skew.append(a - a.T)
        self.recip = (30, 3) if small else (200, 6)
        self.picks = philox(seed, _PICK).random(16)

    def operations(self):
        walk, params = self.walk, self.params
        states = _count(states=len)

        def closed_form(tr, rnd):
            return tr.call("exact.stationary_closed_form", ip.stationary_closed_form,
                           walk, params)

        def enumerate_(tr, rnd):
            enum = tr.call("states.enumerate_states", ip.enumerate_states, walk.kappa, params.n)
            counts = tr.call("states.counts_matrix", enum.counts_matrix, count=states)
            return enum, counts

        def build_generator(tr, rnd):
            enum, _ = self.results["enumerate"]
            return tr.call("exact.build_generator", ip.build_generator, walk, params, enum,
                           count=_count(nnz=lambda q: q.nnz), rss=True)

        def rank_many(tr, rnd):
            enum, counts = self.results["enumerate"]
            return tr.call("states.rank_many", enum.rank_many, counts, count=states)

        def condensation(tr, rnd):
            return tr.call("thermo.torus_condensation", ip.torus_condensation, self.torus2d)

        def certificate(q):
            return lambda tr, rnd: tr.call(
                "gordan.gordan_certificate", ip.gordan_certificate, q,
                count=_count(certificates=lambda c: 1))

        def test_function(tr, rnd):
            return tr.call("asymptotics.test_function", ip.test_function, self.cycle,
                           (0, 1, 2), n=self.tf_n, d=1e-6, eps=0.1)

        def generator_gap(tr, rnd):
            return tr.call("thermo.generator_gap", ip.generator_gap, self.gap_torus,
                           ip.cosine_mode(1))

        def reciprocal_sum(tr, rnd):
            return tr.call("exact.reciprocal_sum", ip.reciprocal_sum, *self.recip)

        def check_generator(q):
            orc.check_generator(q, self.results["enumerate"][1], walk.rates, params.d)

        def check_closed_form(mu):
            orc.check_stationary(mu.weights, self.results["build_generator"])

        def check_test_function(tf):
            counts = self.oracle("tf_counts", lambda: ip.enumerate_states(
                3, self.tf_n).counts_matrix())
            picks = (self.picks * tf.inner_core.size).astype(int)
            orc.check_test_function(tf, self.cycle.rates, 1e-6, counts, picks)

        t2 = self.torus2d
        ops = [
            Operation("closed_form", closed_form, check_closed_form),
            Operation("enumerate", enumerate_,
                      lambda res: orc.check_enumeration(res[1], walk.kappa, params.n)),
            Operation("build_generator", build_generator, check_generator),
            Operation("rank_many", rank_many,
                      lambda ranks: orc.check_ranks(ranks, self.results["enumerate"][0].size)),
            Operation("condensation", condensation,
                      lambda rep: orc.check_condensation(rep, t2.n, t2.n_sites, t2.d_l)),
        ]
        for i, q in enumerate(self.skew):
            ops.append(Operation(f"certificate_{i}", certificate(q),
                                 lambda cert, q=q: orc.check_certificate(cert, q)))
        ops += [
            Operation("test_function", test_function, check_test_function),
            Operation("generator_gap", generator_gap,
                      lambda gap: orc.check_generator_gap(gap, self.gap_torus.side,
                                                          self.gap_kernel)),
            Operation("reciprocal_sum", reciprocal_sum,
                      lambda rs: orc.check_reciprocal_sum(rs.value, rs.n, rs.k,
                                                          rs.within_bound)),
        ]
        return ops


WORKLOADS = {cls.name: cls for cls in (ExactLU, MCEnsemble, LongPath, Analysis)}


def make(name: str, seed: int, small: bool = False) -> Workload:
    """Build a workload's inputs from its seed."""
    return WORKLOADS[name](seed, small)
