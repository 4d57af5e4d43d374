"""Built-in verification suite: every check with its tolerance, pass/fail.

Each criterion is a standalone function returning a :class:`CriterionResult`;
:func:`verify_suite` runs them all. ``quick`` trims replica counts and Monte
Carlo horizons, ``full`` runs the complete suite. Seeds are fixed constants,
so outcomes are reproducible bit-for-bit.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import test_function
from .errors import OutOfRange
from .exact import (flow_profile, mean_jump_rate_exact, reciprocal_bound_holds,
                    reciprocal_sum_table, region_masses,
                    stationary_closed_form, stationary_exact)
from .gordan import gordan_certificate
from .model import ProcessParams, WalkSpec, schedule_power
from .simulate import HittingTask, mc_hitting, scaling_fit
from .thermo import build_torus, cosine_mode, generator_gap, measure_diffusion, measure_drift

SEED = 20240817

# shared fixtures
CYCLE3 = WalkSpec.cycle(3, 0.7)
UP3 = WalkSpec.from_matrix([[0.0, 1.0, 0.5],
                            [0.3, 0.0, 1.2],
                            [0.8, 0.4, 0.0]])
TWOSYM = WalkSpec.from_matrix([[0.0, 1.0], [1.0, 0.0]])
ALLONES3 = WalkSpec.from_matrix([[0.0, 1.0, 1.0],
                                 [1.0, 0.0, 1.0],
                                 [1.0, 1.0, 0.0]])


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    tolerance: str
    metrics: dict = field(default_factory=dict)
    runtime_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in self.metrics.items())
        return (f"[{status}] criterion {self.number:02d} {self.name} "
                f"({self.tolerance}) {parts} [{self.runtime_s:.1f}s]")


def criterion_1(level: str = "full") -> CriterionResult:
    """Closed-form and solver stationary distributions agree."""
    params = ProcessParams(20, 1e-3)
    solved = stationary_exact(CYCLE3, params)
    closed = stationary_closed_form(CYCLE3, params)
    dev = float(np.abs(solved.weights - closed.weights).max())
    return CriterionResult(1, "closed-form vs solver", dev <= 1e-10,
                           "max dev <= 1e-10", {"max_dev": dev})


def criterion_2(level: str = "full") -> CriterionResult:
    """Stationary slice flows balance exactly on the full site set."""
    params = ProcessParams(30, 1e-4)
    mu = stationary_exact(UP3, params)
    worst = 0.0
    for x in range(3):
        up, down = flow_profile(UP3, params, mu, (0, 1, 2), x)
        worst = max(worst, float(np.abs(up - down).max()))
    return CriterionResult(2, "flow symmetry", worst <= 1e-12,
                           "|up-down| <= 1e-12", {"max_imbalance": worst})


def criterion_3(level: str = "full") -> CriterionResult:
    """Normalized trace rate approaches the drift difference and the error
    shrinks with N along a vanishing-d schedule anchored at N=200."""
    schedule = schedule_power(1e-6 * 200.0, 1.0)

    def err_at(n: int) -> float:
        params = ProcessParams(n, schedule(n))
        tr = mean_jump_rate_exact(CYCLE3, params, (0, 1, 2))
        return abs(tr.normalized[0, 1] - 0.4)

    err50 = err_at(50)
    err200 = err_at(200)
    ok = (err200 <= 0.05 * 0.4) and (err200 < err50)
    return CriterionResult(3, "mean-jump-rate decay", ok,
                           "within 5% of 0.4 and err(200) < err(50)",
                           {"err_50": err50, "err_200": err200})


def criterion_4(level: str = "full") -> CriterionResult:
    """Metastable masses approach the uniform limit; condensation holds."""
    mu = stationary_exact(CYCLE3, ProcessParams(200, 1e-6))
    rep = region_masses(mu)
    dev = float(np.abs(rep.xi_mass - 1.0 / 3.0).max())
    ok = dev <= 0.02 and rep.e_mass >= 0.99
    return CriterionResult(4, "mass limit", ok,
                           "|xi - 1/3| <= 0.02 and E >= 0.99",
                           {"max_dev": dev, "E_mass": rep.e_mass})


def criterion_5(level: str = "full") -> CriterionResult:
    """Symmetric-pair trace rate equals d_N up to the stated error budget."""
    worst_ratio = 0.0
    for n in (50, 100, 200):
        d = 1e-6
        tr = mean_jump_rate_exact(TWOSYM, ProcessParams(n, d), (0, 1))
        err = abs(tr.raw[0, 1] / d - 1.0)
        budget = 3.0 * (1.0 / n + d * math.log(n))
        worst_ratio = max(worst_ratio, err / budget)
    tr2 = mean_jump_rate_exact(TWOSYM, ProcessParams(2, 0.1), (0, 1))
    exact_dev = abs(tr2.raw[0, 1] - 0.1)
    ok = worst_ratio <= 1.0 and exact_dev <= 1e-12
    return CriterionResult(5, "symmetric-scale rate", ok,
                           "|err| <= 3(1/N + d logN); N=2 exact to 1e-12",
                           {"worst_err_over_budget": worst_ratio,
                            "n2_dev": exact_dev})


def criterion_6(level: str = "full") -> CriterionResult:
    """Certificate dichotomy on random skew matrices and the two fixtures."""
    rng = np.random.Generator(np.random.Philox(key=(SEED, 6)))
    count = 200
    bad = 0
    for _ in range(count):
        size = int(rng.integers(2, 9))
        a = rng.normal(size=(size, size))
        q = a - a.T
        cert = gordan_certificate(q)
        scale = max(np.abs(q).max(), 1.0)
        if cert.variant == "alpha":
            ok = float(np.max(q @ cert.vector)) / scale <= -1e-9
        else:
            ok = float(np.abs(q @ cert.vector).max()) / scale <= 1e-9
        if not ok:
            bad += 1
    cyc = CYCLE3.rates - CYCLE3.rates.T
    two = np.array([[0.0, 1.0], [-1.0, 0.0]])
    cyc_cert = gordan_certificate(cyc)
    two_cert = gordan_certificate(two)
    ok = bad == 0 and cyc_cert.variant == "beta" and two_cert.variant == "alpha"
    return CriterionResult(6, "certificate dichotomy", ok,
                           "one branch each, residual <= 1e-9 rel",
                           {"violations": bad, "cycle": cyc_cert.variant,
                            "two_site": two_cert.variant})


def criterion_7(level: str = "full") -> CriterionResult:
    """Harmonic test function has positive drift on the inner core."""
    tf = test_function(CYCLE3, (0, 1, 2), n=60, d=1e-6, eps=0.1)
    osc_budget = 5.0 * math.log(60)
    ok = tf.min_drift > 0 and tf.oscillation <= osc_budget
    return CriterionResult(7, "test-function positivity", ok,
                           "min drift > 0, oscillation <= 5 logN",
                           {"min_drift": tf.min_drift,
                            "oscillation": tf.oscillation,
                            "variant": tf.variant})


def criterion_8(level: str = "full") -> CriterionResult:
    """Exact rational reciprocal sums meet the logarithmic bound."""
    n_max, k_max = 300, 6
    table = reciprocal_sum_table(n_max, k_max)
    violations = 0
    for k in range(1, k_max + 1):
        for n in range(k, n_max + 1):
            if not reciprocal_bound_holds(table[k][n], n, k):
                violations += 1
    from fractions import Fraction
    spots = table[2][3] == Fraction(1) and table[2][4] == Fraction(11, 12)
    ok = violations == 0 and spots
    return CriterionResult(8, "reciprocal-sum bound", ok,
                           "S(n,k) <= (3log(n+1))^(k-1)/n, n<=300, k<=6",
                           {"violations": violations, "spots_ok": str(spots)})


def criterion_9(level: str = "full") -> CriterionResult:
    """Nucleation time per particle does not grow along doublings.

    False rejections: none over 200 seeds at either level. The growth has
    mean 0.71 and standard deviation 0.014 (full) or 0.033 (quick), so the
    bound of 1.5 is over 20 standard deviations away.
    """
    replicas = 1000 if level == "full" else 200
    means = []
    for n in (30, 60, 120):
        params = ProcessParams(n, float(n) ** -3.0)
        start = tuple([n // 3, n // 3, n - 2 * (n // 3)])
        task = HittingTask(chain="inclusion", start=start, replicas=replicas,
                           seed=SEED + 9, threshold=math.log(n))
        res = mc_hitting(task, ALLONES3, params)
        means.append(res.mean / n)
    growth = max(means[1] / means[0], means[2] / means[1])
    return CriterionResult(9, "nucleation bound trend", growth <= 1.5,
                           "tau/N growth <= 1.5x per doubling",
                           {"tau_over_n_30": means[0], "tau_over_n_60": means[1],
                            "tau_over_n_120": means[2], "max_growth": growth})


def criterion_10(level: str = "full") -> CriterionResult:
    """Auxiliary reversed-chain hitting times scale at most cubically.

    False rejections: none over 200 seeds at either level. The exponent has
    mean 2.02 and standard deviation 0.031 (full) or 0.065 (quick), so the
    bound of 3.3 is over 19 standard deviations away.
    """
    replicas = 400 if level == "full" else 120
    points = []
    for n in (30, 60, 120):
        params = ProcessParams(n, 1e-6)
        start = tuple([n // 3, n // 3, n - 2 * (n // 3)])
        task = HittingTask(chain="auxiliary", start=start, replicas=replicas,
                           seed=SEED + 10, r_set=(0, 1, 2), eps=0.1)
        res = mc_hitting(task, CYCLE3, params)
        points.append((float(n), res.mean))
    fit = scaling_fit(points)
    return CriterionResult(10, "auxiliary hitting scale", fit.slope <= 3.3,
                           "log-log exponent <= 3.3",
                           {"exponent": fit.slope, "r2": fit.r_squared,
                            "mean_120": points[-1][1]})


# criteria 11 and 14, and 12 and 14, read the same runs; each is a pure
# function of its arguments, so it runs once per process
@functools.cache
def _drift_run(level: str):
    # 32 replicas at both levels: a replica's off-condensate fraction is
    # heavy-tailed (mean 0.006, but above 0.05 in one replica in 40, when a
    # third-site stretch runs long), so with 2 replicas criterion 14
    # rejected an exact sampler at 3% of seeds (full) and 2% (quick)
    spec = build_torus(1, 24, {1: 0.8, -1: 0.2}, rho=3.0, d_l=24.0 ** -3)
    t_resc = 25.0 if level == "full" else 8.0
    return spec, measure_drift(spec, t_rescaled=t_resc, seed=SEED + 11,
                               replicas=32, min_relocations=100)


@functools.cache
def _diffusion_run():
    # 400 replicas at both levels: the MSD slope's standard deviation is
    # 0.061, so the 20% band lies 3.3 deviations out; with 200 replicas it
    # is 0.083-0.095, and the band rejected an exact sampler at 0.5-3.5% of
    # seeds
    spec = build_torus(1, 16, {1: 0.5, -1: 0.5}, rho=2.0, d_l=16.0 ** -5)
    return spec, measure_diffusion(spec, t_rescaled=0.4, replicas=400,
                                   seed=SEED + 12)


def criterion_11(level: str = "full") -> CriterionResult:
    """Totally asymmetric torus: ballistic condensate at velocity rho*v.

    False rejections: none over 100 seeds at either level. With 32 replicas
    the relative error had mean 0.004 and maximum 0.014 (full), 0.007 and
    0.028 (quick), against the 10% band, and no replica relocated fewer
    than 272 times.
    """
    spec, est = _drift_run(level)
    target = spec.rho * float(spec.v[0])
    rel = abs(float(est.drift[0]) - target) / target
    ok = rel <= 0.10 and est.relocations_min >= 100
    return CriterionResult(11, "torus drift", ok,
                           "drift within 10% of rho*v, >= 100 relocations",
                           {"drift": float(est.drift[0]), "target": target,
                            "rel_err": rel, "min_reloc": est.relocations_min})


def criterion_12(level: str = "full") -> CriterionResult:
    """Symmetric torus: diffusive condensate with unit mean-square slope.

    False rejections: none over 100 seeds (both levels run the same 400
    replicas). The slope had mean 1.003 and standard deviation 0.062, so
    the 20% band lies 3.2 deviations out, and the drift stayed within 2.7
    sigma. Over 200 seeds with 200 replicas the band rejected 1 seed (and 7
    on the draw streams before the purpose substreams).
    """
    spec, est = _diffusion_run()
    slope_err = abs(est.msd_slope - 1.0)
    drift_sigmas = (abs(float(est.drift[0])) / float(est.drift_stderr[0])
                    if est.drift_stderr[0] > 0 else 0.0)
    ok = slope_err <= 0.20 and drift_sigmas <= 3.0
    return CriterionResult(12, "torus diffusion", ok,
                           "MSD slope within 20% of 1, drift within 3 sigma of 0",
                           {"msd_slope": est.msd_slope,
                            "drift_sigmas": drift_sigmas,
                            "replicas_reloc": est.total_relocations})


def criterion_13(level: str = "full") -> CriterionResult:
    """Rescaled discrete generators converge to the limit generator."""
    f = cosine_mode(1)
    ok = True
    gaps = {}
    for name, kern in (("symmetric", {1: 0.5, -1: 0.5}),
                       ("mean_zero", {2: 0.2, -1: 0.4})):
        prev = None
        for side in (8, 16, 32):
            spec = build_torus(1, side, kern, rho=1.0, d_l=float(side) ** -5)
            gap = generator_gap(spec, f)
            gaps[f"{name}_L{side}"] = gap
            if prev is not None and not gap < prev:
                ok = False
            prev = gap
    return CriterionResult(13, "generator convergence", ok,
                           "gap strictly decreasing over L in {8,16,32}", gaps)


def criterion_14(level: str = "full") -> CriterionResult:
    """Off-condensate occupation is negligible in the torus runs.

    False rejections: none over 100 seeds at either level; the drift run's
    off fraction reached 0.026 (full) and 0.034 (quick), the diffusion
    run's 0.0005. Resampling 32,000 single replicas puts the rate near 7e-5
    (full) and 4e-4 (quick) at 32 drift replicas, against 3% and 2% at 2.
    """
    _, drift_est = _drift_run(level)
    _, diff_est = _diffusion_run()
    worst = max(drift_est.off_fraction, diff_est.off_fraction)
    return CriterionResult(14, "occupation negligibility", worst <= 0.05,
                           "off-E occupation <= 5%",
                           {"drift_off": drift_est.off_fraction,
                            "diffusion_off": diff_est.off_fraction})


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11, criterion_12,
                criterion_13, criterion_14)


@dataclass
class VerifyReport:
    level: str
    results: list[CriterionResult]
    wall_s: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "all_passed": self.all_passed,
            "wall_s": self.wall_s,
            "criteria": [{
                "number": r.number, "name": r.name, "passed": r.passed,
                "tolerance": r.tolerance, "metrics": r.metrics,
                "runtime_s": r.runtime_s,
            } for r in self.results],
        }


def verify_suite(level: str = "quick", echo=print) -> VerifyReport:
    """Run every acceptance criterion at the requested level."""
    if level not in ("quick", "full"):
        raise OutOfRange(f"unknown level {level!r}; expected 'quick' or 'full'")
    t0 = time.perf_counter()
    results = []
    for fn in ALL_CRITERIA:
        start = time.perf_counter()
        res = fn(level)
        res.runtime_s = time.perf_counter() - start
        results.append(res)
        if echo is not None:
            echo(res.line())
    return VerifyReport(level=level, results=results,
                        wall_s=time.perf_counter() - t0)
