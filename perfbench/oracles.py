"""Independent checks of every result the benchmark times.

Each check raises :class:`CheckFailed` with a reason; the harness counts the
operation as failed and carries on. Checks run outside the timed section.
Statistical bands are ``Z`` standard errors wide, where the standard error
comes from the estimator's known variance at the workload's sizes, so every
band is fixed before a run starts. ``Z = 6`` because some estimators are
skewed: a mean of 32 squared displacements exceeds six standard errors with
probability about 5e-6 (chi-square with 32 degrees of freedom), small
enough over the thousands of checks a benchmark campaign makes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

Z = 6.0
STATIONARY_REL = 1e-10   # |mu Q| <= STATIONARY_REL * max|Q|
EXACT_REL = 1e-9         # agreement of two exact computations


class CheckFailed(Exception):
    """An operation's result disagrees with its oracle."""


def require(ok, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def close(value, target, rel: float, what: str) -> None:
    value = np.asarray(value, dtype=float)
    target = np.asarray(target, dtype=float)
    scale = max(float(np.abs(target).max(initial=0.0)), 1e-300)
    dev = float(np.abs(value - target).max(initial=0.0))
    require(np.isfinite(value).all() and dev <= rel * scale,
            f"{what}: deviation {dev:.3e} > {rel:.0e} * {scale:.3e}")


def within_band(value: float, target: float, se: float, what: str) -> None:
    require(math.isfinite(value) and abs(value - target) <= Z * se,
            f"{what}: {value:.6g} outside {target:.6g} +- {Z:g} * {se:.3g}")


# --- states -----------------------------------------------------------------

def check_enumeration(counts: np.ndarray, kappa: int, n: int) -> None:
    size = math.comb(n + kappa - 1, kappa - 1)
    require(counts.shape == (size, kappa), f"counts shape {counts.shape}")
    require((counts >= 0).all() and (counts.sum(axis=1) == n).all(),
            "rows are not configurations of n particles")
    # strictly decreasing in lexicographic order means every state once
    diff = np.diff(counts.astype(np.int64), axis=0)
    first = np.argmax(diff != 0, axis=1)
    require((diff[np.arange(diff.shape[0]), first] < 0).all(),
            "states are not in strict larger-counts-first order")


def check_ranks(ranks: np.ndarray, size: int) -> None:
    require(np.array_equal(ranks, np.arange(size)),
            "rank_many(counts_matrix()) != arange(size)")


# --- exact ------------------------------------------------------------------

def check_rate_matrix(rates: sp.spmatrix, counts: np.ndarray, walk_rates: np.ndarray,
                      d: float) -> None:
    """Row totals and nonzero count against a direct formula over the counts."""
    c = counts.astype(float)
    expect_rows = (c * ((d + c) @ walk_rates.T)).sum(axis=1)
    close(np.asarray(rates.sum(axis=1)).ravel(), expect_rows, EXACT_REL,
          "rate-matrix row totals")
    degree = (walk_rates > 0).sum(axis=1)
    expect_nnz = int(((counts > 0) * degree).sum())
    require(rates.nnz == expect_nnz, f"nnz {rates.nnz} != {expect_nnz}")


def check_generator(q: sp.spmatrix, counts: np.ndarray, walk_rates: np.ndarray,
                    d: float) -> None:
    """Off-diagonal part as for the rate matrix; rows sum to zero."""
    off = q.tocsr(copy=True)
    off.setdiag(0.0)
    off.eliminate_zeros()
    check_rate_matrix(off, counts, walk_rates, d)
    close(-q.diagonal(), np.asarray(off.sum(axis=1)).ravel(), EXACT_REL, "generator diagonal")


def check_stationary(weights: np.ndarray, generator: sp.spmatrix) -> None:
    require(abs(weights.sum() - 1.0) <= 1e-12 and (weights >= 0).all(),
            "not a probability vector")
    scale = float(np.abs(generator.data).max())
    residual = float(np.abs(weights @ generator).max())
    require(residual <= STATIONARY_REL * scale,
            f"stationary residual {residual:.3e} > {STATIONARY_REL:.0e} * {scale:.3e}")


def check_trace_rates(trace_stationary: np.ndarray, xi_masses: np.ndarray) -> None:
    """The trace chain's stationary law is mu restricted to the xi states."""
    close(trace_stationary, xi_masses / xi_masses.sum(), EXACT_REL,
          "trace-chain stationary law vs xi-masses of mu")


def check_flow_balance(profiles) -> None:
    for x, (up, down) in enumerate(profiles):
        close(up, down, EXACT_REL, f"flow balance at site {x}")


def check_masses(report, weights: np.ndarray, xi_index, counts: np.ndarray,
                 r_set) -> None:
    kappa = counts.shape[1]
    close(report.xi_mass, weights[[xi_index(x) for x in range(kappa)]],
          EXACT_REL, "xi masses")
    occupied = (counts > 0).sum(axis=1)
    expect_b = [weights[occupied <= k].sum() for k in range(1, kappa + 1)]
    close(report.b_mass, expect_b, EXACT_REL, "occupied-count masses")
    outside = np.ones(kappa, dtype=bool)
    outside[list(r_set)] = False
    tube = weights[(counts[:, outside] == 0).all(axis=1)].sum()
    close(report.regions[0].tube, tube, EXACT_REL, "tube mass")


def check_reciprocal_sum(value, n: int, k: int, within_bound: bool) -> None:
    """S(n, k) is the z**n coefficient of (sum_m z**m / m)**k."""
    series = np.concatenate([[0.0], 1.0 / np.arange(1, n + 1)])
    power = np.zeros(n + 1)
    power[0] = 1.0
    for _ in range(k):
        power = np.convolve(power, series)[:n + 1]
    close(float(value), power[n], EXACT_REL, f"S({n},{k})")
    require(within_bound, f"S({n},{k}) above its logarithmic bound")


# --- simulate ---------------------------------------------------------------

def check_trajectory(traj, n: int, kappa: int, events: int | None) -> None:
    require(events is None or traj.n_events == events,
            f"{traj.n_events} events, expected {events}")
    require(traj.n_events == 0 or (np.diff(traj.times) > 0).all(),
            "event times not increasing")
    require(traj.n_events == 0 or traj.times[-1] <= traj.horizon,
            "event after the horizon")
    delta = (np.bincount(traj.move_to, minlength=kappa)
             - np.bincount(traj.move_from, minlength=kappa))
    final = np.asarray(traj.initial) + delta
    require((final >= 0).all() and final.sum() == n, "final state invalid")
    require(tuple(int(v) for v in final) == traj.final_state(), "final state mismatch")


def check_trace_path(path, traj) -> None:
    close(path.trace_time + path.off_time, traj.horizon, EXACT_REL,
          "trace_time + off_time vs horizon")
    close(path.sojourns.sum(), path.trace_time, EXACT_REL,
          "sojourn total vs trace_time")


def occupation_history(traj, kappa: int) -> np.ndarray:
    """Counts after each event, one row per event, initial state first."""
    steps = np.zeros((traj.n_events + 1, kappa), dtype=np.int64)
    steps[0] = traj.initial
    rows = np.arange(1, traj.n_events + 1)
    np.add.at(steps, (rows, traj.move_to), 1)
    np.subtract.at(steps, (rows, traj.move_from), 1)
    return np.cumsum(steps, axis=0)


def check_condensate_statistics(stats, traj, n_sites: int) -> None:
    """Relocations and off-condensate time from a vectorized replay."""
    hist = occupation_history(traj, n_sites)
    condensed = (hist > 0).sum(axis=1) == 1
    site = np.argmax(hist, axis=1)
    visits = site[condensed]
    relocations = int((visits[1:] != visits[:-1]).sum())
    require(relocations == stats.relocations,
            f"relocations {stats.relocations} != replay {relocations}")
    edges = np.concatenate([[0.0], traj.times, [traj.horizon]])
    dwell = np.diff(edges)
    off = float(dwell[~condensed].sum()) / traj.horizon
    close(stats.off_fraction, off, EXACT_REL, "off-condensate fraction")


def hitting_moments(transient: sp.spmatrix, discrete: bool):
    """Mean and variance of the absorption time from each transient state.

    ``transient`` is the generator (continuous time) or the transition
    matrix (discrete steps) restricted to the transient states.
    """
    size = transient.shape[0]
    ones = np.ones(size)
    if discrete:
        a = (sp.identity(size) - transient).tocsc()
        lu = spla.splu(a)
        mean = lu.solve(ones)
        second = lu.solve(ones + 2.0 * (transient @ mean))
    else:
        lu = spla.splu((-transient).tocsc())
        mean = lu.solve(ones)
        second = lu.solve(2.0 * mean)
    return mean, second - mean ** 2


def check_hitting(result, mean: float, var: float, replicas: int) -> None:
    require(result.values.shape == (replicas,), "wrong replica count")
    require(result.n_censored == 0, f"{result.n_censored} censored replicas")
    within_band(result.mean, mean, math.sqrt(var / replicas), "hitting mean")


def check_mc_rates(est, exact_raw: np.ndarray) -> None:
    """Each MC trace rate within Z Poisson standard errors of the exact rate,
    the error taken from the exact rate and the observed trace time."""
    k = exact_raw.shape[0]
    for i in range(k):
        require(est.time_at[i] > 0, f"no trace time at site {est.a_set[i]}")
        for j in range(k):
            if i != j:
                se = math.sqrt(exact_raw[i, j] / est.time_at[i])
                within_band(float(est.estimate[i, j]), float(exact_raw[i, j]), se,
                            f"trace rate {est.a_set[i]}->{est.a_set[j]}")


def check_diffusion(est, slope: float, t: float, side: int, replicas: int) -> None:
    """MSD slope and drift against the limit diffusion.

    The squared displacement of a walk making Poisson(lam) unit jumps has
    relative variance 2 + 1/lam, with lam = slope * t * side**2 jumps.
    """
    lam = slope * t * side ** 2
    within_band(est.msd_slope, slope, slope * math.sqrt((2.0 + 1.0 / lam) / replicas),
                "MSD slope")
    within_band(float(est.drift[0]), 0.0, math.sqrt(slope / (replicas * t)), "drift")


def check_drift(est, target: float, t: float, side: int, replicas: int) -> None:
    """Rescaled drift against rho * v; the displacement is a Poisson count of
    mean target * side * t lattice steps per replica."""
    se = math.sqrt(target / (side * t * replicas))
    within_band(float(est.drift[0]), target, se, "drift")


# --- thermo / gordan / asymptotics ------------------------------------------

def check_condensation(report, n: int, n_sites: int, d_l: float) -> None:
    """(1 - z)**(-d) generates the single-site weights, so the partition
    value is Gamma(N + d S) / (N! Gamma(d S)) for S sites."""
    ds = d_l * n_sites
    log_z = math.lgamma(n + ds) - math.lgamma(n + 1) - math.lgamma(ds)
    close(report.log_partition, log_z, EXACT_REL, "log partition")
    require(0.0 < report.e_mass <= 1.0, f"condensate mass {report.e_mass}")


def check_generator_gap(gap: float, side: int, kernel: dict) -> None:
    """Sup-gap of the symmetric torus generator on cos(2 pi u), computed
    directly: rate d_L h(y) per offset and time scale side**2 / d_L."""
    u = np.arange(side) / side
    w = 2.0 * math.pi
    discrete = np.zeros(side)
    limit = np.zeros(side)
    for off, h in kernel.items():
        discrete += side ** 2 * h * (np.cos(w * (u + off / side)) - np.cos(w * u))
        limit += 0.5 * h * off ** 2 * (-(w ** 2) * np.cos(w * u))
    close(gap, np.abs(discrete - limit).max(), 1e-8, "generator gap")


def check_certificate(cert, q: np.ndarray) -> None:
    scale = max(float(np.abs(q).max()), 1.0)
    v = np.asarray(cert.vector, dtype=float)
    if cert.variant == "alpha":
        require(float(np.max(q @ v)) < 0, "alpha certificate: Q alpha not < 0")
    elif cert.variant == "beta":
        require((v <= 0).all() and np.abs(v).max() > 0, "beta not <= 0 and nonzero")
        require(float(np.abs(q @ v).max()) <= 1e-9 * scale, "Q beta != 0")
    else:
        raise CheckFailed(f"unknown certificate variant {cert.variant!r}")


def check_test_function(tf, walk_rates: np.ndarray, d: float, counts: np.ndarray,
                        picks: np.ndarray) -> None:
    """Positive drift, and the reversed-kernel drift recomputed at sampled
    inner-core states from the definition."""
    require(tf.min_drift > 0, f"min drift {tf.min_drift} <= 0")
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, counts.max() + 2))])
    r_set = list(tf.r_set)

    def f0(state):
        return float(sum(c * harmonic[state[x]] for c, x in zip(tf.coefficients, r_set)))

    for pos in picks:
        s = counts[tf.inner_core[pos]].astype(np.int64)
        total = 0.0
        acc = 0.0
        for x in r_set:
            for y in r_set:
                if x == y:
                    continue
                total += s[x] * (d + s[y]) * walk_rates[x, y]
                moved = s.copy()
                moved[x] -= 1
                moved[y] += 1
                acc += s[y] * (d + s[x]) * walk_rates[y, x] * (f0(moved) - f0(s))
        close(tf.drift[pos], acc / total, 1e-8, "test-function drift")
