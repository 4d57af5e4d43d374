"""Tests of the benchmark itself: workloads pass their checks at reduced size,
every oracle rejects a corrupted result, tracing does not change results,
and the metric names agree with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracles as orc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ip = workloads.ip
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _round(name, traced=False, rnd=0):
    wl = workloads.make(name, seed=7, small=True)
    tracer = tracing.Tracer(enabled=traced)
    messages = []
    res = run.run_round(wl, tracer, rnd, messages.append)
    return wl, tracer, res, messages


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_checks_at_reduced_size(name):
    wl, _, res, messages = _round(name)
    assert messages == []
    assert res["complete"] and res["failed"] == 0
    assert res["attempted"] == len(wl.operations())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_rounds_return_identical_results(name):
    plain, _, _, _ = _round(name, traced=False)
    traced, tracer, _, _ = _round(name, traced=True)
    assert tracer.spans
    assert plain.results.keys() == traced.results.keys()
    for op in plain.results:
        assert pickle.dumps(plain.results[op]) == pickle.dumps(traced.results[op]), op


def test_inputs_depend_only_on_the_seed():
    a = workloads.make("exact_lu", seed=3, small=True)
    b = workloads.make("exact_lu", seed=3, small=True)
    c = workloads.make("exact_lu", seed=4, small=True)
    assert np.array_equal(a.walk.rates, b.walk.rates)
    assert not np.array_equal(a.walk.rates, c.walk.rates)
    assert not workloads.is_reversible(a.walk.rates)
    assert ip.analyze_walk(workloads.make("analysis", seed=3, small=True).walk).ui


def test_perturbed_stationary_law_is_rejected():
    wl, _, _, _ = _round("exact_lu")
    mu = wl.results["stationary"]
    q = wl.generator(mu.enum)
    orc.check_stationary(mu.weights, q)
    bent = mu.weights * (1.0 + 1e-3 * np.random.default_rng(0).standard_normal(mu.weights.size))
    with pytest.raises(orc.CheckFailed):
        orc.check_stationary(np.abs(bent) / np.abs(bent).sum(), q)


def test_wrong_trace_rate_matrix_is_rejected():
    wl, _, _, _ = _round("exact_lu")
    rates = wl.results["trace_rates"]
    raw = rates.raw.copy()
    raw[0] *= 2.0
    wrong = dataclasses.replace(rates, raw=raw)
    check = next(op.check for op in wl.operations() if op.name == "trace_rates")
    check(rates)
    with pytest.raises(orc.CheckFailed):
        check(wrong)


def test_sign_flipped_certificate_is_rejected():
    wl, _, _, _ = _round("analysis")
    for i, q in enumerate(wl.skew):
        cert = wl.results[f"certificate_{i}"]
        orc.check_certificate(cert, q)
        with pytest.raises(orc.CheckFailed):
            orc.check_certificate(dataclasses.replace(cert, vector=-cert.vector), q)
    beta = ip.gordan_certificate(ip.WalkSpec.cycle(3, 0.7).rates - ip.WalkSpec.cycle(3, 0.7).rates.T)
    assert beta.variant == "beta"
    with pytest.raises(orc.CheckFailed):
        orc.check_certificate(dataclasses.replace(beta, vector=-beta.vector), beta.q)


def test_shifted_rank_is_rejected():
    wl, _, _, _ = _round("analysis")
    ranks = wl.results["rank_many"]
    orc.check_ranks(ranks, ranks.size)
    with pytest.raises(orc.CheckFailed):
        orc.check_ranks(ranks + 1, ranks.size)


def test_monte_carlo_bands_reject_shifted_estimates():
    wl, _, _, _ = _round("mc_ensemble")
    ops = {op.name: op for op in wl.operations()}
    est = wl.results["mc_trace_rates"]
    with pytest.raises(orc.CheckFailed):
        ops["mc_trace_rates"].check(dataclasses.replace(est, estimate=est.estimate * 2.0))
    # at reduced size the hitting bands are wide, so these run at full size
    full = workloads.make("mc_ensemble", seed=7)
    for op in full.operations():
        if op.name.startswith("hitting_"):
            hit = op.run(tracing.Tracer(), 0)
            op.check(hit)
            with pytest.raises(orc.CheckFailed):
                op.check(dataclasses.replace(hit, mean=hit.mean * 2.0))


def test_broken_trace_path_is_rejected():
    wl, _, _, _ = _round("long_path")
    path = wl.results["trace_project"]
    traj = wl.results["simulate_cycle"]
    with pytest.raises(orc.CheckFailed):
        orc.check_trace_path(dataclasses.replace(path, off_time=path.off_time + 1.0), traj)


def test_self_times_add_up_to_the_round():
    _, tracer, res, _ = _round("long_path", traced=True)
    own = tracing.self_times(tracer.spans)
    (root,) = [s for s in tracer.spans if s.parent is None]
    assert sum(own.values()) == pytest.approx(root.duration, rel=1e-9)
    assert all(v >= -1e-9 for v in own.values())
    ops = [s for s in tracer.spans if s.parent == root.span_id]
    assert all(s.op_id == s.span_id for s in ops)
    assert all(s.op_id is not None for s in tracer.spans if s is not root)


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == ["wall_ref", "setup_s", "peak_rss_mb"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == {name: tracing.unit(name) for name in tracing.per_layer_names()}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.NAMES)
    assert set(run.NAMES) == set(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analysis",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
