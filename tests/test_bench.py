"""The bench driver merges each perfbench run into one row of a BENCH file.

The perfbench checkout here is a stub: its benchmark command prints the two
lines ``perfbench/run.py`` prints, so those tests run in well under a
second. The kernel layer rows run on a committed copy of this repository's
package and benchmark, in a few seconds each.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DRIVER = Path(__file__).resolve().parents[1] / "bench" / "bench.py"

STUB = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if args["--seed"] == "13":
    sys.exit("boom")
print("machine " + json.dumps({"workload": args["--workload"], "seed": int(args["--seed"]),
                               "rounds": 3, "untraced_rounds": 3, "traced_rounds": 0,
                               "fail_rate": 0.25, "setup_runs_s": [0.5], "python": "3"}))
print(json.dumps({"correct": False, "attempted": 4, "failed": 1,
                  "metrics": {"wall_ref": {"value": float(args["--seconds"]),
                                           "unit": "ref"}}}))
'''


@pytest.fixture
def checkout(tmp_path):
    repo = tmp_path / "checkout"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps(
        {"command": [sys.executable, "perfbench/run.py"], "run_seconds": 7}))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "stub"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    return repo, head


def drive(cwd, repo, *args):
    return subprocess.run([sys.executable, str(DRIVER), "--label", "x", "--checkout",
                           str(repo), *args], cwd=cwd, capture_output=True, text=True)


def test_rows_merge_machine_and_metrics_lines(checkout, tmp_path):
    repo, head = checkout
    first = drive(tmp_path, repo, "--workloads", "analysis", "--seeds", "1", "2")
    second = drive(tmp_path, repo, "--workloads", "analysis", "--seeds", "3",
                   "--runs", "2", "--trace", "1")
    assert first.returncode == second.returncode == 0, first.stderr + second.stderr
    bench = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert (bench["label"], bench["commit"], bench["run_seconds"]) == ("x", head, 7)
    assert bench["machine"] == {"python": "3"}
    assert [(r["seed"], r["trace"]) for r in bench["rows"]] == [
        (1, 0), (2, 0), (3, 1), (3, 1)]
    row = bench["rows"][0]
    assert row["workload"] == "analysis"
    assert row["metrics"] == {"wall_ref": 7.0}   # the run length of BENCHMARK.json
    assert (row["fail_rate"], row["attempted"], row["failed"]) == (0.25, 4, 1)
    assert row["rounds"] == 3


def test_a_failed_run_is_recorded_and_fails_the_driver(checkout, tmp_path):
    repo, _ = checkout
    res = drive(tmp_path, repo, "--workloads", "analysis", "--seeds", "13", "1")
    assert res.returncode == 1
    rows = json.loads((tmp_path / "BENCH_x.json").read_text())["rows"]
    assert [(r["seed"], r["fail_rate"], r["metrics"] == {}) for r in rows] == [
        (13, 1.0, True), (1, 0.25, False)]
    assert "boom" in rows[0]["stderr"]


def test_refuses_to_append_another_commit(checkout, tmp_path):
    repo, _ = checkout
    (tmp_path / "BENCH_x.json").write_text(json.dumps(
        {"label": "x", "commit": "0" * 40, "run_seconds": 7, "machine": {}, "rows": []}))
    res = drive(tmp_path, repo, "--workloads", "analysis", "--seeds", "1")
    assert res.returncode == 2 and "holds commit" in res.stderr


REPO = DRIVER.parents[1]


@pytest.fixture
def package_checkout(tmp_path):
    """A committed copy of this repository's package and benchmark."""
    repo = tmp_path / "package"
    for part in ("src", "perfbench"):
        shutil.copytree(REPO / part, repo / part,
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", repo)
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["add", "-A"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "copy"], check=True)
    return repo


def test_kernel_rows_time_the_event_kernel(package_checkout, tmp_path):
    res = drive(tmp_path, package_checkout, "--workloads", "kernel.long_path",
                "kernel.stretch_L16", "kernel.channels", "--seeds", "4101")
    assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "BENCH_x.json").read_text())["rows"]
    assert [(r["workload"], r["seed"], r["fail_rate"]) for r in rows] == [
        ("kernel.long_path", 4101, 0.0), ("kernel.stretch_L16", 4101, 0.0),
        ("kernel.channels", 4101, 0.0)]
    path, stretch, channels = (r["metrics"] for r in rows)
    assert set(path) == set(stretch) == set(channels) == {"us_per_event", "events", "cpu_s"}
    assert path["events"] == 300_000
    # every stretch of this torus and seed, the last cut at the lowered bound
    assert stretch["events"] >= 1 << 17
    # the channel steps of the 32 replicas' excursions at this seed
    assert channels["events"] == 199_015
    for m in (path, stretch, channels):
        assert m["us_per_event"] == pytest.approx(m["cpu_s"] / m["events"] * 1e6)


def test_hitting_row_times_the_hitting_replicas(package_checkout, tmp_path):
    res = drive(tmp_path, package_checkout, "--workloads", "kernel.hitting", "--seeds", "4101")
    assert res.returncode == 0, res.stderr
    (row,) = json.loads((tmp_path / "BENCH_x.json").read_text())["rows"]
    assert (row["workload"], row["seed"], row["fail_rate"]) == ("kernel.hitting", 4101, 0.0)
    m = row["metrics"]
    assert set(m) == {"ms_per_replica", "replicas", "cpu_s"}
    # 10 rounds of 50 inclusion and 40 auxiliary replicas
    assert m["replicas"] == 900
    assert m["ms_per_replica"] == pytest.approx(m["cpu_s"] / m["replicas"] * 1e3)


def test_trace_rows_time_the_replay(package_checkout, tmp_path):
    res = drive(tmp_path, package_checkout, "--workloads", "kernel.trace_long_path",
                "kernel.trace_fixed", "--seeds", "4101")
    assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "BENCH_x.json").read_text())["rows"]
    assert [(r["workload"], r["seed"], r["fail_rate"]) for r in rows] == [
        ("kernel.trace_long_path", 4101, 0.0), ("kernel.trace_fixed", 4101, 0.0)]
    path, fixed = (r["metrics"] for r in rows)
    assert set(path) == {"us_per_event", "events", "cpu_s"}
    assert path["events"] == 300_000
    assert path["us_per_event"] == pytest.approx(path["cpu_s"] / path["events"] * 1e6)
    assert set(fixed) == {"us_per_call", "us_per_call_torus64", "calls", "cpu_s"}
    assert fixed["calls"] == 2000
    assert fixed["us_per_call"] == pytest.approx(fixed["cpu_s"] / fixed["calls"] * 1e6)
    assert fixed["us_per_call_torus64"] > 0


def test_exact_row_times_the_factor(package_checkout, tmp_path):
    res = drive(tmp_path, package_checkout, "--workloads", "exact.kappa4_N20", "--seeds", "4101")
    assert res.returncode == 0, res.stderr
    (row,) = json.loads((tmp_path / "BENCH_x.json").read_text())["rows"]
    assert (row["workload"], row["seed"], row["fail_rate"]) == ("exact.kappa4_N20", 4101, 0.0)
    m = row["metrics"]
    assert set(m) == {"states", "lu_nnz", "predicted_nnz", "factor_cpu_s", "maxrss_mb"}
    # the system of the 4-site walk at N = 20 that every exact solve factors:
    # the jump chain, the four metastable states last and not eliminated
    assert m["states"] == 1771 and m["lu_nnz"] == m["predicted_nnz"] == 305_539
    assert m["factor_cpu_s"] > 0 and m["maxrss_mb"] > 0


def test_layer_rows_time_the_state_space_and_the_order(package_checkout, tmp_path):
    names = ["states.enumerate_k5_N30", "states.build_generator_k5_N30",
             "states.build_rate_matrix_k4_N35", "exact.nested_dissection_k4_N35"]
    res = drive(tmp_path, package_checkout, "--workloads", *names, "--seeds", "4101")
    assert res.returncode == 0, res.stderr
    rows = json.loads((tmp_path / "BENCH_x.json").read_text())["rows"]
    assert [(r["workload"], r["fail_rate"], r["repeats"]) for r in rows] == [
        (name, 0.0, 9) for name in names]
    for row in rows:
        assert set(row["metrics"]) == {"cpu_s", "states", "entries", "maxrss_mb"}
        assert row["metrics"]["cpu_s"] > 0 and row["metrics"]["maxrss_mb"] > 0
    # the counts of 46,376 states of 5 sites, the analysis generator's entries,
    # the rate matrix of 8,436 states and the entries the factor of the
    # jump chain stores, the metastable states last and not eliminated
    assert [(r["metrics"]["states"], r["metrics"]["entries"]) for r in rows] == [
        (46_376, 231_880), (46_376, 660_176), (8_436, 93_240), (8_436, 2_707_160)]


def test_a_kernel_row_without_the_package_fails(checkout, tmp_path):
    repo, _ = checkout
    res = drive(tmp_path, repo, "--workloads", "kernel.stretch_L32", "--seeds", "1")
    assert res.returncode == 1
    (row,) = json.loads((tmp_path / "BENCH_x.json").read_text())["rows"]
    assert (row["workload"], row["fail_rate"], row["metrics"]) == (
        "kernel.stretch_L32", 1.0, {})
    assert "incproc" in row["stderr"]
