"""The compiled loops of the event kernel and of the condensate channel
steps are built on first use, once per source hash, into
``$XDG_CACHE_HOME/incproc``.

Each test runs fresh Python processes with a cache directory of its own, so
nothing here reads or writes the cache of the user who runs the tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# one short path in a fresh process, once the file GO (if given) exists
PATH_RUN = """
import os, sys, time
while len(sys.argv) > 1 and not os.path.exists(sys.argv[1]):
    time.sleep(0.001)
from incproc import ProcessParams, WalkSpec, simulate
traj = simulate(WalkSpec.cycle(3, 0.7), ProcessParams(10, 0.1), (10, 0, 0), 50.0, seed=1)
print(traj.n_events, traj.times[-1].hex())
"""


def env_for(cache, tmp_path, **extra):
    return dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(cache),
                TMPDIR=str(tmp_path), **extra)


def run_path(env, *args):
    return subprocess.run([sys.executable, "-c", PATH_RUN, *args], env=env,
                          capture_output=True, text=True)


def builds(cache):
    return sorted(p.name for p in (cache / "incproc").iterdir())


def no_compiler(tmp_path):
    """A ``PATH`` with no C compiler on it."""
    empty = tmp_path / "bin"
    empty.mkdir()
    return str(empty)


def test_a_second_process_loads_the_cached_build(tmp_path):
    cache = tmp_path / "cache"
    first = run_path(env_for(cache, tmp_path))
    assert first.returncode == 0, first.stderr
    (name,) = builds(cache)
    assert name.startswith("kernel-") and name.endswith(".so")
    built = (cache / "incproc" / name).stat()
    # with no compiler on PATH, only the cached build can serve
    again = run_path(env_for(cache, tmp_path, PATH=no_compiler(tmp_path)))
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout
    assert builds(cache) == [name]
    now = (cache / "incproc" / name).stat()
    assert (now.st_ino, now.st_mtime_ns) == (built.st_ino, built.st_mtime_ns)


def test_processes_that_load_at_once_both_succeed(tmp_path):
    cache, go = tmp_path / "cache", tmp_path / "go"
    env = env_for(cache, tmp_path)
    procs = [subprocess.Popen([sys.executable, "-c", PATH_RUN, str(go)], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    go.touch()
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0]
    # one whole build, no temporary file left
    assert len(builds(cache)) == 1


def test_an_unwritable_cache_directory_still_gives_a_kernel(tmp_path):
    # a cache "directory" that is a file cannot be written, also by root
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    res = run_path(env_for(blocked, scratch))
    assert res.returncode == 0, res.stderr
    assert res.stdout == run_path(env_for(tmp_path / "cache", tmp_path)).stdout
    # the build of that process is removed once loaded
    assert list(scratch.iterdir()) == []


def test_no_compiler_is_one_incproc_error(tmp_path):
    env = env_for(tmp_path / "cache", tmp_path, PATH=no_compiler(tmp_path))
    script = """
from incproc import (IncprocError, ProcessParams, WalkSpec, build_torus, measure_diffusion,
                     simulate)
for run in (lambda: simulate(WalkSpec.cycle(3, 0.7), ProcessParams(10, 0.1), (10, 0, 0),
                             5.0, seed=1),
            lambda: measure_diffusion(build_torus(1, 8, {1: 0.5, -1: 0.5}, rho=1.0,
                                                  d_l=1e-3), 0.5, replicas=2, seed=1)):
    try:
        run()
    except IncprocError as exc:
        print(type(exc).__name__, exc)
"""
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True)
    assert res.returncode == 0 and res.stderr == "", res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 2, lines
    for line in lines:
        assert line.startswith("IncprocError cannot build the event kernel with `cc -O2 ")
    # the command line: exit status 1, one error line, no traceback
    cfg = tmp_path / "simulate.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "kind": "simulate", "seed": 7,
        "walk": {"sites": ["a", "b", "c"],
                 "rates": [[0, 0.7, 0.3], [0.3, 0, 0.7], [0.7, 0.3, 0]]},
        "params": {"n": 20, "d_N": 1e-3}, "initial": {"site": 0}, "horizon": 20}))
    res = subprocess.run([sys.executable, "-m", "incproc.cli", "simulate", "--config",
                          str(cfg), "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 1
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot build the event kernel")
    assert not (tmp_path / "cache" / "incproc").exists() or builds(tmp_path / "cache") == []
