import json
import math

import numpy as np
import pytest

from incproc import ProcessParams, WalkSpec, simulate
from incproc.cli import (DEFAULT_SEED, RunReport, _schedule, main, run,
                         validate_config)
from incproc.errors import ConfigError

WALK2 = {"sites": ["a", "b"], "rates": [[0.0, 1.0], [1.0, 0.0]]}
WALK3 = {"sites": ["0", "1", "2"],
         "rates": [[0.0, 0.7, 0.3], [0.3, 0.0, 0.7], [0.7, 0.3, 0.0]]}


def stationary_cfg(**extra):
    cfg = {"schema_version": 1, "kind": "stationary", "seed": 5,
           "walk": WALK2, "params": {"n": 2, "d_N": 0.1}}
    cfg.update(extra)
    return cfg


class TestValidation:
    def test_accepts_valid(self):
        assert validate_config(stationary_cfg())["kind"] == "stationary"

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown field"):
            validate_config(stationary_cfg(bogus=1))

    def test_rejects_missing_required(self):
        cfg = stationary_cfg()
        del cfg["params"]
        with pytest.raises(ConfigError, match="params"):
            validate_config(cfg)

    def test_rejects_negative_d(self):
        cfg = stationary_cfg()
        cfg["params"] = {"n": 2, "d_N": -0.1}
        with pytest.raises(ConfigError, match="params.d_N"):
            validate_config(cfg)

    def test_rejects_bad_schema_version(self):
        cfg = stationary_cfg()
        cfg["schema_version"] = 99
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config(cfg)

    def test_rejects_unknown_kind(self):
        cfg = stationary_cfg()
        cfg["kind"] = "mystery"
        with pytest.raises(ConfigError, match="kind"):
            validate_config(cfg)

    def test_rejects_bad_walk(self):
        cfg = stationary_cfg()
        cfg["walk"] = {"sites": ["a", "b"], "rates": [[1.0, 1.0], [1.0, 0.0]]}
        with pytest.raises(ConfigError, match="walk"):
            validate_config(cfg)


class TestRun:
    def test_stationary_artifacts(self, tmp_path):
        report = run(stationary_cfg(compare_closed_form=True), out_dir=tmp_path)
        csv = (tmp_path / "distribution.csv").read_text().splitlines()
        assert len(csv) == 4  # header + 3 states
        assert report.checks["closed_form_agreement"]
        assert report.metrics["E_mass"] == pytest.approx(22 / 24)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["E_mass"] == pytest.approx(22 / 24)

    def test_config_echo_round_trip(self, tmp_path):
        cfg = stationary_cfg()
        report = run(cfg, out_dir=tmp_path)
        assert report.config == cfg
        echoed = json.loads((tmp_path / "report.json").read_text())["config"]
        assert echoed == cfg

    def test_byte_identical_artifacts(self, tmp_path):
        run(stationary_cfg(), out_dir=tmp_path / "a")
        run(stationary_cfg(), out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "distribution.csv").read_bytes()
                == (tmp_path / "b" / "distribution.csv").read_bytes())
        assert ((tmp_path / "a" / "summary.json").read_bytes()
                == (tmp_path / "b" / "summary.json").read_bytes())

    def test_exact_kinds_report_solver(self, tmp_path):
        run(stationary_cfg(), out_dir=tmp_path / "s")
        cfg = {"schema_version": 1, "kind": "meanrate", "walk": WALK3,
               "params": {"n": 6, "d_N": 0.1}, "a_set": [0, 1, 2]}
        run(cfg, out_dir=tmp_path / "m")
        for sub in ("s", "m"):
            solver = json.loads((tmp_path / sub / "report.json").read_text())[
                "metrics"]["solver"]
            assert solver["path"] == "lu"
            assert 0.0 <= solver["residual"] <= solver["bound"]
            assert solver["lu_nnz"] > 0 and solver["predicted_nnz"] > 0
            stages = ("order_s", "build_s", "factor_s", "solve_s")
            assert all(solver[stage] >= 0.0 for stage in stages)

    def test_meanrate_with_mc(self, tmp_path):
        cfg = {"schema_version": 1, "kind": "meanrate", "seed": 9,
               "walk": WALK2, "params": {"n": 2, "d_N": 0.1},
               "a_set": [0, 1], "mc_replicas": 60, "mc_horizon": 50.0}
        report = run(cfg, out_dir=tmp_path)
        assert report.checks["mc_within_3_sigma"]
        rows = (tmp_path / "meanrate.csv").read_text().splitlines()
        assert rows[0] == "site_from,site_to,rate,normalized,predicted"
        assert len(rows) == 3

    def test_classify_artifact(self, tmp_path):
        cfg = {"schema_version": 1, "kind": "classify", "walk": WALK3}
        run(cfg, out_dir=tmp_path)
        payload = json.loads((tmp_path / "classify.json").read_text())
        assert payload["S0"] == ["0", "1", "2"]
        assert payload["limit_nrv"]["scale"] == "1/(N*d_N)"

    def test_simulate_with_trace(self, tmp_path):
        cfg = {"schema_version": 1, "kind": "simulate", "seed": 3,
               "walk": WALK2, "params": {"n": 3, "d_N": 0.2},
               "initial": {"site": 0}, "horizon": 50.0, "trace_set": [0, 1]}
        report = run(cfg, out_dir=tmp_path)
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "time,site_from,site_to"
        assert report.metrics["events"] == len(lines) - 1
        # every time cell is a plain float, the one the path holds
        traj = simulate(WalkSpec.from_json(WALK2), ProcessParams(3, 0.2), (3, 0), 50.0, seed=3)
        assert [float(line.split(",")[0]) for line in lines[1:]] == traj.times.tolist()
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["trace_time"] + trace["off_time"] == pytest.approx(50.0)

    def test_nucleation_run(self, tmp_path):
        cfg = {"schema_version": 1, "kind": "nucleation", "seed": 2,
               "walk": {"sites": ["0", "1", "2"],
                        "rates": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0],
                                  [1.0, 1.0, 0.0]]},
               "sizes": [18, 36, 72], "delta": 1.0, "replicas": 80,
               "d_schedule": {"type": "power", "coeff": 1.0, "exponent": 3.0}}
        report = run(cfg, out_dir=tmp_path)
        rows = (tmp_path / "nucleation.csv").read_text().splitlines()
        assert len(rows) == 4
        assert report.checks["bounded_linear_trend"]

    def test_thermo_run(self, tmp_path):
        cfg = {"schema_version": 1, "kind": "thermo", "seed": 4,
               "dim": 1, "sides": [8, 12], "kernel": [[1, 0.8], [-1, 0.2]],
               "rho": 1.0, "dl_schedule": "tt1",
               "regime_assert": "totally_asym", "drift_t": 6.0, "replicas": 1}
        report = run(cfg, out_dir=tmp_path)
        rows = (tmp_path / "thermo.csv").read_text().splitlines()
        assert rows[0] == "L,drift,diffusion,gap,occupation"
        assert len(rows) == 3
        assert report.checks["occupation_negligible"]

    def test_thermo_passes_threads(self, tmp_path, monkeypatch):
        import incproc.cli as cli
        seen = []

        def recording(measure):
            def wrapped(*args, threads=1, **kwargs):
                seen.append(threads)
                return measure(*args, threads=threads, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "measure_drift", recording(cli.measure_drift))
        monkeypatch.setattr(cli, "measure_diffusion", recording(cli.measure_diffusion))
        base = {"schema_version": 1, "kind": "thermo", "seed": 4, "dim": 1,
                "sides": [8], "rho": 1.0, "dl_schedule": "tt1", "replicas": 2}
        run(dict(base, kernel=[[1, 0.8], [-1, 0.2]], drift_t=1.0),
            out_dir=tmp_path / "drift", threads=2)
        run(dict(base, kernel=[[1, 0.5], [-1, 0.5]], diffusion_t=0.02),
            out_dir=tmp_path / "diffusion", threads=2)
        assert seen == [2, 2]

    def test_thermo_regime_assert_mismatch(self, tmp_path):
        cfg = {"schema_version": 1, "kind": "thermo", "dim": 1, "sides": [8],
               "kernel": [[1, 0.5], [-1, 0.5]], "rho": 1.0,
               "dl_schedule": "tt1", "regime_assert": "totally_asym"}
        with pytest.raises(ConfigError, match="regime_assert"):
            run(cfg, out_dir=tmp_path)


class TestMain:
    def test_config_file_flow(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(stationary_cfg()))
        code = main(["stationary", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "report.json").exists()

    def test_kind_mismatch(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(stationary_cfg()))
        assert main(["classify", "--config", str(cfg_path)]) == 1

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(stationary_cfg(bogus=1)))
        assert main(["stationary", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(stationary_cfg()))
        code = main(["stationary", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o"), "--seed", "123"])
        assert code == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["seed"] == 123

    def test_failed_checks_exit_two(self, monkeypatch, tmp_path):
        import incproc.cli as cli
        report = RunReport(config={}, seed=0, checks={"x": False})
        monkeypatch.setattr(cli, "run", lambda *a, **k: report)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(stationary_cfg()))
        assert main(["stationary", "--config", str(cfg_path)]) == 2

    def test_unknown_verify_level_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--level", "bogus"])
        assert exc.value.code == 2

    def test_verify_wiring(self, monkeypatch, tmp_path):
        # stub the suite so the subcommand wiring is cheap to exercise
        import incproc.cli as cli
        from incproc.acceptance import CriterionResult, VerifyReport

        def fake_suite(level, echo=None):
            res = CriterionResult(1, "stub", True, "none")
            return VerifyReport(level=level, results=[res], wall_s=0.01)

        monkeypatch.setattr(cli, "verify_suite", fake_suite)
        assert main(["verify", "--level", "quick", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["level"] == "quick"
        assert payload["criteria"][0]["passed"] is True

    def test_verify_out_with_numpy_bool(self, monkeypatch, tmp_path):
        # criteria compare numpy scalars, so `passed` and metrics can be numpy.bool
        import incproc.cli as cli
        from incproc.acceptance import CriterionResult, VerifyReport

        def fake_suite(level, echo=None):
            res = CriterionResult(7, "stub", np.float64(1.0) > 0, "none",
                                  {"flag": np.bool_(False)})
            return VerifyReport(level=level, results=[res], wall_s=0.01)

        monkeypatch.setattr(cli, "verify_suite", fake_suite)
        assert main(["verify", "--level", "quick", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["criteria"][0]["passed"] is True
        assert payload["criteria"][0]["metrics"]["flag"] is False

    def test_verify_failure_exit_two(self, monkeypatch, tmp_path):
        import incproc.cli as cli
        from incproc.acceptance import CriterionResult, VerifyReport

        def fake_suite(level, echo=None):
            res = CriterionResult(3, "stub", False, "none")
            return VerifyReport(level=level, results=[res], wall_s=0.01)

        monkeypatch.setattr(cli, "verify_suite", fake_suite)
        assert main(["verify", "--level", "full", "--out", str(tmp_path)]) == 2

    def test_thermo_flags(self, tmp_path):
        # the run's occupation check holds the mean off-condensate fraction of
        # its replicas to 5%; at L = 8 a replica's fraction has mean 0.028 but
        # a heavy tail, so one replica failed the check at 8-10% of seeds,
        # and 100 replicas fail it at about 0.3%
        code = main(["thermo", "--dim", "1", "--side", "8",
                     "--kernel", "[[1,0.8],[-1,0.2]]", "--rho", "1",
                     "--dL-schedule", "tt1", "--regime-assert", "totally_asym",
                     "--out", str(tmp_path), "--replicas", "100"])
        assert code == 0
        assert (tmp_path / "thermo.csv").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--side", "8,x", "sides"), ("--dL-schedule", "{bad", "dl_schedule")])
    def test_thermo_flag_errors_name_the_field(self, tmp_path, capsys, flag, value, field):
        flags = {"--dim": "1", "--side": "8", "--kernel": "[[1,0.8],[-1,0.2]]",
                 "--rho": "1", "--dL-schedule": "tt1", flag: value}
        argv = ["thermo", *(v for kv in flags.items() for v in kv), "--out", str(tmp_path)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    def test_default_seed_recorded(self, tmp_path):
        cfg = stationary_cfg()
        del cfg["seed"]
        report = run(cfg, out_dir=tmp_path)
        assert report.seed == DEFAULT_SEED


def _old_schedule_value(desc, size):
    """The d_schedule reader that ``_schedule`` replaced."""
    if isinstance(desc, (int, float)):
        return float(desc)
    return float(desc["coeff"]) * float(size) ** (-float(desc["exponent"]))


def _old_dl_schedule(desc, dim):
    """The dl_schedule reader that ``_schedule`` replaced."""
    if isinstance(desc, str):
        exp = {"tt1": dim + 2, "tt2": dim + 3, "tt3": 2 * dim + 3}[desc]
        return lambda side: float(side) ** (-exp)
    coeff = float(desc["coeff"])
    exp = float(desc["exponent"])
    return lambda side: coeff * float(side) ** (-exp)


class TestSchedules:
    SIZES = [1, 2, 3, 7, 8, 12, 30, 45, 60, 64, 1000, 10**6]

    @pytest.mark.parametrize("desc", [1e-4, 3, {"type": "power", "coeff": 1, "exponent": 3},
                                      {"type": "power", "coeff": 0.7, "exponent": 2.5}])
    def test_d_schedule_matches_old_reader(self, desc):
        schedule = _schedule(desc, "d_schedule")
        for size in self.SIZES:
            assert schedule(size) == _old_schedule_value(desc, size)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("desc", ["tt1", "tt2", "tt3",
                                      {"type": "power", "coeff": 2, "exponent": 4}])
    def test_dl_schedule_matches_old_reader(self, dim, desc):
        named = {"tt1": dim + 2, "tt2": dim + 3, "tt3": 2 * dim + 3}
        schedule = _schedule(desc, "dl_schedule", named)
        old = _old_dl_schedule(desc, dim)
        for size in self.SIZES:
            assert schedule(size) == old(size)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("name", ["tt1", "tt2", "tt3"])
    def test_thermo_reads_named_schedules_as_before(self, tmp_path, monkeypatch,
                                                    dim, name):
        import incproc.cli as cli
        seen = []

        class Built(Exception):
            pass

        def record(d, side, kernel, rho, d_l):
            seen.append(d_l)
            raise Built

        monkeypatch.setattr(cli, "build_torus", record)
        offsets = [[1] + [0] * (dim - 1), [-1] + [0] * (dim - 1)]
        cfg = dict(_THERMO, dim=dim, sides=[12], dl_schedule=name,
                   kernel=[[offsets[0], 0.8], [offsets[1], 0.2]])
        with pytest.raises(Built):
            run(cfg, out_dir=tmp_path)
        assert seen == [_old_dl_schedule(name, dim)(12)]

    @pytest.mark.parametrize("desc", ["tt1", "power", None, True, [1, 2],
                                      {"type": "exp", "coeff": 1, "exponent": 1}])
    def test_rejects_unknown_forms(self, desc):
        with pytest.raises(ConfigError, match="^d_schedule: "):
            _schedule(desc, "d_schedule")

    @pytest.mark.parametrize("desc", ["tt4", 1e-3, None])
    def test_dl_schedule_takes_names_not_numbers(self, desc):
        with pytest.raises(ConfigError, match="^dl_schedule: "):
            _schedule(desc, "dl_schedule", {"tt1": 3})


_SIMULATE3 = {"schema_version": 1, "kind": "simulate", "seed": 3, "walk": WALK3,
              "params": {"n": 4, "d_N": 0.2}, "initial": {"site": 0}, "horizon": 5.0}
_NUCLEATION = {"schema_version": 1, "kind": "nucleation", "seed": 2, "walk": WALK3,
               "sizes": [6, 9, 12], "delta": 1.0, "replicas": 2,
               "d_schedule": {"type": "power", "coeff": 1, "exponent": 3}}
_THERMO = {"schema_version": 1, "kind": "thermo", "seed": 4, "dim": 1, "sides": [8],
           "kernel": [[1, 0.8], [-1, 0.2]], "rho": 1.0, "dl_schedule": "tt1",
           "drift_t": 0.5, "replicas": 1}
_MEANRATE = {"schema_version": 1, "kind": "meanrate", "seed": 3, "walk": WALK3,
             "params": {"n": 4, "d_N": 0.2}, "a_set": [0, 1, 2]}
_CLASSIFY = {"schema_version": 1, "kind": "classify", "walk": WALK3}
_VERIFY = {"schema_version": 1, "kind": "verify", "level": "quick"}


class TestMalformedInputs:
    """Inputs that once escaped ``main`` as a bare KeyError, TypeError or
    IndexError, ran from the wrong site, on a misread value or another route,
    or ended in a generic error: each is a configuration error that names its
    field, with exit status 1."""

    @pytest.mark.parametrize("base, changes, field", [
        (_NUCLEATION, {"d_schedule": {"type": "power", "exponent": 3}}, "d_schedule.coeff"),
        (_NUCLEATION, {"d_schedule": {"type": "power", "coeff": 1}}, "d_schedule.exponent"),
        (_THERMO, {"dl_schedule": {"type": "power", "exponent": 3}}, "dl_schedule.coeff"),
        (_THERMO, {"dl_schedule": {"type": "power", "coeff": 1}}, "dl_schedule.exponent"),
        (_THERMO, {"kernel": 5}, "kernel"),
        (_THERMO, {"kernel": [[1, 0.8], 3]}, "kernel"),
        (_THERMO, {"kernel": [[0.5, 0.8], [-1, 0.2]]}, "kernel"),
        (_SIMULATE3, {"initial": {"site": 7}}, "initial.site"),
        (_SIMULATE3, {"initial": {"site": -1}}, "initial.site"),
        (_SIMULATE3, {"initial": {}}, "initial"),
        (_THERMO, {"sides": 8}, "sides"),
        (_NUCLEATION, {"sizes": 6}, "sizes"),
        (_MEANRATE, {"a_set": 5}, "a_set"),
        (_SIMULATE3, {"trace_set": 5}, "trace_set"),
        (_CLASSIFY, {"mode": "bogus"}, "mode"),
        # a JSON value of the wrong type or out of range
        (_SIMULATE3, {"horizon": None}, "horizon"),
        (_SIMULATE3, {"trace_set": [0, 1], "theta": None}, "theta"),
        (_NUCLEATION, {"delta": None}, "delta"),
        (_THERMO, {"rho": None}, "rho"),
        (_SIMULATE3, {"initial": 5}, "initial"),
        (_THERMO, {"replicas": [2]}, "replicas"),
        (_SIMULATE3, {"params": {"n": True, "d_N": 0.2}, "initial": [1, 0, 0]}, "params.n"),
        (_SIMULATE3, {"seed": True}, "seed"),
        (_SIMULATE3, {"seed": 2**64}, "seed"),
        (stationary_cfg(), {"compare_closed_form": "no"}, "compare_closed_form"),
        (_MEANRATE, {"mc_replicas": 2.5}, "mc_replicas"),
        (_THERMO, {"dim": "1"}, "dim"),
        (_SIMULATE3, {"horizon": "x"}, "horizon"),
        (_NUCLEATION, {"sizes": ["a"]}, "sizes"),
        (_NUCLEATION, {"replicas": 0}, "replicas"),
        (_VERIFY, {"level": "bogus"}, "level"),
        (_SIMULATE3, {"params": {"n": 4, "d_N": math.inf}}, "params.d_N"),
    ], ids=["d-no-coeff", "d-no-exponent", "dl-no-coeff", "dl-no-exponent",
            "kernel-number", "kernel-bad-pair", "kernel-fractional-offset",
            "site-past-end", "site-negative", "site-missing", "sides-number",
            "sizes-number", "a-set-number", "trace-set-number", "mode-unknown",
            "horizon-null", "theta-null", "delta-null", "rho-null", "initial-number",
            "replicas-list", "n-true", "seed-true", "seed-past-key", "compare-string",
            "mc-replicas-fraction", "dim-string", "horizon-string", "sizes-strings",
            "replicas-zero", "level-unknown", "d-infinite"])
    def test_is_a_config_error(self, tmp_path, capsys, base, changes, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(base, **changes)))
        code = main([base["kind"], "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    @pytest.mark.parametrize("kernel, message", [
        ([[1, -0.8], [-1, 0.2]], "negative kernel weight"),
        ([[[1, 0], 0.8], [[-1, 0], 0.2]], "has dimension 2, expected 1"),
        ([[0, 0.5], [1, 0.5]], "origin"),
        ([[1, 0.0]], "empty support"),
        ([], "empty support"),
        ([[[[1]], 0.5]], "offsets must be integers"),
        ([[{"a": 1}, 0.5]], "offsets must be integers"),
        ([[True, 0.5]], "not an integer"),
        ([[1, "0.5"]], "not a finite number")])
    def test_kernel_values_follow_the_library_rule(self, tmp_path, capsys, kernel, message):
        # the torus-kernel rule of build_torus, as a configuration error naming
        # the field; a negative weight or an offset of another dimension was
        # a runtime error, and a nested offset a bare TypeError
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(_THERMO, kernel=kernel)))
        code = main(["thermo", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: kernel: ") and message in err
