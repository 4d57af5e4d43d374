"""Experiment runner: JSON configs in, CSV/JSON artifacts out.

Subcommands: stationary, meanrate, classify, simulate, nucleation, thermo,
verify. Exit status is 0 on success, 2 when an acceptance-style assertion
fails, and 1 on configuration or runtime errors. Seeds default to a fixed
constant and are always echoed, never taken from the clock.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .acceptance import verify_suite
from .asymptotics import classify as classify_walk
from .asymptotics import limit_chain, predicted_mean_rate
from .errors import ConfigError, IncprocError, OutOfRange, PremiseViolated
from .exact import mean_jump_rate_exact, region_masses, stationary_closed_form, stationary_exact
from .model import (Configuration, ProcessParams, WalkSpec, analyze_walk,
                    schedule_fixed, schedule_power)
from .simulate import HittingTask, mc_hitting, mc_mean_jump_rate, scaling_fit, simulate, trace_project
from .thermo import build_torus, cosine_mode, generator_gap, measure_diffusion, measure_drift, torus_condensation

DEFAULT_SEED = 20240817
SCHEMA_VERSION = 1

KINDS = ("stationary", "meanrate", "classify", "simulate", "nucleation",
         "thermo", "verify")

_COMMON_KEYS = {"schema_version", "kind", "seed", "out"}
_KIND_KEYS = {
    "stationary": ({"walk", "params"}, {"compare_closed_form"}),
    "meanrate": ({"walk", "params", "a_set"}, {"mc_replicas", "mc_horizon"}),
    "classify": ({"walk"}, {"mode"}),
    "simulate": ({"walk", "params", "initial", "horizon"},
                 {"trace_set", "theta"}),
    "nucleation": ({"walk", "sizes", "d_schedule", "delta", "replicas"},
                   {"step_cap"}),
    "thermo": ({"dim", "sides", "kernel", "rho", "dl_schedule"},
               {"regime_assert", "drift_t", "diffusion_t", "replicas"}),
    "verify": ({"level"}, set()),
}


def _need(cfg: dict, key: str, path: str = ""):
    if key not in cfg:
        raise ConfigError(f"{path}{key}", "missing required field")
    return cfg[key]


def validate_config(cfg: dict) -> dict:
    """Strictly validate an experiment configuration document."""
    if not isinstance(cfg, dict):
        raise ConfigError("", "configuration must be a JSON object")
    version = _need(cfg, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version!r}")
    kind = _need(cfg, "kind")
    if kind not in KINDS:
        raise ConfigError("kind", f"unknown kind {kind!r}")
    required, optional = _KIND_KEYS[kind]
    allowed = _COMMON_KEYS | required | optional
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field")
    for key in required:
        _need(cfg, key)
    if "seed" in cfg and not isinstance(cfg["seed"], int):
        raise ConfigError("seed", "must be an integer")
    for key in ("a_set", "trace_set", "sizes", "sides"):
        if key in cfg and not isinstance(cfg[key], list):
            raise ConfigError(key, f"expected a list, got {cfg[key]!r}")
    if cfg.get("mode", "auto") not in ("auto", "rv", "nrv"):
        raise ConfigError("mode", f"expected auto, rv or nrv, got {cfg['mode']!r}")
    if "params" in cfg:
        params = cfg["params"]
        if not isinstance(params, dict) or set(params) != {"n", "d_N"}:
            raise ConfigError("params", "expected object with fields n, d_N")
        if not (isinstance(params["n"], int) and params["n"] >= 1):
            raise ConfigError("params.n", "must be a positive integer")
        if not (isinstance(params["d_N"], (int, float)) and params["d_N"] > 0):
            raise ConfigError("params.d_N", "must be a positive number")
    if "walk" in cfg:
        try:
            WalkSpec.from_json(cfg["walk"])
        except (ValueError, IncprocError) as exc:
            raise ConfigError("walk", str(exc)) from exc
    return cfg


def _params(cfg: dict) -> ProcessParams:
    return ProcessParams(cfg["params"]["n"], float(cfg["params"]["d_N"]))


def _schedule(desc, path: str, named: dict[str, int] | None = None):
    """The map from size to ``d`` that a schedule field describes:
    ``{"type": "power", "coeff": c, "exponent": a}`` for ``c * size**(-a)``;
    for a field with ``named`` schedules (d_L), a key of ``named``, the power
    schedule with coefficient 1 and that exponent; for one without (d_N), a
    number, the fixed schedule."""
    if named is not None and isinstance(desc, str) and desc in named:
        return schedule_power(1.0, named[desc])
    if named is None and _is_number(desc):
        return schedule_fixed(float(desc))
    if isinstance(desc, dict) and desc.get("type") == "power":
        for key in ("coeff", "exponent"):
            if not _is_number(desc.get(key)):
                raise ConfigError(f"{path}.{key}", "power schedule needs a number")
        return schedule_power(float(desc["coeff"]), float(desc["exponent"]))
    raise ConfigError(path, f"unsupported schedule {desc!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kernel(cfg: dict) -> dict[tuple[int, ...], float]:
    """The ``kernel`` field, a list of ``[offset, weight]`` pairs, as a map
    from integer offsets to weights; ``build_torus`` checks the values."""
    pairs = cfg["kernel"]

    def malformed():
        return ConfigError("kernel", "expected a list of [offset, weight] pairs "
                                     f"with integer offsets, got {pairs!r}")

    if not isinstance(pairs, list):
        raise malformed()
    kernel = {}
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise malformed()
        off, w = pair
        coords = off if isinstance(off, list) else [off]
        if not (coords and all(isinstance(v, int) and not isinstance(v, bool)
                               for v in coords) and _is_number(w)):
            raise malformed()
        kernel[tuple(coords)] = float(w)
    return kernel


def _initial(cfg: dict, walk: WalkSpec, n: int) -> Configuration:
    """The ``initial`` field: ``{"site": x}`` or a list of counts."""
    init = cfg["initial"]
    if isinstance(init, dict):
        if set(init) != {"site"}:
            raise ConfigError("initial", "expected object with field site")
        try:
            return Configuration.single_site(walk.kappa, n, init["site"])
        except OutOfRange as exc:
            raise ConfigError("initial.site", str(exc)) from exc
    return Configuration(tuple(int(v) for v in init))


@dataclass
class RunReport:
    """Outcome of one experiment: inputs echo, metrics, artifacts."""

    config: dict
    seed: int
    metrics: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "metrics": self.metrics,
            "checks": self.checks,
            "artifacts": self.artifacts,
            "wall_s": self.wall_s,
            "all_passed": self.all_passed,
        }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [repr(v) if isinstance(v, float) else str(v) for v in row]
            fh.write(",".join(cells) + "\n")


def run(cfg: dict, out_dir: str | Path | None = None, threads: int = 1,
        echo=None) -> RunReport:
    """Dispatch one validated experiment and write its artifacts."""
    cfg = validate_config(cfg)
    seed = int(cfg.get("seed", DEFAULT_SEED))
    out = Path(out_dir) if out_dir is not None else Path(cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = RunReport(config=cfg, seed=seed)
    handler = _HANDLERS[cfg["kind"]]
    handler(cfg, seed, out, threads, report, echo or (lambda _:None))
    report.wall_s = time.perf_counter() - t0
    _write_json(out / "report.json", report.to_dict())
    report.artifacts.append(str(out / "report.json"))
    return report


def _run_stationary(cfg, seed, out, threads, report, echo):
    walk = WalkSpec.from_json(cfg["walk"])
    params = _params(cfg)
    mu = stationary_exact(walk, params)
    csv_path = out / "distribution.csv"
    mu.to_csv(csv_path, site_labels=walk.sites)
    report.artifacts.append(str(csv_path))
    summary = mu.summary()
    masses = region_masses(mu)
    summary["B_mass"] = masses.b_mass.tolist()
    if cfg.get("compare_closed_form"):
        closed = stationary_closed_form(walk, params)
        dev = float(np.abs(mu.weights - closed.weights).max())
        summary["closed_form_max_dev"] = dev
        report.checks["closed_form_agreement"] = dev <= 1e-10
    _write_json(out / "summary.json", summary)
    report.artifacts.append(str(out / "summary.json"))
    report.metrics.update({"E_mass": summary["E_mass"], "states": mu.enum.size,
                           "solver": asdict(mu.solver)})


def _run_meanrate(cfg, seed, out, threads, report, echo):
    walk = WalkSpec.from_json(cfg["walk"])
    params = _params(cfg)
    a_set = tuple(int(v) for v in cfg["a_set"])
    exact = mean_jump_rate_exact(walk, params, a_set)
    pred = predicted_mean_rate(walk, a_set, params.n, params.d)
    rows = []
    for i, x in enumerate(a_set):
        for j, y in enumerate(a_set):
            if x != y:
                rows.append((x, y, float(exact.raw[i, j]),
                             float(exact.normalized[i, j]),
                             float(pred.normalized[i, j])))
    _write_csv(out / "meanrate.csv",
               ["site_from", "site_to", "rate", "normalized", "predicted"], rows)
    report.artifacts.append(str(out / "meanrate.csv"))
    report.metrics["error_budget"] = pred.error_budget
    report.metrics["solver"] = asdict(exact.solver)
    if cfg.get("mc_replicas"):
        est = mc_mean_jump_rate(walk, params, a_set,
                                replicas=int(cfg["mc_replicas"]),
                                horizon=float(cfg.get("mc_horizon", 100.0)),
                                seed=seed, threads=threads)
        dev = np.abs(est.estimate - exact.raw)
        sigma = np.where(est.stderr > 0, est.stderr, np.inf)
        report.metrics["mc_max_sigmas"] = float((dev / sigma).max())
        report.checks["mc_within_3_sigma"] = bool((dev <= 3 * sigma).all())


def _run_classify(cfg, seed, out, threads, report, echo):
    walk = WalkSpec.from_json(cfg["walk"])
    cls = classify_walk(walk)
    analysis = analyze_walk(walk)
    payload = {
        "sites": list(walk.sites),
        "S0": [walk.sites[x] for x in cls.s0],
        "irreducible_on_S0": cls.irreducible_on_s0,
        "symmetric_on_S0": cls.symmetric_on_s0,
        "S0_semi_attracting": cls.is_semi_attracting(cls.s0),
        "S0_attracting": cls.is_attracting(cls.s0),
        "flags": {"rev": analysis.rev, "ui": analysis.ui, "up": analysis.up},
        "q": analysis.q,
    }
    mode = cfg.get("mode", "auto")
    modes = [mode] if mode in ("rv", "nrv") else (
        ["nrv"] if not cls.symmetric_on_s0 else ["rv"])
    for m in modes:
        try:
            lc = limit_chain(walk, cls, m)
            payload[f"limit_{m}"] = {
                "sites": [walk.sites[x] for x in lc.sites],
                "rates": lc.rates.tolist(),
                "scale": lc.scale,
                "nu": lc.nu.tolist(),
            }
        except PremiseViolated as exc:
            payload[f"limit_{m}"] = {"unsupported": str(exc)}
    _write_json(out / "classify.json", payload)
    report.artifacts.append(str(out / "classify.json"))
    report.metrics["S0_size"] = len(cls.s0)


def _run_simulate(cfg, seed, out, threads, report, echo):
    walk = WalkSpec.from_json(cfg["walk"])
    params = _params(cfg)
    traj = simulate(walk, params, _initial(cfg, walk, params.n),
                    float(cfg["horizon"]), seed)
    csv_path = out / "trajectory.csv"
    traj.to_csv(csv_path)
    report.artifacts.append(str(csv_path))
    report.metrics["events"] = traj.n_events
    trace_set = cfg.get("trace_set")
    if trace_set:
        theta = float(cfg.get("theta", 1.0))
        path = trace_project(traj, tuple(int(v) for v in trace_set), theta)
        payload = {
            "labels": path.labels.tolist(),
            "sojourns": path.sojourns.tolist(),
            "trace_time": path.trace_time,
            "off_time": path.off_time,
        }
        _write_json(out / "trace.json", payload)
        report.artifacts.append(str(out / "trace.json"))
        report.metrics["off_time"] = path.off_time


def _run_nucleation(cfg, seed, out, threads, report, echo):
    walk = WalkSpec.from_json(cfg["walk"])
    delta = float(cfg["delta"])
    replicas = int(cfg["replicas"])
    schedule = _schedule(cfg["d_schedule"], "d_schedule")
    rows = []
    points = []
    for size in cfg["sizes"]:
        size = int(size)
        params = ProcessParams(size, schedule(size))
        base = size // walk.kappa
        start = [base] * walk.kappa
        start[-1] += size - base * walk.kappa
        task = HittingTask(chain="inclusion", start=tuple(start),
                           replicas=replicas, seed=seed,
                           threshold=delta * math.log(size),
                           step_cap=int(cfg.get("step_cap", 10**9)))
        res = mc_hitting(task, walk, params, threads=threads)
        rows.append((size, res.mean, res.variance, res.mean / size,
                     res.n_censored))
        points.append((float(size), res.mean))
    _write_csv(out / "nucleation.csv",
               ["N", "mean_tau", "variance", "mean_tau_over_n", "censored"], rows)
    report.artifacts.append(str(out / "nucleation.csv"))
    if len(points) >= 3:
        fit = scaling_fit(points)
        report.metrics["exponent"] = fit.slope
    ratios = [rows[i + 1][3] / rows[i][3] for i in range(len(rows) - 1)]
    if ratios:
        report.metrics["max_tau_over_n_growth"] = max(ratios)
        report.checks["bounded_linear_trend"] = max(ratios) <= 1.5


def _run_thermo(cfg, seed, out, threads, report, echo):
    dim = int(cfg["dim"])
    kernel = _kernel(cfg)
    rho = float(cfg["rho"])
    schedule = _schedule(cfg["dl_schedule"], "dl_schedule",
                         {"tt1": dim + 2, "tt2": dim + 3, "tt3": 2 * dim + 3})
    rows = []
    for side in cfg["sides"]:
        side = int(side)
        spec = build_torus(dim, side, kernel, rho, schedule(side))
        if cfg.get("regime_assert") and spec.regime != cfg["regime_assert"]:
            raise ConfigError("regime_assert",
                              f"model regime is {spec.regime!r}")
        gap = generator_gap(spec, cosine_mode([1] + [0] * (dim - 1)))
        cond = torus_condensation(spec)
        if spec.regime == "symmetric":
            est = measure_diffusion(spec, float(cfg.get("diffusion_t", 0.4)),
                                    replicas=int(cfg.get("replicas", 100)),
                                    seed=seed, threads=threads)
            drift = float(est.drift[0])
            diffusion = est.msd_slope
            off = est.off_fraction
        else:
            est = measure_drift(spec, float(cfg.get("drift_t", 10.0)), seed,
                                replicas=int(cfg.get("replicas", 2)),
                                min_relocations=1, threads=threads)
            drift = float(est.drift[0])
            diffusion = float("nan")
            off = est.off_fraction
        rows.append((side, drift, diffusion, gap, off))
        report.metrics[f"E_mass_L{side}"] = cond.e_mass
        echo(f"L={side} drift={drift:.4g} diffusion={diffusion:.4g} "
             f"gap={gap:.4g} occupation={off:.4g}")
    _write_csv(out / "thermo.csv",
               ["L", "drift", "diffusion", "gap", "occupation"], rows)
    report.artifacts.append(str(out / "thermo.csv"))
    report.checks["occupation_negligible"] = all(r[4] <= 0.05 for r in rows)


def _run_verify(cfg, seed, out, threads, report, echo):
    rep = verify_suite(cfg["level"], echo=echo)
    _write_json(out / "verify.json", rep.to_dict())
    report.artifacts.append(str(out / "verify.json"))
    for r in rep.results:
        report.checks[f"criterion_{r.number:02d}"] = r.passed
    report.metrics["wall_s"] = rep.wall_s


_HANDLERS = {
    "stationary": _run_stationary,
    "meanrate": _run_meanrate,
    "classify": _run_classify,
    "simulate": _run_simulate,
    "nucleation": _run_nucleation,
    "thermo": _run_thermo,
    "verify": _run_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incproc",
        description="Inclusion-process experiments: exact analysis, simulation, verification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment configuration")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="output directory")
    common.add_argument("--threads", type=int, default=1,
                        help="worker processes for replica-parallel runs")
    common.add_argument("--replicas", type=int,
                        help="override the config replica count")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ("stationary", "meanrate", "classify", "nucleation"):
        sub.add_parser(kind, parents=[common])
    sim = sub.add_parser("simulate", parents=[common])
    sim.add_argument("--horizon", type=float, help="override config horizon")
    thermo = sub.add_parser("thermo", parents=[common])
    thermo.add_argument("--dim", type=int)
    thermo.add_argument("--side", help="comma-separated torus sides")
    thermo.add_argument("--kernel", help="JSON list of [offset, weight] pairs")
    thermo.add_argument("--rho", type=float)
    thermo.add_argument("--dL-schedule", dest="dl_schedule",
                        help="tt1|tt2|tt3 or JSON power schedule")
    thermo.add_argument("--regime-assert", dest="regime_assert",
                        choices=("totally_asym", "mean_zero_asym", "symmetric"))
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("--level", default="quick", choices=("quick", "full"))
    return parser


def _config_from_args(args) -> dict:
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", str(exc)) from exc
    elif args.command == "verify":
        cfg = {"schema_version": SCHEMA_VERSION, "kind": "verify",
               "level": args.level}
    elif args.command == "thermo":
        missing = [k for k in ("dim", "side", "kernel", "rho", "dl_schedule")
                   if getattr(args, k if k != "side" else "side") is None]
        if missing:
            raise ConfigError(missing[0], "required without --config")
        try:
            kernel = json.loads(args.kernel)
        except json.JSONDecodeError as exc:
            raise ConfigError("kernel", str(exc)) from exc
        schedule = args.dl_schedule
        if schedule.startswith("{"):
            schedule = json.loads(schedule)
        cfg = {"schema_version": SCHEMA_VERSION, "kind": "thermo",
               "dim": args.dim,
               "sides": [int(v) for v in args.side.split(",")],
               "kernel": kernel, "rho": args.rho, "dl_schedule": schedule}
        if args.regime_assert:
            cfg["regime_assert"] = args.regime_assert
        if args.replicas:
            cfg["replicas"] = args.replicas
    else:
        raise ConfigError("config", f"--config is required for {args.command}")
    if cfg.get("kind") != args.command:
        raise ConfigError("kind", f"config kind {cfg.get('kind')!r} does not "
                                  f"match subcommand {args.command!r}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "replicas", None) is not None:
        key = "mc_replicas" if cfg.get("kind") == "meanrate" else "replicas"
        required, optional = _KIND_KEYS.get(cfg.get("kind"), (set(), set()))
        if key not in required | optional:
            raise ConfigError("replicas",
                              f"not supported for kind {cfg.get('kind')!r}")
        cfg[key] = args.replicas
    if args.command == "simulate" and getattr(args, "horizon", None) is not None:
        cfg["horizon"] = args.horizon
    if args.command == "verify" and args.config is None:
        cfg["level"] = args.level
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        report = run(cfg, out_dir=args.out, threads=args.threads, echo=print)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (IncprocError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not report.all_passed:
        print("one or more checks failed", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
