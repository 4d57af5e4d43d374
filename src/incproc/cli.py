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
from .exact import (mean_jump_rate_exact, stage_times, stationary_closed_form,
                    stationary_exact)
from .model import (Configuration, ProcessParams, WalkSpec, analyze_walk, csv_line, integer,
                    real, schedule_fixed, schedule_power, state_counts)
from .simulate import (DEFAULT_STEP_CAP, MAX_KEY, HittingTask, mc_hitting,
                       mc_mean_jump_rate, scaling_fit, simulate, trace_project)
from .thermo import (REGIMES, _canonical_kernel, build_torus, cosine_mode, generator_gap,
                     measure_diffusion, measure_drift, torus_condensation)

DEFAULT_SEED = 20240817
SCHEMA_VERSION = 1
REQUIRED = object()  # the default of a field that must be given


def _check(ok, what: str):
    """The check that a JSON value passes ``ok``; it returns the value."""
    def check(value, path: str):
        if not ok(value):
            raise ConfigError(path, f"expected {what}, got {value!r}")
        return value
    return check


def _validated(validator, **bounds):
    """The check that a JSON value passes the library's ``validator`` (see
    :mod:`incproc.model`) under ``bounds``; it returns the typed value."""
    def check(value, path: str):
        try:
            return validator(value, path.rpartition(".")[2], **bounds)
        except OutOfRange as exc:
            raise ConfigError(path, str(exc)) from None
    return check


def _integer(low: int):
    return _validated(integer, low=low)


def _choice(*options):
    """The check for one of ``options``, of the same JSON type."""
    return _check(lambda v: any(type(v) is type(o) and v == o for o in options),
                  "one of " + ", ".join(map(repr, options)))


_flag = _check(lambda v: isinstance(v, bool), "true or false")
_text = _check(lambda v: isinstance(v, str), "a string")
_positive = _validated(real, above=0)


def _list_of(item):
    """The check for a JSON list whose entries pass ``item``, as a tuple."""
    def check(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        return tuple(item(v, path) for v in value)
    return check


def _as_given(value, path: str):
    """A field that depends on another one; its handler reads it."""
    return value


def _walk(value, path: str) -> WalkSpec:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {value!r}")
    try:
        return WalkSpec.from_json(value)
    except (TypeError, ValueError, IncprocError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _process_params(value, path: str) -> ProcessParams:
    if not (isinstance(value, dict) and set(value) == {"n", "d_N"}):
        raise ConfigError(path, "expected object with fields n, d_N")
    return ProcessParams(_integer(1)(value["n"], f"{path}.n"),
                         _positive(value["d_N"], f"{path}.d_N"))


def _schedule(desc, path: str, named: dict[str, int] | None = None):
    """The map from size to ``d`` that a schedule field describes:
    ``{"type": "power", "coeff": c, "exponent": a}`` for ``c * size**(-a)``;
    for a field with ``named`` schedules (d_L), a key of ``named``, the power
    schedule with coefficient 1 and that exponent; for one without (d_N), a
    number, the fixed schedule."""
    if named is not None and isinstance(desc, str) and desc in named:
        return schedule_power(1.0, named[desc])
    if isinstance(desc, dict) and desc.get("type") == "power":
        return schedule_power(_positive(desc.get("coeff"), f"{path}.coeff"),
                              _validated(real)(desc.get("exponent"), f"{path}.exponent"))
    if named is None and not isinstance(desc, dict):
        return schedule_fixed(_positive(desc, path))
    raise ConfigError(path, f"unsupported schedule {desc!r}")


def _kernel(pairs, dim: int) -> dict[tuple[int, ...], float]:
    """The ``kernel`` field, read where the dimension is known: a list of
    ``[offset, weight]`` pairs as the map from integer offsets to weights,
    checked by the rule ``build_torus`` applies."""
    if not (isinstance(pairs, list)
            and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise ConfigError("kernel", f"expected a list of [offset, weight] pairs, got {pairs!r}")
    try:
        kernel = {tuple(off) if isinstance(off, list) else off: w for off, w in pairs}
    except TypeError:       # an object, or a list inside an offset
        raise ConfigError("kernel", "offsets must be integers or lists of integers, "
                                    f"got {pairs!r}") from None
    try:
        return _canonical_kernel(dim, kernel)
    except OutOfRange as exc:
        raise ConfigError("kernel", str(exc)) from exc


def _initial(init, walk: WalkSpec, n: int):
    """The ``initial`` field, read where the walk and N are known:
    ``{"site": x}`` for all N particles at x, or a list of counts."""
    if isinstance(init, dict):
        if set(init) != {"site"}:
            raise ConfigError("initial", "expected object with field site")
        site = _integer(0)(init["site"], "initial.site")
        try:
            return Configuration.single_site(walk.kappa, n, site)
        except OutOfRange as exc:
            raise ConfigError("initial.site", str(exc)) from exc
    try:
        return state_counts(_list_of(_integer(0))(init, "initial"), walk.kappa, n)
    except OutOfRange as exc:
        raise ConfigError("initial", str(exc)) from exc


def _fields(**own) -> dict:
    """A kind's fields: the four every kind has, then its own."""
    return {"schema_version": (_choice(SCHEMA_VERSION), REQUIRED),
            "kind": (_text, REQUIRED), "seed": (_validated(integer, high=MAX_KEY), DEFAULT_SEED),
            "out": (_text, "."), **own}


_COUNT = _integer(1)
_SITES = _list_of(_integer(0))
_WALK = (_walk, REQUIRED)
_PARAMS = (_process_params, REQUIRED)
_LEVELS = ("quick", "full")

# The config schema. For each kind and each of its fields: the check that
# validates the JSON value and returns it typed, and the default, or REQUIRED.
SCHEMA = {
    "stationary": _fields(walk=_WALK, params=_PARAMS,
                          compare_closed_form=(_flag, False)),
    "meanrate": _fields(walk=_WALK, params=_PARAMS, a_set=(_SITES, REQUIRED),
                        mc_replicas=(_COUNT, None), mc_horizon=(_positive, 100.0)),
    "classify": _fields(walk=_WALK, mode=(_choice("auto", "rv", "nrv"), "auto")),
    "simulate": _fields(walk=_WALK, params=_PARAMS, initial=(_as_given, REQUIRED),
                        horizon=(_positive, REQUIRED), trace_set=(_SITES, None),
                        theta=(_positive, 1.0)),
    "nucleation": _fields(walk=_WALK, sizes=(_list_of(_COUNT), REQUIRED),
                          d_schedule=(_schedule, REQUIRED), delta=(_positive, REQUIRED),
                          replicas=(_COUNT, REQUIRED),
                          step_cap=(_integer(0), DEFAULT_STEP_CAP)),
    # without replicas, the handler runs 100 in the symmetric regime and 2 otherwise
    "thermo": _fields(dim=(_COUNT, REQUIRED), sides=(_list_of(_COUNT), REQUIRED),
                      kernel=(_as_given, REQUIRED), rho=(_positive, REQUIRED),
                      dl_schedule=(_as_given, REQUIRED),
                      regime_assert=(_choice(*REGIMES), None),
                      drift_t=(_positive, 10.0), diffusion_t=(_positive, 0.4),
                      replicas=(_COUNT, None)),
    "verify": _fields(level=(_choice(*_LEVELS), REQUIRED)),
}


def validate_config(cfg: dict) -> dict:
    """Strictly validate an experiment configuration document against
    ``SCHEMA``: the typed value of each field of its kind, defaults filled in."""
    if not isinstance(cfg, dict):
        raise ConfigError("", "configuration must be a JSON object")
    kind = cfg.get("kind")
    if kind not in tuple(SCHEMA):
        raise ConfigError("kind", "missing required field" if kind is None
                          else f"unknown kind {kind!r}")
    fields = SCHEMA[kind]
    unknown = sorted(set(cfg) - set(fields))
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    values = {}
    for key, (check, default) in fields.items():
        if key in cfg:
            values[key] = check(cfg[key], key)
        elif default is REQUIRED:
            raise ConfigError(key, "missing required field")
        else:
            values[key] = default
    return values


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
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=_jsonable) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(csv_line(header))
        for row in rows:
            fh.write(csv_line(row))


def run(cfg: dict, out_dir: str | Path | None = None, threads: int = 1,
        echo=None) -> RunReport:
    """Dispatch one validated experiment and write its artifacts; the report
    echoes ``cfg`` as given."""
    values = validate_config(cfg)
    out = Path(out_dir if out_dir is not None else values["out"])
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = RunReport(config=cfg, seed=values["seed"])
    _HANDLERS[values["kind"]](values, out, threads, report, echo or (lambda _: None))
    report.wall_s = time.perf_counter() - t0
    _write_json(out / "report.json", report.to_dict())
    report.artifacts.append(str(out / "report.json"))
    return report


def _run_stationary(c, out, threads, report, echo):
    walk, params = c["walk"], c["params"]
    with stage_times() as times:
        mu = stationary_exact(walk, params)
    csv_path = out / "distribution.csv"
    mu.to_csv(csv_path, site_labels=walk.sites)
    report.artifacts.append(str(csv_path))
    summary = mu.summary()
    if c["compare_closed_form"]:
        closed = stationary_closed_form(walk, params)
        dev = np.abs(mu.weights - closed.weights).max().item()
        summary["closed_form_max_dev"] = dev
        report.checks["closed_form_agreement"] = dev <= 1e-10
    _write_json(out / "summary.json", summary)
    report.artifacts.append(str(out / "summary.json"))
    report.metrics.update({"E_mass": summary["E_mass"], "states": mu.enum.size,
                           "solver": {**asdict(mu.solver), **times}})


def _run_meanrate(c, out, threads, report, echo):
    walk, params, a_set = c["walk"], c["params"], c["a_set"]
    with stage_times() as times:
        exact = mean_jump_rate_exact(walk, params, a_set)
    pred = predicted_mean_rate(walk, a_set, params.n, params.d)
    rows = []
    for i, x in enumerate(a_set):
        for j, y in enumerate(a_set):
            if x != y:
                rows.append((x, y, exact.raw[i, j], exact.normalized[i, j],
                             pred.normalized[i, j]))
    _write_csv(out / "meanrate.csv",
               ["site_from", "site_to", "rate", "normalized", "predicted"], rows)
    report.artifacts.append(str(out / "meanrate.csv"))
    report.metrics["error_budget"] = pred.error_budget
    report.metrics["solver"] = {**asdict(exact.solver), **times}
    if c["mc_replicas"] is not None:
        est = mc_mean_jump_rate(walk, params, a_set, replicas=c["mc_replicas"],
                                horizon=c["mc_horizon"], seed=c["seed"],
                                threads=threads)
        dev = np.abs(est.estimate - exact.raw)
        sigma = np.where(est.stderr > 0, est.stderr, np.inf)
        report.metrics["mc_max_sigmas"] = (dev / sigma).max().item()
        report.checks["mc_within_3_sigma"] = bool((dev <= 3 * sigma).all())


def _run_classify(c, out, threads, report, echo):
    walk = c["walk"]
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
    mode = c["mode"]
    modes = [mode] if mode in ("rv", "nrv") else (
        ["nrv"] if not cls.symmetric_on_s0 else ["rv"])
    for m in modes:
        try:
            lc = limit_chain(walk, cls, m)
            payload[f"limit_{m}"] = {"sites": [walk.sites[x] for x in lc.sites],
                                     "rates": lc.rates.tolist(), "scale": lc.scale,
                                     "nu": lc.nu.tolist()}
        except PremiseViolated as exc:
            payload[f"limit_{m}"] = {"unsupported": str(exc)}
    _write_json(out / "classify.json", payload)
    report.artifacts.append(str(out / "classify.json"))
    report.metrics["S0_size"] = len(cls.s0)


def _run_simulate(c, out, threads, report, echo):
    walk, params = c["walk"], c["params"]
    traj = simulate(walk, params, _initial(c["initial"], walk, params.n),
                    c["horizon"], c["seed"])
    csv_path = out / "trajectory.csv"
    traj.to_csv(csv_path)
    report.artifacts.append(str(csv_path))
    report.metrics["events"] = traj.n_events
    if c["trace_set"]:
        path = trace_project(traj, c["trace_set"], c["theta"])
        payload = {"labels": path.labels.tolist(), "sojourns": path.sojourns.tolist(),
                   "trace_time": path.trace_time, "off_time": path.off_time}
        _write_json(out / "trace.json", payload)
        report.artifacts.append(str(out / "trace.json"))
        report.metrics["off_time"] = path.off_time


def _run_nucleation(c, out, threads, report, echo):
    walk = c["walk"]
    rows = []
    points = []
    for size in c["sizes"]:
        params = ProcessParams(size, c["d_schedule"](size))
        base = size // walk.kappa
        start = [base] * walk.kappa
        start[-1] += size - base * walk.kappa
        task = HittingTask(chain="inclusion", start=tuple(start),
                           replicas=c["replicas"], seed=c["seed"],
                           threshold=c["delta"] * math.log(size),
                           step_cap=c["step_cap"])
        res = mc_hitting(task, walk, params, threads=threads)
        rows.append((size, res.mean, res.variance, res.mean / size,
                     res.n_censored))
        points.append((size, res.mean))
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


def _run_thermo(c, out, threads, report, echo):
    dim, seed, replicas = c["dim"], c["seed"], c["replicas"]
    schedule = _schedule(c["dl_schedule"], "dl_schedule",
                         {"tt1": dim + 2, "tt2": dim + 3, "tt3": 2 * dim + 3})
    kernel = _kernel(c["kernel"], dim)
    rows = []
    for side in c["sides"]:
        spec = build_torus(dim, side, kernel, c["rho"], schedule(side))
        if c["regime_assert"] and spec.regime != c["regime_assert"]:
            raise ConfigError("regime_assert",
                              f"model regime is {spec.regime!r}")
        gap = generator_gap(spec, cosine_mode([1] + [0] * (dim - 1)))
        cond = torus_condensation(spec)
        if spec.regime == "symmetric":
            est = measure_diffusion(spec, c["diffusion_t"], replicas=replicas or 100,
                                    seed=seed, threads=threads)
            diffusion = est.msd_slope
        else:
            est = measure_drift(spec, c["drift_t"], seed, replicas=replicas or 2,
                                min_relocations=1, threads=threads)
            diffusion = math.nan
        drift, off = est.drift[0], est.off_fraction
        rows.append((side, drift, diffusion, gap, off))
        report.metrics[f"E_mass_L{side}"] = cond.e_mass
        echo(f"L={side} drift={drift:.4g} diffusion={diffusion:.4g} "
             f"gap={gap:.4g} occupation={off:.4g}")
    _write_csv(out / "thermo.csv",
               ["L", "drift", "diffusion", "gap", "occupation"], rows)
    report.artifacts.append(str(out / "thermo.csv"))
    report.checks["occupation_negligible"] = all(r[4] <= 0.05 for r in rows)


def _run_verify(c, out, threads, report, echo):
    rep = verify_suite(c["level"], echo=echo)
    _write_json(out / "verify.json", rep.to_dict())
    report.artifacts.append(str(out / "verify.json"))
    for r in rep.results:
        report.checks[f"criterion_{r.number:02d}"] = r.passed
    report.metrics["wall_s"] = rep.wall_s


_HANDLERS = {"stationary": _run_stationary, "meanrate": _run_meanrate,
             "classify": _run_classify, "simulate": _run_simulate,
             "nucleation": _run_nucleation, "thermo": _run_thermo, "verify": _run_verify}


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
    thermo.add_argument("--regime-assert", dest="regime_assert", choices=REGIMES)
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("--level", default="quick", choices=_LEVELS)
    return parser


def _config_from_args(args) -> dict:
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("config", str(exc)) from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config", "configuration must be a JSON object")
    elif args.command == "verify":
        cfg = {"schema_version": SCHEMA_VERSION, "kind": "verify",
               "level": args.level}
    elif args.command == "thermo":
        missing = [k for k in ("dim", "side", "kernel", "rho", "dl_schedule")
                   if getattr(args, k) is None]
        if missing:
            raise ConfigError(missing[0], "required without --config")
        try:
            kernel = json.loads(args.kernel)
        except json.JSONDecodeError as exc:
            raise ConfigError("kernel", str(exc)) from exc
        schedule = args.dl_schedule
        try:
            schedule = json.loads(schedule) if schedule.startswith("{") else schedule
        except json.JSONDecodeError as exc:
            raise ConfigError("dl_schedule", str(exc)) from exc
        try:
            sides = [int(v) for v in args.side.split(",")]
        except ValueError as exc:
            raise ConfigError("sides", f"expected integers, got {args.side!r}") from exc
        cfg = {"schema_version": SCHEMA_VERSION, "kind": "thermo",
               "dim": args.dim, "sides": sides,
               "kernel": kernel, "rho": args.rho, "dl_schedule": schedule}
        if args.regime_assert:
            cfg["regime_assert"] = args.regime_assert
    else:
        raise ConfigError("config", f"--config is required for {args.command}")
    if cfg.get("kind") != args.command:
        raise ConfigError("kind", f"config kind {cfg.get('kind')!r} does not "
                                  f"match subcommand {args.command!r}")
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.replicas is not None:
        key = "mc_replicas" if args.command == "meanrate" else "replicas"
        if key not in SCHEMA[args.command]:
            raise ConfigError("replicas", f"not supported for kind {args.command!r}")
        cfg[key] = args.replicas
    if args.command == "simulate" and args.horizon is not None:
        cfg["horizon"] = args.horizon
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
