"""One row per callable that ``incproc`` exports, with small valid arguments,
and a scan that every export is reached from outside the tests.

Each scalar, sequence, state or site-set parameter of a row is replaced in
turn by every value of ``BAD``, and, where the row names one, by a value
holding 2**64. Each call must raise an ``IncprocError`` or succeed where the
row allows it, within ``LIMIT_S`` seconds. An export without a row, and not
in ``EXEMPT``, fails the table.

Object-typed parameters (a ``WalkSpec``, ``ProcessParams``,
``StateEnumeration``, ``Distribution``, ``Classification``,
``HittingTask``, ``TorusSpec``, ``Trajectory`` or ``SmoothFunction``) are
probed with ``BAD`` like any other parameter.

Out of scope: huge but valid sizes, which run long or allocate:
``horizon``, ``replicas`` and ``t_rescaled`` at 2**64,
``log_weight_table(n=2**64)`` and ``build_torus(d=2**64)``, which computes
``side ** d``. So 2**64 goes only where a bound refuses it (seeds, streams,
sites, counts, ``kappa``, ``k``, a torus's particle count) and into reals,
which may succeed with it. Refusing them needs resource bounds, each a
decision of its own.
"""

import ast
import inspect
import math
import re
import signal
import warnings
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import incproc as ip

BAD = (True, 1.5, math.nan, math.inf, -1, "2", None, ())
HUGE = 2**64
LIMIT_S = 10


class P(NamedTuple):
    """How one parameter is probed: the substitutes a call may succeed
    with, and the value holding 2**64 substituted too (None for none)."""

    ok: tuple = ()
    huge: object = None


class Row(NamedTuple):
    args: dict
    params: dict
    call: Callable | None = None    # the export itself unless given


INTEGER = P()
KEY = P(huge=HUGE)                   # a seed or a stream
SITE = P(huge=HUGE)
SITES = P(huge=(0, HUGE))
STATE = P(huge=(HUGE, 0, 0))
POSITIVE = P(ok=(1.5, HUGE), huge=HUGE)     # a finite real > 0
DURATION = P(ok=(1.5,))              # a finite real > 0 that sets a run's length
ANY = P(ok=BAD)                      # checked later, against the walk

WALK = ip.WalkSpec.cycle(3, 0.7)
PARAMS = ip.ProcessParams(4, 0.1)
ENUM = ip.StateEnumeration(3, 4)
MU = ip.stationary_exact(WALK, PARAMS)
TRAJ = ip.simulate(WALK, PARAMS, (4, 0, 0), 20.0, seed=1)
TORUS = ip.build_torus(1, 8, {1: 0.8, -1: 0.2}, rho=2, d_l=0.05)
TORUS_TRAJ = ip.simulate(ip.torus_walk(TORUS), ip.ProcessParams(TORUS.n, TORUS.d_l),
                         ip.Configuration.single_site(8, TORUS.n, 0), 0.5 * TORUS.theta,
                         seed=1)


AUXILIARY = object()     # the auxiliary task of a row's other arguments


def _hitting(task, spec, params, threads, **fields):
    """``mc_hitting`` on ``task``, or, for ``AUXILIARY``, on the auxiliary
    task of ``fields``."""
    if task is AUXILIARY:
        task = ip.HittingTask("auxiliary", **fields)
    return ip.mc_hitting(task, spec, params, threads=threads)


ROWS = {
    "Configuration": Row(dict(counts=(2, 1, 0)), dict(counts=P(ok=((),), huge=(HUGE, 0)))),
    "ProcessParams": Row(dict(n=4, d=0.1), dict(n=INTEGER, d=POSITIVE)),
    "WalkSpec": Row(dict(sites=("a", "b"), rates=[[0, 1], [1, 0]]),
                    dict(sites=P(), rates=P())),
    "analyze_walk": Row(dict(spec=WALK), dict(spec=P())),
    "log_weight_table": Row(dict(n=4, d=0.1), dict(n=INTEGER, d=POSITIVE)),
    "schedule_fixed": Row(dict(value=0.1), dict(value=POSITIVE)),
    "schedule_power": Row(dict(coeff=1.0, exponent=3.0),
                          dict(coeff=POSITIVE, exponent=P(ok=(1.5, -1, HUGE), huge=HUGE))),
    "StateEnumeration": Row(dict(kappa=3, n=4), dict(kappa=P(huge=HUGE), n=INTEGER)),
    "space_size": Row(dict(kappa=3, n=4), dict(kappa=P(ok=(HUGE,), huge=HUGE), n=INTEGER)),
    "enumerate_states": Row(dict(kappa=3, n=4), dict(kappa=P(huge=HUGE), n=INTEGER)),
    "RegionSpec": Row(dict(walk=WALK, enum=ENUM, r_set=(0, 1), eps=0.5),
                      dict(walk=P(), enum=P(), r_set=SITES, eps=POSITIVE)),
    "build_generator": Row(dict(spec=WALK, params=PARAMS, enum=ENUM),
                           dict(spec=P(), params=P(), enum=P())),
    "build_rate_matrix": Row(dict(spec=WALK, params=PARAMS, enum=ENUM),
                             dict(spec=P(), params=P(), enum=P())),
    "stationary_exact": Row(dict(spec=WALK, params=PARAMS), dict(spec=P(), params=P())),
    "stationary_closed_form": Row(dict(spec=ip.WalkSpec.cycle(3, 0.5), params=PARAMS),
                                  dict(spec=P(), params=P())),
    "mean_jump_rate_exact": Row(dict(spec=WALK, params=PARAMS, a_set=(0, 1, 2)),
                                dict(spec=P(), params=P(), a_set=SITES)),
    "flow_profile": Row(dict(spec=WALK, params=PARAMS, mu=MU, r_set=(0, 1), x=0),
                        dict(spec=P(), params=P(), mu=P(), r_set=SITES, x=SITE)),
    "region_masses": Row(dict(mu=MU, regions=[ip.RegionSpec(WALK, ENUM, (0, 1))]),
                         dict(mu=P(), regions=P(ok=((),)))),
    "reciprocal_sum": Row(dict(n=6, k=2), dict(n=P(huge=HUGE), k=P(huge=HUGE))),
    "gordan_certificate": Row(dict(q=[[0.0, 1.0], [-1.0, 0.0]]), dict(q=P())),
    "classify": Row(dict(walk=WALK), dict(walk=P())),
    "limit_chain": Row(dict(walk=WALK, classification=ip.classify(WALK), mode="nrv"),
                       dict(walk=P(), classification=P(), mode=P())),
    "ErrorScale": Row(dict(n=4, d=0.1, q=0.5),
                      dict(n=INTEGER, d=POSITIVE, q=P(huge=HUGE))),
    "predicted_mean_rate": Row(dict(walk=WALK, a_set=(0, 1, 2), n=4, d=0.1),
                               dict(walk=P(), a_set=SITES, n=INTEGER, d=POSITIVE)),
    "test_function": Row(dict(walk=WALK, r_set=(0, 1, 2), n=8, d=0.1, eps=0.5),
                         dict(walk=P(), r_set=SITES, n=INTEGER, d=POSITIVE, eps=POSITIVE)),
    "simulate": Row(dict(spec=WALK, params=PARAMS, eta0=(4, 0, 0), horizon=2.0, seed=1,
                         stream=0, max_events=None),
                    dict(spec=P(), params=P(), eta0=STATE, horizon=DURATION, seed=KEY,
                         stream=KEY, max_events=P(ok=(None,)))),
    "trace_project": Row(dict(traj=TRAJ, a_set=(0, 1, 2), theta=1.0),
                         dict(traj=P(), a_set=SITES, theta=POSITIVE)),
    "mc_mean_jump_rate": Row(dict(spec=WALK, params=PARAMS, a_set=(0, 1, 2), replicas=2,
                                  horizon=2.0, seed=1, threads=1),
                             dict(spec=P(), params=P(), a_set=SITES, replicas=INTEGER,
                                  horizon=DURATION, seed=KEY, threads=INTEGER)),
    # HittingTask checks its start and replica count against the walk in mc_hitting
    "HittingTask": Row(dict(chain="inclusion", start=(2, 1, 1), replicas=2, seed=1,
                            threshold=0.0, step_cap=100),
                       dict(chain=P(), start=ANY, replicas=ANY, seed=KEY,
                            threshold=P(ok=(1.5, HUGE), huge=HUGE), step_cap=INTEGER)),
    "mc_hitting": Row(dict(task=AUXILIARY, spec=WALK, params=PARAMS, threads=1,
                           start=(2, 1, 1), replicas=2, seed=1, r_set=(0, 1, 2), eps=0.5,
                           step_cap=100),
                      dict(task=P(), spec=P(), params=P(), threads=INTEGER, start=STATE,
                           replicas=INTEGER, seed=KEY, r_set=SITES, eps=POSITIVE,
                           step_cap=INTEGER),
                      _hitting),
    "scaling_fit": Row(dict(points=[(1, 1.0), (2, 4.0), (4, 16.0)]), dict(points=P())),
    "build_torus": Row(dict(d=1, side=8, kernel={1: 0.8, -1: 0.2}, rho=2.0, d_l=0.05),
                       dict(d=INTEGER, side=INTEGER, kernel=P(), rho=P(ok=(1.5,), huge=HUGE),
                            d_l=POSITIVE)),
    "torus_walk": Row(dict(spec=TORUS), dict(spec=P())),
    "torus_mean_rates": Row(dict(spec=TORUS), dict(spec=P())),
    "torus_condensation": Row(dict(spec=TORUS), dict(spec=P())),
    "cosine_mode": Row(dict(freq=[1]), dict(freq=P(ok=(-1,)))),
    "generator_gap": Row(dict(spec=TORUS, f=ip.cosine_mode(1)), dict(spec=P(), f=P())),
    "run_condensate": Row(dict(spec=TORUS, t_rescaled=0.5, seed=1, stream=0),
                          dict(spec=P(), t_rescaled=DURATION, seed=KEY, stream=KEY)),
    "measure_drift": Row(dict(spec=TORUS, t_rescaled=0.5, seed=1, replicas=2,
                              min_relocations=0, threads=1),
                         dict(spec=P(), t_rescaled=DURATION, seed=KEY, replicas=INTEGER,
                              min_relocations=INTEGER, threads=INTEGER)),
    "measure_diffusion": Row(dict(spec=TORUS, t_rescaled=0.5, replicas=2, seed=1, threads=1),
                             dict(spec=P(), t_rescaled=DURATION, replicas=INTEGER, seed=KEY,
                                  threads=INTEGER)),
    "condensate_statistics": Row(dict(traj=TORUS_TRAJ, spec=TORUS, min_relocations=0),
                                 dict(traj=P(), spec=P(), min_relocations=INTEGER)),
}

# exception classes and result dataclasses
EXEMPT = (
    "BudgetExceeded", "ConditionNotSatisfied", "ConfigError", "DegenerateData",
    "DimensionMismatch", "IncprocError", "NonIrreducibleWalk", "NonSpanningSupport",
    "NotSemiAttracting", "NotSkewSymmetric", "OutOfRange", "PremiseViolated",
    "SolverFailure", "StateSpaceTooLarge", "SupportTooLarge", "TooFewRelocations",
    "Classification", "CondensateStats", "CondensationReport", "DiffusionEstimate",
    "Distribution", "DriftEstimate", "FitResult", "GordanCertificate",
    "LimitChain", "MCHitting", "MCTraceRates", "MassReport", "MeanRatePrediction",
    "SmoothFunction", "TestFunction", "TorusSpec", "TracePath", "TraceRateMatrix",
    "Trajectory", "WalkAnalysis",
)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _call(name: str, args: dict, label: str):
    """The row's call on ``args``, or the ``IncprocError`` it raised; fails
    the test, naming the call by ``label``, on any other exception or after
    ``LIMIT_S`` seconds."""
    row = ROWS[name]
    fn = row.call or getattr(ip, name)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(LIMIT_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn(**args)
    except ip.IncprocError as exc:
        return exc
    except _Timeout:
        pytest.fail(f"{label} ran over {LIMIT_S} s")
    except Exception as exc:
        pytest.fail(f"{label} raised {exc!r}")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_every_export_has_a_row_or_is_exempt():
    exported = {name for name in dir(ip) if not name.startswith("_")
                and not isinstance(getattr(ip, name), type(ip))}
    assert exported - set(ROWS) - set(EXEMPT) == set()
    assert (set(ROWS) | set(EXEMPT)) - exported == set()
    assert not set(ROWS) & set(EXEMPT)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_valid_arguments_succeed(name):
    got = _call(name, ROWS[name].args, name)
    assert not isinstance(got, ip.IncprocError), got


@pytest.mark.parametrize("name, param", [(name, param) for name in sorted(ROWS)
                                         for param in ROWS[name].params])
def test_a_bad_argument_raises_an_incproc_error(name, param):
    row = ROWS[name]
    probe = row.params[param]
    values = BAD + ((probe.huge,) if probe.huge is not None else ())
    for value in values:
        label = f"{name}({param}={value!r})"
        got = _call(name, {**row.args, param: value}, label)
        assert isinstance(got, ip.IncprocError) or any(
            value is v or value == v for v in probe.ok), f"{label} returned {got!r}"


ROOT = Path(__file__).resolve().parents[1]


def _callers() -> list[ast.AST]:
    """The code that reaches the package from outside the tests: its own
    modules, the benchmark and bench drivers and the README's Python."""
    files = [f for f in sorted((ROOT / "src" / "incproc").glob("*.py"))
             if f.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = [ast.parse(f.read_text(), str(f)) for f in files]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return trees


def _public_members(cls: type) -> set[str]:
    """The public methods and properties a class defines itself."""
    return {name for name, value in vars(cls).items() if not name.startswith("_")
            and (inspect.isfunction(value) or isinstance(
                value, (property, cached_property, classmethod, staticmethod)))}


def test_every_export_and_its_members_are_reached_outside_the_tests():
    # public surface that only tests reach goes: each exported name is read
    # as a name or an attribute by some caller, and each public method or
    # property of an exported class that is not an exception as an attribute
    nodes = [node for tree in _callers() for node in ast.walk(tree)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    names = attributes | {node.id for node in nodes if isinstance(node, ast.Name)}
    exported = {name: getattr(ip, name) for name in dir(ip) if not name.startswith("_")
                and not isinstance(getattr(ip, name), type(ip))}
    members = set()
    for value in exported.values():
        if isinstance(value, type) and not issubclass(value, BaseException):
            members |= _public_members(value)
    assert sorted((set(exported) - names) | (members - attributes)) == []
