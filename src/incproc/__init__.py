"""Inclusion-process toolkit: exact condensation analysis, simulation, and
scaling-limit verification for attractive interacting particle systems."""

from .errors import (BudgetExceeded, ConditionNotSatisfied, ConfigError,
                     DegenerateData, DimensionMismatch, IncprocError,
                     NonIrreducibleWalk, NonSpanningSupport, NotSemiAttracting,
                     NotSkewSymmetric, OutOfRange, PremiseViolated, SolverFailure,
                     StateSpaceTooLarge, SupportTooLarge, TooFewRelocations)
from .model import (Configuration, ProcessParams, WalkAnalysis, WalkSpec,
                    analyze_walk, log_weight_table, schedule_fixed, schedule_power)
from .states import Distribution, StateEnumeration, space_size
from .regions import RegionSpec
from .exact import (MassReport, TraceRateMatrix, build_generator,
                    build_rate_matrix, enumerate_states, flow_profile,
                    mean_jump_rate_exact, reciprocal_sum, region_masses,
                    stationary_closed_form, stationary_exact)
from .gordan import GordanCertificate, gordan_certificate
from .asymptotics import (Classification, ErrorScale, LimitChain,
                          MeanRatePrediction, TestFunction, classify,
                          limit_chain, predicted_mean_rate, test_function)
from .simulate import (FitResult, HittingTask, MCHitting, MCTraceRates, TracePath,
                       Trajectory, mc_hitting, mc_mean_jump_rate, scaling_fit, simulate,
                       trace_project)
from .thermo import (CondensateStats, CondensationReport, DiffusionEstimate,
                     DriftEstimate, SmoothFunction, TorusSpec, build_torus,
                     condensate_statistics, cosine_mode, generator_gap,
                     measure_diffusion, measure_drift, run_condensate,
                     torus_condensation, torus_mean_rates, torus_walk)

__version__ = "0.1.0"
