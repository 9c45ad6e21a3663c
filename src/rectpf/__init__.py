"""Linearized AC power flow in rectangular voltage coordinates.

The package solves for complex voltage perturbations around a nominal
profile, provides closed forms for distribution feeders (no-load nominal)
and lossless transmission grids (flat nominal, classical DC as a further
simplification), evaluates the exact quadratic terms every linear model
neglects together with a-priori bounds on them, and ships a rectangular-
coordinate Newton-Raphson solver as the nonlinear reference.
"""

from .caseio import dump_case, load_case, parse_case, save_case
from .distribution import (CouplingTerms, DecoupledEstimate,
                           coupling_decomposition, decoupled_estimate,
                           solve_no_current_closed_form)
from .errors import (CaseValidationError, InternalCheckError, RectpfError,
                     SolverError)
from .linearize import (LinearModel, LinearSolution, NominalOrigin,
                        NominalVoltage, SolveDiagnostics,
                        compute_noload_voltage, flat_nominal,
                        linear_injection, solve_noload_closed_form)
from .netmodel import (AdmittancePartition, Branch, Bus, BusKind,
                       NetworkCase, PvSetpoint, SlackVoltage,
                       StructureDiagnosis, ZipLoad, build_admittance,
                       check_noload_structure, scale_power_injections)
from .newton import (InitialGuess, NewtonResult, NewtonSettings,
                     jacobian_check, solve_newton)
from .report import (CompareReport, RunReport, emit_compare, emit_check,
                     emit_report, prepare, run_check, run_compare,
                     run_pipeline)
from .residuals import (BoundCheck, BoundVerification, ResidualReport,
                        complex_injection, max_row_norm, nonlinear_mismatch,
                        quadratic_residual, verify_bounds)
from .transmission import FlatSolveConditions

__version__ = "0.1.0"

__all__ = [
    "AdmittancePartition", "BoundCheck", "BoundVerification", "Branch", "Bus",
    "BusKind", "CaseValidationError", "CompareReport", "CouplingTerms",
    "DecoupledEstimate", "FlatSolveConditions", "InitialGuess",
    "InternalCheckError", "LinearModel", "LinearSolution", "NetworkCase",
    "NewtonResult", "NewtonSettings", "NominalOrigin", "NominalVoltage",
    "PvSetpoint", "RectpfError", "ResidualReport", "RunReport", "SlackVoltage",
    "SolveDiagnostics", "SolverError", "StructureDiagnosis", "ZipLoad",
    "build_admittance", "check_noload_structure", "complex_injection",
    "compute_noload_voltage", "coupling_decomposition", "decoupled_estimate",
    "dump_case", "emit_check", "emit_compare", "emit_report", "flat_nominal",
    "jacobian_check", "linear_injection", "load_case", "max_row_norm",
    "nonlinear_mismatch", "parse_case", "prepare", "quadratic_residual",
    "run_check", "run_compare", "run_pipeline", "save_case",
    "scale_power_injections", "solve_newton", "solve_no_current_closed_form",
    "solve_noload_closed_form", "verify_bounds",
]
