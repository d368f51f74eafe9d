"""Exact solvers for high-multiplicity scheduling on uniform machines.

Objectives: makespan (cmax), minimum completion time (cmin, "santa
claus"), completion-time envy (cenvy), plus makespan / minimum
completion under restricted assignment.  All arithmetic is exact; every
returned schedule is a verified certificate.

The package root holds the solver entry points, the instance,
schedule and certificate types, the exceptions and the oracle.  The
layers below them (model building, reduction, balancing) stay
importable from their own modules.
"""

from .confilp import ResourceLimitError
from .drivers import (
    InfeasibleRestrictionError,
    SolveResult,
    feasibility,
    maximize_min_completion,
    minimize_envy,
    minimize_makespan,
    solve_restricted,
)
from .model import (
    CertificateError,
    FeasibilityQuery,
    HMSchedule,
    Instance,
    MalformedInputError,
    VerificationReport,
    format_rational,
    parse_rational,
    verify_schedule,
)
from .oracle import GenParams, OracleCapError, brute_force, generate

__version__ = "0.1.0"
