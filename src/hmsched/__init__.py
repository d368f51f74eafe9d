"""Exact solvers for high-multiplicity scheduling on uniform machines.

Objectives: makespan (cmax), minimum completion time (cmin, "santa
claus"), completion-time envy (cenvy), plus makespan / minimum
completion under restricted assignment.  All arithmetic is exact; every
returned schedule is a verified certificate.
"""

from .balancing import (
    guess_configs,
    large_machine_cutoff,
    reduced_schedule,
)
from .confilp import (
    ConfILPModel,
    ResourceLimitError,
    build_model,
    enumerate_configs,
    solve_model,
)
from .drivers import (
    CandidateGrid,
    InfeasibleRestrictionError,
    SolveResult,
    balanced_feasibility,
    candidate_values,
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
    aggregate_jobs,
    format_rational,
    parse_rational,
    verify_schedule,
)
from .oracle import (
    GenParams,
    OracleCapError,
    brute_force,
    brute_force_feasibility,
    generate,
)
from .reduction import (
    CompressionMap,
    ReducedWindow,
    ReductionConstants,
    compress,
    lift_schedule,
    normalize,
    reduce_window,
    reduction_constants,
)

__version__ = "0.1.0"
