"""Pipelined and flexible Krylov subspace methods with reduction-phase
accounting, benchmark problem generators, inexact preconditioners, an
analytic strong-scaling cost model, and a reproducible CSV trace format.
"""

from .linalg import SparseOperator, dot, maxpy, norm2
from .perfmodel import (
    DEFAULT_NODE_GRID,
    MODEL_METHODS,
    CostModelParams,
    IterationCost,
    MachineSpec,
    find_crossover,
    iteration_cost,
    sweep,
)
from .preconditioners import (
    PRECONDITIONER_KINDS,
    FaithfulnessEstimate,
    Preconditioner,
    make_preconditioner,
    probe_faithfulness,
)
from .problems import (
    ProblemInstance,
    make_identity,
    make_poisson,
    make_sinker,
    make_toy_diagonal,
)
from .rng import SplitMix64
from .solvers import (
    METHODS,
    REDUCTION_LEDGER,
    SolveResult,
    SolverConfig,
    TraceRow,
    solve,
)
from .traceio import (
    read_compare_csv,
    read_perfmodel_csv,
    read_trace_csv,
    write_compare_csv,
    write_perfmodel_csv,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SparseOperator",
    "dot",
    "norm2",
    "maxpy",
    "SplitMix64",
    "ProblemInstance",
    "make_identity",
    "make_toy_diagonal",
    "make_poisson",
    "make_sinker",
    "Preconditioner",
    "PRECONDITIONER_KINDS",
    "make_preconditioner",
    "FaithfulnessEstimate",
    "probe_faithfulness",
    "METHODS",
    "REDUCTION_LEDGER",
    "SolverConfig",
    "SolveResult",
    "TraceRow",
    "solve",
    "MODEL_METHODS",
    "DEFAULT_NODE_GRID",
    "MachineSpec",
    "CostModelParams",
    "IterationCost",
    "iteration_cost",
    "sweep",
    "find_crossover",
    "write_trace_csv",
    "read_trace_csv",
    "write_compare_csv",
    "read_compare_csv",
    "write_perfmodel_csv",
    "read_perfmodel_csv",
]
