"""Trace-driven simulation: engine, results, runner, parallel/cached
sweep execution, vectorized fast-path kernels, pipeline timing,
fetch-engine modelling."""

from .engine import (
    SIM_BACKENDS,
    ContextSwitchConfig,
    simulate,
    simulate_named,
    simulate_with_backend,
)
from .kernels import (
    KernelUnavailable,
    kernel_supports,
    simulate_vectorized,
    simulate_vectorized_stream,
)
from .fetch import BranchTargetCache, FetchEngine, FetchStats, ReturnAddressStack
from .ipc import IPCEstimate, MachineModel, ipc_estimate, ipc_from_result, speedup
from .parallel import PredictorSpec, execute_matrix, result_cache_key, spec, trace_digest
from .pipeline import RecoveryPolicy, simulate_delayed
from .results import (
    CellTelemetry,
    ResultMatrix,
    RunTelemetry,
    SimulationResult,
    geometric_mean,
)
from .runner import BenchmarkCase, PredictorBuilder, run_case, run_matrix, sweep_parameter

__all__ = [
    "BenchmarkCase",
    "BranchTargetCache",
    "CellTelemetry",
    "ContextSwitchConfig",
    "FetchEngine",
    "FetchStats",
    "IPCEstimate",
    "KernelUnavailable",
    "MachineModel",
    "PredictorBuilder",
    "PredictorSpec",
    "RecoveryPolicy",
    "ResultMatrix",
    "SIM_BACKENDS",
    "ReturnAddressStack",
    "RunTelemetry",
    "SimulationResult",
    "execute_matrix",
    "geometric_mean",
    "ipc_estimate",
    "ipc_from_result",
    "kernel_supports",
    "result_cache_key",
    "run_case",
    "run_matrix",
    "simulate",
    "simulate_delayed",
    "simulate_named",
    "simulate_vectorized",
    "simulate_vectorized_stream",
    "simulate_with_backend",
    "spec",
    "speedup",
    "sweep_parameter",
    "trace_digest",
]
