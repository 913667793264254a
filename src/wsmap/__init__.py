"""Deterministic fork/join simulator and working-set map structures with
measurable effective work and span."""

from .core import (
    BoundReport, CmpCounter, Key, Operation, OpResult, access_ranks,
    oracle_replay, validate_batch_preserving, working_set_bound,
)
from .runtime import (
    ActivationGate, DedicatedLock, ExecutionMetrics, Runtime, SimDeadlock,
)
from .seqmap import SeqWorkingSetMap
from .batched import BatchedWorkingSetMap
from .pipelined import PipelinedWorkingSetMap
from .bench import Report, WorkloadSpec, generate, run_experiment

__all__ = [
    "ActivationGate", "BatchedWorkingSetMap", "BoundReport", "CmpCounter",
    "DedicatedLock", "ExecutionMetrics", "Key", "Operation", "OpResult",
    "PipelinedWorkingSetMap", "Report", "Runtime", "SeqWorkingSetMap",
    "SimDeadlock", "WorkloadSpec", "access_ranks", "generate",
    "oracle_replay", "run_experiment", "validate_batch_preserving",
    "working_set_bound",
]
