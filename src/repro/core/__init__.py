"""Core OSM formalism: the paper's primary contribution.

Public API re-exports the classes a model author needs:

>>> from repro.core import (MachineSpec, OperationStateMachine, Director,
...                         CycleDrivenKernel, SlotManager, Allocate, Release)
"""

from .errors import (
    OsmError,
    SchedulingDeadlockError,
    SimulationError,
    SpecError,
    TokenError,
)
from .token import Token, TokenIdentifier, resolve_identifier
from .transaction import Transaction
from .manager import (
    InOrderPoolManager,
    PoolManager,
    RegisterFileManager,
    ResetManager,
    SlotManager,
    TokenManager,
)
from .primitives import (
    ALWAYS,
    Allocate,
    AllocateMany,
    Condition,
    Discard,
    Guard,
    Inquire,
    Primitive,
    Release,
    ReleaseMany,
)
from .osm import Edge, MachineSpec, OperationStateMachine, State
from .fuse import (
    CompileStats,
    ManagerEmitter,
    defuse_spec,
    enable_fusion,
    fuse_spec,
    register_native_emitter,
)
from .director import Director, age_rank, rank_stable_in_flight
from .kernel import CycleDrivenKernel, SimulationKernel
from .stats import SimulationStats

__all__ = [
    "ALWAYS",
    "Allocate",
    "AllocateMany",
    "CompileStats",
    "Condition",
    "CycleDrivenKernel",
    "Director",
    "Discard",
    "Edge",
    "Guard",
    "InOrderPoolManager",
    "Inquire",
    "MachineSpec",
    "ManagerEmitter",
    "OperationStateMachine",
    "OsmError",
    "PoolManager",
    "Primitive",
    "RegisterFileManager",
    "Release",
    "ReleaseMany",
    "ResetManager",
    "SchedulingDeadlockError",
    "SimulationError",
    "SimulationKernel",
    "SimulationStats",
    "SlotManager",
    "SpecError",
    "State",
    "Token",
    "TokenIdentifier",
    "TokenManager",
    "Transaction",
    "age_rank",
    "defuse_spec",
    "enable_fusion",
    "fuse_spec",
    "rank_stable_in_flight",
    "register_native_emitter",
    "resolve_identifier",
]
