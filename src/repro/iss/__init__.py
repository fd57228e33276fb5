"""Instruction-set simulators and the functional oracle.

Per ISA, the plain interpreter (``specialize=False``) is the reference;
the default specialised interpreter's run loop executes each basic block
as one compiled function (dynamic compilation, Section 1), and its
``step()`` binds per-instruction executors for the timing models.  One
emitter set per ISA (:mod:`repro.isa.arm.execgen`,
:mod:`repro.isa.ppc.execgen`) writes both forms, and one process-wide
translation cache (:mod:`repro.iss.translations`) keeps the decoded
instructions, with their executors, and the block code for every
specialised interpreter of the process.
"""

from .decode_cache import DecodeCache, DecodedBlock
from .interpreter import ArmInterpreter, BaseInterpreter, IssError, PpcInterpreter
from .oracle import ExecRecord, Oracle
from .state import ArchState, RegisterFile
from .syscalls import SyscallError, SyscallHandler

__all__ = [
    "ArchState",
    "ArmInterpreter",
    "DecodeCache",
    "DecodedBlock",
    "BaseInterpreter",
    "ExecRecord",
    "IssError",
    "Oracle",
    "PpcInterpreter",
    "RegisterFile",
    "SyscallError",
    "SyscallHandler",
]
