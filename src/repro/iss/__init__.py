"""Instruction-set simulators and the functional oracle.

Per ISA, the plain interpreter (``specialize=False``) is the reference;
the default specialised interpreter runs execgen executors block at a
time, and on ARM the dynamically-compiling ISS translates whole blocks
to Python source.
"""

from .compiled import CompiledArmInterpreter
from .decode_cache import DecodeCache, DecodedBlock
from .interpreter import ArmInterpreter, BaseInterpreter, IssError, PpcInterpreter
from .oracle import ExecRecord, Oracle
from .state import ArchState, RegisterFile
from .syscalls import SyscallError, SyscallHandler

__all__ = [
    "ArchState",
    "ArmInterpreter",
    "CompiledArmInterpreter",
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
