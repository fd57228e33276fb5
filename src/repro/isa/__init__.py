"""ISA substrates: bit utilities, program images, assembler, target ISAs."""

from .assembler import Assembler, AssemblyError, split_operands
from .instruction import Instruction
from .program import Program, Section

__all__ = [
    "Assembler",
    "AssemblyError",
    "Instruction",
    "Program",
    "Section",
    "assemble",
    "split_operands",
]


def assemble(isa: str, source: str) -> Program:
    """Assemble *source* for the ``arm`` or ``ppc`` target; an error in the
    source raises :class:`AssemblyError`."""
    if isa == "arm":
        from .arm import assemble as assemble_isa
    elif isa == "ppc":
        from .ppc import assemble as assemble_isa
    else:
        raise ValueError(f"unknown ISA {isa!r} (choose arm or ppc)")
    return assemble_isa(source)
