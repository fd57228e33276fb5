"""PowerPC-750 out-of-order superscalar case-study model (Section 5.2)."""

from .branch import BranchHistoryTable, BranchPredictor, BranchTargetCache
from .managers import RegisterRenameManager
from .model import (
    CLOCK_HZ,
    OooOperation,
    Ppc750Model,
    default_dcache,
    default_icache,
    unit_routes,
)

__all__ = [
    "BranchHistoryTable",
    "BranchPredictor",
    "BranchTargetCache",
    "CLOCK_HZ",
    "OooOperation",
    "Ppc750Model",
    "RegisterRenameManager",
    "default_dcache",
    "default_icache",
    "unit_routes",
]
