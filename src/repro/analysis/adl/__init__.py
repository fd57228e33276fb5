"""adlcheck: source-level semantic analysis of ADL descriptions.

The sixth analysis front end.  Where osmlint, osmcheck, isaaudit,
effectcheck and transcheck analyze the *synthesized* artifacts (machine
specs, decoders, generated code), adlcheck analyzes the architecture
description **as the author wrote it** — the parsed
:class:`~repro.adl.ast.ProcessorDecl` AST, before synthesis — so every
finding lands on an ADL source line.

Rules ``ADL001``–``ADL009`` (:mod:`.passes`) are purely syntactic and
semantic over the AST: undefined references, duplicate declarations,
dangling edges, initial-state defects, identifier misuse, capacity
contradictions, abstract token balance, edge-priority shadowing and
unused declarations.  ``ADL010`` (:mod:`.closure`) is the synthesis
closure: it builds the model the description denotes and folds the
findings of the downstream OSM-layer tools back in, remapped via
source-span provenance onto the originating declarations.

Entry points:

>>> from repro.analysis.adl import adlcheck_source
>>> report = adlcheck_source(text, unit="mydesc.adl")
>>> report.ok
>>> print(report.render_text())

or from the command line: ``repro adlcheck <name|file> [--json]``.
"""

from .closure import SynthClosurePass
from .engine import (
    SYNTAX_CODE,
    AdlContext,
    AdlPass,
    adlcheck_processor,
    adlcheck_source,
    default_passes,
)
from .registry import (
    available_descriptions,
    description_source,
    register_description,
)

__all__ = [
    "AdlContext",
    "AdlPass",
    "SYNTAX_CODE",
    "SynthClosurePass",
    "adlcheck_processor",
    "adlcheck_source",
    "available_descriptions",
    "default_passes",
    "description_source",
    "register_description",
]
