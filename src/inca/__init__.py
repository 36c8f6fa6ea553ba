"""Probabilistic-argumentative reasoning over cyber attribution problems.

The package couples two knowledge models. The environmental model holds
probabilistic formulas over ground atoms and answers queries by linear
programming over possible worlds. The analytical model holds strict and
defeasible constructs and answers queries by dialectical analysis. An
annotation function ties analytical elements to environmental formulas so
that warrant can be evaluated world by world and lifted back to
probability intervals.
"""

from .am import (
    AMElement,
    AMProgram,
    Argument,
    DialecticalNode,
    instantiate,
)
from .attribution import (
    AttributionResult,
    apply_evidence,
    most_probable_suspects,
)
from .bridge import AnnotationFunction, InCAFramework
from .em import (
    EMKnowledgeBase,
    IntegrityConstraint,
    ProbabilisticFormula,
    ProbabilityInterval,
    enumerate_worlds,
    is_consistent,
    lp_bounds,
    max_entailment,
)
from .errors import (
    AssemblyError,
    CapacityError,
    GroundednessError,
    InCAError,
    InconsistentEvidenceError,
    InconsistentKBError,
    InternalInconsistencyError,
    ParseError,
    SortError,
)
from .kbformat import (
    KBDocument,
    assemble,
    format_fraction,
    load_kb,
    parse_evidence,
    parse_kb,
    parse_literal_text,
    parse_query,
    render_kb,
    render_world,
)
from .language import (
    Atom,
    Formula,
    Literal,
    Term,
    World,
    conj,
    disj,
    neg,
)

__all__ = [
    "AMElement",
    "AMProgram",
    "AnnotationFunction",
    "Argument",
    "AssemblyError",
    "Atom",
    "AttributionResult",
    "CapacityError",
    "DialecticalNode",
    "EMKnowledgeBase",
    "Formula",
    "GroundednessError",
    "InCAError",
    "InCAFramework",
    "InconsistentEvidenceError",
    "InconsistentKBError",
    "IntegrityConstraint",
    "InternalInconsistencyError",
    "KBDocument",
    "Literal",
    "ParseError",
    "ProbabilisticFormula",
    "ProbabilityInterval",
    "SortError",
    "Term",
    "World",
    "apply_evidence",
    "assemble",
    "conj",
    "disj",
    "enumerate_worlds",
    "format_fraction",
    "instantiate",
    "is_consistent",
    "load_kb",
    "lp_bounds",
    "max_entailment",
    "most_probable_suspects",
    "neg",
    "parse_evidence",
    "parse_kb",
    "parse_literal_text",
    "parse_query",
    "render_kb",
    "render_world",
]
