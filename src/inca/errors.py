"""Exception types raised across the package."""


class InCAError(Exception):
    """Base class for every domain error this package raises."""


class GroundednessError(InCAError):
    """A formula or literal contains variables, or atoms outside the atom universe."""


class CapacityError(InCAError):
    """An input exceeds an enumeration cap."""


class InconsistentKBError(InCAError):
    """The probabilistic knowledge base admits no satisfying distribution."""


class InconsistentEvidenceError(InconsistentKBError):
    """Adding evidence made the probabilistic knowledge base unsatisfiable.

    `conflict`, also named in the message, is a subsequence of the augmented
    formulas that is inconsistent while each proper subset is consistent.
    It is subset-minimal, not necessarily of minimum size.
    """

    def __init__(self, message: str, conflict=()):
        super().__init__(message)
        self.conflict = tuple(conflict)


class InternalInconsistencyError(InCAError):
    """A literal and its complement were both warranted. Indicates a bug."""


class SortError(InCAError):
    """A constant is used in a role it was not declared for."""


class AssemblyError(InCAError):
    """A parsed knowledge base cannot be assembled into a framework."""


class ParseError(InCAError):
    """Syntax or local semantic error in knowledge base text, with position."""

    def __init__(self, message: str, line: int, column: int, snippet: str = ""):
        self.line = line
        self.column = column
        self.snippet = snippet
        super().__init__(f"line {line}, column {column}: {message}")
