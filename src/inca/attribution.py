"""Attribution queries: rank suspects by how probably they conducted an
operation, under the knowledge base extended with case-specific evidence."""

from __future__ import annotations

from .am import positional_roles
from .bridge import InCAFramework
from .em import (
    EMKnowledgeBase,
    ProbabilityInterval,
    _linear_program,
    is_consistent,
)
from .errors import InconsistentEvidenceError, SortError
from .language import (
    AM,
    ROLE_ACTOR,
    ROLE_OPERATION,
    Atom,
    Literal,
    Term,
    Value,
    World,
)

def _irreducible_conflict(formulas, constraints, max_atoms):
    """A deletion filter (Chinneck and Dravnieks 1991) over inconsistent
    formulas: drop each one in turn without which the kept ones are still
    inconsistent. Fewer formulas are never less consistent, so every proper
    subset of what is kept is consistent."""
    kept = list(formulas)
    i = 0
    while i < len(kept):
        rest = kept[:i] + kept[i + 1:]
        if is_consistent(EMKnowledgeBase(rest, constraints), max_atoms):
            i += 1
        else:
            kept = rest
    return tuple(kept)


def apply_evidence(framework: InCAFramework, evidence) -> InCAFramework:
    """New framework whose probabilistic knowledge base also holds the
    evidence, given as ProbabilisticFormulas; the atom universe grows by
    their atoms in first-mention order. Raises InconsistentEvidenceError,
    naming an irreducible conflicting subset of the augmented formulas, when
    nothing satisfies the combination, and InconsistentKBError when nothing
    satisfies the EM alone."""
    evidence = tuple(evidence)
    if not evidence:
        return framework
    em = framework.em
    formulas = tuple(em.formulas) + evidence
    universe = dict.fromkeys(em.atom_universe)
    for f in evidence:
        universe.update(dict.fromkeys(f.atoms))
    kb = EMKnowledgeBase(
        formulas=formulas,
        constraints=em.constraints,
        atom_universe=tuple(universe),
    )
    if not is_consistent(kb, framework.max_atoms):
        # Evidence cannot mend an inconsistent EM: blame the EM itself, with
        # the error a query on it raises.
        _linear_program(em, framework.max_atoms)
        conflict = _irreducible_conflict(formulas, em.constraints, framework.max_atoms)
        raise InconsistentEvidenceError(
            "evidence is inconsistent with the knowledge base; conflicting "
            "formulas: " + "; ".join(map(str, conflict)),
            conflict,
        )
    return InCAFramework(
        em=kb,
        program=framework.program,
        annotations=framework.annotations,
        max_atoms=framework.max_atoms,
    )


class SuspectReport(Value):
    _fields = ("suspect", "interval")

    def __init__(self, suspect: str, interval: ProbabilityInterval):
        self.__dict__.update(suspect=suspect, interval=interval)


class Trace(Value):
    """Why a suspect is implicated: one world that warrants the conducting
    literal, plus the marked dialectical forest in that world."""

    _fields = ("suspect", "literal", "world", "forest")

    def __init__(self, suspect: str, literal: Literal, world: World, forest: tuple):
        self.__dict__.update(suspect=suspect, literal=literal, world=world,
                             forest=forest)


class AttributionResult(Value):
    _fields = ("most_probable", "reports", "traces")

    def __init__(
        self,
        most_probable: tuple[str, ...],
        reports: tuple[SuspectReport, ...],
        traces: tuple[Trace, ...],
    ):
        self.__dict__.update(most_probable=most_probable, reports=reports,
                             traces=traces)


def _conducting_literal(suspect: str, operation: str) -> Literal:
    atom = Atom(
        "condOp",
        (Term(suspect, ROLE_ACTOR), Term(operation, ROLE_OPERATION)),
        AM,
    )
    return Literal(atom)


def most_probable_suspects(
    framework: InCAFramework,
    operation: str,
    suspects,
    evidence=(),
) -> AttributionResult:
    """Bound the probability that each suspect conducted the operation,
    under the EM extended with the evidence (ProbabilisticFormulas, as
    apply_evidence takes them), and keep the ones whose interval has the
    highest midpoint. Ties all stay in."""
    names = list(dict.fromkeys(suspects))
    if not names:
        raise ValueError("no suspects given")
    roles = positional_roles(
        lit for e in framework.program.elements for lit in (e.head, *e.body)
    )
    for name in names:
        seen = roles.get(name, set())
        if seen and ROLE_ACTOR not in seen:
            raise SortError(f"{name} is not an actor")
    op_roles = roles.get(operation, set())
    if op_roles and ROLE_OPERATION not in op_roles:
        raise SortError(f"{operation} is not an operation")

    extended = apply_evidence(framework, evidence)
    reports = []
    for name in names:
        literal = _conducting_literal(name, operation)
        reports.append(SuspectReport(name, extended.prob_bounds(literal)))
    best = max(r.interval.p for r in reports)
    most = tuple(sorted(r.suspect for r in reports if r.interval.p == best))

    traces = []
    for name in most:
        literal = _conducting_literal(name, operation)
        nec, _ = extended.masks(literal)
        if not nec:
            continue
        # The lowest warranting world, without listing the others.
        world = extended.space.world((nec & -nec).bit_length() - 1)
        traces.append(
            Trace(name, literal, world, extended.forest_in(world, literal))
        )
    return AttributionResult(
        most_probable=most,
        reports=tuple(reports),
        traces=tuple(traces),
    )
