"""Couples the probabilistic and argumentation layers.

Every program element carries an annotation: an environmental-model formula
stating when the element can be used. In a given world only the elements
whose annotations hold are available, so each world induces its own
subprogram, its own dialectical forests, and its own warranted literals.
Probability bounds for a literal then come from the worlds that necessarily
(respectively possibly) warrant it.

Worlds where the same annotations hold induce the same subprogram, so the
framework splits the world space (see `em.WorldSpace`) into classes by the
truth values of its distinct annotations and decides warrant once per class
and literal. The nec and poss sets are unions of class masks that go to the
LP as they are; they are listed as worlds only when a caller asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .am import (
    AMProgram,
    Argument,
    DEFAULT_SPECIFICITY_CAP,
    DialecticalNode,
    WARRANTED,
    index_for,
)
from .em import (
    DEFAULT_MAX_ATOMS,
    EMKnowledgeBase,
    ProbabilityInterval,
    WorldSpace,
    _linear_program,
    enumerate_worlds,
    lp_extrema,  # noqa: F401  (bench/tracer.py wraps this name)
    refine,
    world_space,
)
from .errors import AssemblyError, DistributionError, GroundednessError
from .language import (
    EM,
    Formula,
    Literal,
    TOP,
    World,
    formula_atoms,
    satisfies,  # noqa: F401  (bench/tracer.py wraps this name)
)


def _base_label(label: str) -> str:
    return label.split("[", 1)[0]


@dataclass(frozen=True)
class AnnotationFunction:
    """Maps element labels to environmental-model formulas; unmapped labels
    default to true. Ground instances named label[...] inherit the schematic
    label's annotation unless mapped themselves."""

    mapping: tuple[tuple[str, Formula], ...] = ()

    def __post_init__(self):
        if isinstance(self.mapping, dict):
            items = self.mapping.items()
        else:
            items = self.mapping
        canonical = []
        seen = set()
        for label, formula in sorted(items, key=lambda pair: pair[0]):
            if label in seen:
                raise AssemblyError(f"duplicate annotation for {label}")
            seen.add(label)
            if formula.model not in (EM, None):
                raise AssemblyError(
                    f"annotation for {label} must be an environmental formula"
                )
            if not formula.is_ground:
                raise GroundednessError(
                    f"annotation for {label} must be ground"
                )
            if formula != TOP:
                canonical.append((label, formula))
        object.__setattr__(self, "mapping", tuple(canonical))
        # Lookup table; not a field, so equality and hashing stay on mapping.
        object.__setattr__(self, "_table", dict(canonical))

    def annotation_for(self, label: str) -> Formula:
        if label in self._table:
            return self._table[label]
        return self._table.get(_base_label(label), TOP)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.mapping)


@dataclass(eq=False)
class InCAFramework:
    """A probabilistic knowledge base, a ground argumentation program, and
    the annotation function tying them together."""

    em: EMKnowledgeBase
    program: AMProgram
    annotations: AnnotationFunction = field(default_factory=AnnotationFunction)
    max_atoms: int = DEFAULT_MAX_ATOMS
    specificity_cap: int = DEFAULT_SPECIFICITY_CAP

    def __post_init__(self):
        if isinstance(self.annotations, dict):
            self.annotations = AnnotationFunction(self.annotations)
        if not self.program.is_ground:
            raise GroundednessError(
                "framework programs must be ground; instantiate first"
            )
        known = {e.label for e in self.program.elements}
        known |= {_base_label(e.label) for e in self.program.elements}
        universe = set(self.em.atom_universe)
        for label, formula in self.annotations.mapping:
            if label not in known:
                raise AssemblyError(f"annotation for unknown element {label}")
            for atom in formula_atoms(formula):
                if atom not in universe:
                    raise AssemblyError(
                        f"annotation for {label} mentions {atom}, which is "
                        "outside the atom universe"
                    )
        self._warrants: dict[tuple, bool] = {}

    @cached_property
    def index(self):
        return index_for(self.program, self.specificity_cap)

    @cached_property
    def space(self) -> WorldSpace:
        return world_space(self.em, self.max_atoms)

    @cached_property
    def worlds(self) -> tuple[World, ...]:
        return tuple(enumerate_worlds(self.em, self.max_atoms))

    # -- validity -----------------------------------------------------------

    @cached_property
    def _label_classes(self) -> tuple[tuple[int, frozenset[str], bool], ...]:
        """Every world in one class per set of valid labels: (class mask,
        the labels valid in its worlds, whether its worlds conform)."""
        annotation = {
            e.label: self.annotations.annotation_for(e.label)
            for e in self.program.elements
        }
        tables = {f: self.space.table(f) for f in dict.fromkeys(annotation.values())}
        conforming = self.space.conforming
        return tuple(
            (
                c,
                frozenset(label for label, f in annotation.items() if c & tables[f]),
                c & conforming != 0,
            )
            for c in refine(self.space.full, [conforming, *tables.values()])
        )

    def valid_labels(self, world: World) -> frozenset[str]:
        w = self.space.number(world)
        return next(labels for c, labels, _ in self._label_classes if c >> w & 1)

    def is_valid(self, argument: Argument, world: World) -> bool:
        """An argument can be used in a world iff the annotation of every
        element in its support holds there."""
        return self._validity_test(self.valid_labels(world))(argument)

    # -- world-indexed warrant ----------------------------------------------

    @staticmethod
    def _validity_test(labels: frozenset[str]):
        return lambda a: all(e.label in labels for e in a.support)

    def _warranted(self, labels: frozenset[str], literal: Literal) -> bool:
        """Whether the subprogram of the valid labels warrants the literal;
        decided once per label set."""
        key = (labels, literal.key())
        cached = self._warrants.get(key)
        if cached is None:
            status = self.index.warrant_status(literal, self._validity_test(labels))
            cached = status == WARRANTED
            self._warrants[key] = cached
        return cached

    def warrants_in(self, world: World, literal: Literal) -> bool:
        return self._warranted(self.valid_labels(world), literal)

    def forest_in(self, world: World, literal: Literal) -> tuple[DialecticalNode, ...]:
        return self.index.forest(
            literal, self._validity_test(self.valid_labels(world))
        )

    def warrant_status_in(self, world: World, literal: Literal) -> str:
        return self.index.warrant_status(
            literal, self._validity_test(self.valid_labels(world))
        )

    # -- nec / poss ----------------------------------------------------------

    def nec_mask(self, literal: Literal) -> int:
        """The nec set as a mask of self.space."""
        mask = 0
        for c, labels, conforms in self._label_classes:
            if conforms and self._warranted(labels, literal):
                mask |= c
        return mask

    def poss_mask(self, literal: Literal) -> int:
        """The poss set as a mask of self.space."""
        arguments = self.index.arguments_for(literal)
        complement = literal.complement()
        mask = 0
        for c, labels, conforms in self._label_classes:
            if (
                conforms
                and any(map(self._validity_test(labels), arguments))
                and not self._warranted(labels, complement)
            ):
                mask |= c
        return mask

    def nec_set(self, literal: Literal) -> tuple[World, ...]:
        """Worlds whose induced subprogram warrants the literal."""
        return tuple(self.space.decode(self.nec_mask(literal)))

    def poss_set(self, literal: Literal) -> tuple[World, ...]:
        """Worlds where some argument for the literal is available and the
        complement is not warranted."""
        return tuple(self.space.decode(self.poss_mask(literal)))

    # -- probabilities --------------------------------------------------------

    def prob_bounds(self, literal: Literal) -> ProbabilityInterval:
        """Tight probability interval for the literal being warranted: the
        least mass on the necessary worlds and the most on the possible
        ones."""
        nec = self.nec_mask(literal)
        lp = _linear_program(self.em, self.max_atoms)
        lower, _ = lp.extrema(nec)
        _, upper = lp.extrema(self.poss_mask(literal))
        return ProbabilityInterval(lower, upper)

    def prob_from_distribution(
        self, literal: Literal, distribution: dict[World, Fraction]
    ) -> ProbabilityInterval:
        """Interval for one concrete distribution over the worlds."""
        allowed = set(self.worlds)
        total = Fraction(0)
        for world, pr in distribution.items():
            if world not in allowed:
                raise DistributionError(
                    "distribution assigns mass to a non-conforming world"
                )
            pr = Fraction(pr)
            if pr < 0:
                raise DistributionError("probabilities must be nonnegative")
            total += pr
        if total != 1:
            raise DistributionError(f"probabilities sum to {total}, not 1")
        lower = sum(
            (Fraction(distribution.get(w, 0)) for w in self.nec_set(literal)),
            Fraction(0),
        )
        upper = sum(
            (Fraction(distribution.get(w, 0)) for w in self.poss_set(literal)),
            Fraction(0),
        )
        return ProbabilityInterval(lower, upper)
