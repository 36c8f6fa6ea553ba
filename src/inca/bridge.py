"""Couples the probabilistic and argumentation layers.

Every program element carries an annotation: an environmental-model formula
stating when the element can be used. In a given world only the elements
whose annotations hold are available, so each world induces its own
subprogram, its own dialectical forests, and its own warranted literals.
Probability bounds for a literal then come from the worlds that necessarily
(respectively possibly) warrant it.

Each element's annotation is a truth table over the world space (see
`em.WorldSpace`), and an argument is available on the AND of the tables of
its support. One pruned walk of the dialectical trees over those masks
(`ProgramIndex.warrant_masks`) gives the worlds that warrant a literal and
those that warrant its complement; nec and poss are masks read off them
that go to the LP as they are. They are listed as worlds only when a
caller asks for them.
"""

from __future__ import annotations

from functools import cached_property

from .am import (
    AMProgram,
    Argument,
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
    world_space,
)
from .errors import AssemblyError, GroundednessError
from .language import (
    EM,
    Formula,
    Literal,
    TOP,
    Value,
    World,
    formula_atoms,
    satisfies,  # noqa: F401  (bench/tracer.py wraps this name)
)


def _base_label(label: str) -> str:
    return label.split("[", 1)[0]


class AnnotationFunction(Value):
    """Maps element labels to environmental-model formulas; unmapped labels
    default to true. Ground instances named label[...] inherit the schematic
    label's annotation unless mapped themselves."""

    _fields = ("mapping",)

    def __init__(self, mapping: tuple[tuple[str, Formula], ...] = ()):
        items = mapping.items() if isinstance(mapping, dict) else mapping
        canonical, atoms = [], {}
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
                atoms[label] = formula_atoms(formula)
        # _table is a lookup table and _atoms the atoms of each formula, walked
        # once per load; not fields, so equality and hashing stay on mapping.
        self.__dict__.update(mapping=tuple(canonical), _table=dict(canonical),
                             _atoms=atoms)

    def annotation_for(self, label: str) -> Formula:
        if label in self._table:
            return self._table[label]
        return self._table.get(_base_label(label), TOP)


class InCAFramework:
    """A probabilistic knowledge base, a ground argumentation program, and
    the annotation function tying them together. Mutable, and equal only to
    itself."""

    def __init__(
        self,
        em: EMKnowledgeBase,
        program: AMProgram,
        annotations: AnnotationFunction = AnnotationFunction(),
        max_atoms: int = DEFAULT_MAX_ATOMS,
    ):
        if isinstance(annotations, dict):
            annotations = AnnotationFunction(annotations)
        if not program.is_ground:
            raise GroundednessError(
                "framework programs must be ground; instantiate first"
            )
        known = {e.label for e in program.elements}
        known |= {_base_label(e.label) for e in program.elements}
        universe = set(em.atom_universe)
        for label, atoms in annotations._atoms.items():
            if label not in known:
                raise AssemblyError(f"annotation for unknown element {label}")
            for atom in atoms:
                if atom not in universe:
                    raise AssemblyError(
                        f"annotation for {label} mentions {atom}, which is "
                        "outside the atom universe"
                    )
        self.em = em
        self.program = program
        self.annotations = annotations
        self.max_atoms = max_atoms
        self._available: dict[Argument, int] = {}
        self._masks: dict[Literal, tuple[int, int]] = {}

    @cached_property
    def index(self):
        return index_for(self.program)

    @cached_property
    def space(self) -> WorldSpace:
        return world_space(self.em, self.max_atoms)

    @cached_property
    def worlds(self) -> tuple[World, ...]:
        return tuple(enumerate_worlds(self.em, self.max_atoms))

    # -- availability and world-indexed warrant -----------------------------

    def available(self, argument: Argument) -> int:
        """The worlds, as a mask of self.space, where an argument can be
        used: those where the annotation of every element of its support
        holds."""
        mask = self._available.get(argument)
        if mask is None:
            mask = self.space.full
            for e in argument.support:
                mask &= self.space.table(self.annotations.annotation_for(e.label))
            self._available[argument] = mask
        return mask

    def _in(self, world: World):
        w = self.space.number(world)
        return lambda a: self.available(a) >> w & 1

    def warrants_in(self, world: World, literal: Literal) -> bool:
        return self.index.warrant_status(literal, self._in(world)) == WARRANTED

    def forest_in(self, world: World, literal: Literal) -> tuple[DialecticalNode, ...]:
        return self.index.forest(literal, self._in(world))

    def warrant_status_in(self, world: World, literal: Literal) -> str:
        return self.index.warrant_status(literal, self._in(world))

    # -- nec / poss ----------------------------------------------------------

    def masks(self, literal: Literal) -> tuple[int, int]:
        """The nec and poss sets as masks of self.space: the conforming
        worlds that warrant the literal, and those where some argument for
        it is available and its complement is not warranted. Kept per
        literal, as `available` keeps each argument's mask."""
        masks = self._masks.get(literal)
        if masks is None:
            conforming = self.space.conforming
            nec, con = self.index.warrant_masks(literal, self.available, conforming)
            poss = 0
            for a in self.index.arguments_for(literal):
                poss |= self.available(a)
            masks = self._masks[literal] = nec, poss & conforming & ~con
        return masks

    def nec_set(self, literal: Literal) -> tuple[World, ...]:
        """Worlds whose induced subprogram warrants the literal."""
        return tuple(self.space.decode(self.masks(literal)[0]))

    def poss_set(self, literal: Literal) -> tuple[World, ...]:
        """Worlds where some argument for the literal is available and the
        complement is not warranted."""
        return tuple(self.space.decode(self.masks(literal)[1]))

    # -- probabilities --------------------------------------------------------

    def prob_bounds(self, literal: Literal) -> ProbabilityInterval:
        """Tight probability interval for the literal being warranted: the
        least mass on the necessary worlds and the most on the possible
        ones."""
        nec, poss = self.masks(literal)
        lp = _linear_program(self.em, self.max_atoms)
        return ProbabilityInterval(*lp.extrema(nec, poss))
