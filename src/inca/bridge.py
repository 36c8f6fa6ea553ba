"""Couples the probabilistic and argumentation layers.

Every program element carries an annotation: an environmental-model formula
stating when the element can be used. In a given world only the elements
whose annotations hold are available, so each world induces its own
subprogram, its own dialectical forests, and its own warranted literals.
Probability bounds for a literal then come from the worlds that necessarily
(respectively possibly) warrant it.

Each element's annotation is a truth table over the world space (see
`em.WorldSpace`), and an argument is available on the AND of the tables of
its support, given as an element mask (bit i for `index.elements[i]`). One
pruned walk of the dialectical trees over those masks
(`ProgramIndex.warrant_masks`) gives the worlds that warrant a literal and
those that warrant its complement; nec and poss are masks read off them
that go to the LP as they are. They are listed as worlds only when a
caller asks for them.

What a program, an annotation function and a world space determine is
derived once and shared (`_kb_state`): each element bit's table, each
support mask's availability, each literal's (nec, poss) masks and its
probability bounds. Every framework over the same KB, such as the one each
CLI command assembles, reads them from there, as it reads the argument
index (`index_for`) and the world space (`world_space`) with its LP; like
those, only the last KB's state is kept.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .am import (
    AMProgram,
    DialecticalNode,
    WARRANTED,
    _bits,
    index_for,
)
from .em import (
    DEFAULT_MAX_ATOMS,
    EMKnowledgeBase,
    ProbabilityInterval,
    WorldSpace,
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
        # Hashed once: the shared per-KB state is looked up by annotations.
        mapping = tuple(canonical)
        self.__dict__.update(_hash=hash(mapping), mapping=mapping,
                             _table=dict(canonical), _atoms=atoms)

    def __hash__(self) -> int:
        return self._hash

    def annotation_for(self, label: str) -> Formula:
        if label in self._table:
            return self._table[label]
        return self._table.get(_base_label(label), TOP)


class _KBState:
    """What `_kb_state` shares, filled in as queries reach it. An entry
    depends only on the key and is never changed once written, so threads
    that share the state can at worst compute one twice."""

    def __init__(self):
        self.tables: dict[int, int] = {}
        self.available: dict[int, int] = {}
        self.masks: dict[Literal, tuple[int, int]] = {}
        self.bounds: dict[Literal, ProbabilityInterval] = {}


@lru_cache(maxsize=1)
def _kb_state(index, annotations: AnnotationFunction, space: WorldSpace) -> _KBState:
    """The state of the last KB asked about. index and space compare by
    identity: `index_for` and `world_space` return the same object for an
    equal program and for an equal (EM, max_atoms), and the space carries
    the LP that prob_bounds reads."""
    return _KBState()


class InCAFramework:
    """A probabilistic knowledge base, a ground argumentation program, and
    the annotation function tying them together. Mutable, and equal only to
    itself. Availability, nec/poss masks and bounds live in the state shared
    by every framework over an equal KB (`_kb_state`), not in the
    instance."""

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
        known |= {_base_label(label) for label in known if "[" in label}
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

    @cached_property
    def index(self):
        return index_for(self.program)

    @cached_property
    def space(self) -> WorldSpace:
        return world_space(self.em, self.max_atoms)

    @cached_property
    def worlds(self) -> tuple[World, ...]:
        return tuple(enumerate_worlds(self.em, self.max_atoms))

    @cached_property
    def _state(self) -> _KBState:
        return _kb_state(self.index, self.annotations, self.space)

    # -- availability and world-indexed warrant -----------------------------

    def available(self, support: int) -> int:
        """The worlds, as a mask of self.space, where an argument with the
        element mask support (bit i for self.index.elements[i]) can be used:
        those where the annotation of each of its elements holds."""
        state = self._state
        mask = state.available.get(support)
        if mask is None:
            mask = self.space.full
            for i in _bits(support):
                table = state.tables.get(i)
                if table is None:
                    label = self.index.elements[i].label
                    table = state.tables[i] = self.space.table(
                        self.annotations.annotation_for(label)
                    )
                mask &= table
            state.available[support] = mask
        return mask

    def warrants_in(self, world: World, literal: Literal) -> bool:
        w = self.space.number(world)
        return self.index.warrant_status(literal, self.available, 1 << w) == WARRANTED

    def forest_in(self, world: World, literal: Literal) -> tuple[DialecticalNode, ...]:
        w = self.space.number(world)
        return self.index.forest(literal, self.available, 1 << w)

    def warrant_status_in(self, world: World, literal: Literal) -> str:
        w = self.space.number(world)
        return self.index.warrant_status(literal, self.available, 1 << w)

    # -- nec / poss ----------------------------------------------------------

    def masks(self, literal: Literal) -> tuple[int, int]:
        """The nec and poss sets as masks of self.space: the conforming
        worlds that warrant the literal, and those where some argument for
        it is available and its complement is not warranted. Kept per
        literal in the shared state, as `available` keeps each support
        mask's worlds."""
        known = self._state.masks
        masks = known.get(literal)
        if masks is None:
            conforming = self.space.conforming
            nec, con = self.index.warrant_masks(literal, self.available, conforming)
            poss = 0
            for m in self.index.supports(literal):
                poss |= self.available(m)
            masks = known[literal] = nec, poss & conforming & ~con
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
        known = self._state.bounds
        interval = known.get(literal)
        if interval is None:
            nec, poss = self.masks(literal)
            interval = known[literal] = ProbabilityInterval(*self.space.lp.extrema(nec, poss))
        return interval
