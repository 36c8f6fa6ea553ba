"""Probabilistic reasoning over possible worlds.

A knowledge base pairs ground formulas with probability intervals p +- eps.
Its models are distributions over the worlds that conform to the integrity
constraints; queries are answered by optimizing the query's probability over
all such distributions, which reduces to a linear program with one variable
per class of conforming worlds that satisfy the same formulas. That program
is built, and its phase 1 solved, once per knowledge base.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import simplex
from .errors import CapacityError, GroundednessError, InconsistentKBError
from .language import (
    EM,
    Atom,
    Formula,
    World,
    formula_atoms,
    render_formula,
    satisfies,
)

DEFAULT_MAX_ATOMS = 20


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        # Floats arrive from user input; take their printed decimal value
        # rather than the binary expansion.
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class ProbabilisticFormula:
    """A ground formula annotated with an interval: P(formula) in [p-eps, p+eps]."""

    formula: Formula
    p: Fraction
    eps: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "p", _as_fraction(self.p))
        object.__setattr__(self, "eps", _as_fraction(self.eps))
        if self.formula.model != EM:
            raise ValueError("probabilistic formulas live in the environmental model")
        if not self.formula.is_ground:
            raise GroundednessError(
                f"formula must be ground: {render_formula(self.formula)}"
            )
        if not 0 <= self.p <= 1:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if not 0 <= self.eps <= min(self.p, 1 - self.p):
            raise ValueError(
                f"eps must be in [0, min(p, 1-p)], got {self.eps} with p={self.p}"
            )

    @property
    def lower(self) -> Fraction:
        return self.p - self.eps

    @property
    def upper(self) -> Fraction:
        return self.p + self.eps

    def __str__(self) -> str:
        return f"{render_formula(self.formula)} : {self.p} +- {self.eps}"


@dataclass(frozen=True)
class IntegrityConstraint:
    """oneOf over a set of ground atoms: a world may contain at most one."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if len(self.atoms) < 2:
            raise ValueError("oneOf needs at least two atoms")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("oneOf atoms must be distinct")
        for a in self.atoms:
            if not isinstance(a, Atom) or a.model != EM or not a.is_ground:
                raise ValueError(f"oneOf takes ground environmental atoms, got {a}")

    def allows(self, world: World) -> bool:
        return len(world & frozenset(self.atoms)) <= 1

    def __str__(self) -> str:
        return "oneOf(" + ", ".join(str(a) for a in self.atoms) + ")"


@dataclass(frozen=True)
class EMKnowledgeBase:
    formulas: tuple[ProbabilisticFormula, ...] = ()
    constraints: tuple[IntegrityConstraint, ...] = ()
    atom_universe: tuple[Atom, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "formulas", tuple(self.formulas))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        mentioned = self._mentioned_atoms()
        if self.atom_universe is None:
            object.__setattr__(self, "atom_universe", tuple(mentioned))
        else:
            universe = tuple(self.atom_universe)
            if len(set(universe)) != len(universe):
                raise ValueError("atom universe contains duplicates")
            missing = [a for a in mentioned if a not in set(universe)]
            if missing:
                raise ValueError(
                    "atom universe is missing atoms used by the knowledge base: "
                    + ", ".join(str(a) for a in missing)
                )
            object.__setattr__(self, "atom_universe", universe)

    def _mentioned_atoms(self) -> list[Atom]:
        seen: list[Atom] = []
        for pf in self.formulas:
            for a in formula_atoms(pf.formula):
                if a not in seen:
                    seen.append(a)
        for ic in self.constraints:
            for a in ic.atoms:
                if a not in seen:
                    seen.append(a)
        return seen

    def conforms(self, world: World) -> bool:
        return all(ic.allows(world) for ic in self.constraints)


def enumerate_worlds(kb: EMKnowledgeBase, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[World]:
    """All worlds over the universe that satisfy the integrity constraints.

    Worlds come out in binary-counting order: bit j of the counter decides
    whether the j-th universe atom is in the world.
    """
    universe = kb.atom_universe
    if len(universe) > max_atoms:
        raise CapacityError(
            f"universe has {len(universe)} atoms, limit is {max_atoms}"
        )
    worlds = []
    for mask in range(1 << len(universe)):
        w: World = frozenset(
            universe[j] for j in range(len(universe)) if mask >> j & 1
        )
        if kb.conforms(w):
            worlds.append(w)
    return worlds


@lru_cache(maxsize=1)
def conforming_worlds(
    kb: EMKnowledgeBase, max_atoms: int = DEFAULT_MAX_ATOMS
) -> tuple[World, ...]:
    """`enumerate_worlds`, run once per (kb, max_atoms) and shared by the
    LP and the bridge. It does not need kb to be consistent."""
    return tuple(enumerate_worlds(kb, max_atoms))


@dataclass(frozen=True)
class ProbabilityInterval:
    lower: Fraction
    upper: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lower", Fraction(self.lower))
        object.__setattr__(self, "upper", Fraction(self.upper))
        if self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower}, {self.upper}]")

    @property
    def eps(self) -> Fraction:
        return (self.upper - self.lower) / 2

    @property
    def p(self) -> Fraction:
        return self.lower + self.eps

    def __str__(self) -> str:
        return f"{self.p} +- {self.eps}"


def _check_query(kb: EMKnowledgeBase, query: Formula) -> None:
    if query.model not in (EM, None):
        raise ValueError("queries must be environmental-model formulas")
    if not query.is_ground:
        raise GroundednessError(f"query must be ground: {query}")
    universe = set(kb.atom_universe)
    for a in formula_atoms(query):
        if a not in universe:
            raise GroundednessError(f"query atom outside the universe: {a}")


class _EMLinearProgram:
    """The LP of one knowledge base, built once for every objective on it.

    Worlds that satisfy the same formulas get one column: moving mass
    between them changes no row, so the class's total mass is all the LP
    needs. Raises InconsistentKBError when no distribution satisfies kb.
    """

    def __init__(self, kb: EMKnowledgeBase, max_atoms: int):
        self.worlds = conforming_worlds(kb, max_atoms)
        classes: dict[tuple[bool, ...], int] = {}
        self.class_of: dict[World, int] = {}
        for w in self.worlds:
            signature = tuple(satisfies(w, pf.formula) for pf in kb.formulas)
            self.class_of[w] = classes.setdefault(signature, len(classes))
        self.class_sizes = Counter(self.class_of.values())
        rows = [([1] * len(classes), simplex.EQ, 1)]
        for i, pf in enumerate(kb.formulas):
            coeffs = [int(signature[i]) for signature in classes]
            if pf.lower == pf.upper:
                rows.append((coeffs, simplex.EQ, pf.lower))
                continue
            # x >= 0 and the sum-to-one row already imply 0 <= row <= 1.
            if pf.lower > 0:
                rows.append((coeffs, simplex.GE, pf.lower))
            if pf.upper < 1:
                rows.append((coeffs, simplex.LE, pf.upper))
        try:
            self.polytope = simplex.Polytope(len(classes), rows)
        except simplex.Infeasible:
            raise InconsistentKBError(
                "no probability distribution satisfies the knowledge base"
            ) from None

    def extrema(self, target: frozenset[World]) -> tuple[Fraction, Fraction]:
        hits = Counter(self.class_of[w] for w in target if w in self.class_of)
        # A class can keep all of its mass inside the target only if all of
        # its worlds are there, and can put some there if any one is.
        classes = range(len(self.class_sizes))
        lo, _ = self.polytope.minimize(
            [int(hits[j] == self.class_sizes[j]) for j in classes]
        )
        hi, _ = self.polytope.maximize([int(j in hits) for j in classes])
        return lo, hi


@lru_cache(maxsize=1)
def _linear_program(kb: EMKnowledgeBase, max_atoms: int) -> _EMLinearProgram:
    return _EMLinearProgram(kb, max_atoms)


def lp_extrema(
    kb: EMKnowledgeBase,
    worlds: Iterable[World],
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the mass on `worlds` over all distributions
    satisfying kb. Worlds that do not conform to kb carry no mass."""
    return _linear_program(kb, max_atoms).extrema(frozenset(worlds))


def lp_bounds(
    kb: EMKnowledgeBase, query: Formula, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ProbabilityInterval:
    _check_query(kb, query)
    worlds = worlds_satisfying(_linear_program(kb, max_atoms).worlds, query)
    lo, hi = lp_extrema(kb, worlds, max_atoms)
    return ProbabilityInterval(lo, hi)


def max_entailment(
    kb: EMKnowledgeBase, query: Formula, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ProbabilisticFormula:
    """Tightest p +- eps such that kb entails query : p +- eps."""
    interval = lp_bounds(kb, query, max_atoms)
    return ProbabilisticFormula(query, interval.p, interval.eps)


def is_consistent(kb: EMKnowledgeBase, max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    try:
        _linear_program(kb, max_atoms)
    except InconsistentKBError:
        return False
    return True


def worlds_satisfying(worlds: list[World], formula: Formula) -> list[World]:
    return [w for w in worlds if satisfies(w, formula)]
