"""Probabilistic reasoning over possible worlds.

A knowledge base pairs ground formulas with probability intervals p +- eps.
Its models are distributions over the worlds that conform to the integrity
constraints; queries are answered by optimizing the query's probability over
all such distributions, which reduces to a linear program with one variable
per conforming world.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

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
            raise GroundednessError(f"formula must be ground: {self.formula}")
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


def _lp_rows(kb: EMKnowledgeBase, worlds: list[World]):
    ones = [Fraction(1)] * len(worlds)
    rows = [(ones, simplex.EQ, Fraction(1))]
    for pf in kb.formulas:
        coeffs = [Fraction(1) if satisfies(w, pf.formula) else Fraction(0) for w in worlds]
        rows.append((coeffs, simplex.GE, pf.lower))
        rows.append((coeffs, simplex.LE, pf.upper))
    return rows


def lp_extrema(
    kb: EMKnowledgeBase,
    worlds: Iterable[World],
    max_atoms: int = DEFAULT_MAX_ATOMS,
) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of the mass on `worlds` over all distributions
    satisfying kb."""
    target = frozenset(worlds)
    columns = enumerate_worlds(kb, max_atoms)
    rows = _lp_rows(kb, columns)
    objective = [Fraction(1) if w in target else Fraction(0) for w in columns]
    try:
        lo, _ = simplex.minimize(objective, rows)
        hi, _ = simplex.maximize(objective, rows)
    except simplex.Infeasible:
        raise InconsistentKBError(
            "no probability distribution satisfies the knowledge base"
        ) from None
    return lo, hi


def lp_bounds(
    kb: EMKnowledgeBase, query: Formula, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ProbabilityInterval:
    _check_query(kb, query)
    worlds = worlds_satisfying(enumerate_worlds(kb, max_atoms), query)
    lo, hi = lp_extrema(kb, worlds, max_atoms)
    return ProbabilityInterval(lo, hi)


def max_entailment(
    kb: EMKnowledgeBase, query: Formula, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ProbabilisticFormula:
    """Tightest p +- eps such that kb entails query : p +- eps."""
    interval = lp_bounds(kb, query, max_atoms)
    return ProbabilisticFormula(query, interval.p, interval.eps)


def is_consistent(kb: EMKnowledgeBase, max_atoms: int = DEFAULT_MAX_ATOMS) -> bool:
    worlds = enumerate_worlds(kb, max_atoms)
    rows = _lp_rows(kb, worlds)
    objective = [Fraction(0)] * len(worlds)
    try:
        simplex.maximize(objective, rows)
    except simplex.Infeasible:
        return False
    return True


def worlds_satisfying(worlds: list[World], formula: Formula) -> list[World]:
    return [w for w in worlds if satisfies(w, formula)]


def distribution_bounds(
    kb: EMKnowledgeBase,
    distribution: dict[World, Fraction],
    query: Formula,
) -> Fraction:
    """P(query) under one fully specified distribution."""
    _check_query(kb, query)
    return sum(
        (pr for w, pr in distribution.items() if satisfies(w, query)),
        Fraction(0),
    )
