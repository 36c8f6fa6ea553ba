"""Shared logical language: terms, atoms, literals, formulas and possible worlds.

The environmental and analytical models use disjoint predicate vocabularies;
every atom carries a model tag so the two cannot be mixed by accident.
A world is a frozenset of ground atoms (absent means false).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import GroundednessError

EM = "em"
AM = "am"

ROLE_PLAIN = "plain"
ROLE_ACTOR = "actor"
ROLE_OPERATION = "operation"
ROLES = (ROLE_PLAIN, ROLE_ACTOR, ROLE_OPERATION)

_VARIABLE_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_CONSTANT_RE = re.compile(r"[a-z0-9][A-Za-z0-9_]*\Z")
_PREDICATE_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Term:
    """A variable (uppercase start) or constant (lowercase/digit start).

    Constants may carry a role used by sorted grounding; the role is not part
    of term identity, so a constant parsed without sort context still compares
    equal to its declared counterpart.

    Term, Atom, Literal and Formula compute their hash once, at construction,
    from their compared fields; it is not a field, so equality ignores it.
    """

    name: str
    role: str = field(default=ROLE_PLAIN, compare=False)

    def __post_init__(self):
        if _VARIABLE_RE.match(self.name):
            if self.role != ROLE_PLAIN:
                raise ValueError(f"variable {self.name} cannot carry a role")
        elif not _CONSTANT_RE.match(self.name):
            raise ValueError(f"bad term name: {self.name!r}")
        if self.role not in ROLES:
            raise ValueError(f"bad role: {self.role!r}")
        object.__setattr__(self, "_hash", hash(self.name))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Atom:
    """A predicate applied to zero or more terms, tagged with its model."""

    predicate: str
    args: tuple[Term, ...] = ()
    model: str = EM

    def __post_init__(self):
        if not _PREDICATE_RE.match(self.predicate):
            raise ValueError(f"bad predicate name: {self.predicate!r}")
        if self.model not in (EM, AM):
            raise ValueError(f"bad model tag: {self.model!r}")
        object.__setattr__(self, "_hash", hash((self.predicate, self.args, self.model)))
        # Not a field either: grounding checks read it on every element.
        object.__setattr__(
            self, "is_ground", not any(t.is_variable for t in self.args)
        )

    def __hash__(self) -> int:
        return self._hash

    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.args if t.is_variable)

    def key(self) -> tuple:
        return (self.predicate, tuple(t.name for t in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(t.name for t in self.args)})"


@dataclass(frozen=True)
class Literal:
    """An analytical-model atom or its strong negation."""

    atom: Atom
    negated: bool = False

    def __post_init__(self):
        if self.atom.model != AM:
            raise ValueError("literals belong to the analytical model")
        object.__setattr__(self, "_hash", hash((self.atom, self.negated)))

    def __hash__(self) -> int:
        return self._hash

    def complement(self) -> Literal:
        return Literal(self.atom, not self.negated)

    @property
    def is_ground(self) -> bool:
        return self.atom.is_ground

    def key(self) -> tuple:
        return (self.negated,) + self.atom.key()

    def __str__(self) -> str:
        return f"neg {self.atom}" if self.negated else str(self.atom)


# Formula node kinds.
F_ATOM = "atom"
F_NOT = "not"
F_AND = "and"
F_OR = "or"
F_TOP = "top"
F_BOTTOM = "bottom"


@dataclass(frozen=True)
class Formula:
    """Propositional formula over ground or schematic atoms of one model."""

    op: str
    atom: Atom | None = None
    parts: tuple[Formula, ...] = ()

    def __post_init__(self):
        if self.op == F_ATOM:
            if self.atom is None or self.parts:
                raise ValueError("atom formula needs an atom and no parts")
        elif self.op == F_NOT:
            if self.atom is not None or len(self.parts) != 1:
                raise ValueError("negation takes exactly one part")
        elif self.op in (F_AND, F_OR):
            if self.atom is not None or len(self.parts) != 2:
                raise ValueError(f"{self.op} takes exactly two parts")
            models = {m for m in (p.model for p in self.parts) if m is not None}
            if len(models) > 1:
                raise ValueError("formula mixes atoms from both models")
        elif self.op in (F_TOP, F_BOTTOM):
            if self.atom is not None or self.parts:
                raise ValueError(f"{self.op} takes no arguments")
        else:
            raise ValueError(f"bad formula op: {self.op!r}")
        # Set once per node from its parts, so a check never walks the tree;
        # not a field, so equality and hashing ignore it.
        ground = self.atom.is_ground if self.op == F_ATOM else all(
            p.is_ground for p in self.parts
        )
        object.__setattr__(self, "is_ground", ground)
        object.__setattr__(self, "_hash", hash((self.op, self.atom, self.parts)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def model(self) -> str | None:
        if self.op == F_ATOM:
            return self.atom.model
        for p in self.parts:
            m = p.model
            if m is not None:
                return m
        return None


TOP = Formula(F_TOP)
BOTTOM = Formula(F_BOTTOM)


def atom_formula(atom: Atom) -> Formula:
    return Formula(F_ATOM, atom=atom)


def neg(f: Formula) -> Formula:
    return Formula(F_NOT, parts=(f,))


def conj(left: Formula, right: Formula) -> Formula:
    return Formula(F_AND, parts=(left, right))


def disj(left: Formula, right: Formula) -> Formula:
    return Formula(F_OR, parts=(left, right))


def formula_atoms(f: Formula) -> tuple[Atom, ...]:
    """Atoms of a formula in first-mention order, without duplicates."""
    seen: dict[Atom, None] = {}

    def walk(node: Formula):
        if node.op == F_ATOM:
            seen.setdefault(node.atom)
        for p in node.parts:
            walk(p)

    walk(f)
    return tuple(seen)


World = frozenset  # of ground Atom


def satisfies(world: frozenset, f: Formula) -> bool:
    """Classical satisfaction of a ground formula at a world.

    An atom holds iff it is in the world; everything absent is false.
    """
    if not f.is_ground:
        raise GroundednessError(f"formula is not ground: {render_formula(f)}")
    return _holds(world, f)


def _holds(world: frozenset, f: Formula) -> bool:
    if f.op == F_ATOM:
        return f.atom in world
    if f.op == F_NOT:
        return not _holds(world, f.parts[0])
    if f.op == F_AND:
        return _holds(world, f.parts[0]) and _holds(world, f.parts[1])
    if f.op == F_OR:
        return _holds(world, f.parts[0]) or _holds(world, f.parts[1])
    return f.op == F_TOP


def substitute_atom(atom: Atom, binding: dict[str, Term]) -> Atom:
    args = tuple(binding.get(t.name, t) if t.is_variable else t for t in atom.args)
    return Atom(atom.predicate, args, atom.model)


def substitute_literal(lit: Literal, binding: dict[str, Term]) -> Literal:
    return Literal(substitute_atom(lit.atom, binding), lit.negated)


_PRECEDENCE = {F_OR: 1, F_AND: 2, F_NOT: 3, F_ATOM: 4, F_TOP: 4, F_BOTTOM: 4}


def render_formula(f: Formula) -> str:
    """Concrete syntax: ~ binds tightest, then ^, then v."""

    def wrap(child: Formula, parent_prec: int) -> str:
        text = render_formula(child)
        if _PRECEDENCE[child.op] < parent_prec:
            return f"({text})"
        return text

    if f.op == F_ATOM:
        return str(f.atom)
    if f.op == F_TOP:
        return "true"
    if f.op == F_BOTTOM:
        return "false"
    if f.op == F_NOT:
        return "~" + wrap(f.parts[0], _PRECEDENCE[F_NOT] + 1)
    sep = " ^ " if f.op == F_AND else " v "
    prec = _PRECEDENCE[f.op]
    # Left association: a child at equal precedence needs parens on the right.
    left = wrap(f.parts[0], prec)
    right = wrap(f.parts[1], prec + 1)
    return f"{left}{sep}{right}"
