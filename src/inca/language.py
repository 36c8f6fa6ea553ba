"""Shared logical language: terms, atoms, literals, formulas and possible worlds.

The environmental and analytical models use disjoint predicate vocabularies;
every atom carries a model tag so the two cannot be mixed by accident.
A world is a frozenset of ground atoms (absent means false).
"""

from __future__ import annotations

import re
from operator import attrgetter

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


class Value:
    """An immutable value: equal to an instance of its own class with equal
    `_fields`, hashed and shown by those fields. A subclass's __init__
    writes its attributes straight into self.__dict__, by one update or, in
    the hottest constructors, item by item; assigning or deleting one
    afterwards raises AttributeError. Pickling rebuilds a value through
    its constructor, so no cached hash outlives the process that made it.
    """

    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        # The instance dict holds the fields and what __init__ derives from
        # them, so two dicts are equal exactly when the fields are. Compared
        # in C, they beat a tuple of fields built per call; a cached hash
        # stored first turns most unequal pairs away at one int.
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        # attrgetter of one field gives the bare value, not a 1-tuple.
        values = self._values(self)
        return self.__class__, values if len(self._fields) > 1 else (values,)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class Term(Value):
    """A variable (uppercase start) or constant (lowercase/digit start).

    Constants may carry a role used by sorted grounding; the role is not part
    of term identity, so a constant parsed without sort context still compares
    equal to its declared counterpart.

    Term, Atom, Literal and Formula compute their hash once, at construction,
    from their compared fields.
    """

    _fields = ("name", "role")

    def __init__(self, name: str, role: str = ROLE_PLAIN):
        if _VARIABLE_RE.match(name):
            if role != ROLE_PLAIN:
                raise ValueError(f"variable {name} cannot carry a role")
        elif not _CONSTANT_RE.match(name):
            raise ValueError(f"bad term name: {name!r}")
        if role not in ROLES:
            raise ValueError(f"bad role: {role!r}")
        self.__dict__.update(name=name, role=role, _hash=hash(name))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.name == other.name
        return NotImplemented

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()

    def __str__(self) -> str:
        return self.name


class Atom(Value):
    """A predicate applied to zero or more terms, tagged with its model."""

    _fields = ("predicate", "args", "model")

    def __init__(self, predicate: str, args: tuple[Term, ...] = (), model: str = EM):
        if not _PREDICATE_RE.match(predicate):
            raise ValueError(f"bad predicate name: {predicate!r}")
        if model not in (EM, AM):
            raise ValueError(f"bad model tag: {model!r}")
        self.__dict__.update(
            _hash=hash((predicate, args, model)), predicate=predicate, args=args,
            model=model,
            # Not a field: grounding checks read it on every element.
            is_ground=not any(t.is_variable for t in args),
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


class Literal(Value):
    """An analytical-model atom or its strong negation."""

    _fields = ("atom", "negated")

    def __init__(self, atom: Atom, negated: bool = False):
        if atom.model != AM:
            raise ValueError("literals belong to the analytical model")
        self.__dict__.update(_hash=hash((atom, negated)), atom=atom, negated=negated)

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


class Formula(Value):
    """Propositional formula over ground or schematic atoms of one model."""

    _fields = ("op", "atom", "parts")

    def __init__(
        self, op: str, atom: Atom | None = None, parts: tuple[Formula, ...] = ()
    ):
        # model and is_ground are not fields: set once per node from its
        # parts, so neither a check nor a connective ever walks the tree.
        # model is None when no atom occurs.
        if op == F_ATOM:
            if atom is None or parts:
                raise ValueError("atom formula needs an atom and no parts")
            model, is_ground = atom.model, atom.is_ground
        elif op == F_NOT:
            if atom is not None or len(parts) != 1:
                raise ValueError("negation takes exactly one part")
            model, is_ground = parts[0].model, parts[0].is_ground
        elif op in (F_AND, F_OR):
            if atom is not None or len(parts) != 2:
                raise ValueError(f"{op} takes exactly two parts")
            left, right = parts
            model = left.model or right.model
            if right.model not in (model, None):
                raise ValueError("formula mixes atoms from both models")
            is_ground = left.is_ground and right.is_ground
        elif op in (F_TOP, F_BOTTOM):
            if atom is not None or parts:
                raise ValueError(f"{op} takes no arguments")
            model, is_ground = None, True
        else:
            raise ValueError(f"bad formula op: {op!r}")
        d = self.__dict__
        d["_hash"] = hash((op, atom, parts))
        d["op"] = op
        d["atom"] = atom
        d["parts"] = parts
        d["model"] = model
        d["is_ground"] = is_ground

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        # A post-order sequence of (op, atom) pairs spells out one tree, as
        # the arity of each op is fixed; compared without recursion.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._hash == other._hash and [
            (n.op, n.atom) for n in _postorder(self)
        ] == [(n.op, n.atom) for n in _postorder(other)]

    def __repr__(self) -> str:
        # Value's repr, built on an explicit stack so that depth is no limit.
        pieces, stack = [], [self]
        while stack:
            item = stack.pop()
            if item.__class__ is str:
                pieces.append(item)
                continue
            pieces.append(f"{type(item).__name__}(op={item.op!r}, "
                          f"atom={item.atom!r}, parts=(")
            parts = item.parts
            stack.append(",))" if len(parts) == 1 else "))")
            if len(parts) == 2:
                stack += [parts[1], ", "]
            stack += parts[:1]
        return "".join(pieces)

    def __reduce__(self):
        # Pickled as its post-order (op, atom) pairs, so that depth is no
        # limit: rebuilt by _from_postorder.
        return _from_postorder, ([(n.op, n.atom) for n in _postorder(self)],)


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


def _postorder(f: Formula) -> list[Formula]:
    """The nodes of f, each after its parts, left part first: the reverse of
    a preorder that visits the right part first."""
    order, stack = [], [f]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.parts)
    order.reverse()
    return order


_ARITY = {F_NOT: 1, F_AND: 2, F_OR: 2}


def _from_postorder(nodes) -> Formula:
    """The formula whose post-order sequence of (op, atom) pairs is nodes."""
    stack = []
    for op, atom in nodes:
        cut = len(stack) - _ARITY.get(op, 0)
        parts = tuple(stack[cut:])
        del stack[cut:]
        stack.append(Formula(op, atom, parts))
    return stack.pop()


def evaluate(f: Formula, value, full):
    """Fold f bottom-up over a Boolean algebra whose top is full: an atom is
    value(atom), true is full, false is full ^ full, ~x is full ^ x, ^ is &
    and v is |."""
    stack = []
    for node in _postorder(f):
        op = node.op
        if op == F_ATOM:
            stack.append(value(node.atom))
        elif op == F_NOT:
            stack.append(full ^ stack.pop())
        elif op == F_AND:
            stack.append(stack.pop() & stack.pop())
        elif op == F_OR:
            stack.append(stack.pop() | stack.pop())
        else:
            stack.append(full if op == F_TOP else full ^ full)
    return stack.pop()


def formula_atoms(f: Formula) -> tuple[Atom, ...]:
    """Atoms of a formula in first-mention order, without duplicates."""
    return tuple(dict.fromkeys(n.atom for n in _postorder(f) if n.op == F_ATOM))


World = frozenset  # of ground Atom


def satisfies(world: frozenset, f: Formula) -> bool:
    """Classical satisfaction of a ground formula at a world.

    An atom holds iff it is in the world; everything absent is false.
    """
    if not f.is_ground:
        raise GroundednessError(f"formula is not ground: {render_formula(f)}")
    return evaluate(f, world.__contains__, True)


def substitute_atom(atom: Atom, binding: dict[str, Term]) -> Atom:
    args = tuple(binding.get(t.name, t) if t.is_variable else t for t in atom.args)
    return Atom(atom.predicate, args, atom.model)


def substitute_literal(lit: Literal, binding: dict[str, Term]) -> Literal:
    return Literal(substitute_atom(lit.atom, binding), lit.negated)


_PRECEDENCE = {F_OR: 1, F_AND: 2, F_NOT: 3, F_ATOM: 4, F_TOP: 4, F_BOTTOM: 4}
_LEAVES = {F_TOP: "true", F_BOTTOM: "false"}


def render_formula(f: Formula) -> str:
    """Concrete syntax: ~ binds tightest, then ^, then v."""
    pieces = []
    # Texts to emit, and (node, least precedence it shows without
    # parentheses) pairs to expand.
    stack: list = [(f, 0)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            pieces.append(item)
            continue
        node, outer = item
        prec = _PRECEDENCE[node.op]
        if prec < outer:
            pieces.append("(")
            stack.append(")")
        if node.op == F_NOT:
            pieces.append("~")
            stack.append((node.parts[0], prec + 1))
        elif node.parts:
            # Left association: a child at equal precedence needs parens on
            # the right.
            sep = " ^ " if node.op == F_AND else " v "
            stack += [(node.parts[1], prec + 1), sep, (node.parts[0], prec)]
        else:
            pieces.append(_LEAVES.get(node.op) or str(node.atom))
    return "".join(pieces)
