"""Defeasible argumentation with presumptions.

A program holds facts, strict rules, presumptions, and defeasible rules.
Arguments are minimal defeasible proofs for a literal; competing arguments
attack each other, and dialectical trees with a recursive U/D marking decide
which literals come out warranted.

Whether a defeater may extend a dialectical line depends on the line alone,
so each subprogram's tree is the full tree cut to its available arguments,
and one walk over masks of subprograms, pruned as in DeLP, decides warrant
in all of them. The walk tries a node's defeaters fail-first, those with the
fewest defeaters of their own first (Chesnevar, Simari and Garcia 2000):
that changes how much is walked, never a mark. The same walk, in one world,
gives the tree that is shown: a D node with the first undefeated defeater
it met, a U node with all its defeaters, each beaten, in walk order. That
is a winning strategy for the root's mark, the part of the full marked tree
that justifies it (Garcia, Chesnevar, Rotstein and Simari 2013).

Each ProgramIndex gives every literal of its ground program one bit, with a
literal and its complement side by side, and every element one bit and one
rule (body mask, head bit); facts and presumptions have body 0. Elements
are numbered in dependency order, each producer of a literal before every
rule that uses it, so one forward pass is a closure (a program with a cycle
keeps program order and repeats its passes). Closures, memoized by element
mask and seed literals, and one contradiction test serve derivability,
argument consistency, strict supports, attacks, specificity and the
consistency of dialectical lines. An argument's support is an element mask.
An ATMS label pass (de Kleer 1986) over a literal's backward cone gives it
its minimal consistent defeasible supports, so arguments are built on
demand, and sub-arguments, attacks, preference and the acceptability of a
line's next argument are tests on those masks. An argument's attackers are
among the arguments for the complements of its strict closure (defeaters
proves it). The same pass, with literals as assumptions, gives the minimal
activating sets on which specificity is decided.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from functools import lru_cache

from .errors import (
    AssemblyError,
    CapacityError,
    GroundednessError,
    InternalInconsistencyError,
)
from .language import (
    ROLE_ACTOR,
    ROLE_OPERATION,
    Literal,
    Value,
    substitute_literal,
)

FACT = "fact"
STRICT_RULE = "strict"
PRESUMPTION = "presumption"
DEFEASIBLE_RULE = "defeasible"
KINDS = (FACT, STRICT_RULE, PRESUMPTION, DEFEASIBLE_RULE)

PROPER = "proper"
BLOCKING = "blocking"

WARRANTED = "warranted"
NOT_WARRANTED = "not-warranted"
UNDECIDED = "undecided"

# Predicates with typed argument positions. A variable sitting in one of
# these positions only binds to constants that carry the matching role.
SORTED_PREDICATES = {
    "condOp": (ROLE_ACTOR, ROLE_OPERATION),
    "motiv": (ROLE_ACTOR, ROLE_ACTOR),
    "isCap": (ROLE_ACTOR, ROLE_OPERATION),
    "tgt": (ROLE_ACTOR, ROLE_OPERATION),
}

# Most literals one specificity comparison may range over. Its minimal
# activating sets form an antichain of such sets, at most C(16, 8) of them.
SPECIFICITY_CAP = 16

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\[[A-Za-z0-9_,]+\])?\Z")


class AMElement(Value):
    """One labeled program element: fact, strict rule, presumption, or
    defeasible rule. Facts and presumptions carry no body; inequality guards
    live on schematic rules and disappear at grounding.
    """

    _fields = ("label", "kind", "head", "body", "guards")

    def __init__(
        self,
        label: str,
        kind: str,
        head: Literal,
        body: tuple[Literal, ...] = (),
        guards: tuple[tuple[str, str], ...] = (),
    ):
        body = tuple(body)
        guards = tuple(map(tuple, guards)) if guards else ()
        if not _LABEL_RE.match(label):
            raise ValueError(f"bad element label: {label!r}")
        if kind not in KINDS:
            raise ValueError(f"bad element kind: {kind!r}")
        if kind in (FACT, PRESUMPTION):
            if body:
                raise ValueError(f"{kind} {label} cannot have a body")
            if guards:
                raise ValueError(f"{kind} {label} cannot have guards")
        else:
            if not body:
                raise ValueError(f"rule {label} needs a nonempty body")
        # Not a field: grounding and every index check it.
        is_ground = head.atom.is_ground
        for b in body:
            is_ground = is_ground and b.atom.is_ground
        d = self.__dict__
        # Hashed once: every Argument puts its support in a frozenset.
        d["_hash"] = hash((label, kind, head, body, guards))
        d["label"] = label
        d["kind"] = kind
        d["head"] = head
        d["body"] = body
        d["guards"] = guards
        d["is_ground"] = is_ground
        if guards:
            names = self.variables()
            for a, b in guards:
                if a not in names or b not in names:
                    raise ValueError(
                        f"guard {a} != {b} on {label} names an unused variable"
                    )

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_defeasible(self) -> bool:
        return self.kind in (PRESUMPTION, DEFEASIBLE_RULE)

    def variables(self) -> frozenset[str]:
        out = set(self.head.atom.variables())
        for b in self.body:
            out |= b.atom.variables()
        return frozenset(out)

    def __str__(self) -> str:
        if self.kind == FACT:
            return f"{self.label} : fact {self.head}"
        if self.kind == PRESUMPTION:
            return f"{self.label} : presume {self.head}"
        arrow = "<-" if self.kind == STRICT_RULE else "-<"
        parts = [str(b) for b in self.body]
        parts += [f"{a} != {b}" for a, b in self.guards]
        return f"{self.label} : {self.head} {arrow} {', '.join(parts)}"


class AMProgram(Value):
    _fields = ("elements",)

    def __init__(self, elements: tuple[AMElement, ...] = ()):
        elements = tuple(elements)
        seen = set()
        for e in elements:
            if e.label in seen:
                raise AssemblyError(f"duplicate element label: {e.label}")
            seen.add(e.label)
            if e.kind == FACT and e.head.atom.predicate == "condOp":
                raise AssemblyError(
                    f"{e.label}: condOp literals must be defeasible; "
                    "use a presumption or a rule"
                )
        # Hashed once: index_for looks the program up on every query.
        self.__dict__.update(_hash=hash(elements), elements=elements)

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_ground(self) -> bool:
        return all(e.is_ground for e in self.elements)


def positional_roles(literals) -> dict[str, set[str]]:
    """The roles each term name sits in, over the sorted argument positions
    of the given literals."""
    out: dict[str, set[str]] = {}
    for lit in literals:
        sig = SORTED_PREDICATES.get(lit.atom.predicate)
        if sig is None:
            continue
        for term, role in zip(lit.atom.args, sig):
            out.setdefault(term.name, set()).add(role)
    return out


def _bindings(variables, constraints, constants):
    pools = []
    for v in variables:
        required = constraints.get(v, set())
        if required:
            pool = [c for c in constants if not c.is_variable and c.role in required]
        else:
            pool = [c for c in constants if not c.is_variable]
        pools.append(pool)
    for combo in itertools.product(*pools):
        yield dict(zip(variables, combo))


def instantiate(element: AMElement, constants) -> tuple[AMElement, ...]:
    """All ground instances of a schematic element.

    Constants substitute for variables in a deterministic order (variables
    sorted by name, constants in the order given); bindings violating an
    inequality guard are dropped. A ground element comes back as-is.
    """
    if element.is_ground:
        return (element,)
    variables = sorted(element.variables())
    constraints = positional_roles((element.head, *element.body))
    out = []
    for binding in _bindings(variables, constraints, tuple(constants)):
        if any(binding[a].name == binding[b].name for a, b in element.guards):
            continue
        label = f"{element.label}[{','.join(binding[v].name for v in variables)}]"
        out.append(
            AMElement(
                label=label,
                kind=element.kind,
                head=substitute_literal(element.head, binding),
                body=tuple(substitute_literal(b, binding) for b in element.body),
            )
        )
    return tuple(out)


def _bits(mask: int):
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Argument(Value):
    """A conclusion plus its support: the minimal defeasible elements that
    derive it along with the strict rules and facts the derivation uses."""

    _fields = ("support", "conclusion")

    def __init__(self, support: frozenset, conclusion: Literal):
        support = frozenset(support)
        # Computed once: the walk and the bridge look arguments up at every
        # step.
        self.__dict__.update(
            _hash=hash((support, conclusion)), support=support, conclusion=conclusion
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def defeasible_part(self) -> frozenset:
        return frozenset(e for e in self.support if e.is_defeasible)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(e.label for e in self.support))

    def sort_key(self) -> tuple:
        return (self.labels, self.conclusion.key())

    def __str__(self) -> str:
        return f"<{{{', '.join(self.labels)}}}, {self.conclusion}>"


class DialecticalNode(Value):
    """Tree node: an argument, how it defeats its parent (None at the root),
    its U/D mark, and the nodes of the defeaters shown under it."""

    _fields = ("argument", "defeat_kind", "mark", "children")

    def __init__(
        self,
        argument: Argument,
        defeat_kind: str | None,
        mark: str,
        children: tuple[DialecticalNode, ...],
    ):
        self.__dict__.update(argument=argument, defeat_kind=defeat_kind,
                             mark=mark, children=tuple(children))


class ProgramIndex:
    """Cached argumentation machinery over one ground program."""

    def __init__(self, program: AMProgram):
        for e in program.elements:
            if not e.is_ground:
                raise GroundednessError(f"element {e.label} is not ground")
        self.program = program
        self._arguments: dict[Literal, tuple[Argument, ...]] = {}
        self._mask: dict[Argument, int] = {}
        self._defeaters: dict[Argument, tuple] = {}
        self._walks: dict[Argument, list] = {}
        self._prefers_ps: dict[tuple, bool] = {}
        self._closures: dict[int, int] = {}
        self._labels: dict[int, list[int]] = {}
        self._labelled = 0
        # Atom i's literal takes bit 2i and its negation bit 2i + 1, so one
        # shift tests every complementary pair at once.
        atoms: dict = {}
        self._bit: dict[Literal, int] = {}

        def bit(lit: Literal) -> int:
            b = self._bit.get(lit)
            if b is None:
                i = atoms.setdefault(lit.atom, len(atoms))
                b = self._bit[lit] = 1 << (2 * i + lit.negated)
            return b

        rules = [(tuple(map(bit, e.body)), bit(e.head)) for e in program.elements]
        self._literal = {b.bit_length() - 1: lit for lit, b in self._bit.items()}
        # Dependency order by Kahn's algorithm over literal bits; a program
        # with a cycle keeps program order.
        producers = Counter(head for _, head in rules)
        waiting = [producers.keys() & set(body) for body, _ in rules]
        users: dict[int, list[int]] = {}
        for i, pending in enumerate(waiting):
            for b in pending:
                users.setdefault(b, []).append(i)
        order = [i for i, pending in enumerate(waiting) if not pending]
        for i in order:
            head = rules[i][1]
            producers[head] -= 1
            for j in users.get(head, ()) if not producers[head] else ():
                waiting[j].discard(head)
                if not waiting[j]:
                    order.append(j)
        self._cyclic = len(order) < len(rules)
        if self._cyclic:
            order = range(len(rules))
        # Element i takes bit i of an element mask and one rule (body mask,
        # head bit); _body keeps its body literals' bits one by one.
        self._elements = [program.elements[i] for i in order]
        self._rule = [(sum(set(rules[i][0])), rules[i][1]) for i in order]
        self._body = [rules[i][0] for i in order]
        self._kind = dict.fromkeys(KINDS, 0)
        self._producers: dict[int, int] = {}
        self._position: dict[str, int] = {}
        for i, e in enumerate(self._elements):
            self._position[e.label] = i
            self._kind[e.kind] |= 1 << i
            head = self._rule[i][1]
            self._producers[head] = self._producers.get(head, 0) | 1 << i
        self._strict = self._kind[FACT] | self._kind[STRICT_RULE]
        self._strict_order = sorted(
            _bits(self._strict), key=lambda i: self._elements[i].label
        )
        self._positive = sum(1 << 2 * i for i in range(len(atoms)))
        self._derivable = derivable = self._derive((1 << len(self._rule)) - 1)
        self.derivable = frozenset(lit for lit, b in self._bit.items() if derivable & b)

    def _derive(self, elements: int, seed: int = 0) -> int:
        """Forward chaining of the literal mask seed under the rules of the
        element mask. Element bits run in dependency order, so the first
        pass is the closure unless the program has a cycle."""
        changed = True
        while changed:
            changed = False
            for i in _bits(elements):
                body, head = self._rule[i]
                if not seed & head and seed & body == body:
                    seed |= head
                    changed = self._cyclic
        return seed

    def _contradictory(self, mask: int) -> bool:
        return bool(mask & (mask >> 1) & self._positive)

    def _closure(self, elements: int, seed: int = 0) -> int:
        """_derive memoized per pair, keyed by one int."""
        key = seed << len(self._rule) | elements
        closure = self._closures.get(key)
        if closure is None:
            closure = self._closures[key] = self._derive(elements, seed)
        return closure

    def _cone(self, bit: int) -> int:
        """The elements that can take part in deriving the literal bit: its
        producers and, in turn, those of their body literals."""
        cone, seen, todo = 0, bit, [bit]
        while todo:
            for i in _bits(self._producers.get(todo.pop(), 0) & ~cone):
                cone |= 1 << i
                for b in self._body[i]:
                    if not seen & b:
                        seen |= b
                        todo.append(b)
        return cone

    # -- arguments ---------------------------------------------------------

    def _antichains(self, rules: int, labels: dict, own: int, consistent) -> dict:
        """One ATMS label pass (de Kleer 1986): extend labels, a dict from a
        literal bit to an antichain of masks, to a fixpoint under the
        elements of the mask rules. A rule ORs one label entry per body
        literal and its own bit within own; an entry is kept if no entry is
        a subset of it and consistent accepts it (it must accept the subsets
        of what it accepts), and it drops the entries it subsumes. In
        dependency order one pass suffices; on cyclic rules labels only grow
        upwards, so the passes end."""
        changed = True
        while changed:
            changed = False
            for i in _bits(rules):
                envs = [own & 1 << i]
                for b in self._body[i]:
                    envs = [env | x for env in envs for x in labels.get(b, ())]
                label = labels.setdefault(self._rule[i][1], [])
                for env in envs:
                    if any(x & env == x for x in label) or not consistent(env):
                        continue
                    label[:] = [x for x in label if x & env != env]
                    label.append(env)
                    changed = self._cyclic
        return labels

    def _consistent(self, env: int) -> bool:
        return not self._contradictory(self._closure(env | self._strict))

    def _strict_part(self, env: int, bit: int, cone: int) -> int:
        # Drop strict elements one at a time, in label order, while the
        # conclusion still derives; what remains is the recorded strict
        # part. Only those of the conclusion's cone that fire from env and
        # every strict element are tried: the greedy drops any other, as no
        # derivation of the conclusion uses it.
        closure = self._closure(env | self._strict)
        used = env | sum(
            1 << i for i in _bits(self._strict & cone)
            if self._rule[i][0] & closure == self._rule[i][0]
        )
        for i in self._strict_order:
            trial = used & ~(1 << i)
            if trial != used and self._derive(trial) & bit:
                used = trial
        return used & self._strict

    def arguments_for(self, literal: Literal) -> tuple[Argument, ...]:
        # The label pass runs over the rules of the literal's cone that no
        # earlier cone held; a cone holds every producer of its literals.
        args = self._arguments.get(literal)
        if args is not None:
            return args
        bit = self._bit.get(literal, 0)
        cone = self._cone(bit)
        if cone & ~self._labelled:
            self._antichains(cone & ~self._labelled, self._labels, ~self._strict,
                             self._consistent)
            self._labelled |= cone
        out = []
        for env in self._labels.get(bit, ()):
            mask = env | self._strict_part(env, bit, cone)
            a = Argument(frozenset(self._elements[i] for i in _bits(mask)), literal)
            self._mask[a] = mask
            out.append(a)
        args = self._arguments[literal] = tuple(sorted(out, key=Argument.sort_key))
        return args

    def _mask_of(self, a: Argument) -> int:
        """The element mask of an argument's support; set when the index
        builds the argument, computed for one built elsewhere."""
        mask = self._mask.get(a)
        if mask is None:
            mask = self._mask[a] = sum(1 << self._position[e.label] for e in a.support)
        return mask

    def subarguments_of(self, a: Argument) -> tuple[Argument, ...]:
        """The arguments whose support lies in a's, which can only conclude
        a literal that a's support derives; by conclusion in Literal.key order."""
        m = self._mask_of(a)
        literals = sorted(map(self._literal.get, _bits(self._closure(m))), key=Literal.key)
        return tuple(
            b for lit in literals for b in self.arguments_for(lit)
            if (mb := self._mask_of(b)) & m == mb
        )

    # -- attack ------------------------------------------------------------

    def _attack_points(self, a: Argument) -> set[int]:
        """The conclusion bits of a's sub-arguments, where a can be attacked."""
        return {self._bit[b.conclusion] for b in self.subarguments_of(a)}

    def attacks(self, a2: Argument, a1: Argument) -> bool:
        return self._attacks(a2, self._mask_of(a1), self._attack_points(a1))

    def _attacks(self, a2: Argument, m1: int, points: set[int]) -> bool:
        shared = (m1 | self._mask_of(a2)) & self._strict
        counter = self._bit[a2.conclusion]
        return any(
            self._contradictory(self._derive(shared, counter | point)) for point in points
        )

    # -- generalized specificity --------------------------------------------

    def prefers_ps(self, a1: Argument, a2: Argument) -> bool:
        """Generalized specificity: a1 is strictly more specific than a2.

        Quantifies activation sets H over the defeasibly derivable literals;
        literals outside every rule body and distinct from both conclusions
        cannot change any of the tested derivations, so H ranges over the
        relevant ones only. A witness H against a condition (it activates
        one argument non-trivially, is consistent with the strict rules, and
        does not activate the other) stays one when shrunk to a minimal set
        that activates the first, as closure and contradiction are monotone
        in H (Stolzenburg, García, Chesñevar and Simari 2003). So only the
        minimal activating sets are tested, and _antichains lists them with
        each relevant literal as its own assumption. A comparison with more
        than SPECIFICITY_CAP relevant literals raises CapacityError.
        """
        m1, m2 = self._mask_of(a1), self._mask_of(a2)
        l1 = self._bit[a1.conclusion]
        l2 = self._bit[a2.conclusion]
        key = (m1, l1, m2, l2)
        if key in self._prefers_ps:
            return self._prefers_ps[key]
        omega = (m1 | m2) & self._kind[STRICT_RULE]
        delta = self._kind[DEFEASIBLE_RULE]
        rules1 = omega | m1 & delta
        rules2 = omega | m2 & delta
        relevant = l1 | l2
        for i in _bits(rules1 | rules2):
            relevant |= self._rule[i][0]
        if relevant.bit_count() > SPECIFICITY_CAP:
            raise CapacityError(
                f"{relevant.bit_count()} literals are relevant to one "
                f"specificity comparison, more than the cap of {SPECIFICITY_CAP}"
            )

        def consistent(h):
            return not self._contradictory(self._closure(omega, h))

        def witnessed(rules, lit, other_rules, other):
            # Some minimal H activates lit under rules, non-trivially, and
            # leaves other underived under other_rules.
            seeds = {1 << k: [1 << k] for k in _bits(relevant)}
            return any(
                not self._closure(omega, h) & lit
                and not self._closure(other_rules, h) & other
                for h in self._antichains(rules, seeds, 0, consistent).get(lit, ())
            )

        result = not witnessed(rules1, l1, rules2, l2) and witnessed(rules2, l2, rules1, l1)
        self._prefers_ps[key] = result
        return result

    def prefers(self, a1: Argument, a2: Argument) -> bool:
        """Fewer presumptions win (a factual argument has none); equal ones
        go to specificity."""
        p1 = self._mask_of(a1) & self._kind[PRESUMPTION]
        p2 = self._mask_of(a2) & self._kind[PRESUMPTION]
        if p1 == p2:
            return self.prefers_ps(a1, a2)
        return p1 & p2 == p1

    # -- defeat and dialectical trees ---------------------------------------

    def defeaters(self, a: Argument) -> tuple:
        """a's defeaters as (argument, kind), by kind and sort_key. If b for L
        attacks a at point P, ~L is in C_a, a's support closed under every
        fact and strict rule (_consistent's closure when a was built). a's
        strict rules fire in C_a (_strict_part keeps no other), and the
        greedy drops every strict element with L in its body from b's. So for
        L not in C_a the attack closure is {L} and the closure of P, inside
        the consistent C_a, so ~L is there; for L in C_a it all lies in C_a."""
        if a in self._defeaters:
            return self._defeaters[a]
        m = self._mask_of(a)
        c = self._closure(m | self._strict)
        rivals = ((c & self._positive) << 1 | c >> 1 & self._positive) & self._derivable
        candidates = [b for k in _bits(rivals) for b in self.arguments_for(self._literal[k])]
        points = self._attack_points(a) if candidates else set()
        out = []
        for b in candidates:
            if not self._attacks(b, m, points):
                continue
            if self.prefers(b, a):
                out.append((b, PROPER))
            elif not self.prefers(a, b):
                out.append((b, BLOCKING))
        result = tuple(sorted(out, key=lambda pair: (pair[1], pair[0].sort_key())))
        self._defeaters[a] = result
        return result

    def _walk_order(self, a: Argument) -> list:
        """a's defeaters for the walk as (argument, kind, element mask),
        fewest defeaters of their own first; one whose defeaters raise
        CapacityError goes last, so the order itself never raises."""
        order = self._walks.get(a)
        if order is None:
            order = self._walks[a] = sorted(
                ((b, kind, self._mask_of(b)) for b, kind in self.defeaters(a)),
                key=self._defeater_count)
        return order

    def _defeater_count(self, entry: tuple) -> float:
        try:
            return len(self.defeaters(entry[0]))
        except CapacityError:
            return math.inf

    def _acceptable(self, line: tuple, own: int, kind: str | None, b: int, b_kind: str) -> bool:
        """Whether a defeater with element mask b (a defeat of b_kind) may
        extend the line, given as its arguments' element masks, whose last
        argument defeats its parent by kind (None at the root); own is the
        mask of the line's side that b joins. It depends on the line only,
        never on a world."""
        # A blocking defeater may only be answered by a proper one.
        if kind == BLOCKING and b_kind != PROPER:
            return False
        # No sub-argument of an argument already on the line.
        for m in line:
            if b & m == b:
                return False
        return self._consistent(own | b)

    def _undefeated(self, a: Argument, kind: str | None, line: tuple, sides: tuple,
                    mask: int, available, shown: list | None = None) -> int:
        """The worlds of mask where a, the line's last argument and a defeat
        of the given kind, is marked U in its world's tree; line holds the
        element masks of the line's arguments, and sides the masks of the side
        a's defeaters join and of a's own side. A world's tree is the full tree
        cut to the arguments available there, so each defeater is followed only
        on the worlds where it is available and its parent is not yet beaten,
        and the walk stops once every world is beaten. In one world, shown gets
        a's node as walked: D with the undefeated defeater that beat it, or U
        with every defeater, each beaten."""
        own, other = sides
        beaten = 0
        children = [] if shown is not None else None
        for b, b_kind, m in self._walk_order(a):
            if beaten == mask:
                break
            here = mask & ~beaten & available(b)
            if here and self._acceptable(line, own, kind, m, b_kind):
                beaten |= self._undefeated(
                    b, b_kind, line + (m,), (other, own | m), here, available, children
                )
        if shown is not None:
            # The walk stops at the first undefeated defeater, so it is last.
            shown.append(DialecticalNode(a, kind, "D" if beaten else "U",
                                         children[-1:] if beaten else children))
        return mask & ~beaten

    def build_tree(self, root: Argument, valid=None) -> DialecticalNode:
        """The marked tree of root as the walk decides it, where valid
        (default: every argument) says which arguments are available."""
        m, shown = self._mask_of(root), []
        self._undefeated(root, None, (m,), (0, m), 1, _one_world(valid), shown)
        return shown[0]

    def forest(self, literal: Literal, valid=None) -> tuple[DialecticalNode, ...]:
        """build_tree of each valid argument for the literal."""
        return tuple(
            self.build_tree(a, valid)
            for a in self.arguments_for(literal)
            if valid is None or valid(a)
        )

    def warrant_masks(self, literal: Literal, available, mask: int = 1) -> tuple[int, int]:
        """The worlds of mask that warrant the literal and those that warrant
        its complement. available(argument) is the mask of the worlds where
        the argument can be used."""
        found = []
        for lit in (literal, literal.complement()):
            out = 0
            for a in self.arguments_for(lit):
                here = mask & ~out & available(a)
                if here:
                    m = self._mask_of(a)
                    out |= self._undefeated(a, None, (m,), (0, m), here, available)
            found.append(out)
        pro, con = found
        if pro & con:
            raise InternalInconsistencyError(
                f"both {literal} and its complement are warranted"
            )
        return pro, con

    def warrant_status(self, literal: Literal, valid=None) -> str:
        """warrant_masks in one world, where valid (default: every argument)
        says which arguments are available."""
        pro, con = self.warrant_masks(literal, _one_world(valid))
        if pro:
            return WARRANTED
        if con:
            return NOT_WARRANTED
        return UNDECIDED


def _one_world(valid):
    """The availability mask of one world where valid (default: every
    argument) says which arguments are available."""
    return lambda a: 1 if valid is None or valid(a) else 0


@lru_cache(maxsize=1)
def index_for(program: AMProgram) -> ProgramIndex:
    return ProgramIndex(program)
