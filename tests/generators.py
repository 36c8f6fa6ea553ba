"""Seeded random knowledge bases, programs, and frameworks.

Everything is driven by an explicit random.Random so failures reproduce.
Body literals are deduplicated with dict.fromkeys, not set, to keep element
identity independent of hash randomization.
"""

import math
from fractions import Fraction

from inca.am import (
    AMElement,
    AMProgram,
    DEFEASIBLE_RULE,
    FACT,
    PRESUMPTION,
    STRICT_RULE,
)
from inca.bridge import AnnotationFunction, InCAFramework
from inca.em import (
    EMKnowledgeBase,
    IntegrityConstraint,
    ProbabilisticFormula,
    is_consistent,
)
from inca.language import (
    AM,
    EM,
    Atom,
    Literal,
    Term,
    atom_formula,
    conj,
    disj,
    neg,
    satisfies,
)


def random_formula(rng, atoms, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return atom_formula(rng.choice(atoms))
    if roll < 0.6:
        return neg(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    return conj(left, right) if roll < 0.8 else disj(left, right)


def random_bound(rng):
    lo = Fraction(rng.randint(0, 8), 8)
    hi = Fraction(rng.randint(0, 8), 8)
    if lo > hi:
        lo, hi = hi, lo
    return (lo + hi) / 2, (hi - lo) / 2


def random_em_kb(rng, max_atom_count=4):
    count = rng.randint(1, max_atom_count)
    atoms = [Atom(f"e{i}", (Term("c"),), EM) for i in range(count)]
    # At the largest universe, fewer formulas keep the vertex oracle quick.
    formula_cap = 3 if count == 4 else 4
    formulas = []
    for _ in range(rng.randint(1, formula_cap)):
        p, eps = random_bound(rng)
        formulas.append(ProbabilisticFormula(random_formula(rng, atoms), p, eps))
    constraints = ()
    if count >= 2 and rng.random() < 0.3:
        constraints = (IntegrityConstraint(tuple(rng.sample(atoms, 2))),)
    return EMKnowledgeBase(tuple(formulas), constraints, tuple(atoms))


def witnessed_em_kb(rng, n, count):
    """`count` depth-2 formulas over n atoms, each with p +- eps on the 1/8
    grid around its probability under one random distribution over 3 to 12
    worlds, so the knowledge base is consistent: the family of
    bench/workloads.py's em_lines, built as values."""
    atoms = [Atom(f"e{i}", (Term("c0"),), EM) for i in range(n)]
    support = rng.sample(range(1 << n), rng.randint(3, min(12, 1 << n)))
    weights = [rng.randint(1, 9) for _ in support]
    witness = [
        (frozenset(a for j, a in enumerate(atoms) if w >> j & 1), Fraction(x, sum(weights)))
        for w, x in zip(support, weights)
    ]
    formulas = []
    for _ in range(count):
        f = random_formula(rng, atoms)
        eighths = 8 * sum(p for world, p in witness if satisfies(world, f))
        lo = max(0, math.floor(eighths) - rng.randint(0, 1))
        hi = min(8, math.ceil(eighths) + rng.randint(0, 1))
        formulas.append(ProbabilisticFormula(f, Fraction(lo + hi, 16), Fraction(hi - lo, 16)))
    return EMKnowledgeBase(tuple(formulas), (), tuple(atoms))


def with_constraints(rng, kb):
    """kb with up to two unmentioned atoms added to its universe and up to
    two more oneOf constraints over the result."""
    pads = tuple(Atom(f"pad{i}", (Term("c"),), EM) for i in range(rng.randint(0, 2)))
    universe = kb.atom_universe + pads
    constraints = list(kb.constraints)
    if len(universe) >= 2:
        for _ in range(rng.randint(0, 2)):
            size = rng.randint(2, min(3, len(universe)))
            constraints.append(IntegrityConstraint(tuple(rng.sample(universe, size))))
    return EMKnowledgeBase(kb.formulas, tuple(constraints), universe)


AM_LITERALS = tuple(
    Literal(Atom(p, (Term(c),), AM), negated)
    for p in ("p", "q", "r", "s")
    for c in ("a", "b")
    for negated in (False, True)
)


def _random_body(rng, literals=AM_LITERALS):
    picks = [rng.choice(literals) for _ in range(rng.randint(1, 2))]
    return tuple(dict.fromkeys(picks))


def random_am_program(rng, max_defeasible=8, min_defeasible=1, max_strict=None):
    """Up to 3 facts or strict rules; then, if max_strict is given, up to
    max_strict more facts (30%) and strict rules over the p and q literals
    only, so that strict cycles and alternative strict derivations are
    common; then the presumptions and defeasible rules. The extra elements
    are labeled ..., a1, a0: their label order is the reverse of their
    program order and comes before the b labels. Without max_strict no
    extra draw is made, so seeded callers keep their programs."""
    elements = []
    for i in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            elements.append(AMElement(f"b{i}", FACT, rng.choice(AM_LITERALS)))
        else:
            elements.append(
                AMElement(f"b{i}", STRICT_RULE, rng.choice(AM_LITERALS), _random_body(rng))
            )
    if max_strict is not None:
        count = rng.randint(0, max_strict)
        for i in range(count):
            label, head = f"a{count - 1 - i}", rng.choice(AM_LITERALS[:8])
            if rng.random() < 0.3:
                elements.append(AMElement(label, FACT, head))
            else:
                body = _random_body(rng, AM_LITERALS[:8])
                elements.append(AMElement(label, STRICT_RULE, head, body))
    for i in range(rng.randint(min_defeasible, max_defeasible)):
        if rng.random() < 0.4:
            elements.append(AMElement(f"d{i}", PRESUMPTION, rng.choice(AM_LITERALS)))
        else:
            elements.append(
                AMElement(f"d{i}", DEFEASIBLE_RULE, rng.choice(AM_LITERALS), _random_body(rng))
            )
    return AMProgram(tuple(elements))


def layered_am_program(rng, layers, width):
    """width facts or presumptions on layer 0, then on each later layer
    one or two rules per literal, strict 20% of the time, whose bodies take
    one to three literals from the layers below; heads are negated 30% of
    the time. Arguments chain through the layers, so the rules of two of
    them mention many literals."""
    elements = []
    below = []
    for j in range(width):
        head = Literal(Atom(f"l0_{j}", (Term("x"),), AM))
        kind = FACT if rng.random() < 0.6 else PRESUMPTION
        elements.append(AMElement(f"e0_{j}", kind, head))
        below.append(head)
    for k in range(1, layers):
        heads = []
        for j in range(width):
            for r in range(rng.randint(1, 2)):
                atom = Atom(f"l{k}_{j}", (Term("x"),), AM)
                head = Literal(atom, rng.random() < 0.3)
                picks = [rng.choice(below) for _ in range(rng.randint(1, 3))]
                kind = STRICT_RULE if rng.random() < 0.2 else DEFEASIBLE_RULE
                elements.append(
                    AMElement(f"e{k}_{j}_{r}", kind, head, tuple(dict.fromkeys(picks)))
                )
                heads.append(head)
        below += dict.fromkeys(heads)
    return AMProgram(tuple(elements))


def random_framework(rng):
    while True:
        kb = random_em_kb(rng, max_atom_count=3)
        if is_consistent(kb):
            break
    program = random_am_program(rng, max_defeasible=5)
    atoms = list(kb.atom_universe)
    mapping = {}
    for element in program.elements:
        if rng.random() < 0.5:
            mapping[element.label] = random_formula(rng, atoms, depth=1)
    return InCAFramework(kb, program, AnnotationFunction(mapping))


def wide20_framework(rng):
    """A framework over a 20-atom universe and a 3-formula EM whose element
    j is annotated with atom e{j mod 20}; the program has at least 20
    elements, so it has 20 distinct annotations."""
    atoms = [Atom(f"e{i}", (Term("c"),), EM) for i in range(20)]
    while True:
        formulas = tuple(
            ProbabilisticFormula(random_formula(rng, atoms), *random_bound(rng))
            for _ in range(3)
        )
        kb = EMKnowledgeBase(formulas, (), tuple(atoms))
        if is_consistent(kb):
            break
    program = random_am_program(rng, max_defeasible=20, min_defeasible=20)
    mapping = {
        e.label: atom_formula(atoms[j % 20]) for j, e in enumerate(program.elements)
    }
    return InCAFramework(kb, program, AnnotationFunction(mapping))
