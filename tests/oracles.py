"""Independent reference implementations used to cross-check the engines.

These deliberately use different algorithms from the package. Linear
programs and probability bounds come from polytope vertex enumeration
instead of simplex; worlds, and the nec and poss sets, are listed one
frozenset world at a time instead of as truth-table masks; arguments come
from exhaustive subset search instead of a label pass over element masks,
and their strict parts from a greedy over frozensets of elements; the
specificity check quantifies over every subset of a literal set instead of
over the minimal activating sets; warrant is read off fully built and
marked dialectical trees, whose line conditions are checked on supports,
instead of the pruned walk over world masks;
a formula's truth at a world comes from recursion on the formula instead of
the package's post-order fold.
Tokens and their positions come from one named-group scan that tracks lines
as it goes, instead of a findall and a second scan on error. The interval
under one concrete distribution, which only tests ask for, lives here too.
"""

import re
from fractions import Fraction
from itertools import combinations, product

from inca.am import (
    AMProgram,
    BLOCKING,
    DEFEASIBLE_RULE,
    DialecticalNode,
    FACT,
    PRESUMPTION,
    PROPER,
    STRICT_RULE,
    instantiate,
)
from inca.em import ProbabilityInterval
from inca.errors import CapacityError, InCAError, ParseError
from inca.language import F_AND, F_ATOM, F_NOT, F_OR, F_TOP, Literal


def formula_holds(world, f):
    """Whether a ground formula holds at a frozenset world."""
    if f.op == F_ATOM:
        return f.atom in world
    if f.op == F_NOT:
        return not formula_holds(world, f.parts[0])
    if f.op == F_AND:
        return formula_holds(world, f.parts[0]) and formula_holds(world, f.parts[1])
    if f.op == F_OR:
        return formula_holds(world, f.parts[0]) or formula_holds(world, f.parts[1])
    return f.op == F_TOP


def allows(constraint, world):
    """Whether a world holds at most one atom of a oneOf constraint."""
    return len(world & frozenset(constraint.atoms)) <= 1


def worlds_satisfying(worlds, formula):
    return [w for w in worlds if formula_holds(w, formula)]


def worlds_oracle(kb, max_atoms=20):
    """The worlds that conform to kb's constraints, in binary-counting
    order: bit j of the counter puts the j-th universe atom in the world."""
    universe = kb.atom_universe
    if len(universe) > max_atoms:
        raise CapacityError(f"universe has {len(universe)} atoms")
    worlds = []
    for mask in range(1 << len(universe)):
        w = frozenset(universe[j] for j in range(len(universe)) if mask >> j & 1)
        if all(allows(ic, w) for ic in kb.constraints):
            worlds.append(w)
    return worlds


def _solve(matrix, rhs):
    """Solve a square system over Fractions; None if singular."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * p for v, p in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def lp_vertices_oracle(n, constraints):
    """Vertices of {x in Q^n : x >= 0 and every constraint holds}, with
    constraints (coefficients, lo, hi) as for `simplex.maximize`; empty iff
    the region is.

    A vertex is a feasible point where n independent faces are tight: each
    end of a range is a face, as is each x_j >= 0 (which makes the region
    pointed, so a nonempty one has a vertex). Every choice of n faces is
    solved as equalities and the feasible solutions kept.
    """
    def exact(end):
        return None if end is None else Fraction(end)

    rows = [([Fraction(v) for v in co], exact(lo), exact(hi)) for co, lo, hi in constraints]
    faces = [(co, end) for co, lo, hi in rows for end in {lo, hi} - {None}]
    faces += [([Fraction(int(j == k)) for j in range(n)], Fraction(0)) for k in range(n)]

    def holds(x, co, lo, hi):
        lhs = sum((c * v for c, v in zip(co, x)), Fraction(0))
        return (lo is None or lo <= lhs) and (hi is None or lhs <= hi)

    vertices = set()
    for tight in combinations(faces, n):
        x = _solve([co for co, _ in tight], [b for _, b in tight])
        if x is not None and all(v >= 0 for v in x) and all(holds(x, *row) for row in rows):
            vertices.add(tuple(x))
    return vertices


def _feasible_vertices(class_rows, bounds):
    """Yield (support, masses) for each vertex of the merged polytope.

    class_rows[j][i] says whether class j satisfies formula i. The polytope
    is {y >= 0, sum y = 1, lower_i <= row_i . y <= upper_i}. Any vertex has
    at most len(bounds) + 1 nonzero coordinates, pinned by the simplex row
    plus a choice of tight formula rows, so enumerating those choices and
    filtering on feasibility visits every vertex.
    """
    k = len(bounds)
    n = len(class_rows)
    for s in range(1, min(n, k + 1) + 1):
        for support in combinations(range(n), s):
            for rows in combinations(range(k), s - 1):
                for sides in product((0, 1), repeat=s - 1):
                    matrix = [[Fraction(1)] * s]
                    rhs = [Fraction(1)]
                    for i, side in zip(rows, sides):
                        matrix.append([
                            Fraction(1 if class_rows[j][i] else 0) for j in support
                        ])
                        rhs.append(bounds[i][side])
                    y = _solve(matrix, rhs)
                    if y is None or any(v < 0 for v in y):
                        continue
                    feasible = True
                    for i in range(k):
                        mass = sum(
                            (v for j, v in zip(support, y) if class_rows[j][i]),
                            Fraction(0),
                        )
                        if not bounds[i][0] <= mass <= bounds[i][1]:
                            feasible = False
                            break
                    if feasible:
                        yield support, y


def lp_bounds_oracle(kb, query, max_atoms=20):
    """Exact (min, max) of P(query), or None if the KB is inconsistent."""
    worlds = worlds_oracle(kb, max_atoms)
    groups = {}
    for w in worlds:
        sig = tuple(formula_holds(w, pf.formula) for pf in kb.formulas)
        sig += (formula_holds(w, query),)
        groups.setdefault(sig, []).append(w)
    classes = sorted(groups)
    rows = [c[:-1] for c in classes]
    bounds = [(pf.lower, pf.upper) for pf in kb.formulas]
    lo = hi = None
    for support, y in _feasible_vertices(rows, bounds):
        value = sum(
            (v for j, v in zip(support, y) if classes[j][-1]), Fraction(0)
        )
        lo = value if lo is None or value < lo else lo
        hi = value if hi is None or value > hi else hi
    if lo is None:
        return None
    return lo, hi


def distribution_probability(distribution, query):
    """P(query) under one distribution given as {world: mass}."""
    return sum(
        (pr for w, pr in distribution.items() if formula_holds(w, query)),
        Fraction(0),
    )


def sample_distributions(kb, max_atoms=20, limit=3):
    """A few distributions satisfying the KB, one per polytope vertex."""
    worlds = worlds_oracle(kb, max_atoms)
    groups = {}
    for w in worlds:
        sig = tuple(formula_holds(w, pf.formula) for pf in kb.formulas)
        groups.setdefault(sig, []).append(w)
    classes = sorted(groups)
    bounds = [(pf.lower, pf.upper) for pf in kb.formulas]
    out = []
    seen = set()
    for support, y in _feasible_vertices(classes, bounds):
        dist = {
            groups[classes[j]][0]: v for j, v in zip(support, y) if v > 0
        }
        key = frozenset(dist.items())
        if key not in seen:
            seen.add(key)
            out.append(dist)
            if len(out) >= limit:
                break
    return out


# -- bridge oracles -------------------------------------------------------------


class DistributionError(InCAError):
    """A world distribution is malformed (negative mass, wrong total, bad support)."""


def prob_from_distribution(framework, literal, distribution):
    """The warrant interval of a literal under one concrete distribution
    over the framework's worlds: the mass on its nec set and on its poss
    set. A distribution with mass off the conforming worlds, a negative
    mass, or a total other than 1 raises DistributionError."""
    allowed = set(framework.worlds)
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

    def mass(worlds):
        return sum(
            (Fraction(distribution.get(w, 0)) for w in worlds), Fraction(0)
        )

    return ProbabilityInterval(
        mass(framework.nec_set(literal)), mass(framework.poss_set(literal))
    )


def valid_labels_oracle(framework, world):
    """Labels of the elements whose annotation holds at the world."""
    return frozenset(
        e.label
        for e in framework.program.elements
        if formula_holds(world, framework.annotations.annotation_for(e.label))
    )


def available_oracle(framework, argument, world):
    """Whether the annotation of every element of the argument's support
    holds at the world."""
    labels = valid_labels_oracle(framework, world)
    return all(e.label in labels for e in argument.support)


def full_forest_oracle(index, literal, valid=None):
    """The literal's full marked dialectical trees, one per argument valid
    (default: every argument) accepts, cut to the arguments it accepts.

    Only index.arguments_for and index.defeaters come from the engine. A
    defeater extends a line when the line's three conditions hold, checked
    here on supports with closure_oracle: a blocking defeat is answered
    only by a proper one, no support lies inside that of an argument
    already on the line, and the side the defeater joins, with the
    program's facts and strict rules, stays consistent. A node is U iff
    every child is D.
    """
    strict = theta(index.program) + omega(index.program)

    def node(a, kind, line, own, other):
        children = []
        for b, b_kind in index.defeaters(a):
            if valid is not None and not valid(b):
                continue
            if kind == BLOCKING and b_kind != PROPER:
                continue
            if any(b.support <= earlier.support for earlier in line):
                continue
            side = own | b.support
            if contradictory_oracle(closure_oracle(tuple(side) + strict)):
                continue
            children.append(node(b, b_kind, line + (b,), other, side))
        mark = "D" if any(c.mark == "U" for c in children) else "U"
        return DialecticalNode(a, kind, mark, tuple(children))

    return tuple(
        node(a, None, (a,), frozenset(), a.support)
        for a in index.arguments_for(literal)
        if valid is None or valid(a)
    )


def forest_warrants_oracle(index, literal, valid=None):
    """Whether some root of the literal's full marked forest, cut to the
    arguments valid accepts, is undefeated."""
    return any(t.mark == "U" for t in full_forest_oracle(index, literal, valid))


def nec_at_oracle(framework, world, literal):
    """Whether the world's induced subprogram warrants the literal."""
    return forest_warrants_oracle(
        framework.index, literal, lambda a: available_oracle(framework, a, world)
    )


def poss_at_oracle(framework, world, literal):
    """Whether some argument for the literal is available at the world and
    the complement is not warranted there."""
    return any(
        available_oracle(framework, a, world)
        for a in framework.index.arguments_for(literal)
    ) and not nec_at_oracle(framework, world, literal.complement())


def nec_oracle(framework, literal):
    """Worlds whose induced subprogram warrants the literal, decided one
    world at a time."""
    return tuple(
        w for w in worlds_oracle(framework.em)
        if nec_at_oracle(framework, w, literal)
    )


def poss_oracle(framework, literal):
    """Worlds where some argument for the literal is valid and the
    complement is not warranted, decided one world at a time."""
    return tuple(
        w for w in worlds_oracle(framework.em)
        if poss_at_oracle(framework, w, literal)
    )


# -- argumentation oracles ----------------------------------------------------


def ground_program(program, constants):
    """Every element of the program replaced by its ground instances."""
    elements = []
    for e in program.elements:
        elements.extend(instantiate(e, constants))
    return AMProgram(tuple(elements))


def _of_kind(elements, kind):
    return tuple(e for e in elements if e.kind == kind)


def theta(program):
    """The facts of a program."""
    return _of_kind(program.elements, FACT)


def omega(program):
    """The strict rules of a program."""
    return _of_kind(program.elements, STRICT_RULE)


def phi(program):
    """The presumptions of a program."""
    return _of_kind(program.elements, PRESUMPTION)


def delta(program):
    """The defeasible rules of a program."""
    return _of_kind(program.elements, DEFEASIBLE_RULE)


def all_arguments(index):
    """Every argument of an index's program: the arguments of each derivable
    literal, the literals in Literal.key order."""
    return tuple(
        a for lit in sorted(index.derivable, key=Literal.key)
        for a in index.arguments_for(lit)
    )


def presumptions_of(argument):
    """The presumptions in an argument's support."""
    return frozenset(_of_kind(argument.support, PRESUMPTION))


def is_factual(argument):
    return not presumptions_of(argument)


def by_label(program, label):
    for e in program.elements:
        if e.label == label:
            return e
    raise KeyError(label)


def is_presumptive(argument):
    return any(e.kind == PRESUMPTION for e in argument.support)


def closure_oracle(elements, start=()):
    """Literals reachable by forward chaining from `start`, ignoring nothing."""
    known = set(start) | {e.head for e in elements if not e.body}
    rules = [(e.head, e.body) for e in elements if e.body]
    changed = True
    while changed:
        changed = False
        for head, body in rules:
            if head not in known and all(b in known for b in body):
                known.add(head)
                changed = True
    return known


def cyclic_oracle(program):
    """Whether some literal derives from itself through rules: a search from
    each body literal along body-to-head edges that comes back to it."""
    edges = {}
    for e in program.elements:
        for b in e.body:
            edges.setdefault(b, set()).add(e.head)
    for start in edges:
        seen, todo = set(), [start]
        while todo:
            for head in edges.get(todo.pop(), set()) - seen:
                if head == start:
                    return True
                seen.add(head)
                todo.append(head)
    return False


def contradictory_oracle(literals):
    return any(l.complement() in literals for l in literals)


def attacks_oracle(arguments, a2, a1):
    """Whether a2 attacks a1, given every argument of the program.

    The sub-arguments of a1 are the arguments whose support lies inside
    a1's. a2 attacks a1 when the conclusion of one of them, a2's
    conclusion, and the facts and strict rules of both supports close to a
    contradiction.
    """
    shared = tuple(
        e for e in a1.support | a2.support if e.kind in (FACT, STRICT_RULE)
    )
    return any(
        contradictory_oracle(
            closure_oracle(shared, (a2.conclusion, sub.conclusion))
        )
        for sub in arguments
        if sub.support <= a1.support
    )


def consistent_subsets_oracle(program):
    """(defeasible subset, closure) for every consistent choice of
    presumptions and defeasible rules, by plain enumeration."""
    base = theta(program) + omega(program)
    defeasibles = phi(program) + delta(program)
    table = []
    for r in range(len(defeasibles) + 1):
        for combo in combinations(defeasibles, r):
            closed = closure_oracle(base + combo)
            if not contradictory_oracle(closed):
                table.append((frozenset(combo), closed))
    return table


def arguments_oracle(table, literal):
    """Minimal consistent defeasible subsets deriving the literal."""
    hits = [subset for subset, closed in table if literal in closed]
    return {d for d in hits if not any(e < d for e in hits)}


def strict_support_oracle(program, defeasible_part, literal):
    """The recorded strict part of the argument for literal on
    defeasible_part: the program's facts and strict rules, less each one in
    label order whose removal still leaves the literal derivable."""
    keep = sorted(
        (e for e in program.elements if not e.is_defeasible), key=lambda e: e.label
    )
    for e in list(keep):
        trial = [x for x in keep if x is not e]
        if literal in closure_oracle(tuple(defeasible_part) + tuple(trial)):
            keep = trial
    return frozenset(keep)


def specificity_oracle(program, a1, a2, literals=None):
    """Literal more-specific-than check, one activation set at a time.

    Quantifies over every subset H of literals, by default the derivable
    literals: a1 must reach its conclusion only with a2's help available
    too (condition one holds universally), while some H activates a2 alone
    (condition two).
    """
    if literals is None:
        literals = closure_oracle(tuple(program.elements))
    derivable = sorted(literals, key=lambda l: l.key())
    omega = [e for e in (a1.support | a2.support) if e.kind == STRICT_RULE]
    rules1 = omega + [e for e in a1.support if e.kind == DEFEASIBLE_RULE]
    rules2 = omega + [e for e in a2.support if e.kind == DEFEASIBLE_RULE]
    l1, l2 = a1.conclusion, a2.conclusion

    def chase(start, elements):
        known = set(start)
        changed = True
        while changed:
            changed = False
            for e in elements:
                if e.head not in known and all(b in known for b in e.body):
                    known.add(e.head)
                    changed = True
        return known

    cond1 = True
    cond2 = False
    n = len(derivable)
    for mask in range(1 << n):
        h = {derivable[i] for i in range(n) if mask >> i & 1}
        base = chase(h, omega)
        if contradictory_oracle(base):
            continue
        with1 = chase(h, rules1)
        with2 = chase(h, rules2)
        if l1 in with1 and l1 not in base and l2 not in with2:
            cond1 = False
            break
        if l2 in with2 and l2 not in base and l1 not in with1:
            cond2 = True
    return cond1 and cond2


def preferred_oracle(program, a1, a2):
    """Whether a1 is preferred to a2: a proper subset of a2's presumptions
    wins, and equal presumptions go to specificity_oracle."""
    p1, p2 = presumptions_of(a1), presumptions_of(a2)
    if p1 != p2:
        return p1 < p2
    return specificity_oracle(program, a1, a2)


def defeat_oracle(program, arguments, a):
    """a's defeaters, given every argument of the program, as a set of
    (argument, kind): each argument that attacks a per attacks_oracle,
    proper if preferred_oracle prefers it to a, and blocking if neither is
    preferred to the other."""
    out = set()
    for b in arguments:
        if not attacks_oracle(arguments, b, a):
            continue
        if preferred_oracle(program, b, a):
            out.add((b, PROPER))
        elif not preferred_oracle(program, a, b):
            out.add((b, BLOCKING))
    return out


# -- tokenizer oracle -----------------------------------------------------------

_SECTIONS = ("#sorts", "#em", "#ic", "#am", "#af", "#universe")

# One alternative per token kind, tried in this order at each position.
_TOKEN_RE = re.compile(
    r"(?P<NEWLINE>\n)"
    r"|(?P<SPACE>[^\S\n]+)"
    r"|(?P<SECTION>#[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<SYMBOL>\+-|<-|-<|!=|[.:,(){}\[\]~^/])"
    r"|(?P<NUMBER>\d+(?:\.\d+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<HASH>#)"
    r"|(?P<OTHER>.)",
    re.DOTALL,
)


def tokens_oracle(text):
    """(kind, text, line, column) of every token, then one ("EOF", "", line,
    column) entry; the first bad token raises ParseError (without a
    snippet). Lines count "\n" only and columns are 1-based."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        if kind == "SPACE":
            continue
        word = m.group()
        column = m.start() - line_start + 1
        if kind == "HASH":
            raise ParseError("expected a section name after '#'", line, column)
        if kind == "OTHER":
            raise ParseError(f"unexpected character {word!r}", line, column)
        if kind == "SECTION" and word not in _SECTIONS:
            raise ParseError(f"unknown section {word}", line, column)
        tokens.append((kind, word, line, column))
    return tokens + [("EOF", "", line, len(text) - line_start + 1)]
