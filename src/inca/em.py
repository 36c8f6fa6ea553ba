"""Probabilistic reasoning over possible worlds.

A knowledge base pairs ground formulas with probability intervals p +- eps.
Its models are distributions over the worlds that conform to the integrity
constraints; queries are answered by optimizing the query's probability over
all such distributions, which reduces to a linear program with one variable
per formula signature: the formulas that some conforming world satisfies.
That program is built, and its phase 1 solved, once per knowledge base.

Inside the engine a set of worlds is a Python int over the knowledge base's
`WorldSpace`: bit w stands for world w. Formulas compile to such truth
tables with `&`, `|` and `^`, and `signatures` reads the LP's columns and
objectives off them a chunk of worlds at a time, so no column keeps a set
of worlds and `check` and `entail` list none. Frozenset worlds appear only
where the API hands worlds in or out.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from . import simplex
from .errors import CapacityError, GroundednessError, InconsistentKBError
from .language import (
    EM,
    Atom,
    Formula,
    Value,
    World,
    evaluate,
    formula_atoms,
    render_formula,
    satisfies,  # noqa: F401  (bench/tracer.py wraps this name)
)

DEFAULT_MAX_ATOMS = 20


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        # Floats arrive from user input; take their printed decimal value
        # rather than the binary expansion.
        return Fraction(str(value))
    return Fraction(value)


class ProbabilisticFormula(Value):
    """A ground formula annotated with an interval: P(formula) in [p-eps, p+eps]."""

    _fields = ("formula", "p", "eps")

    def __init__(self, formula: Formula, p: Fraction, eps: Fraction = Fraction(0)):
        p = _as_fraction(p)
        eps = _as_fraction(eps)
        if formula.model not in (EM, None):
            raise ValueError("probabilistic formulas live in the environmental model")
        if not formula.is_ground:
            raise GroundednessError(
                f"formula must be ground: {render_formula(formula)}"
            )
        # Checked and bounded on numerators and denominators: the ends are
        # (pn * ed -+ en * pd) / (pd * ed).
        pn, pd = p.numerator, p.denominator
        en, ed = eps.numerator, eps.denominator
        if not 0 <= pn <= pd:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if not 0 <= en * pd <= min(pn, pd - pn) * ed:
            raise ValueError(
                f"eps must be in [0, min(p, 1-p)], got {eps} with p={p}"
            )
        lower = upper = p
        if en:
            lower = Fraction(pn * ed - en * pd, pd * ed)
            upper = Fraction(pn * ed + en * pd, pd * ed)
        # Not a field: the universe and its checks read it on every load.
        self.__dict__.update(formula=formula, p=p, eps=eps, lower=lower, upper=upper,
                             atoms=formula_atoms(formula))

    def __str__(self) -> str:
        return f"{render_formula(self.formula)} : {self.p} +- {self.eps}"


class IntegrityConstraint(Value):
    """oneOf over a set of ground atoms: a world may contain at most one."""

    _fields = ("atoms",)

    def __init__(self, atoms: tuple[Atom, ...]):
        atoms = tuple(atoms)
        if len(atoms) < 2:
            raise ValueError("oneOf needs at least two atoms")
        if len(set(atoms)) != len(atoms):
            raise ValueError("oneOf atoms must be distinct")
        for a in atoms:
            if not isinstance(a, Atom) or a.model != EM or not a.is_ground:
                raise ValueError(f"oneOf takes ground environmental atoms, got {a}")
        self.__dict__["atoms"] = atoms

    def __str__(self) -> str:
        return "oneOf{" + ", ".join(str(a) for a in self.atoms) + "}"


class EMKnowledgeBase(Value):
    _fields = ("formulas", "constraints", "atom_universe")

    def __init__(
        self,
        formulas: tuple[ProbabilisticFormula, ...] = (),
        constraints: tuple[IntegrityConstraint, ...] = (),
        atom_universe: tuple[Atom, ...] | None = None,
    ):
        formulas, constraints = tuple(formulas), tuple(constraints)
        mentioned = dict.fromkeys(
            [a for pf in formulas for a in pf.atoms]
            + [a for ic in constraints for a in ic.atoms]
        )
        if atom_universe is None:
            atom_universe = tuple(mentioned)
        else:
            atom_universe = tuple(atom_universe)
            known = set(atom_universe)
            if len(known) != len(atom_universe):
                raise ValueError("atom universe contains duplicates")
            missing = [a for a in mentioned if a not in known]
            if missing:
                raise ValueError(
                    "atom universe is missing atoms used by the knowledge base: "
                    + ", ".join(str(a) for a in missing)
                )
        # Hashed once: the cached world space and LP are looked up by kb.
        self.__dict__.update(
            formulas=formulas, constraints=constraints, atom_universe=atom_universe,
            _hash=hash((formulas, constraints, atom_universe)),
        )

    def __hash__(self) -> int:
        return self._hash


class WorldSpace:
    """The worlds over a knowledge base's universe, as bits of Python ints.

    World w, in binary-counting order, holds the j-th universe atom iff bit
    j of w is set. A set of worlds is the int whose bit w is set iff world w
    is in the set; a formula's truth table is the set of worlds where it
    holds.
    """

    def __init__(self, kb: EMKnowledgeBase):
        self.universe = kb.atom_universe
        self.position = {atom: j for j, atom in enumerate(self.universe)}
        size = 1 << len(self.universe)
        self.full = (1 << size) - 1
        self.tables: dict[Atom, int] = {}
        for j, atom in enumerate(self.universe):
            # 2^j worlds without the atom, then 2^j with it, repeated by
            # doubling the pattern up to all 2^n worlds.
            width = 2 << j
            table = ((1 << (1 << j)) - 1) << (1 << j)
            while width < size:
                table |= table << width
                width <<= 1
            self.tables[atom] = table
        self.conforming = self.full
        for ic in kb.constraints:
            seen = twice = 0
            for atom in ic.atoms:
                twice |= seen & self.tables[atom]
                seen |= self.tables[atom]
            self.conforming &= self.full ^ twice

    def table(self, f: Formula) -> int:
        """The worlds where a ground formula over the universe holds."""
        return evaluate(f, self.tables.__getitem__, self.full)

    def number(self, world: World) -> int:
        """The index of a world; atoms outside the universe are ignored."""
        return sum(1 << self.position[a] for a in world if a in self.position)

    def world(self, w: int) -> World:
        return frozenset(a for j, a in enumerate(self.universe) if w >> j & 1)

    def decode(self, mask: int) -> list[World]:
        """The worlds of a mask in binary-counting order, read off one scan
        of its binary digits."""
        digits = bin(mask)[:1:-1]
        worlds = []
        w = digits.find("1")
        while w >= 0:
            worlds.append(self.world(w))
            w = digits.find("1", w + 1)
        return worlds

    def mask_of(self, worlds: Iterable[World]) -> int:
        """The mask of a set of worlds. A world with an atom outside the
        universe is not one of these worlds and is left out."""
        marks = bytearray((self.full.bit_length() + 7) // 8)
        for world in worlds:
            if all(a in self.position for a in world):
                w = self.number(world)
                marks[w >> 3] |= 1 << (w & 7)
        return int.from_bytes(marks, "little")


# A chunk of w worlds splits into at most min(w, 2^k) classes of w bits, so
# w = max(2^12, 2^24 >> k) worlds keeps about 2^24 class bits live at once.
CHUNK_WORLDS, CHUNK_CLASS_BITS = 1 << 12, 1 << 24


def signatures(mask: int, tables: list[int]) -> set[int]:
    """The signatures of the worlds in mask: bit k of a world's signature is
    set iff the world lies in the k-th table. The worlds are split by the
    tables one chunk at a time, so no class wider than a chunk is kept."""
    step = max(CHUNK_WORLDS, CHUNK_CLASS_BITS >> len(tables)) // 8
    size = (mask.bit_length() + 7) // 8
    chunks = [(t & mask).to_bytes(size, "little") for t in (mask, *tables)]
    found = set()
    for start in range(0, size, step):
        classes = [(int.from_bytes(chunks[0][start:start + step], "little"), 0)]
        for k, data in enumerate(chunks[1:]):
            table = int.from_bytes(data[start:start + step], "little")
            split = []
            for c, signature in classes:
                inside = c & table
                if inside:
                    split.append((inside, signature | 1 << k))
                if inside != c:
                    split.append((c ^ inside, signature))
            classes = split
        found.update(signature for _, signature in classes)
    return found


@lru_cache(maxsize=1)
def world_space(
    kb: EMKnowledgeBase, max_atoms: int = DEFAULT_MAX_ATOMS
) -> WorldSpace:
    """The world space of kb, built once per (kb, max_atoms) and shared by
    the LP and the bridge. It does not need kb to be consistent."""
    if len(kb.atom_universe) > max_atoms:
        raise CapacityError(
            f"universe has {len(kb.atom_universe)} atoms, limit is {max_atoms}"
        )
    return WorldSpace(kb)


def enumerate_worlds(kb: EMKnowledgeBase, max_atoms: int = DEFAULT_MAX_ATOMS) -> list[World]:
    """All worlds over the universe that satisfy the integrity constraints,
    in binary-counting order: bit j of the counter decides whether the j-th
    universe atom is in the world."""
    space = world_space(kb, max_atoms)
    return space.decode(space.conforming)


class ProbabilityInterval(Value):
    _fields = ("lower", "upper")

    def __init__(self, lower: Fraction, upper: Fraction):
        lower = _as_fraction(lower)
        upper = _as_fraction(upper)
        if lower > upper:
            raise ValueError(f"empty interval [{lower}, {upper}]")
        self.__dict__.update(lower=lower, upper=upper)

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
        raise GroundednessError(f"query must be ground: {render_formula(query)}")
    universe = set(kb.atom_universe)
    for a in formula_atoms(query):
        if a not in universe:
            raise GroundednessError(f"query atom outside the universe: {a}")


class _EMLinearProgram:
    """The LP of one knowledge base, built once for every objective on it.

    Moving mass between worlds that satisfy the same formulas changes no
    row, so a column is a formula signature that some conforming world has.
    Raises InconsistentKBError when no distribution satisfies kb.
    """

    def __init__(self, kb: EMKnowledgeBase, max_atoms: int):
        self.space = world_space(kb, max_atoms)
        self.tables = [self.space.table(pf.formula) for pf in kb.formulas]
        self.columns = sorted(signatures(self.space.conforming, self.tables))
        rows = [([1] * len(self.columns), 1, 1)]
        for k, pf in enumerate(kb.formulas):
            lower, upper = pf.lower, pf.upper
            if pf.eps:
                # x >= 0 and the sum-to-one row already imply 0 <= row <= 1.
                lower = lower or None
                upper = None if upper == 1 else upper
            rows.append(([s >> k & 1 for s in self.columns], lower, upper))
        try:
            self.polytope = simplex.Polytope(len(self.columns), rows)
        except simplex.Infeasible:
            raise InconsistentKBError(
                "no probability distribution satisfies the knowledge base"
            ) from None

    def extrema(self, target: int, upper: int | None = None) -> tuple[Fraction, Fraction]:
        """The min mass on target and the max mass on upper (default:
        target), each a mask of worlds of self.space."""
        upper = target if upper is None else upper
        # A column can keep all of its mass inside the target only if none
        # of its worlds is outside, and can put some there if any one is in.
        outside = signatures(self.space.conforming & ~target, self.tables)
        inside = signatures(self.space.conforming & upper, self.tables)
        lo = self.polytope.optimum([int(s not in outside) for s in self.columns], -1)
        hi = self.polytope.optimum([int(s in inside) for s in self.columns], 1)
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
    lp = _linear_program(kb, max_atoms)
    return lp.extrema(lp.space.mask_of(worlds))


def lp_bounds(
    kb: EMKnowledgeBase, query: Formula, max_atoms: int = DEFAULT_MAX_ATOMS
) -> ProbabilityInterval:
    _check_query(kb, query)
    lp = _linear_program(kb, max_atoms)
    return ProbabilityInterval(*lp.extrema(lp.space.table(query)))


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
