import copy
import functools
import pickle

import pytest
from hypothesis import given, strategies as st

from inca.errors import GroundednessError
from inca.language import (
    AM,
    BOTTOM,
    EM,
    ROLE_ACTOR,
    TOP,
    Atom,
    Formula,
    F_AND,
    F_ATOM,
    F_NOT,
    F_TOP,
    Literal,
    Term,
    atom_formula,
    conj,
    disj,
    formula_atoms,
    neg,
    render_formula,
    satisfies,
    substitute_atom,
    substitute_literal,
)
from inca.kbformat import parse_literal_text, parse_query

from conftest import ematom, lit


def test_term_constants_and_variables():
    assert not Term("baja").is_variable
    assert Term("X").is_variable
    assert Term("mw123sam1").role == "plain"
    with pytest.raises(ValueError):
        Term("X", ROLE_ACTOR)  # variables carry no role
    with pytest.raises(ValueError):
        Term("")
    with pytest.raises(ValueError):
        Term("bad name")
    with pytest.raises(ValueError):
        Term("a", "boss")


def test_term_role_is_not_part_of_identity():
    assert Term("baja", ROLE_ACTOR) == Term("baja")
    assert hash(Term("baja", ROLE_ACTOR)) == hash(Term("baja"))


def test_equal_values_hash_alike_however_built():
    # parsed, constructed directly, and bound by substitution; the bound
    # constant carries a role, which identity ignores
    parsed = parse_literal_text("neg p2(c0,d)")
    direct = Literal(Atom("p2", (Term("c0"), Term("d")), AM), negated=True)
    schematic = Atom("p2", (Term("X"), Term("d")), AM)
    bound = substitute_atom(schematic, {"X": Term("c0", ROLE_ACTOR)})
    assert bound.args[0].role == ROLE_ACTOR
    for value in (direct, Literal(bound, negated=True)):
        assert value == parsed and hash(value) == hash(parsed)
    for atom in (direct.atom, bound):
        assert atom == parsed.atom and hash(atom) == hash(parsed.atom)
    for term in (direct.atom.args[0], bound.args[0]):
        assert term == parsed.atom.args[0] and hash(term) == hash(parsed.atom.args[0])
    em_atom = Atom("p2", (Term("c0"), Term("d")), EM)
    formula = conj(atom_formula(em_atom), neg(atom_formula(Atom("q"))))
    assert formula == parse_query("p2(c0,d) ^ ~q")
    assert hash(formula) == hash(parse_query("p2(c0,d) ^ ~q"))
    # equal values collapse in a set, unequal ones do not
    assert len({parsed, parsed.complement(), Literal(bound)}) == 2


def test_atom_basics():
    a = ematom("origIP", "mw123sam1", "baja")
    assert str(a) == "origIP(mw123sam1,baja)"
    assert a.is_ground
    assert a.key() == ("origIP", ("mw123sam1", "baja"))
    schematic = Atom("condOp", (Term("X"), Term("o")), AM)
    assert not schematic.is_ground
    assert schematic.variables() == {"X"}
    assert str(Atom("flag")) == "flag"
    with pytest.raises(ValueError):
        Atom("p", model="nope")
    with pytest.raises(ValueError):
        Atom("Upper")


def test_literal_complement_and_str():
    l = lit("isCap", "baja", "worm123")
    n = l.complement()
    assert n.negated and n.complement() == l
    assert str(l) == "isCap(baja,worm123)"
    assert str(n) == "neg isCap(baja,worm123)"
    assert n.key()[0] is True
    with pytest.raises(ValueError):
        Literal(ematom("govCybLab", "baja"))  # EM atoms are not AM literals


def test_formula_shape_validation():
    a = atom_formula(ematom("p"))
    with pytest.raises(ValueError):
        Formula(F_AND, parts=(a,))
    with pytest.raises(ValueError):
        Formula("xor", parts=(a, a))
    with pytest.raises(ValueError):
        Formula(F_ATOM, a.atom, (TOP,))
    with pytest.raises(ValueError):
        Formula(F_NOT)
    with pytest.raises(ValueError):
        Formula(F_TOP, a.atom)
    b = Formula("atom", atom=Atom("q", (), AM))
    with pytest.raises(ValueError):
        conj(a, b)  # one formula cannot mix the two models


def test_formula_model_and_constants():
    a = atom_formula(ematom("p"))
    assert a.model == EM
    assert TOP.model is None and BOTTOM.model is None
    assert conj(TOP, a).model == EM
    assert neg(conj(TOP, BOTTOM)).model is None


def test_long_connective_chain_builds():
    # Each node takes its model from its parts, so a left-deep chain builds
    # in one step per connective and never recurses.
    chain = functools.reduce(
        disj, [atom_formula(ematom(f"p{i}", "a")) for i in range(1500)]
    )
    assert chain.model == EM


def test_formula_repr_and_pickle_have_no_depth_limit():
    a = Atom("p", (Term("a"),), EM)
    small = disj(conj(atom_formula(a), neg(TOP)), BOTTOM)
    assert repr(small) == (
        "Formula(op='or', atom=None, parts=(Formula(op='and', atom=None, "
        "parts=(Formula(op='atom', atom=Atom(predicate='p', args=(Term("
        "name='a', role='plain'),), model='em'), parts=()), Formula("
        "op='not', atom=None, parts=(Formula(op='top', atom=None, "
        "parts=()),)))), Formula(op='bottom', atom=None, parts=())))"
    )
    assert pickle.loads(pickle.dumps(small)) == small
    deep = atom_formula(a)
    for _ in range(100_000):
        deep = neg(deep)
    shown = repr(deep)
    assert shown.startswith("Formula(op='not', atom=None, parts=(" * 3)
    assert shown.endswith(",))" * 3)
    assert shown.count("Formula(") == 100_001
    again = pickle.loads(pickle.dumps(deep))
    assert again == deep and hash(again) == hash(deep)
    assert copy.deepcopy(deep) == deep


def test_formula_atoms_first_mention_order():
    a, b = ematom("a"), ematom("b")
    f = disj(conj(atom_formula(b), atom_formula(a)), atom_formula(b))
    assert formula_atoms(f) == (b, a)


def test_satisfies():
    a, b = ematom("a"), ematom("b")
    fa, fb = atom_formula(a), atom_formula(b)
    w = frozenset({a})
    assert satisfies(w, fa)
    assert not satisfies(w, fb)
    assert satisfies(w, disj(fb, fa))
    assert not satisfies(w, conj(fa, fb))
    assert satisfies(w, neg(fb))
    assert satisfies(frozenset(), TOP)
    assert not satisfies(frozenset(), BOTTOM)
    open_formula = atom_formula(Atom("p", (Term("X"),), EM))
    with pytest.raises(GroundednessError):
        satisfies(w, open_formula)


def test_substitute_literal():
    schematic = Literal(Atom("condOp", (Term("X"), Term("O")), AM))
    bound = substitute_literal(schematic, {"X": Term("baja"), "O": Term("worm123")})
    assert bound == lit("condOp", "baja", "worm123")
    partial = substitute_literal(schematic, {"X": Term("baja")})
    assert not partial.is_ground


def test_render_formula_precedence():
    a, b, c = (atom_formula(ematom(n)) for n in ("a", "b", "c"))
    assert render_formula(disj(a, conj(b, c))) == "a v b ^ c"
    assert render_formula(conj(disj(a, b), c)) == "(a v b) ^ c"
    assert render_formula(neg(disj(a, b))) == "~(a v b)"
    assert render_formula(conj(neg(a), b)) == "~a ^ b"
    # right-nested same-precedence children keep their parens
    assert render_formula(disj(a, disj(b, c))) == "a v (b v c)"
    assert render_formula(disj(disj(a, b), c)) == "a v b v c"


_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return atom_formula(ematom(draw(_names)))
    kind = draw(st.sampled_from(["not", "and", "or"]))
    if kind == "not":
        return neg(draw(formulas(depth=depth - 1)))
    left = draw(formulas(depth=depth - 1))
    right = draw(formulas(depth=depth - 1))
    return conj(left, right) if kind == "and" else disj(left, right)


@given(formulas(), st.sets(_names))
def test_negation_flips_satisfaction(f, names):
    world = frozenset(ematom(n) for n in names)
    assert satisfies(world, neg(f)) == (not satisfies(world, f))


@given(formulas(), formulas(), st.sets(_names))
def test_connectives_agree_with_python_logic(f, g, names):
    world = frozenset(ematom(n) for n in names)
    sf, sg = satisfies(world, f), satisfies(world, g)
    assert satisfies(world, conj(f, g)) == (sf and sg)
    assert satisfies(world, disj(f, g)) == (sf or sg)
