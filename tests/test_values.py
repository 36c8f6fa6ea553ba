"""What every value type gives: equality and hashing by fields within one
class, immutability, keyword construction with defaults, and a repr that
names the fields. `InCAFramework` is the mutable exception."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from inca.am import (
    DEFEASIBLE_RULE,
    FACT,
    AMElement,
    AMProgram,
    Argument,
    DialecticalNode,
)
from inca.attribution import AttributionResult, SuspectReport, Trace
from inca.bridge import AnnotationFunction, InCAFramework
from inca.em import (
    DEFAULT_MAX_ATOMS,
    EMKnowledgeBase,
    IntegrityConstraint,
    ProbabilisticFormula,
    ProbabilityInterval,
)
from inca.kbformat import KBDocument
from inca.language import (
    EM,
    F_TOP,
    ROLE_ACTOR,
    ROLE_PLAIN,
    Atom,
    Formula,
    Literal,
    Term,
    Value,
    atom_formula,
    disj,
    neg,
)

from conftest import ematom, lit

P, Q = ematom("p", "a"), ematom("q", "a")
FACT_E = AMElement("f1", FACT, lit("e", "b"))
RULE_E = AMElement("d1", DEFEASIBLE_RULE, lit("c", "b"), (lit("e", "b"),))
ARG = Argument({FACT_E}, lit("e", "b"))


def _interval(lower="1/4"):
    return ProbabilityInterval(Fraction(lower), Fraction(3, 4))


# name: (build, variant, variant is equal). `build()` makes a fresh value
# each call; `variant()` changes one argument, which changes the value
# except where the type ignores that argument: a Term's role.
VALUES = {
    "Term": (lambda: Term("a"), lambda: Term("a", ROLE_ACTOR), True),
    "Atom": (lambda: ematom("p", "a"), lambda: ematom("p", "b"), False),
    "Literal": (lambda: lit("c", "b"), lambda: lit("c", "b", negated=True), False),
    "Formula": (
        lambda: disj(atom_formula(P), neg(atom_formula(Q))),
        lambda: disj(neg(atom_formula(Q)), atom_formula(P)),
        False,
    ),
    "AMElement": (
        lambda: AMElement("d1", DEFEASIBLE_RULE, lit("c", "b"), (lit("e", "b"),)),
        lambda: AMElement("d2", DEFEASIBLE_RULE, lit("c", "b"), (lit("e", "b"),)),
        False,
    ),
    "AMProgram": (
        lambda: AMProgram((FACT_E, RULE_E)),
        lambda: AMProgram((RULE_E, FACT_E)),
        False,
    ),
    "Argument": (
        lambda: Argument({FACT_E}, lit("e", "b")),
        lambda: Argument({FACT_E, RULE_E}, lit("e", "b")),
        False,
    ),
    "DialecticalNode": (
        lambda: DialecticalNode(
            ARG, None, "D", (DialecticalNode(ARG, "proper", "U", ()),)
        ),
        lambda: DialecticalNode(ARG, None, "U", ()),
        False,
    ),
    "ProbabilisticFormula": (
        lambda: ProbabilisticFormula(atom_formula(P), 0.5, "1/10"),
        lambda: ProbabilisticFormula(atom_formula(P), 0.5, 0),
        False,
    ),
    "IntegrityConstraint": (
        lambda: IntegrityConstraint([P, Q]),
        lambda: IntegrityConstraint([Q, P]),
        False,
    ),
    "EMKnowledgeBase": (
        lambda: EMKnowledgeBase([ProbabilisticFormula(atom_formula(P), 1)]),
        lambda: EMKnowledgeBase([ProbabilisticFormula(atom_formula(P), 1)], (), (P, Q)),
        False,
    ),
    "ProbabilityInterval": (_interval, lambda: _interval("1/2"), False),
    "AnnotationFunction": (
        lambda: AnnotationFunction({"d1": atom_formula(P), "f1": Formula(F_TOP)}),
        lambda: AnnotationFunction({"d1": atom_formula(Q)}),
        False,
    ),
    "SuspectReport": (
        lambda: SuspectReport("baja", _interval()),
        lambda: SuspectReport("mojave", _interval()),
        False,
    ),
    "Trace": (
        lambda: Trace("baja", lit("c", "b"), frozenset({P}), ()),
        lambda: Trace("baja", lit("c", "b"), frozenset(), ()),
        False,
    ),
    "AttributionResult": (
        lambda: AttributionResult(("baja",), (SuspectReport("baja", _interval()),), ()),
        lambda: AttributionResult((), (SuspectReport("baja", _interval()),), ()),
        False,
    ),
    "KBDocument": (
        lambda: KBDocument(
            sorts=[("actor", "baja")], am=[FACT_E], af=[["f1", atom_formula(P)]]
        ),
        lambda: KBDocument(sorts=[("actor", "baja")], am=[FACT_E]),
        False,
    ),
}


# What an instance holds besides its fields: the attributes __init__ derives.
DERIVED = {
    "Term": {"_hash"},
    "Atom": {"_hash", "is_ground"},
    "Literal": {"_hash"},
    "Formula": {"_hash", "model", "is_ground"},
    "AMElement": {"_hash", "is_ground"},
    "AMProgram": {"_hash"},
    "Argument": {"_hash"},
    "ProbabilisticFormula": {"lower", "upper", "atoms"},
    "EMKnowledgeBase": {"_hash"},
    "AnnotationFunction": {"_table", "_atoms"},
}


def _value_classes(base=Value):
    for cls in base.__subclasses__():
        if cls.__module__.startswith("inca."):
            yield cls
            yield from _value_classes(cls)


def test_table_covers_every_value_type():
    assert {cls.__name__ for cls in _value_classes()} == set(VALUES)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_fields_make_equal_values(name):
    build, variant, variant_equal = VALUES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert (variant() == a) is variant_equal
    if variant_equal:
        assert hash(variant()) == hash(a)
    assert repr(a) == repr(b)
    assert repr(a).startswith(f"{name}({type(a)._fields[0]}=")
    # Keyword construction names the fields.
    assert type(a)(**{f: getattr(a, f) for f in type(a)._fields}) == a


@pytest.mark.parametrize("name", sorted(VALUES))
def test_instance_dict_holds_the_fields_and_what_is_derived(name):
    a = VALUES[name][0]()
    assert set(vars(a)) == set(type(a)._fields) | DERIVED.get(name, set())


def test_pickled_values_equal_fresh_ones_under_another_hash_seed():
    # str hashes differ between processes, so a value loaded from a pickle
    # must not keep a hash cached where it was pickled.
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    dump = (
        "import pickle, sys; from test_values import VALUES; "
        "sys.stdout.buffer.write(pickle.dumps({n: v[0]() for n, v in VALUES.items()}))"
    )
    check = (
        "import pickle, sys; from test_values import VALUES; "
        "loaded = pickle.loads(sys.stdin.buffer.read()); "
        "fresh = {n: v[0]() for n, v in VALUES.items()}; "
        "print(*(n for n, a in loaded.items() if not "
        "(a == fresh[n] and hash(a) == hash(fresh[n]) and a in {fresh[n]})))"
    )
    pickled = subprocess.run(
        [sys.executable, "-c", dump], capture_output=True, check=True,
        env={**env, "PYTHONHASHSEED": "1"},
    ).stdout
    proc = subprocess.run(
        [sys.executable, "-c", check], input=pickled, capture_output=True,
        env={**env, "PYTHONHASHSEED": "2"},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == []


@pytest.mark.parametrize("name", sorted(VALUES))
def test_another_class_with_the_same_fields_is_unequal(name):
    a = VALUES[name][0]()
    twin = object.__new__(type(name, (type(a),), {}))
    twin.__dict__.update(vars(a))
    assert a != twin and twin != a
    assert a != VALUES["Term" if name != "Term" else "Atom"][0]()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_frozen_values_refuse_assignment(name):
    a = VALUES[name][0]()
    for field in (*type(a)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    with pytest.raises(AttributeError):
        del a._fields
    assert a == VALUES[name][0]()


def test_framework_is_mutable_and_equal_only_to_itself():
    fw = InCAFramework(EMKnowledgeBase(), AMProgram((FACT_E,)))
    assert fw == fw and fw != InCAFramework(EMKnowledgeBase(), AMProgram((FACT_E,)))
    assert len({fw, fw}) == 1
    fw.max_atoms = 3
    assert fw.max_atoms == 3


def test_keyword_constructors_keep_their_defaults():
    assert Term(name="a").role == ROLE_PLAIN
    atom = Atom(predicate="p")
    assert (atom.args, atom.model) == ((), EM)
    assert Literal(atom=lit("c").atom).negated is False
    top = Formula(op=F_TOP)
    assert (top.atom, top.parts) == (None, ())
    fact = AMElement(label="f1", kind=FACT, head=lit("c"))
    assert (fact.body, fact.guards) == ((), ())
    assert AMProgram().elements == ()
    assert ProbabilisticFormula(formula=atom_formula(P), p=1).eps == 0
    kb = EMKnowledgeBase()
    assert (kb.formulas, kb.constraints, kb.atom_universe) == ((), (), ())
    assert AnnotationFunction().mapping == ()
    fw = InCAFramework(em=kb, program=AMProgram())
    assert (fw.annotations, fw.max_atoms) == (AnnotationFunction(), DEFAULT_MAX_ATOMS)
    doc = KBDocument()
    assert (doc.sorts, doc.em, doc.ic, doc.am, doc.af, doc.universe) == (
        (), (), (), (), (), None
    )
