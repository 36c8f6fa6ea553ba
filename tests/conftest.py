"""Shared fixtures: the worm123 attribution scenario, built two ways.

Most tests use the programmatic builders below so they do not depend on the
parser; the kbformat and CLI tests load the same scenario from
fixtures/worm123.inca and the two are cross-checked in test_kbformat.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from inca.am import (
    AMElement,
    AMProgram,
    DEFEASIBLE_RULE,
    FACT,
    PRESUMPTION,
    STRICT_RULE,
    index_for,
)
from inca.bridge import AnnotationFunction, InCAFramework
from inca.em import EMKnowledgeBase, ProbabilisticFormula
from inca.kbformat import assemble, load_kb
from inca.language import AM, EM, Atom, Literal, Term, atom_formula, disj

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def lit(predicate, *args, negated=False):
    return Literal(Atom(predicate, tuple(Term(a) for a in args), AM), negated)


def ematom(predicate, *args):
    return Atom(predicate, tuple(Term(a) for a in args), EM)


# EM atoms of the scenario.
GOV = ematom("govCybLab", "baja")
AGE = ematom("cybCapAge", "baja", "5")
MSE = ematom("mseTT", "baja", "2")

# AM literals queried throughout.
COND_BAJA = lit("condOp", "baja", "worm123")
COND_MOJAVE = lit("condOp", "mojave", "worm123")
IS_CAP = lit("isCap", "baja", "worm123")
NOT_IS_CAP = lit("isCap", "baja", "worm123", negated=True)


def worm_elements():
    c_b = COND_BAJA
    c_m = COND_MOJAVE
    return (
        AMElement("th1a", FACT, lit("evidOf", "baja", "worm123")),
        AMElement("th1b", FACT, lit("evidOf", "mojave", "worm123")),
        AMElement("th2", FACT, lit("motiv", "baja", "krasnovia")),
        AMElement("om1a", STRICT_RULE, c_b.complement(), (c_m,)),
        AMElement("om1b", STRICT_RULE, c_m.complement(), (c_b,)),
        AMElement("om2a", STRICT_RULE, c_b, (
            lit("evidOf", "baja", "worm123"),
            IS_CAP,
            lit("motiv", "baja", "krasnovia"),
            lit("tgt", "krasnovia", "worm123"),
        )),
        AMElement("om2b", STRICT_RULE, c_m, (
            lit("evidOf", "mojave", "worm123"),
            lit("isCap", "mojave", "worm123"),
            lit("motiv", "mojave", "krasnovia"),
            lit("tgt", "krasnovia", "worm123"),
        )),
        AMElement("ph1", PRESUMPTION, lit("hasMseInvest", "baja")),
        AMElement("ph2", PRESUMPTION, lit("tgt", "krasnovia", "worm123")),
        AMElement("ph3", PRESUMPTION, lit("expCw", "baja", negated=True)),
        AMElement("de1a", DEFEASIBLE_RULE, c_b, (lit("evidOf", "baja", "worm123"),)),
        AMElement("de1b", DEFEASIBLE_RULE, c_m, (lit("evidOf", "mojave", "worm123"),)),
        AMElement("de2", DEFEASIBLE_RULE, c_b, (IS_CAP,)),
        AMElement("de3", DEFEASIBLE_RULE, c_b, (
            lit("motiv", "baja", "krasnovia"),
            lit("tgt", "krasnovia", "worm123"),
        )),
        AMElement("de4", DEFEASIBLE_RULE, IS_CAP, (lit("hasMseInvest", "baja"),)),
        AMElement("de5a", DEFEASIBLE_RULE, NOT_IS_CAP, (lit("expCw", "baja", negated=True),)),
        AMElement("de5b", DEFEASIBLE_RULE, lit("isCap", "mojave", "worm123", negated=True),
                  (lit("expCw", "mojave", negated=True),)),
    )


def worm_em_kb():
    return EMKnowledgeBase(formulas=(
        ProbabilisticFormula(atom_formula(GOV), Fraction(8, 10), Fraction(1, 10)),
        ProbabilisticFormula(atom_formula(AGE), Fraction(2, 10), Fraction(1, 10)),
        ProbabilisticFormula(atom_formula(MSE), Fraction(9, 10), Fraction(1, 10)),
    ))


def worm_annotations():
    return AnnotationFunction({
        "ph1": disj(atom_formula(MSE), atom_formula(GOV)),
        "ph3": atom_formula(AGE),
    })


@pytest.fixture(scope="session")
def worm_program():
    return AMProgram(worm_elements())


@pytest.fixture(scope="session")
def worm_index(worm_program):
    return index_for(worm_program)


@pytest.fixture(scope="session")
def worm_framework(worm_program):
    return InCAFramework(worm_em_kb(), worm_program, worm_annotations())


@pytest.fixture(scope="session")
def worm_doc():
    return load_kb(FIXTURES / "worm123.inca")


@pytest.fixture(scope="session")
def parsed_framework(worm_doc):
    return assemble(worm_doc)


def labels_of(argument):
    return frozenset(argument.labels)


def argument_by_labels(arguments, labels):
    wanted = frozenset(labels)
    for a in arguments:
        if labels_of(a) == wanted:
            return a
    raise AssertionError(f"no argument with labels {sorted(wanted)}")


# -- arguments as the engine sees them -------------------------------------------
#
# Inside ProgramIndex an argument is (m, c): its support as an element mask,
# bit i for index.elements[i], and its conclusion's literal bit. These
# helpers ask the engine about Arguments through key_of and index.argument.


def elements_of(index, m):
    """The elements of the element mask m."""
    return [e for i, e in enumerate(index.elements) if m >> i & 1]


def mask_of(index, a):
    """The element mask of a's support, read off index.elements."""
    return sum(1 << i for i, e in enumerate(index.elements) if e in a.support)


def key_of(index, a):
    """(m, c) of an argument over index's program."""
    return mask_of(index, a), index._bit[a.conclusion]


def derivable_of(index):
    """The literals that the whole program derives."""
    return frozenset(lit for lit, b in index._bit.items() if index._derivable & b)


def labels_in(index, m):
    return {e.label for e in elements_of(index, m)}


def defeaters_of(index, a):
    """a's defeaters as (argument, kind), in the engine's order."""
    return tuple((index.argument(m, c), kind) for m, c, kind in index.defeaters(*key_of(index, a)))


def prefers(index, a1, a2):
    return index.prefers(*key_of(index, a1), *key_of(index, a2))


def prefers_ps(index, a1, a2):
    return index.prefers_ps(*key_of(index, a1), *key_of(index, a2))


def attacks(index, a2, a1):
    """Whether a2 attacks a1 at one of a1's sub-arguments."""
    m1, _ = key_of(index, a1)
    return index._attacks(*key_of(index, a2), m1, index._attack_points(m1))


def subarguments_of(index, a):
    """The arguments whose element mask lies in a's, by conclusion in
    Literal.key order."""
    m, _ = key_of(index, a)
    return tuple(
        b for literal in sorted(derivable_of(index), key=Literal.key)
        for b in index.arguments_for(literal)
        if (mb := key_of(index, b)[0]) & m == mb
    )
