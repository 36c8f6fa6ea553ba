import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from inca import am
from inca.am import (
    AMElement,
    AMProgram,
    BLOCKING,
    DEFEASIBLE_RULE,
    FACT,
    NOT_WARRANTED,
    PRESUMPTION,
    PROPER,
    ProgramIndex,
    STRICT_RULE,
    UNDECIDED,
    WARRANTED,
    index_for,
    instantiate,
)
from inca.errors import (
    AssemblyError,
    CapacityError,
    GroundednessError,
    InternalInconsistencyError,
)
from inca.kbformat import parse_kb
from inca.language import AM, Atom, Literal, ROLE_ACTOR, ROLE_OPERATION, Term

from conftest import (
    COND_BAJA,
    COND_MOJAVE,
    IS_CAP,
    NOT_IS_CAP,
    argument_by_labels,
    attacks,
    defeaters_of,
    derivable_of,
    elements_of,
    key_of,
    labels_in,
    labels_of,
    lit,
    prefers,
    prefers_ps,
    subarguments_of,
    worm_elements,
)
from generators import AM_LITERALS, layered_am_program, random_am_program
from oracles import (
    all_arguments,
    arguments_oracle,
    attacks_oracle,
    by_label,
    closure_oracle,
    consistent_subsets_oracle,
    contradictory_oracle,
    cyclic_oracle,
    defeat_oracle,
    delta,
    forest_warrants_oracle,
    full_forest_oracle,
    ground_program,
    is_factual,
    is_presumptive,
    omega,
    phi,
    presumptions_of,
    specificity_oracle,
    strict_support_oracle,
    theta,
)


# -- elements and programs ----------------------------------------------------


def test_element_shapes():
    fact = AMElement("f1", FACT, lit("evidOf", "baja", "worm123"))
    assert fact.is_ground and not fact.is_defeasible
    assert str(fact) == "f1 : fact evidOf(baja,worm123)"

    presumption = AMElement("p1", PRESUMPTION, lit("expCw", "baja", negated=True))
    assert presumption.is_defeasible
    assert str(presumption) == "p1 : presume neg expCw(baja)"

    rule = AMElement("r1", DEFEASIBLE_RULE, COND_BAJA, (IS_CAP,))
    assert str(rule) == "r1 : condOp(baja,worm123) -< isCap(baja,worm123)"

    strict = AMElement("r2", STRICT_RULE, COND_BAJA.complement(), (COND_MOJAVE,))
    assert str(strict) == "r2 : neg condOp(baja,worm123) <- condOp(mojave,worm123)"


def test_element_validation():
    with pytest.raises(ValueError):
        AMElement("f1", FACT, COND_BAJA, (IS_CAP,))  # facts take no body
    with pytest.raises(ValueError):
        AMElement("r1", STRICT_RULE, COND_BAJA)  # rules need a body
    with pytest.raises(ValueError):
        AMElement("x!", FACT, COND_BAJA)
    with pytest.raises(ValueError):
        AMElement("x1", "axiom", COND_BAJA)
    with pytest.raises(ValueError):
        AMElement("f1", FACT, COND_BAJA, guards=(("X", "Y"),))  # facts take no guards
    with pytest.raises(ValueError):
        AMElement(
            "r1", STRICT_RULE,
            Literal(Atom("condOp", (Term("X"), Term("O")), AM)),
            (Literal(Atom("condOp", (Term("Y"), Term("O")), AM)),),
            guards=(("X", "Z"),),  # Z never occurs in the rule
        )


def test_program_partitions_and_validation():
    program = AMProgram(worm_elements())
    assert len(theta(program)) == 3
    assert len(omega(program)) == 4
    assert len(phi(program)) == 3
    assert len(delta(program)) == 7
    assert by_label(program, "de4").head == IS_CAP
    assert program.is_ground

    with pytest.raises(AssemblyError):
        AMProgram(worm_elements() + (AMElement("th1a", FACT, IS_CAP),))
    with pytest.raises(AssemblyError):
        AMProgram((AMElement("f1", FACT, COND_BAJA),))  # condOp is never a fact
    schematic = AMElement(
        "r1", STRICT_RULE, Literal(Atom("isCap", (Term("X"), Term("worm123")), AM)),
        (Literal(Atom("evidOf", (Term("X"), Term("worm123")), AM)),),
    )
    with pytest.raises(GroundednessError):
        ProgramIndex(AMProgram((schematic,)))  # the index takes ground programs only


def test_derivation_and_contradiction():
    index = index_for(AMProgram(worm_elements()))
    assert IS_CAP in derivable_of(index)
    assert COND_BAJA in derivable_of(index)
    assert lit("expCw", "baja") not in derivable_of(index)
    # strictly, only facts and strict-rule consequences are reachable
    strict = derivable_of(index_for(AMProgram(theta(index.program) + omega(index.program))))
    assert lit("evidOf", "baja", "worm123") in strict
    assert IS_CAP not in strict
    # the full element set derives complementary literals
    assert contradictory_oracle(derivable_of(index))
    # without the mojave evidence rule and the capability exception the
    # defeasible closure is conflict-free
    trimmed = tuple(e for e in worm_elements() if e.label not in ("de1b", "de5a"))
    assert not contradictory_oracle(derivable_of(index_for(AMProgram(trimmed))))


# -- grounding ----------------------------------------------------------------


def test_instantiate_rule_with_guard():
    schematic = AMElement(
        "om1", STRICT_RULE,
        Literal(Atom("condOp", (Term("X"), Term("O")), AM), True),
        (Literal(Atom("condOp", (Term("Y"), Term("O")), AM)),),
        guards=(("X", "Y"),),
    )
    constants = (
        Term("baja", ROLE_ACTOR),
        Term("mojave", ROLE_ACTOR),
        Term("worm123", ROLE_OPERATION),
    )
    instances = instantiate(schematic, constants)
    assert {e.label for e in instances} == {
        "om1[worm123,baja,mojave]",
        "om1[worm123,mojave,baja]",
    }
    assert all(e.is_ground for e in instances)


def test_instantiate_respects_sorts():
    schematic = AMElement(
        "d1", DEFEASIBLE_RULE,
        Literal(Atom("condOp", (Term("X"), Term("O")), AM)),
        (Literal(Atom("isCap", (Term("X"), Term("O")), AM)),),
    )
    constants = (
        Term("baja", ROLE_ACTOR),
        Term("mojave", ROLE_ACTOR),
        Term("worm123", ROLE_OPERATION),
    )
    instances = instantiate(schematic, constants)
    # X is an actor position and O an operation position, so mixed and
    # swapped assignments are ruled out
    assert {e.label for e in instances} == {
        "d1[worm123,baja]",
        "d1[worm123,mojave]",
    }


def test_instantiate_ground_item_is_identity():
    fact = AMElement("f1", FACT, lit("evidOf", "baja", "worm123"))
    assert instantiate(fact, (Term("baja", ROLE_ACTOR),)) == (fact,)


def test_ground_program_stays_fixed_when_ground():
    program = AMProgram(worm_elements())
    grounded = ground_program(program, (Term("baja", ROLE_ACTOR),))
    assert grounded == program


# -- arguments ----------------------------------------------------------------


EXPECTED_SUPPORTS = (
    {"th1a", "de1a"},
    {"ph1", "ph2", "de4", "om2a", "th1a", "th2"},
    {"ph1", "de2", "de4"},
    {"ph2", "de3", "th2"},
)


def test_arguments_for_conducting_operation(worm_index):
    arguments = worm_index.arguments_for(COND_BAJA)
    assert len(arguments) == 4
    got = [labels_of(a) for a in arguments]
    for expected in EXPECTED_SUPPORTS:
        assert frozenset(expected) in got
    assert all(a.conclusion == COND_BAJA for a in arguments)


def test_single_argument_literals(worm_index):
    (a5,) = worm_index.arguments_for(IS_CAP)
    assert labels_of(a5) == {"ph1", "de4"}
    (a6,) = worm_index.arguments_for(COND_BAJA.complement())
    assert labels_of(a6) == {"th1b", "de1b", "om1a"}
    (a7,) = worm_index.arguments_for(NOT_IS_CAP)
    assert labels_of(a7) == {"ph3", "de5a"}


def test_later_smaller_support_replaces_earlier_one():
    # In program order p(a) is first derived on {hr, hq, d1}; the strict
    # rule s1 then derives r(a) from q(a), and {hq, d1} must replace it.
    elements = (
        AMElement("hr", PRESUMPTION, lit("r", "a")),
        AMElement("hq", PRESUMPTION, lit("q", "a")),
        AMElement("d1", DEFEASIBLE_RULE, lit("p", "a"), (lit("q", "a"), lit("r", "a"))),
        AMElement("s1", STRICT_RULE, lit("r", "a"), (lit("q", "a"),)),
    )
    (a,) = index_for(AMProgram(elements)).arguments_for(lit("p", "a"))
    assert labels_of(a) == {"hq", "d1", "s1"}


def test_strict_part_drops_in_label_order():
    # p(a) is a fact and also follows from the fact q(a) by a0; trying a0
    # first (label order) keeps b0 alone, trying b0 first would keep b1, a0.
    elements = (
        AMElement("b0", FACT, lit("p", "a")),
        AMElement("b1", FACT, lit("q", "a")),
        AMElement("a0", STRICT_RULE, lit("p", "a"), (lit("q", "a"),)),
        AMElement("d1", DEFEASIBLE_RULE, lit("r", "a"), (lit("p", "a"),)),
    )
    (a,) = index_for(AMProgram(elements)).arguments_for(lit("r", "a"))
    assert labels_of(a) == {"b0", "d1"}


def test_argument_properties(worm_index):
    a1 = argument_by_labels(worm_index.arguments_for(COND_BAJA), {"th1a", "de1a"})
    assert is_factual(a1) and not is_presumptive(a1)
    (a5,) = worm_index.arguments_for(IS_CAP)
    assert is_presumptive(a5)
    assert str(a5) == "<{de4, ph1}, isCap(baja,worm123)>"
    assert a5.labels == ("de4", "ph1")


def test_subargument_relations(worm_index):
    arguments = worm_index.arguments_for(COND_BAJA)
    a2 = argument_by_labels(arguments, {"ph1", "ph2", "de4", "om2a", "th1a", "th2"})
    a3 = argument_by_labels(arguments, {"ph1", "de2", "de4"})
    a4 = argument_by_labels(arguments, {"ph2", "de3", "th2"})
    (a5,) = worm_index.arguments_for(IS_CAP)
    assert a5 in subarguments_of(worm_index, a2)
    assert a5 in subarguments_of(worm_index, a3)
    assert a5 not in subarguments_of(worm_index, a4)


def test_attack_relation(worm_index):
    arguments = worm_index.arguments_for(COND_BAJA)
    (a5,) = worm_index.arguments_for(IS_CAP)
    (a6,) = worm_index.arguments_for(COND_BAJA.complement())
    (a7,) = worm_index.arguments_for(NOT_IS_CAP)
    for a in arguments:
        assert attacks(worm_index, a, a6)
        assert attacks(worm_index, a6, a)
    assert attacks(worm_index, a5, a7)
    assert attacks(worm_index, a7, a5)
    a2 = argument_by_labels(arguments, {"ph1", "ph2", "de4", "om2a", "th1a", "th2"})
    a3 = argument_by_labels(arguments, {"ph1", "de2", "de4"})
    a4 = argument_by_labels(arguments, {"ph2", "de3", "th2"})
    assert attacks(worm_index, a7, a2)  # via the capability subargument
    assert not attacks(worm_index, a2, a7)
    assert not attacks(worm_index, a3, a4)  # same conclusion, no conflict


def test_preference_relation(worm_index):
    arguments = worm_index.arguments_for(COND_BAJA)
    a1 = argument_by_labels(arguments, {"th1a", "de1a"})
    a2 = argument_by_labels(arguments, {"ph1", "ph2", "de4", "om2a", "th1a", "th2"})
    a3 = argument_by_labels(arguments, {"ph1", "de2", "de4"})
    a4 = argument_by_labels(arguments, {"ph2", "de3", "th2"})
    (a5,) = worm_index.arguments_for(IS_CAP)
    (a6,) = worm_index.arguments_for(COND_BAJA.complement())
    (a7,) = worm_index.arguments_for(NOT_IS_CAP)
    # two purely factual arguments, neither more specific
    assert not prefers(worm_index, a1, a6)
    assert not prefers(worm_index, a6, a1)
    # factual beats presumptive
    for a in (a2, a3, a4):
        assert prefers(worm_index, a6, a)
        assert not prefers(worm_index, a, a6)
    # two presumptive arguments on disjoint presumptions: incomparable
    assert not prefers(worm_index, a5, a7)
    assert not prefers(worm_index, a7, a5)


def test_presumption_subset_preference():
    # same defeasible machinery, one argument presumes strictly less
    elements = (
        AMElement("p1", PRESUMPTION, lit("a", "x")),
        AMElement("p2", PRESUMPTION, lit("b", "x")),
        AMElement("r1", DEFEASIBLE_RULE, lit("c", "x"), (lit("a", "x"),)),
        AMElement("r2", DEFEASIBLE_RULE, lit("c", "x", negated=True),
                  (lit("a", "x"), lit("b", "x"))),
    )
    index = index_for(AMProgram(elements))
    (small,) = index.arguments_for(lit("c", "x"))
    (large,) = index.arguments_for(lit("c", "x", negated=True))
    assert presumptions_of(small) < presumptions_of(large)
    assert prefers(index, small, large)
    assert not prefers(index, large, small)


def test_defeaters(worm_index):
    arguments = worm_index.arguments_for(COND_BAJA)
    a2 = argument_by_labels(arguments, {"ph1", "ph2", "de4", "om2a", "th1a", "th2"})
    kinds = {(labels_of(b), kind) for b, kind in defeaters_of(worm_index, a2)}
    assert (frozenset({"th1b", "de1b", "om1a"}), PROPER) in kinds
    assert (frozenset({"ph3", "de5a"}), BLOCKING) in kinds


def test_specificity_on_exception_rule():
    # the classic pattern: a more informed rule defeats the general one
    elements = (
        AMElement("f1", FACT, lit("penguin", "tweety")),
        AMElement("s1", STRICT_RULE, lit("bird", "tweety"), (lit("penguin", "tweety"),)),
        AMElement("d1", DEFEASIBLE_RULE, lit("flies", "tweety"), (lit("bird", "tweety"),)),
        AMElement("d2", DEFEASIBLE_RULE, lit("flies", "tweety", negated=True),
                  (lit("penguin", "tweety"),)),
    )
    index = index_for(AMProgram(elements))
    (fly,) = index.arguments_for(lit("flies", "tweety"))
    (nofly,) = index.arguments_for(lit("flies", "tweety", negated=True))
    assert prefers_ps(index, nofly, fly)
    assert not prefers_ps(index, fly, nofly)
    assert index.warrant_status(lit("flies", "tweety")) == NOT_WARRANTED
    assert index.warrant_status(lit("flies", "tweety", negated=True)) == WARRANTED


def test_specificity_capacity_limit():
    """The cap counts the literals one comparison ranges over, not the
    program's derivable literals."""
    filler = tuple(
        AMElement(f"f{i}", FACT, lit(f"fill{i}", "x")) for i in range(17)
    )
    contested = (
        AMElement("d1", PRESUMPTION, lit("goal", "x")),
        AMElement("d2", PRESUMPTION, lit("goal", "x", negated=True)),
    )
    # 18 derivable literals, but the presumptions' comparison has 2.
    index = index_for(AMProgram(filler[:16] + contested))
    (a,) = index.arguments_for(lit("goal", "x"))
    (b,) = index.arguments_for(lit("goal", "x", negated=True))
    assert not prefers_ps(index, a, b)
    # A rule on all 17 facts gives its comparison 19 relevant literals.
    wide = AMElement(
        "d3", DEFEASIBLE_RULE, lit("goal", "x"), tuple(f.head for f in filler)
    )
    index = index_for(AMProgram(filler + contested + (wide,)))
    goal = index.arguments_for(lit("goal", "x"))
    (b,) = index.arguments_for(lit("goal", "x", negated=True))
    assert not prefers_ps(index, argument_by_labels(goal, {"d1"}), b)
    with pytest.raises(CapacityError):
        prefers_ps(index, argument_by_labels(goal, {"d3"} | {f.label for f in filler}), b)


# -- dialectical trees and warrant ---------------------------------------------


def test_dialectical_tree_of_motive_argument(worm_index):
    arguments = worm_index.arguments_for(COND_BAJA)
    a4 = argument_by_labels(arguments, {"ph2", "de3", "th2"})
    tree = worm_index.build_tree(*key_of(worm_index, a4))
    assert tree.mark == "U"
    (child,) = tree.children
    assert labels_of(child.argument) == {"th1b", "de1b", "om1a"}
    assert child.defeat_kind == PROPER
    assert child.mark == "D"
    # the counterargument is in turn blocked, and blocking defeaters are leaves
    leaves = {labels_of(n.argument) for n in child.children}
    assert frozenset({"th1a", "de1a"}) in leaves
    assert all(n.defeat_kind == BLOCKING for n in child.children)
    assert all(not n.children and n.mark == "U" for n in child.children)


def test_dialectical_tree_of_presumptive_argument(worm_index):
    arguments = worm_index.arguments_for(COND_BAJA)
    a2 = argument_by_labels(arguments, {"ph1", "ph2", "de4", "om2a", "th1a", "th2"})
    (full,) = [t for t in full_forest_oracle(worm_index, COND_BAJA) if t.argument == a2]
    assert full.mark == "D"
    kinds = {(labels_of(n.argument), n.defeat_kind) for n in full.children}
    assert kinds == {
        (frozenset({"th1b", "de1b", "om1a"}), PROPER),
        (frozenset({"ph3", "de5a"}), BLOCKING),
    }
    # The walk meets the blocking defeater first, as it has no defeaters of
    # its own, and shows only it.
    tree = worm_index.build_tree(*key_of(worm_index, a2))
    assert tree.mark == "D"
    (child,) = tree.children
    assert (labels_of(child.argument), child.defeat_kind) == (
        frozenset({"ph3", "de5a"}), BLOCKING)
    assert child.mark == "U" and not child.children


def test_warrant_statuses(worm_index):
    assert worm_index.warrant_status(COND_BAJA) == WARRANTED
    assert worm_index.warrant_status(COND_MOJAVE) == NOT_WARRANTED
    assert worm_index.warrant_status(IS_CAP) == UNDECIDED
    assert worm_index.warrant_status(NOT_IS_CAP) == UNDECIDED
    assert worm_index.warrant_status(lit("unheard", "x")) == UNDECIDED


def test_warrant_with_validity_filter(worm_index):
    nothing = lambda m: False
    assert worm_index.warrant_status(IS_CAP, nothing) == UNDECIDED
    only_ph3_out = lambda m: "ph3" not in labels_in(worm_index, m)
    assert worm_index.warrant_status(IS_CAP, only_ph3_out) == WARRANTED
    only_ph1_out = lambda m: "ph1" not in labels_in(worm_index, m)
    assert worm_index.warrant_status(IS_CAP, only_ph1_out) == NOT_WARRANTED


def test_forest_returns_marked_roots(worm_index):
    forest = worm_index.forest(COND_BAJA)
    assert len(forest) == 4
    assert all(n.mark in ("U", "D") for n in forest)
    assert any(n.mark == "U" for n in forest)


def test_line_takes_no_subargument_of_an_earlier_argument():
    # layered_am_program at seed 934 (3 layers of width 2, 14 elements).
    # The root R for l2_1(x) is blocked by B, for neg l2_1(x), and by C, for
    # l1_0(x). Each is properly defeated only by D = <{e0_0, e0_1, e1_0_0},
    # neg l1_0(x)>, a sub-argument of R, so D may not extend the lines
    # R, B and R, C: B and C stay U and R is D. In B's own tree R blocks
    # it, so neither side is warranted. Without the condition, l2_1(x) and
    # neg l3_0(x) are warranted and neg l2_1(x) not.
    x = "x"
    program = AMProgram((
        AMElement("e0_0", FACT, lit("l0_0", x)),
        AMElement("e0_1", FACT, lit("l0_1", x)),
        AMElement("e1_0_0", DEFEASIBLE_RULE, lit("l1_0", x, negated=True),
                  (lit("l0_1", x), lit("l0_0", x))),
        AMElement("e1_0_1", DEFEASIBLE_RULE, lit("l1_0", x), (lit("l0_1", x),)),
        AMElement("e1_1_0", DEFEASIBLE_RULE, lit("l1_1", x), (lit("l0_1", x),)),
        AMElement("e1_1_1", STRICT_RULE, lit("l1_1", x), (lit("l0_0", x),)),
        AMElement("e2_0_0", STRICT_RULE, lit("l2_0", x),
                  (lit("l1_0", x, negated=True), lit("l1_0", x), lit("l0_1", x))),
        AMElement("e2_0_1", DEFEASIBLE_RULE, lit("l2_0", x), (lit("l1_0", x),)),
        AMElement("e2_1_0", DEFEASIBLE_RULE, lit("l2_1", x),
                  (lit("l1_0", x, negated=True), lit("l1_1", x))),
        AMElement("e2_1_1", DEFEASIBLE_RULE, lit("l2_1", x, negated=True),
                  (lit("l1_0", x), lit("l0_0", x))),
        AMElement("e3_0_0", DEFEASIBLE_RULE, lit("l3_0", x, negated=True),
                  (lit("l2_1", x, negated=True), lit("l0_0", x))),
        AMElement("e3_0_1", DEFEASIBLE_RULE, lit("l3_0", x, negated=True), (lit("l2_1", x),)),
        AMElement("e3_1_0", DEFEASIBLE_RULE, lit("l3_1", x),
                  (lit("l1_0", x, negated=True), lit("l1_0", x))),
        AMElement("e3_1_1", DEFEASIBLE_RULE, lit("l3_1", x, negated=True),
                  (lit("l1_0", x), lit("l2_0", x))),
    ))
    rng = random.Random(934)
    assert program == layered_am_program(rng, rng.randint(3, 5), rng.randint(2, 4))
    index = index_for(program)
    for literal in (lit("l2_1", x), lit("l2_1", x, negated=True), lit("l3_0", x, negated=True)):
        assert index.warrant_status(literal) == UNDECIDED
        assert not forest_warrants_oracle(index, literal)
        assert not forest_warrants_oracle(index, literal.complement())

    def shape(node):
        return (set(node.argument.labels), node.defeat_kind, node.mark,
                [shape(child) for child in node.children])

    r = {"e0_0", "e0_1", "e1_0_0", "e1_1_1", "e2_1_0"}
    b = {"e0_0", "e0_1", "e1_0_1", "e2_1_1"}
    c = {"e0_1", "e1_0_1"}
    d = {"e0_0", "e0_1", "e1_0_0"}
    assert [shape(t) for t in full_forest_oracle(index, lit("l2_1", x))] == [
        (r, None, "D", [(b, BLOCKING, "U", []), (c, BLOCKING, "U", [])]),
    ]
    assert [shape(t) for t in full_forest_oracle(index, lit("l2_1", x, negated=True))] == [
        (b, None, "D", [(r, BLOCKING, "U", []), (d, PROPER, "U", [])]),
    ]
    # A D node shows the first undefeated defeater the walk meets, and the
    # walk tries fewest defeaters first: C (one, D) before B (two), and D
    # (none) before R (two).
    assert [shape(t) for t in index.forest(lit("l2_1", x))] == [
        (r, None, "D", [(c, BLOCKING, "U", [])]),
    ]
    assert [shape(t) for t in index.forest(lit("l2_1", x, negated=True))] == [
        (b, None, "D", [(d, PROPER, "U", [])]),
    ]


def test_line_keeps_each_side_consistent():
    # Cut down from random_am_program at seed 268. R = <{d13}, q(b)> is
    # blocked by B = <{b0, d5, d8, d15}, neg q(b)>, which C = <{b0, d5,
    # d14}, q(b)> properly defeats. D = <{d19, d20}, neg p(b)> blocks C, but
    # it would join B's side, and B presumes p(b): D may not extend the line
    # R, B, C, so C stays U, B is D and q(b) is warranted. Without the
    # condition, R is D and q(b) undecided.
    program = AMProgram((
        AMElement("b0", FACT, lit("s", "a", negated=True)),
        AMElement("d5", PRESUMPTION, lit("p", "b")),
        AMElement("d8", DEFEASIBLE_RULE, lit("q", "b", negated=True),
                  (lit("q", "a", negated=True),)),
        AMElement("d13", PRESUMPTION, lit("q", "b")),
        AMElement("d14", DEFEASIBLE_RULE, lit("q", "b"),
                  (lit("p", "b"), lit("s", "a", negated=True))),
        AMElement("d15", DEFEASIBLE_RULE, lit("q", "a", negated=True),
                  (lit("p", "b"), lit("s", "a", negated=True))),
        AMElement("d19", PRESUMPTION, lit("p", "a")),
        AMElement("d20", DEFEASIBLE_RULE, lit("p", "b", negated=True), (lit("p", "a"),)),
    ))
    index = index_for(program)
    c = argument_by_labels(index.arguments_for(lit("q", "b")), {"b0", "d5", "d14"})
    assert ({"d19", "d20"}, BLOCKING) in [(set(b.labels), k) for b, k in defeaters_of(index, c)]
    assert index.warrant_status(lit("q", "b")) == WARRANTED
    assert forest_warrants_oracle(index, lit("q", "b"))

    def shape(node):
        return (set(node.argument.labels), node.defeat_kind, node.mark,
                [shape(child) for child in node.children])

    r_tree = (
        {"d13"}, None, "U", [({"b0", "d5", "d8", "d15"}, BLOCKING, "D", [
            ({"b0", "d5", "d14"}, PROPER, "U", []),
        ])],
    )
    r = argument_by_labels(index.arguments_for(lit("q", "b")), {"d13"})
    assert shape(index.build_tree(*key_of(index, r))) == r_tree
    (full,) = [t for t in full_forest_oracle(index, lit("q", "b")) if t.argument == r]
    assert shape(full) == r_tree


# -- randomized cross-checks ---------------------------------------------------


def test_arguments_match_subset_oracle():
    rng = random.Random(99)
    for _ in range(30):
        program = random_am_program(rng)
        index = index_for(program)
        assert derivable_of(index) == closure_oracle(program.elements)
        table = consistent_subsets_oracle(program)
        for literal in AM_LITERALS:
            expected = arguments_oracle(table, literal)
            got = {a.defeasible_part for a in index.arguments_for(literal)}
            assert got == expected
            for a in index.arguments_for(literal):
                assert literal in closure_oracle(a.support)
                # the recorded strict part is minimal: each element is needed
                for e in a.support - a.defeasible_part:
                    assert literal not in closure_oracle(a.support - {e})


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_label_pass_matches_oracles(rng):
    """On programs with up to 6 extra strict rules, cycles among them
    common: the defeasible parts of each literal's arguments are the minimal
    consistent subsets, each strict part is the label-order greedy over
    frozensets, and the sub-arguments are the arguments whose support lies
    inside. Each argument is one object, however it is reached."""
    program = random_am_program(rng, max_defeasible=6, max_strict=6)
    index = index_for(program)
    table = consistent_subsets_oracle(program)
    everything = all_arguments(index)
    built = {id(a) for a in everything}
    for literal in AM_LITERALS + (lit("absent", "x"),):
        arguments = index.arguments_for(literal)
        assert {a.defeasible_part for a in arguments} == arguments_oracle(table, literal)
        for a in arguments:
            strict = strict_support_oracle(program, a.defeasible_part, literal)
            assert a.support - a.defeasible_part == strict
            assert id(a) in built
        again = index.arguments_for(literal)
        assert [id(a) for a in again] == [id(a) for a in arguments]
    assert index.arguments_for(lit("absent", "x")) == ()
    for a in everything:
        expected = tuple(b for b in everything if b.support <= a.support)
        assert subarguments_of(index, a) == expected


def _oracle_programs(rng, count, layered):
    """count programs of each random_am_program shape: the default one, and
    one with up to 6 extra strict elements, where strict cycles and
    alternative strict derivations are common. Both draw on 8 literals.
    Then layered programs of 4 layers of width 3: they have 12 to 16
    derivable literals, over which specificity_oracle walks every subset,
    so there are only a few of them."""
    for _ in range(count):
        yield random_am_program(rng)
        yield random_am_program(rng, max_defeasible=6, max_strict=6)
    for _ in range(layered):
        yield layered_am_program(rng, 4, 3)


def test_attacks_match_oracle():
    """Attacks match the oracle, and an argument's defeaters are its
    attackers, each proper if preferred to it and blocking if neither is
    preferred, among every argument of the program (defeaters() itself
    looks only at the arguments for the complements of the literals its
    support closes to under every fact and strict rule)."""
    rng = random.Random(5)
    outcomes = set()
    programs = [random_am_program(rng) for _ in range(100)]
    for program in programs + list(_oracle_programs(random.Random(7), 40, 10)):
        index = index_for(program)
        arguments = all_arguments(index)
        for a in arguments:
            defeaters = set()
            for b in arguments:
                expected = attacks_oracle(arguments, b, a)
                assert attacks(index, b, a) == expected
                outcomes.add(expected)
                if expected and prefers(index, b, a):
                    defeaters.add((b, PROPER))
                elif expected and not prefers(index, a, b):
                    defeaters.add((b, BLOCKING))
            assert set(defeaters_of(index, a)) == defeaters
    assert outcomes == {True, False}


def test_defeaters_match_defeat_oracle():
    """Every argument's defeaters, kinds included, are those of
    defeat_oracle: attackers by attacks_oracle, preference by presumption
    subsets and then by specificity over every subset of the derivable
    literals."""
    kinds = Counter()
    for program in _oracle_programs(random.Random(28), 200, 12):
        index = index_for(program)
        arguments = all_arguments(index)
        for a in arguments:
            defeaters = defeaters_of(index, a)
            assert len(defeaters) == len(set(defeaters))
            assert set(defeaters) == defeat_oracle(program, arguments, a)
            kinds.update(kind for _, kind in defeaters)
    assert kinds[PROPER] and kinds[BLOCKING]


def test_attackers_contradict_the_strict_closure():
    """Without the engine's closures: whenever b attacks a, b's conclusion
    contradicts a literal that a's defeasible part derives with every fact
    and strict rule of the program. This is why defeaters() seeks a's
    attackers among the arguments for the complements of that closure."""
    attacks = 0
    for program in _oracle_programs(random.Random(28), 200, 20):
        strict = theta(program) + omega(program)
        arguments = all_arguments(index_for(program))
        for a in arguments:
            closed = closure_oracle(tuple(a.defeasible_part) + strict)
            for b in arguments:
                if attacks_oracle(arguments, b, a):
                    attacks += 1
                    assert b.conclusion.complement() in closed
    assert attacks > 100


def test_specificity_matches_exhaustive_oracle():
    rng = random.Random(11)
    checked = 0
    while checked < 10:
        program = random_am_program(rng, max_defeasible=5)
        if len(closure_oracle(tuple(program.elements))) > 8:
            continue
        checked += 1
        index = index_for(program)
        arguments = all_arguments(index)[:4]
        for a in arguments:
            for b in arguments:
                if a is not b:
                    assert prefers_ps(index, a, b) == specificity_oracle(program, a, b)


def test_omega_consistency_drops_an_inconsistent_activating_set(monkeypatch):
    """{x, neg x} activates l1 minimally (d1 on x, and y through s), but is
    contradictory under the strict rule s, so the consistency filter that
    prefers_ps hands to _antichains drops it. Neither answer changes:
    {v} and {x, y} are consistent witnesses."""
    program = AMProgram(tuple(parse_kb(
        "#am\nfv : fact v.\nfw : fact w.\nd4 : y -< v.\nd5 : x -< v.\n"
        "d1 : l1 -< x, y.\nd2 : neg x -< w.\ns : y <- neg x.\n"
        "d3 : l2 -< y, u.\nd6 : u -< w.\n"
    ).am))
    index = index_for(program)
    dropped = []
    antichains = index._antichains

    def spied(rules, labels, own, consistent):
        def checked(env):
            ok = consistent(env)
            if not ok:
                dropped.append(env)
            return ok
        return antichains(rules, labels, own, checked)

    monkeypatch.setattr(index, "_antichains", spied)
    (l1,) = index.arguments_for(lit("l1"))
    l2 = argument_by_labels(index.arguments_for(lit("l2")), {"d2", "d3", "d6", "fw", "s"})
    assert not prefers_ps(index, l1, l2)
    assert not prefers_ps(index, l2, l1)
    assert index._bit[lit("x")] | index._bit[lit("x", negated=True)] in dropped
    arguments = all_arguments(index)
    assert len(arguments) == 10
    for a in arguments:
        for b in arguments:
            assert prefers_ps(index, a, b) == specificity_oracle(program, a, b)


def test_specificity_cap_ignores_unrelated_facts():
    """16 facts over fresh predicates take a program past 16 derivable
    literals but add none to any comparison: preference and warrant stay as
    they are without them."""
    rng = random.Random(23)
    padding = tuple(AMElement(f"z{i}", FACT, lit(f"pad{i}", "x")) for i in range(16))
    checked = 0
    while checked < 10:
        program = random_am_program(rng, max_defeasible=5)
        if len(closure_oracle(tuple(program.elements))) > 8:
            continue
        checked += 1
        index = index_for(program)
        padded = index_for(AMProgram(program.elements + padding))
        arguments = all_arguments(index)[:4]
        for a in arguments:
            for b in arguments:
                if a is not b:
                    assert prefers_ps(padded, a, b) == specificity_oracle(program, a, b)
        for literal in AM_LITERALS:
            assert padded.warrant_status(literal) == index.warrant_status(literal)


def _relevant_literals(a1, a2):
    """The conclusions and the body literals of every rule either argument
    may use in a specificity comparison: the strict rules of both supports
    and the defeasible rules of each."""
    rules = [e for e in a1.support | a2.support
             if e.kind in (STRICT_RULE, DEFEASIBLE_RULE)]
    return {a1.conclusion, a2.conclusion}.union(*(e.body for e in rules))


def test_specificity_matches_subset_walk_over_relevant_literals():
    """prefers_ps tests minimal activating sets only; the oracle walks every
    subset of the relevant literals. First the at-cap shape: 14 facts, one
    rule on 13 of them against one on the 14th, 16 relevant literals. Then
    layered programs, whose comparisons range over 2 to 17 relevant
    literals: a few of each size, drawn in a seeded order, are checked up
    to the cap, and those past it must raise."""
    facts = tuple(AMElement(f"f{i}", FACT, lit(f"fill{i}", "x")) for i in range(14))
    at_cap = AMProgram(facts + (
        AMElement("d1", DEFEASIBLE_RULE, lit("goal", "x"),
                  tuple(f.head for f in facts[:13])),
        AMElement("d2", DEFEASIBLE_RULE, lit("goal", "x", negated=True),
                  (facts[13].head,)),
    ))
    index = index_for(at_cap)
    (goal,) = index.arguments_for(lit("goal", "x"))
    (not_goal,) = index.arguments_for(lit("goal", "x", negated=True))
    for a, b in ((goal, not_goal), (not_goal, goal)):
        relevant = _relevant_literals(a, b)
        assert len(relevant) == 16
        assert prefers_ps(index, a, b) == specificity_oracle(at_cap, a, b, relevant)

    rng = random.Random(6)
    pairs = []
    for program in [layered_am_program(rng, 6, 4) for _ in range(6)]:
        index = index_for(program)
        arguments = all_arguments(index)
        pairs += [(program, index, a, b) for a in arguments for b in arguments if a is not b]
    rng.shuffle(pairs)
    checked = Counter()
    outcomes = set()
    for program, index, a, b in pairs:
        relevant = _relevant_literals(a, b)
        size = len(relevant)
        if checked[size] >= 8:
            continue
        checked[size] += 1
        if size > 16:
            with pytest.raises(CapacityError):
                prefers_ps(index, a, b)
            continue
        expected = specificity_oracle(program, a, b, relevant)
        assert prefers_ps(index, a, b) == expected
        outcomes.add((size > 12, expected))
    assert set(checked) == set(range(2, 18))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_warrant_masks_match_full_forests(rng):
    """Bit w of the pruned walk equals the marks of the full forests cut to
    the arguments available in world w; one more world checks the one-world
    warrant_status with an arbitrary validity test."""
    # 16 defeasible elements give more arguments with defeaters; half the
    # elements hold in every world, so long supports are still available.
    index = index_for(random_am_program(rng, max_defeasible=16))
    element_masks = {
        e.label: 0xFF if rng.random() < 0.5 else rng.randrange(256)
        for e in index.program.elements
    }

    def available(support):
        mask = 0xFF
        for e in support:
            mask &= element_masks[e.label]
        return mask

    chosen = {e.label for e in index.program.elements if rng.random() < 0.7}

    def valid(support):
        return all(e.label in chosen for e in support)

    # The engine passes element masks, the oracles Arguments.
    available_m = lambda m: available(elements_of(index, m))
    valid_m = lambda m: valid(elements_of(index, m))

    for literal in AM_LITERALS:
        complement = literal.complement()
        pro = con = 0
        for w in range(8):
            in_w = lambda a: available(a.support) >> w & 1
            pro |= forest_warrants_oracle(index, literal, in_w) << w
            con |= forest_warrants_oracle(index, complement, in_w) << w
        if pro & con:
            with pytest.raises(InternalInconsistencyError):
                index.warrant_masks(literal, available_m, 0xFF)
        else:
            assert index.warrant_masks(literal, available_m, 0xFF) == (pro, con)

        pro = forest_warrants_oracle(index, literal, lambda a: valid(a.support))
        con = forest_warrants_oracle(index, complement, lambda a: valid(a.support))
        if pro and con:
            with pytest.raises(InternalInconsistencyError):
                index.warrant_status(literal, valid_m)
        else:
            expected = WARRANTED if pro else NOT_WARRANTED if con else UNDECIDED
            assert index.warrant_status(literal, valid_m) == expected


def test_one_world_entries_take_the_world_as_a_mask_bit():
    """warrant_status and forest in world w, asked with the mask 1 << w over
    the availability of 8 worlds, answer as bit w of warrant_masks over all
    8 worlds and as a one-world availability cut to world w."""
    rng = random.Random(33)
    split = 0
    for _ in range(12):
        program = random_am_program(rng, max_defeasible=16)
        index = ProgramIndex(program)
        tables = {e.label: rng.randrange(256) | rng.randrange(256) for e in program.elements}

        def available(m):
            mask = 0xFF
            for e in elements_of(index, m):
                mask &= tables[e.label]
            return mask

        for literal in AM_LITERALS:
            pro, con = index.warrant_masks(literal, available, 0xFF)
            split += pro not in (0, 0xFF) or con not in (0, 0xFF)
            for w in range(8):
                expected = (WARRANTED if pro >> w & 1
                            else NOT_WARRANTED if con >> w & 1 else UNDECIDED)
                assert index.warrant_status(literal, available, 1 << w) == expected
                assert index.forest(literal, available, 1 << w) == index.forest(
                    literal, lambda m: available(m) >> w & 1)
    # Worlds disagree often enough that a wrong bit would show.
    assert split >= 40


def test_shown_trees_are_winning_strategies_of_the_full_trees():
    """Each shown tree is part of its root's full marked tree, with the same
    marks: a shown D node has exactly one child, marked U, and a shown U
    node has all of the full node's children, each marked D. Seeded, as a D
    node whose walk meets a beaten defeater before an undefeated one is
    rare: 3 of these 200 programs have one."""
    rng = random.Random(27)

    def check(shown, full):
        assert (shown.argument, shown.defeat_kind, shown.mark) == (
            full.argument, full.defeat_kind, full.mark)
        if shown.mark == "D":
            (child,) = shown.children
            assert child.mark == "U"
        else:
            assert sorted(c.argument.sort_key() for c in shown.children) == sorted(
                c.argument.sort_key() for c in full.children)
            assert all(c.mark == "D" for c in shown.children)
        in_full = {c.argument: c for c in full.children}
        for child in shown.children:
            check(child, in_full[child.argument])

    for trial in range(200):
        if trial % 2:
            program = layered_am_program(rng, rng.randint(3, 5), rng.randint(2, 4))
        else:
            program = random_am_program(rng, max_defeasible=rng.choice((8, 16, 24)))
        index = index_for(program)
        chosen = {e.label for e in program.elements if rng.random() < 0.7}
        restricted = rng.choice([False, True])
        # The engine passes element masks, the oracle Arguments.
        valid_m = lambda m: labels_in(index, m) <= chosen
        valid = (lambda a: all(e.label in chosen for e in a.support)) if restricted else None
        for literal in sorted({e.head for e in program.elements}, key=Literal.key):
            shown = index.forest(literal, valid_m) if restricted else index.forest(literal)
            full = full_forest_oracle(index, literal, valid)
            assert len(shown) == len(full)
            for s, f in zip(shown, full):
                check(s, f)


def test_cyclic_programs_match_oracles():
    """A program whose rules form a cycle keeps program order, and its
    closures and label passes repeat until nothing changes. On such
    programs the pruned walk, run first on a fresh index so that it labels
    the cones it reaches, and then derivability and the arguments, agree
    with the oracles."""
    rng = random.Random(29)
    seen = Counter()
    while seen[True] < 40:
        program = random_am_program(rng, max_defeasible=6, max_strict=6)
        index = ProgramIndex(program)
        cyclic = cyclic_oracle(program)
        assert index._cyclic == cyclic
        seen[cyclic] += 1
        if not cyclic:
            continue
        # Every element is available in world 3.
        element_masks = {e.label: rng.randrange(16) | 8 for e in program.elements}

        def available(support):
            mask = 0xF
            for e in support:
                mask &= element_masks[e.label]
            return mask

        for literal in AM_LITERALS[::2]:
            pro = con = 0
            for w in range(4):
                in_w = lambda a: available(a.support) >> w & 1
                pro |= forest_warrants_oracle(index, literal, in_w) << w
                con |= forest_warrants_oracle(index, literal.complement(), in_w) << w
            # The engine passes element masks of the fresh index's order.
            fresh = ProgramIndex(program)
            available_m = lambda m: available(elements_of(fresh, m))
            if pro & con:
                with pytest.raises(InternalInconsistencyError):
                    fresh.warrant_masks(literal, available_m, 0xF)
            else:
                assert fresh.warrant_masks(literal, available_m, 0xF) == (pro, con)
        assert derivable_of(index) == closure_oracle(program.elements)
        table = consistent_subsets_oracle(program)
        for literal in AM_LITERALS:
            got = {a.defeasible_part for a in index.arguments_for(literal)}
            assert got == arguments_oracle(table, literal)
    assert seen[False]


def test_walk_never_expands_a_defeater_past_the_cap(monkeypatch):
    """The root's blocking defeater C comes first in defeaters() order, and
    C's own defeaters need a specificity comparison of E with C over 6
    literals, past a cap of 4. The proper defeater D has no defeaters, so
    the walk tries D first; D beats the root, and C is never expanded."""
    program = AMProgram((
        AMElement("p1", PRESUMPTION, lit("a", "x")),
        AMElement("r1", DEFEASIBLE_RULE, lit("g", "x"), (lit("a", "x"),)),
        AMElement("fb", FACT, lit("b", "x")),
        AMElement("d1", DEFEASIBLE_RULE, lit("a", "x", negated=True), (lit("b", "x"),)),
        AMElement("p2", PRESUMPTION, lit("c", "x")),
        AMElement("c2", DEFEASIBLE_RULE, lit("m", "x"), (lit("c", "x"),)),
        AMElement("c1", DEFEASIBLE_RULE, lit("a", "x", negated=True), (lit("m", "x"),)),
        AMElement("f1", FACT, lit("h", "x")),
        AMElement("f2", FACT, lit("k", "x")),
        AMElement("e1", DEFEASIBLE_RULE, lit("m", "x", negated=True),
                  (lit("c", "x"), lit("h", "x"), lit("k", "x"))),
    ))
    assert ProgramIndex(program).warrant_status(lit("g", "x")) == UNDECIDED
    monkeypatch.setattr(am, "SPECIFICITY_CAP", 4)
    index = ProgramIndex(program)
    (root,) = index.arguments_for(lit("g", "x"))
    defeaters = [(set(b.labels), kind) for b, kind in defeaters_of(index, root)]
    assert defeaters == [({"p2", "c2", "c1"}, BLOCKING), ({"fb", "d1"}, PROPER)]
    with pytest.raises(CapacityError):
        defeaters_of(index, defeaters_of(index, root)[0][0])
    assert index.warrant_status(lit("g", "x")) == UNDECIDED
