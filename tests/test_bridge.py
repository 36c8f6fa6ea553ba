import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from inca import am, bridge, em
from inca.am import AMElement, AMProgram, NOT_WARRANTED, ProgramIndex, WARRANTED
from inca.attribution import apply_evidence, most_probable_suspects
from inca.bridge import AnnotationFunction, InCAFramework
from inca.em import EMKnowledgeBase, ProbabilisticFormula
from inca.kbformat import assemble, load_kb
from inca.simplex import Polytope
from inca.errors import (
    AssemblyError,
    GroundednessError,
    InconsistentKBError,
)
from inca.language import (
    AM,
    Atom,
    Literal,
    TOP,
    Term,
    atom_formula,
    disj,
)

from conftest import (
    AGE,
    COND_BAJA,
    COND_MOJAVE,
    FIXTURES,
    GOV,
    IS_CAP,
    MSE,
    NOT_IS_CAP,
    argument_by_labels,
    elements_of,
    labels_of,
    lit,
    mask_of,
    worm_annotations,
    worm_em_kb,
    worm_elements,
)
from generators import (
    AM_LITERALS,
    random_am_program,
    random_framework,
    wide20_framework,
    with_constraints,
)
from oracles import (
    DistributionError,
    all_arguments,
    available_oracle,
    nec_at_oracle,
    nec_oracle,
    poss_at_oracle,
    poss_oracle,
    prob_from_distribution,
)

F = Fraction


def world(*atoms):
    return frozenset(atoms)


# -- annotation function -------------------------------------------------------


def test_annotation_lookup_defaults_to_top():
    af = worm_annotations()
    assert af.annotation_for("ph1") == disj(atom_formula(MSE), atom_formula(GOV))
    assert af.annotation_for("th1a") is TOP
    assert [label for label, _ in af.mapping] == ["ph1", "ph3"]


def test_annotation_instance_labels_inherit_base():
    af = AnnotationFunction({"de1": atom_formula(GOV)})
    assert af.annotation_for("de1[baja,worm123]") == atom_formula(GOV)
    specific = AnnotationFunction({
        "de1": atom_formula(GOV),
        "de1[baja,worm123]": atom_formula(MSE),
    })
    assert specific.annotation_for("de1[baja,worm123]") == atom_formula(MSE)
    assert specific.annotation_for("de1[mojave,worm123]") == atom_formula(GOV)


def test_annotation_top_entries_are_dropped():
    af = AnnotationFunction({"ph1": TOP, "ph3": atom_formula(AGE)})
    assert [label for label, _ in af.mapping] == ["ph3"]


def test_annotation_validation():
    with pytest.raises(AssemblyError):
        AnnotationFunction([("ph1", atom_formula(GOV)), ("ph1", atom_formula(MSE))])
    with pytest.raises(AssemblyError):
        AnnotationFunction({"ph1": atom_formula(Atom("p", (), AM))})
    with pytest.raises(GroundednessError):
        AnnotationFunction({"ph1": atom_formula(Atom("p", (Term("X"),)))})


# -- framework construction -----------------------------------------------------


def test_framework_validation():
    kb = worm_em_kb()
    with pytest.raises(AssemblyError):
        InCAFramework(kb, AMProgram(worm_elements()), {"ghost": atom_formula(GOV)})
    outside = Atom("other", (Term("c"),))
    with pytest.raises(AssemblyError):
        InCAFramework(kb, AMProgram(worm_elements()), {"ph1": atom_formula(outside)})


def test_framework_rejects_open_programs():
    from inca.am import DEFEASIBLE_RULE

    schematic = AMElement(
        "r1", DEFEASIBLE_RULE,
        Literal(Atom("condOp", (Term("X"), Term("worm123")), AM)),
        (Literal(Atom("isCap", (Term("X"), Term("worm123")), AM)),),
    )
    program = AMProgram((schematic,))
    assert not program.is_ground
    with pytest.raises(GroundednessError):
        InCAFramework(worm_em_kb(), program)


def test_annotations_accept_instance_labels_of_program_elements():
    kb = worm_em_kb()
    base = AMProgram(worm_elements())
    grounded_label = AMElement(
        "de9[baja,worm123]", "defeasible", IS_CAP, (lit("hasMseInvest", "baja"),)
    )
    program = AMProgram(worm_elements() + (grounded_label,))
    fw = InCAFramework(kb, program, {"de9": atom_formula(GOV)})
    assert fw.annotations.annotation_for("de9[baja,worm123]") == atom_formula(GOV)
    assert base is not program


# -- validity and world-indexed warrant ------------------------------------------


def test_validity_of_capability_argument(worm_framework):
    fw = worm_framework
    (a5,) = fw.index.arguments_for(IS_CAP)
    m5 = mask_of(fw.index, a5)
    valid_worlds = {w for w in fw.worlds if fw.available(m5) >> fw.space.number(w) & 1}
    assert valid_worlds == {w for w in fw.worlds if available_oracle(fw, a5, w)}
    assert valid_worlds == {
        world(GOV, AGE, MSE), world(GOV, AGE), world(GOV, MSE),
        world(AGE, MSE), world(GOV), world(MSE),
    }


def test_available_bits_per_world(worm_framework):
    fw = worm_framework
    arguments = all_arguments(fw.index)
    th1a = argument_by_labels(arguments, ["th1a"])
    available = lambda a: fw.available(mask_of(fw.index, a))
    assert available(th1a) == fw.space.full  # unannotated: every world
    gov = fw.space.number(world(GOV))
    with_ph1 = [a for a in arguments if "ph1" in labels_of(a)]
    with_ph3 = [a for a in arguments if "ph3" in labels_of(a)]
    assert with_ph1 and with_ph3
    assert all(available(a) >> gov & 1 for a in with_ph1 if a not in with_ph3)
    assert not any(available(a) >> gov & 1 for a in with_ph3)
    # Every world, conforming or not, against the per-world labels.
    for w in range(fw.space.full.bit_length()):
        for a in arguments:
            assert available(a) >> w & 1 == available_oracle(fw, a, fw.space.world(w))


def test_warrant_status_by_world(worm_framework):
    assert worm_framework.warrant_status_in(world(GOV), IS_CAP) == WARRANTED
    assert worm_framework.warrant_status_in(world(AGE), IS_CAP) == NOT_WARRANTED
    assert worm_framework.warrants_in(world(MSE), IS_CAP)
    assert not worm_framework.warrants_in(world(GOV, AGE), IS_CAP)
    assert not worm_framework.warrants_in(world(), IS_CAP)


def test_forest_in_world(worm_framework):
    forest = worm_framework.forest_in(world(GOV), IS_CAP)
    assert len(forest) == 1
    assert forest[0].mark == "U"
    assert not forest[0].children  # the counterargument is invalid here


def test_nec_and_poss_sets(worm_framework):
    nec = set(worm_framework.nec_set(IS_CAP))
    assert nec == {world(GOV, MSE), world(GOV), world(MSE)}
    poss = set(worm_framework.poss_set(IS_CAP))
    assert poss == {
        world(GOV, AGE, MSE), world(GOV, AGE), world(GOV, MSE),
        world(AGE, MSE), world(GOV), world(MSE),
    }
    assert set(worm_framework.nec_set(NOT_IS_CAP)) == {world(AGE)}
    assert set(worm_framework.poss_set(NOT_IS_CAP)) == {
        world(GOV, AGE, MSE), world(GOV, AGE), world(AGE, MSE), world(AGE),
    }


def test_nec_set_enumeration_order(worm_framework):
    nec = worm_framework.nec_set(COND_BAJA)
    assert nec == worm_framework.worlds  # warranted everywhere
    assert nec[0] == world()


def test_probability_bounds(worm_framework):
    iv = worm_framework.prob_bounds(IS_CAP)
    assert (iv.lower, iv.upper) == (F(1, 2), F(1))
    assert (iv.p, iv.eps) == (F(3, 4), F(1, 4))

    iv_neg = worm_framework.prob_bounds(NOT_IS_CAP)
    assert (iv_neg.lower, iv_neg.upper) == (F(0), F(3, 10))

    assert worm_framework.prob_bounds(COND_BAJA).lower == F(1)
    assert worm_framework.prob_bounds(COND_MOJAVE).upper == F(0)


def test_prob_bounds_enumerates_worlds_once(monkeypatch, worm_program):
    calls = []
    enumerate_worlds = em.enumerate_worlds

    def counted(kb, max_atoms):
        calls.append(kb)
        return enumerate_worlds(kb, max_atoms)

    # Both modules bind the name; count calls through either.
    monkeypatch.setattr(em, "enumerate_worlds", counted)
    monkeypatch.setattr(bridge, "enumerate_worlds", counted)
    em.world_space.cache_clear()
    fw = InCAFramework(worm_em_kb(), worm_program, worm_annotations())
    fw.prob_bounds(IS_CAP)
    # nec and poss reach the LP as masks; no world is listed.
    assert calls == []


def test_worlds_do_not_need_a_consistent_em(worm_program):
    universe = worm_em_kb().atom_universe
    clash = EMKnowledgeBase(
        (
            ProbabilisticFormula(atom_formula(GOV), F(1, 5)),
            ProbabilisticFormula(atom_formula(GOV), F(4, 5)),
        ),
        atom_universe=universe,
    )
    fw = InCAFramework(clash, worm_program, worm_annotations())
    assert len(fw.worlds) == 8
    assert fw.nec_set(COND_BAJA) == fw.worlds
    assert set(fw.poss_set(NOT_IS_CAP)) == {
        world(GOV, AGE, MSE), world(GOV, AGE), world(AGE, MSE), world(AGE),
    }
    with pytest.raises(InconsistentKBError):
        fw.prob_bounds(IS_CAP)


def test_bounds_for_literal_without_arguments(worm_framework):
    iv = worm_framework.prob_bounds(lit("unheard", "x"))
    assert (iv.lower, iv.upper) == (F(0), F(0))


# -- arguments inside the engine --------------------------------------------------


def test_the_engine_never_hashes_or_compares_an_argument(monkeypatch):
    """Inside the index an argument is (element mask, conclusion bit), and
    availability is kept per element mask: with Argument.__hash__ and
    __eq__ raising, a freshly assembled worm123 framework answers bounds,
    nec and poss, and an index over a random program answers warrant_masks,
    as they do with them."""
    literals = (COND_BAJA, IS_CAP, COND_MOJAVE)
    program = random_am_program(random.Random(31), max_defeasible=16)
    rng = random.Random(32)
    tables = {e.label: rng.randrange(256) | rng.randrange(256) for e in program.elements}

    def framework_answers():
        am.index_for.cache_clear()
        bridge._kb_state.cache_clear()
        fw = assemble(load_kb(FIXTURES / "worm123.inca"))
        return [(fw.prob_bounds(x), fw.nec_set(x), fw.poss_set(x)) for x in literals]

    def index_answers():
        index = ProgramIndex(program)

        def available(m):
            mask = 0xFF
            for e in elements_of(index, m):
                mask &= tables[e.label]
            return mask

        return [index.warrant_masks(x, available, 0xFF) for x in AM_LITERALS]

    expected = framework_answers(), index_answers()
    assert any(pro | con for pro, con in expected[1])

    def refuse(*args):
        raise AssertionError("an Argument was hashed or compared")

    monkeypatch.setattr(am.Argument, "__hash__", refuse)
    monkeypatch.setattr(am.Argument, "__eq__", refuse)
    got = framework_answers(), index_answers()
    assert [(iv.p, iv.eps) for iv, _, _ in got[0]] == [(1, 0), (F(3, 4), F(1, 4)), (0, 0)]
    assert got == expected


# -- the state shared by frameworks over one KB ---------------------------------


def test_a_repeated_kb_is_answered_from_the_shared_state(monkeypatch):
    def ask(fw):
        return (fw.prob_bounds(IS_CAP), fw.nec_set(IS_CAP),
                most_probable_suspects(fw, "worm123", ["baja", "mojave"]))

    first = ask(assemble(load_kb(FIXTURES / "worm123.inca")))
    calls = []
    for cls, name in ((ProgramIndex, "warrant_masks"), (Polytope, "optimum")):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args, name=name, method=method:
                            calls.append(name) or method(self, *args))
    # a second framework over the same KB walks no tree and solves no LP
    assert ask(assemble(load_kb(FIXTURES / "worm123.inca"))) == first
    assert calls == []


def test_the_shared_state_is_keyed_by_the_whole_kb(worm_program):
    """Frameworks that differ in one part of the KB only, built in turn,
    answer as each does from an empty state."""
    without_de5a = AMProgram(tuple(e for e in worm_elements() if e.label != "de5a"))
    builders = {
        "base": lambda: InCAFramework(worm_em_kb(), worm_program, worm_annotations()),
        "annotations": lambda: InCAFramework(
            worm_em_kb(), worm_program,
            AnnotationFunction({"ph1": atom_formula(AGE), "ph3": atom_formula(GOV)}),
        ),
        "em": lambda: apply_evidence(
            InCAFramework(worm_em_kb(), worm_program, worm_annotations()),
            [ProbabilisticFormula(atom_formula(AGE), F(1, 10))],
        ),
        "max_atoms": lambda: InCAFramework(
            worm_em_kb(), worm_program, worm_annotations(), max_atoms=3
        ),
        "program": lambda: InCAFramework(worm_em_kb(), without_de5a, worm_annotations()),
    }
    literals = (IS_CAP, NOT_IS_CAP, COND_BAJA, COND_MOJAVE)

    def answers(fw):
        return [(fw.nec_set(x), fw.poss_set(x), fw.prob_bounds(x)) for x in literals]

    expected = {}
    for name, build in builders.items():
        bridge._kb_state.cache_clear()
        expected[name] = answers(build())
    # each part of the key changes some answer, so a key without it fails
    assert all(expected[name] != expected["base"] for name in builders
               if name not in ("base", "max_atoms"))
    for first in builders:
        for second in builders:
            assert answers(builders[first]()) == expected[first]
            assert answers(builders[second]()) == expected[second]


def test_threads_sharing_the_state_answer_as_one_thread(worm_program):
    # Two KBs in turn, so threads rebuild the state while others read it.
    builders = (
        lambda: InCAFramework(worm_em_kb(), worm_program, worm_annotations()),
        lambda: InCAFramework(
            worm_em_kb(), worm_program,
            AnnotationFunction({"ph1": atom_formula(AGE), "ph3": atom_formula(GOV)}),
        ),
    )
    literals = (IS_CAP, NOT_IS_CAP, COND_BAJA, COND_MOJAVE)

    def answers(fw):
        return [(fw.masks(x), fw.prob_bounds(x)) for x in literals]

    expected = [answers(build()) for build in builders]
    wrong = []

    def work(k):
        try:
            for i in range(40):
                j = (i + k) % 2
                if answers(builders[j]()) != expected[j]:
                    wrong.append((k, i))
        except Exception as exc:  # reported by the assertion below
            wrong.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_prob_from_distribution(worm_framework):
    uniform = {w: F(1, 8) for w in worm_framework.worlds}
    iv = prob_from_distribution(worm_framework, IS_CAP, uniform)
    assert (iv.lower, iv.upper) == (F(3, 8), F(6, 8))


def test_prob_from_distribution_validation(worm_framework):
    worlds = worm_framework.worlds
    with pytest.raises(DistributionError):
        prob_from_distribution(
            worm_framework, IS_CAP, {frozenset({Atom("alien", (Term("c"),))}): F(1)}
        )
    bad_sum = {w: F(1, 4) for w in worlds}
    with pytest.raises(DistributionError):
        prob_from_distribution(worm_framework, IS_CAP, bad_sum)
    signed = dict.fromkeys(worlds, F(0))
    signed[worlds[0]] = F(3, 2)
    signed[worlds[1]] = F(-1, 2)
    with pytest.raises(DistributionError):
        prob_from_distribution(worm_framework, IS_CAP, signed)


# -- randomized invariants --------------------------------------------------------


def test_framework_invariants_hold_on_random_instances():
    rng = random.Random(17)
    for _ in range(30):
        fw = random_framework(rng)
        heads = list(dict.fromkeys(e.head for e in fw.program.elements))[:4]
        for literal in heads:
            nec = set(fw.nec_set(literal))
            poss = set(fw.poss_set(literal))
            assert nec <= poss
            assert not nec & set(fw.nec_set(literal.complement()))
            iv = fw.prob_bounds(literal)
            assert 0 <= iv.lower <= iv.upper <= 1


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_nec_and_poss_match_per_world_oracles(rng):
    base = random_framework(rng)
    kb = with_constraints(rng, base.em)
    fw = InCAFramework(kb, base.program, base.annotations)
    # Every world, conforming or not, against the per-world labels.
    for w in range(fw.space.full.bit_length()):
        world = fw.space.world(w)
        for a in all_arguments(fw.index):
            m = mask_of(fw.index, a)
            assert fw.available(m) >> w & 1 == available_oracle(fw, a, world)
    consistent = em.is_consistent(kb)
    heads = list(dict.fromkeys(e.head for e in fw.program.elements))[:4]
    for literal in heads + [h.complement() for h in heads]:
        nec, poss = fw.nec_set(literal), fw.poss_set(literal)
        assert nec == nec_oracle(fw, literal)
        assert poss == poss_oracle(fw, literal)
        if consistent:
            iv = fw.prob_bounds(literal)
            assert iv.lower == em.lp_extrema(kb, nec)[0]
            assert iv.upper == em.lp_extrema(kb, poss)[1]


def test_wide20_bounds_match_masks_and_sampled_worlds():
    """20 distinct annotations over a 20-atom universe, so up to 2^20
    different induced subprograms: bounds, nec and poss come from one walk
    over masks of all the worlds."""
    rng = random.Random("wide20")
    fw = wide20_framework(rng)
    annotations = {fw.annotations.annotation_for(e.label) for e in fw.program.elements}
    assert len(fw.em.atom_universe) == 20 and len(annotations) == 20
    lp = em.world_space(fw.em, fw.max_atoms).lp
    samples = rng.sample(range(fw.space.full.bit_length()), 64)
    seen = set()
    heads = list(dict.fromkeys(e.head for e in fw.program.elements))[:4]
    for literal in heads + [h.complement() for h in heads]:
        iv = fw.prob_bounds(literal)
        nec, poss = fw.masks(literal)
        assert (iv.lower, iv.upper) == (lp.extrema(nec)[0], lp.extrema(poss)[1])
        assert nec & ~poss == 0
        for w in samples:
            world = fw.space.world(w)
            assert nec >> w & 1 == nec_at_oracle(fw, world, literal)
            assert poss >> w & 1 == poss_at_oracle(fw, world, literal)
            seen.add((nec >> w & 1, poss >> w & 1))
    assert seen == {(0, 0), (0, 1), (1, 1)}
