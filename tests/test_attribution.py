from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from inca import attribution, bridge
from inca.am import AMProgram, ProgramIndex
from inca.attribution import apply_evidence, most_probable_suspects
from inca.bridge import InCAFramework
from inca.em import EMKnowledgeBase, ProbabilisticFormula
from inca.errors import (
    InconsistentEvidenceError,
    InconsistentKBError,
    ParseError,
    SortError,
)
from inca.kbformat import parse_evidence
from inca.language import atom_formula, conj, disj

from conftest import GOV, ematom, worm_annotations, worm_em_kb
from generators import random_em_kb
from oracles import lp_bounds_oracle

F = Fraction


@pytest.fixture()
def framework(worm_program):
    return InCAFramework(worm_em_kb(), worm_program, worm_annotations())


def evidence(atom, p=F(1), eps=F(0)):
    return ProbabilisticFormula(atom_formula(atom), p, eps)


def test_evidence_forms():
    certain, hedged = parse_evidence(
        "origIP(mw123sam1,baja).\ngovCybLab(baja) : 1/2 +- 1/4.\n"
    )
    assert certain == evidence(ematom("origIP", "mw123sam1", "baja"))
    assert str(certain) == "origIP(mw123sam1,baja) : 1 +- 0"
    assert hedged == evidence(GOV, F(1, 2), F(1, 4))
    assert hedged.lower == F(1, 4)
    with pytest.raises(ParseError, match="p must be in"):
        parse_evidence("govCybLab(baja) : 2 +- 0.")
    with pytest.raises(ParseError, match="eps must be in"):
        parse_evidence("govCybLab(baja) : 1 +- 1/2.")


def test_most_probable_suspect(framework):
    result = most_probable_suspects(framework, "worm123", ["baja", "mojave"])
    assert result.most_probable == ("baja",)
    by_name = {r.suspect: r.interval for r in result.reports}
    assert (by_name["baja"].lower, by_name["baja"].upper) == (F(1), F(1))
    assert (by_name["mojave"].lower, by_name["mojave"].upper) == (F(0), F(0))
    # reports keep the caller's suspect order
    assert [r.suspect for r in result.reports] == ["baja", "mojave"]


def test_trace_for_most_probable_suspect(framework):
    result = most_probable_suspects(framework, "worm123", ["baja", "mojave"])
    (trace,) = result.traces
    assert trace.suspect == "baja"
    assert str(trace.literal) == "condOp(baja,worm123)"
    assert trace.world in set(framework.worlds)
    assert trace.forest
    assert all(node.mark in ("U", "D") for node in trace.forest)
    assert any(node.mark == "U" for node in trace.forest)


def test_each_suspect_is_walked_once(framework, monkeypatch):
    # the trace reads the top suspect's nec mask that its bounds computed;
    # another test's framework over the same KB may have filled the shared
    # state, so start from an empty one
    bridge._kb_state.cache_clear()
    walks = []
    walk = ProgramIndex.warrant_masks
    monkeypatch.setattr(
        ProgramIndex, "warrant_masks",
        lambda self, *args: walks.append(args[0]) or walk(self, *args),
    )
    result = most_probable_suspects(framework, "worm123", ["baja", "mojave"])
    assert len(result.traces) == 1
    assert [str(literal) for literal in walks] == [
        "condOp(baja,worm123)", "condOp(mojave,worm123)",
    ]


def test_each_conducting_literal_is_built_once(framework, monkeypatch):
    # the top suspect's trace reuses the literal its report was bounded on
    built = []
    build = attribution._conducting_literal
    monkeypatch.setattr(
        attribution, "_conducting_literal",
        lambda *args: built.append(args) or build(*args),
    )
    result = most_probable_suspects(framework, "worm123", ["baja", "mojave"])
    assert len(result.traces) == 1
    assert built == [("baja", "worm123"), ("mojave", "worm123")]


def test_no_trace_without_warranting_world(framework):
    result = most_probable_suspects(framework, "worm123", ["mojave"])
    assert result.most_probable == ("mojave",)
    assert result.traces == ()


def test_duplicate_suspects_collapse(framework):
    result = most_probable_suspects(framework, "worm123", ["baja", "baja", "mojave"])
    assert [r.suspect for r in result.reports] == ["baja", "mojave"]


def test_unknown_suspect_gets_empty_bounds(framework):
    result = most_probable_suspects(framework, "worm123", ["baja", "ghost"])
    by_name = {r.suspect: r.interval for r in result.reports}
    assert (by_name["ghost"].lower, by_name["ghost"].upper) == (F(0), F(0))


def test_tied_suspects_sorted_by_name(framework):
    result = most_probable_suspects(framework, "worm123", ["zeta", "alpha"])
    assert result.most_probable == ("alpha", "zeta")


def test_no_suspects_rejected(framework):
    with pytest.raises(ValueError):
        most_probable_suspects(framework, "worm123", [])


def test_sort_errors(framework):
    with pytest.raises(SortError):
        most_probable_suspects(framework, "worm123", ["worm123"])
    with pytest.raises(SortError):
        most_probable_suspects(framework, "baja", ["mojave"])


def test_apply_evidence_extends_universe(framework):
    origin = ematom("origIP", "mw123sam1", "baja")
    extended = apply_evidence(framework, [evidence(origin)])
    assert extended is not framework
    assert len(extended.em.atom_universe) == 4
    assert extended.em.atom_universe[3] == origin
    assert len(extended.worlds) == 16
    assert framework.em.atom_universe == worm_em_kb().atom_universe  # untouched


def test_formula_evidence_grows_universe_in_first_mention_order(framework):
    seen, origin = ematom("seen", "c"), ematom("origIP", "mw123sam1", "baja")
    known = framework.em.atom_universe
    formulas = [
        ProbabilisticFormula(disj(atom_formula(seen), atom_formula(GOV)), F(9, 10)),
        ProbabilisticFormula(conj(atom_formula(origin), atom_formula(seen)), F(1, 2)),
    ]
    extended = apply_evidence(framework, formulas)
    assert GOV in known
    assert extended.em.atom_universe == known + (seen, origin)
    assert extended.em.formulas == framework.em.formulas + tuple(formulas)


def test_apply_evidence_empty_is_identity(framework):
    assert apply_evidence(framework, []) is framework


def test_attribution_with_evidence(framework):
    origin = evidence(ematom("origIP", "mw123sam1", "baja"))
    result = most_probable_suspects(
        framework, "worm123", ["baja", "mojave"], evidence=[origin]
    )
    assert result.most_probable == ("baja",)


def test_inconsistent_evidence_reports_minimal_conflict(framework):
    bad = evidence(GOV, F(1, 10))
    with pytest.raises(InconsistentEvidenceError) as excinfo:
        apply_evidence(framework, [bad])
    conflict = excinfo.value.conflict
    assert len(conflict) == 2
    texts = {str(f) for f in conflict}
    assert "govCybLab(baja) : 1/10 +- 0" in texts
    assert "govCybLab(baja) : 4/5 +- 1/10" in texts
    assert str(excinfo.value) == (
        "evidence is inconsistent with the knowledge base; conflicting "
        "formulas: govCybLab(baja) : 4/5 +- 1/10; govCybLab(baja) : 1/10 +- 0"
    )


def test_inconsistent_em_is_not_blamed_on_evidence(worm_program):
    p, q = atom_formula(ematom("p", "a")), atom_formula(ematom("q", "a"))
    kb = EMKnowledgeBase((
        ProbabilisticFormula(disj(p, q), F(2, 5), F(0)),
        ProbabilisticFormula(conj(p, q), F(3, 5), F(1, 10)),
    ))
    framework = InCAFramework(kb, worm_program)
    with pytest.raises(InconsistentKBError) as excinfo:
        apply_evidence(framework, [evidence(ematom("r", "a"))])
    assert not isinstance(excinfo.value, InconsistentEvidenceError)
    assert str(excinfo.value) == (
        "no probability distribution satisfies the knowledge base"
    )


def test_conflict_found_among_fourteen_formulas(worm_program):
    # twelve distinct but mutually consistent formulas over a second atom,
    # so the augmented knowledge base has fourteen formulas
    filler_atom = ematom("seen", "c")
    fillers = tuple(
        ProbabilisticFormula(atom_formula(filler_atom), F(1, 2), F(k, 48))
        for k in range(12, 24)
    )
    kb = EMKnowledgeBase(fillers + (
        ProbabilisticFormula(atom_formula(GOV), F(8, 10), F(1, 10)),
    ))
    framework = InCAFramework(kb, worm_program)
    bad = evidence(GOV, F(1, 10))
    with pytest.raises(InconsistentEvidenceError) as excinfo:
        apply_evidence(framework, [bad])
    assert [str(f) for f in excinfo.value.conflict] == [
        "govCybLab(baja) : 4/5 +- 1/10",
        "govCybLab(baja) : 1/10 +- 0",
    ]


def _oracle_consistent(formulas, kb):
    subset = EMKnowledgeBase(tuple(formulas), kb.constraints, kb.atom_universe)
    return lp_bounds_oracle(subset, atom_formula(kb.atom_universe[0])) is not None


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_conflict_is_irreducible(rng):
    em = random_em_kb(rng, max_atom_count=3)
    items = [
        evidence(rng.choice(em.atom_universe), F(rng.randint(0, 4), 4))
        for _ in range(rng.randint(1, 2))
    ]
    framework = InCAFramework(em, AMProgram())
    if not _oracle_consistent(em.formulas, em):
        # No evidence is to blame for an EM that is inconsistent alone.
        with pytest.raises(InconsistentKBError) as excinfo:
            apply_evidence(framework, items)
        assert not isinstance(excinfo.value, InconsistentEvidenceError)
        return
    try:
        extended = apply_evidence(framework, items)
    except InconsistentEvidenceError as exc:
        augmented = em.formulas + tuple(items)
        conflict = exc.conflict
        # a subsequence of the augmented formulas
        rest = iter(range(len(augmented)))
        assert all(any(augmented[i] == f for i in rest) for f in conflict)
        assert conflict
        assert not _oracle_consistent(conflict, em)
        for j in range(len(conflict)):
            assert _oracle_consistent(conflict[:j] + conflict[j + 1:], em)
    else:
        assert _oracle_consistent(extended.em.formulas, em)
