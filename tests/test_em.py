import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from inca.em import (
    EMKnowledgeBase,
    IntegrityConstraint,
    ProbabilisticFormula,
    ProbabilityInterval,
    enumerate_worlds,
    is_consistent,
    lp_bounds,
    lp_extrema,
    max_entailment,
    signatures,
    world_space,
)
from inca.errors import CapacityError, GroundednessError, InconsistentKBError
from inca.kbformat import assemble, parse_kb, parse_query
from inca.language import (
    AM,
    BOTTOM,
    TOP,
    Atom,
    Term,
    atom_formula,
    conj,
    disj,
    neg,
)
from inca import em, simplex
from inca.simplex import maximize, minimize

from conftest import AGE, GOV, MSE, ematom, worm_em_kb
from generators import (
    random_bound,
    random_em_kb,
    random_formula,
    with_constraints,
    witnessed_em_kb,
)
from oracles import (
    allows,
    distribution_probability,
    formula_holds,
    lp_bounds_oracle,
    sample_distributions,
    worlds_oracle,
    worlds_satisfying,
)

F = Fraction


def test_probabilistic_formula_validation():
    f = atom_formula(GOV)
    pf = ProbabilisticFormula(f, F(8, 10), F(1, 10))
    assert (pf.lower, pf.upper) == (F(7, 10), F(9, 10))
    assert str(pf) == "govCybLab(baja) : 4/5 +- 1/10"
    with pytest.raises(ValueError):
        ProbabilisticFormula(f, F(3, 2))
    with pytest.raises(ValueError):
        ProbabilisticFormula(f, F(9, 10), F(2, 10))  # interval leaves [0,1]
    with pytest.raises(GroundednessError):
        ProbabilisticFormula(atom_formula(Atom("p", (Term("X"),))), F(1, 2))


def test_constant_formulas_are_environmental():
    # true and false mention no atom, so their model is None; they are EM
    # formulas all the same, as queries and as statements. A formula over
    # an analytical-model atom is not.
    kb = worm_em_kb()
    for f, p in ((TOP, 1), (BOTTOM, 0), (neg(BOTTOM), 1), (disj(atom_formula(GOV), TOP), 1)):
        assert max_entailment(kb, f) == ProbabilisticFormula(f, p)
    assert is_consistent(EMKnowledgeBase((ProbabilisticFormula(TOP, 1),)))
    assert not is_consistent(EMKnowledgeBase((ProbabilisticFormula(BOTTOM, F(1, 2)),)))
    with pytest.raises(ValueError, match="environmental model"):
        ProbabilisticFormula(atom_formula(Atom("p", (Term("a"),), "am")), F(1, 2))


def test_probabilistic_formula_reads_floats_as_decimals():
    pf = ProbabilisticFormula(atom_formula(GOV), 0.1, 0.05)
    assert (pf.p, pf.eps) == (F(1, 10), F(1, 20))
    assert pf == ProbabilisticFormula(atom_formula(GOV), F(1, 10), F(1, 20))


def test_probability_interval_reads_floats_as_decimals():
    # One float rule for EM values: the printed decimal, not the binary
    # expansion Fraction(0.1) would give.
    interval = ProbabilityInterval(0.1, 0.2)
    assert (interval.lower, interval.upper) == (F(1, 10), F(1, 5))
    assert interval == ProbabilityInterval(F(1, 10), F(1, 5))
    assert str(interval) == "3/20 +- 1/20"


def test_probabilistic_formula_bounds_on_integers():
    f = atom_formula(GOV)
    # The range checks compare numerators and denominators; these sit on
    # each edge.
    for p, eps, lower, upper in [
        (F(1, 3), F(1, 3), F(0), F(2, 3)),
        (F(2, 3), F(1, 3), F(1, 3), F(1)),
        (F(1, 2), F(1, 2), F(0), F(1)),
        (0, 0, F(0), F(0)),
        (1, 0, F(1), F(1)),
        (F(7, 9), F(1, 6), F(11, 18), F(17, 18)),
    ]:
        pf = ProbabilisticFormula(f, p, eps)
        assert (pf.lower, pf.upper) == (lower, upper)
        assert (pf.lower, pf.upper) == (pf.p - pf.eps, pf.p + pf.eps)
    for p in (F(-1, 7), F(8, 7), F(10**20 + 1, 10**20)):
        with pytest.raises(ValueError, match="p must be in"):
            ProbabilisticFormula(f, p)
    for p, eps in [(F(1, 3), F(-1, 9)), (F(1, 3), F(1, 3) + F(1, 10**20)),
                   (F(3, 4), F(26, 100)), (0, F(1, 10**20)), (1, F(1, 10**20))]:
        with pytest.raises(ValueError, match="eps must be in"):
            ProbabilisticFormula(f, p, eps)


def test_integrity_constraint_validation_and_allows():
    ic = IntegrityConstraint((GOV, AGE))
    assert allows(ic, frozenset())
    assert allows(ic, frozenset({GOV}))
    assert not allows(ic, frozenset({GOV, AGE}))
    assert allows(ic, frozenset({GOV, MSE}))
    with pytest.raises(ValueError):
        IntegrityConstraint((GOV,))
    with pytest.raises(ValueError):
        IntegrityConstraint((GOV, GOV))
    with pytest.raises(ValueError):
        IntegrityConstraint((GOV, Atom("q", (Term("a"),), AM)))
    with pytest.raises(ValueError):
        IntegrityConstraint((GOV, Atom("q", (Term("X"),))))


def test_universe_defaults_to_mentioned_atoms_in_order():
    kb = worm_em_kb()
    assert kb.atom_universe == (GOV, AGE, MSE)


def test_explicit_universe_must_cover_mentions():
    f = ProbabilisticFormula(atom_formula(GOV), F(1, 2))
    with pytest.raises(ValueError):
        EMKnowledgeBase((f,), atom_universe=(AGE,))
    with pytest.raises(ValueError):
        EMKnowledgeBase((f,), atom_universe=(GOV, GOV))
    kb = EMKnowledgeBase((f,), atom_universe=(GOV, AGE))
    assert len(enumerate_worlds(kb)) == 4


def test_enumerate_worlds_binary_counting_order():
    kb = worm_em_kb()
    worlds = enumerate_worlds(kb)
    assert len(worlds) == 8
    assert worlds[0] == frozenset()
    assert worlds[1] == frozenset({GOV})
    assert worlds[2] == frozenset({AGE})
    assert worlds[3] == frozenset({GOV, AGE})
    assert worlds[7] == frozenset({GOV, AGE, MSE})


def test_enumerate_worlds_respects_constraints():
    f = ProbabilisticFormula(atom_formula(GOV), F(1, 2), F(1, 2))
    kb = EMKnowledgeBase((f,), (IntegrityConstraint((GOV, AGE)),), (GOV, AGE))
    worlds = enumerate_worlds(kb)
    assert frozenset({GOV, AGE}) not in worlds
    assert len(worlds) == 3


def test_world_space_truth_tables():
    f = ProbabilisticFormula(atom_formula(GOV), F(1, 2), F(1, 2))
    kb = EMKnowledgeBase((f,), (IntegrityConstraint((GOV, AGE)),), (GOV, AGE, MSE))
    space = world_space(kb)
    assert space.full == 0xFF
    assert [space.tables[a] for a in (GOV, AGE, MSE)] == [0xAA, 0xCC, 0xF0]
    assert space.conforming == 0xFF ^ 0x88  # worlds 3 and 7 hold GOV and AGE
    assert (space.table(TOP), space.table(BOTTOM)) == (0xFF, 0)
    assert space.table(conj(atom_formula(GOV), neg(atom_formula(MSE)))) == 0x0A
    assert space.decode(0x0A) == [frozenset({GOV}), frozenset({GOV, AGE})]
    assert space.decode(0) == []
    outside = frozenset({GOV, ematom("other")})
    assert space.mask_of([frozenset({GOV}), outside]) == 0x02
    assert space.number(outside) == 1


def test_capacity_error_over_max_atoms():
    kb = worm_em_kb()
    with pytest.raises(CapacityError):
        enumerate_worlds(kb, max_atoms=2)


def test_interval_midpoint_form():
    iv = ProbabilityInterval(F(1, 2), F(1))
    assert (iv.p, iv.eps) == (F(3, 4), F(1, 4))
    assert str(iv) == "3/4 +- 1/4"
    with pytest.raises(ValueError):
        ProbabilityInterval(F(1), F(0))


def test_single_atom_bounds_equal_declared_band():
    kb = worm_em_kb()
    iv = lp_bounds(kb, atom_formula(GOV))
    assert (iv.lower, iv.upper) == (F(7, 10), F(9, 10))


def test_disjunction_entailment_tightens():
    kb = worm_em_kb()
    answer = max_entailment(kb, disj(atom_formula(GOV), atom_formula(MSE)))
    assert (answer.p, answer.eps) == (F(9, 10), F(1, 10))


def test_conjunction_bounds():
    kb = worm_em_kb()
    iv = lp_bounds(kb, conj(atom_formula(GOV), atom_formula(MSE)))
    # P(g ^ m) >= P(g) + P(m) - 1 >= 0.7 + 0.8 - 1
    assert iv.lower == F(1, 2)
    assert iv.upper == F(9, 10)


def test_query_validation():
    kb = worm_em_kb()
    with pytest.raises(GroundednessError):
        lp_bounds(kb, atom_formula(ematom("unknown")))
    with pytest.raises(GroundednessError):
        lp_bounds(kb, atom_formula(Atom("p", (Term("X"),))))
    with pytest.raises(ValueError):
        lp_bounds(kb, atom_formula(Atom("p", (Term("a"),), AM)))


def test_contradictory_band_pair_is_inconsistent():
    a = atom_formula(ematom("condOp", "krasnovia", "worm123"))
    b = atom_formula(ematom("condOp", "baja", "worm123"))
    kb = EMKnowledgeBase((
        ProbabilisticFormula(disj(a, b), F(4, 10), F(0)),
        ProbabilisticFormula(conj(a, b), F(6, 10), F(1, 10)),
    ))
    assert not is_consistent(kb)
    with pytest.raises(InconsistentKBError):
        lp_bounds(kb, a)


def test_scenario_kb_is_consistent():
    assert is_consistent(worm_em_kb())


def test_worlds_satisfying():
    kb = worm_em_kb()
    worlds = enumerate_worlds(kb)
    hits = worlds_satisfying(worlds, atom_formula(GOV))
    assert len(hits) == 4
    assert all(GOV in w for w in hits)


def test_distribution_bounds_single_distribution():
    kb = worm_em_kb()
    worlds = enumerate_worlds(kb)
    uniform = {w: F(1, 8) for w in worlds}
    assert distribution_probability(uniform, atom_formula(GOV)) == F(1, 2)
    assert distribution_probability(uniform, neg(atom_formula(GOV))) == F(1, 2)
    # Any one distribution that satisfies the KB lies within the bounds.
    for query in (atom_formula(GOV), disj(atom_formula(AGE), neg(atom_formula(MSE)))):
        interval = lp_bounds(kb, query)
        for dist in sample_distributions(kb, limit=3):
            mass = distribution_probability(dist, query)
            assert interval.lower <= mass <= interval.upper


def test_bounds_match_vertex_oracle_on_random_kbs():
    rng = random.Random(2024)
    for _ in range(60):
        kb = random_em_kb(rng)
        query = random_formula(rng, list(kb.atom_universe))
        try:
            iv = lp_bounds(kb, query)
            engine = (iv.lower, iv.upper)
        except InconsistentKBError:
            engine = None
        assert engine == lp_bounds_oracle(kb, query)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_truth_tables_and_bounds_match_per_world_oracles(rng):
    kb = with_constraints(rng, random_em_kb(rng))
    worlds = enumerate_worlds(kb)
    assert worlds == worlds_oracle(kb)
    space = world_space(kb)
    query = random_formula(rng, list(kb.atom_universe))
    for f in [pf.formula for pf in kb.formulas] + [query]:
        table = space.table(f) & space.conforming
        assert space.decode(table) == worlds_satisfying(worlds, f)
        assert space.mask_of(worlds_satisfying(worlds, f)) == table
    try:
        iv = lp_bounds(kb, query)
        engine = (iv.lower, iv.upper)
    except InconsistentKBError:
        engine = None
    assert engine == lp_bounds_oracle(kb, query)


def test_sampled_distributions_conform():
    rng = random.Random(5)
    found = 0
    for _ in range(20):
        kb = random_em_kb(rng, max_atom_count=3)
        for dist in sample_distributions(kb, limit=2):
            found += 1
            assert sum(dist.values()) == 1
            for pf in kb.formulas:
                mass = distribution_probability(dist, pf.formula)
                assert pf.lower <= mass <= pf.upper
    assert found > 10


def _dense_extrema(kb, target):
    """(min, max) mass on target from the LP with one column per world and
    one range per formula."""
    worlds = enumerate_worlds(kb)
    rows = [([1] * len(worlds), 1, 1)]
    for pf in kb.formulas:
        coeffs = [int(formula_holds(w, pf.formula)) for w in worlds]
        rows.append((coeffs, pf.lower, pf.upper))
    objective = [int(w in target) for w in worlds]
    return minimize(objective, rows)[0], maximize(objective, rows)[0]


def test_lp_extrema_matches_dense_per_world_lp_on_padded_kb():
    a, b, c, pad1, pad2 = (ematom(name) for name in ("a", "b", "c", "pad1", "pad2"))
    fa, fb, fc = atom_formula(a), atom_formula(b), atom_formula(c)
    kb = EMKnowledgeBase(
        (
            ProbabilisticFormula(fa, F(1, 2)),  # eps == 0
            ProbabilisticFormula(conj(fc, fa), F(1, 5), F(1, 5)),  # lower == 0
            ProbabilisticFormula(neg(fc), F(3, 4), F(1, 4)),  # upper == 1
            ProbabilisticFormula(disj(fa, fb), F(1, 2), F(1, 2)),  # both
            ProbabilisticFormula(conj(fb, neg(fa)), F(1, 5), F(1, 10)),
        ),
        (IntegrityConstraint((b, c)),),
        (a, b, c, pad1, pad2),
    )
    worlds = enumerate_worlds(kb)
    # Each class of worlds holds every padding combination, so a padding
    # atom splits every class in half.
    split = [w for w in worlds if pad1 in w]
    rng = random.Random(11)
    targets = [
        split,
        split + [frozenset({b, c, pad1})],  # {b, c} breaks oneOf(b, c)
        [w for w in worlds if b in w or pad2 in w],
        rng.sample(worlds, 9),
        [],
        worlds,
    ]
    for target in targets:
        assert lp_extrema(kb, target) == _dense_extrema(kb, frozenset(target))


def test_sixteen_formula_lp_takes_few_pivots(monkeypatch):
    # 16 atoms, 16 formulas, 1,764 columns: Dantzig's rule reaches a feasible
    # basis in 12 pivots, where Bland's rule alone takes 140. A return to
    # Bland-only pricing fails here rather than only slowing CI.
    kb = witnessed_em_kb(random.Random("scale-16"), 16, 16)
    pivots = []
    pivot = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *a: pivots.append(a[5]) or pivot(*a))
    assert is_consistent(kb)
    assert len(pivots) <= 50


def test_dependent_formula_rows_answer_as_before():
    # Under oneOf{a, b}, the row of a v b is the sum of the rows of a and b,
    # so after phase 1 one of the three keeps its zero artificial as its
    # basic variable, through every objective.
    kb = assemble(parse_kb(
        "#em\na(x) : 0.3 +- 0.\nb(x) : 0.2 +- 0.\na(x) v b(x) : 0.5 +- 0.\n"
        "c(x) : 0.5 +- 0.5.\n#ic\noneOf{a(x), b(x)}.\n"
    )).em
    for query, answer in (("a(x) v c(x)", (F(13, 20), F(7, 20))),
                          ("~a(x) ^ ~b(x)", (F(1, 2), F(0)))):
        formula = parse_query(query)
        entailed = max_entailment(kb, formula)
        assert (entailed.p, entailed.eps) == answer
        interval = lp_bounds(kb, formula)
        assert (interval.lower, interval.upper) == lp_bounds_oracle(kb, formula)


@pytest.fixture
def narrow_chunks(monkeypatch):
    """Chunks of 8 worlds, so that a mask over more than 3 atoms spans
    several chunks."""
    monkeypatch.setattr(em, "CHUNK_WORLDS", 8)
    monkeypatch.setattr(em, "CHUNK_CLASS_BITS", 8)
    em.world_space.cache_clear()
    yield
    em.world_space.cache_clear()


def test_lp_extrema_matches_dense_lp_across_chunks(narrow_chunks):
    test_lp_extrema_matches_dense_per_world_lp_on_padded_kb()


def test_signatures_match_per_world_oracle_across_chunks(narrow_chunks):
    rng = random.Random(25)
    for _ in range(24):
        atoms = tuple(ematom(f"s{i}") for i in range(rng.randint(4, 7)))
        formulas = tuple(
            ProbabilisticFormula(random_formula(rng, list(atoms)), *random_bound(rng))
            for _ in range(rng.randint(0, 5))
        )
        one_of = IntegrityConstraint(tuple(rng.sample(atoms, rng.randint(2, 3))))
        for constraints in ((), (one_of,)):
            kb = EMKnowledgeBase(formulas, constraints, atoms)
            space = world_space(kb)
            tables = [space.table(pf.formula) for pf in formulas]
            conforming = worlds_oracle(kb)
            for worlds in (conforming, rng.sample(conforming, len(conforming) // 3), []):
                expected = {
                    sum(formula_holds(w, pf.formula) << k for k, pf in enumerate(formulas))
                    for w in worlds
                }
                assert signatures(space.mask_of(worlds), tables) == expected


def test_eighteen_formula_lp_keeps_no_world_set_per_column():
    # 18 atoms, 18 formulas, 5,400 columns: the LP keeps one int of 18 bits
    # per column. With one 2^18-bit mask per column it peaked at 250 MiB.
    kb = witnessed_em_kb(random.Random("scale-18"), 18, 18)
    em.world_space.cache_clear()
    tracemalloc.start()
    try:
        assert is_consistent(kb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
