"""Whole-pipeline acceptance checks.

Each test covers one numbered criterion and prints a single
``[PASS]``/``[FAIL]`` line, so ``pytest tests/test_acceptance.py -v -s``
doubles as a readable report. Criteria 1-6 and 9 pin the shipped fixture's
answers exactly (rational equality, no tolerance); criteria 7 and 8 are
randomized cross-checks against independent brute-force oracles.
"""

import json
import random
from fractions import Fraction

from jsonschema import validate

from inca.am import BLOCKING, PROPER, AMProgram, index_for
from inca.cli import run_cli
from inca.em import (
    EMKnowledgeBase,
    ProbabilisticFormula,
    is_consistent,
    lp_bounds,
    max_entailment,
)
from inca.errors import InconsistentKBError
from inca.language import atom_formula, conj, disj

from conftest import (
    AGE,
    COND_BAJA,
    FIXTURES,
    GOLDEN,
    GOV,
    IS_CAP,
    MSE,
    ematom,
    labels_of,
    worm_elements,
)
from generators import (
    AM_LITERALS,
    random_am_program,
    random_em_kb,
    random_formula,
    random_framework,
)
from oracles import (
    all_arguments,
    arguments_oracle,
    available_oracle,
    consistent_subsets_oracle,
    lp_bounds_oracle,
    prob_from_distribution,
    sample_distributions,
)
from test_cli import ATTRIBUTE_RESULT_SCHEMA, ENVELOPE_SCHEMA

F = Fraction


def check(n, label, body):
    try:
        body()
        ok, detail = True, ""
    except Exception as exc:
        ok, detail = False, f" ({type(exc).__name__}: {exc})"
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}{detail}")
    assert ok, f"criterion {n}: {label}{detail}"


def world(*atoms):
    return frozenset(atoms)


# The seven arguments the fixture gives rise to for the baja/worm123 dispute,
# keyed by their full support labels.
NAMED_ARGUMENTS = {
    "A1": frozenset({"th1a", "de1a"}),
    "A2": frozenset({"ph1", "ph2", "de4", "om2a", "th1a", "th2"}),
    "A3": frozenset({"ph1", "de2", "de4"}),
    "A4": frozenset({"ph2", "de3", "th2"}),
    "A5": frozenset({"ph1", "de4"}),
    "A6": frozenset({"th1b", "de1b", "om1a"}),
    "A7": frozenset({"ph3", "de5a"}),
}

# Complete attack relation restricted to the seven named arguments. The four
# condOp arguments clash head-on with A6 (both directions); A5 and A7 clash
# head-on; A7 additionally attacks A2 and A3 at their isCap subargument.
ATTACK_PAIRS = {
    ("A1", "A6"), ("A6", "A1"),
    ("A2", "A6"), ("A6", "A2"),
    ("A3", "A6"), ("A6", "A3"),
    ("A4", "A6"), ("A6", "A4"),
    ("A5", "A7"), ("A7", "A5"),
    ("A7", "A2"), ("A7", "A3"),
}

# Defeaters among the named arguments: A6 is strictly preferred to the three
# presumptive condOp arguments, everything else blocks.
NAMED_DEFEATS = {
    "A1": {("A6", BLOCKING)},
    "A2": {("A6", PROPER), ("A7", BLOCKING)},
    "A3": {("A6", PROPER), ("A7", BLOCKING)},
    "A4": {("A6", PROPER)},
    "A5": {("A7", BLOCKING)},
    "A6": {("A1", BLOCKING)},
    "A7": {("A5", BLOCKING)},
}


def test_criterion_1(parsed_framework):
    def body():
        query = disj(atom_formula(GOV), atom_formula(MSE))
        iv = max_entailment(parsed_framework.em, query)
        assert iv.p == F(9, 10) and iv.eps == F(1, 10)

    check(1, "or-query entailment is exactly 0.9 +- 0.1", body)


def test_criterion_2(parsed_framework):
    def body():
        iv = parsed_framework.prob_bounds(IS_CAP)
        assert iv.p == F(3, 4) and iv.eps == F(1, 4)
        assert iv.lower == F(1, 2) and iv.upper == 1

    check(2, "capability bounds are exactly 0.75 +- 0.25", body)


def test_criterion_3(parsed_framework):
    def body():
        nec = set(parsed_framework.nec_set(IS_CAP))
        assert nec == {world(GOV, MSE), world(GOV), world(MSE)}
        poss = set(parsed_framework.poss_set(IS_CAP))
        assert poss == {
            world(GOV), world(MSE), world(GOV, MSE),
            world(GOV, AGE), world(AGE, MSE), world(GOV, AGE, MSE),
        }

    check(3, "necessary and possible world sets match the fixture", body)


def test_criterion_4():
    def body():
        index = index_for(AMProgram(worm_elements()))
        supports = {frozenset(labels_of(a)) for a in index.arguments_for(COND_BAJA)}
        assert supports == {
            NAMED_ARGUMENTS[n] for n in ("A1", "A2", "A3", "A4")
        }

        named = {}
        for a in all_arguments(index):
            for name, labels in NAMED_ARGUMENTS.items():
                if frozenset(labels_of(a)) == labels:
                    named[name] = a
        assert set(named) == set(NAMED_ARGUMENTS)

        got_attacks = {
            (x, y)
            for x in named for y in named
            if x != y and index.attacks(named[x], named[y])
        }
        assert got_attacks == ATTACK_PAIRS

        for loser in ("A2", "A3", "A4"):
            assert index.prefers(named["A6"], named[loser])
            assert not index.prefers(named[loser], named["A6"])
        for x, y in (("A1", "A6"), ("A5", "A7")):
            assert not index.prefers(named[x], named[y])
            assert not index.prefers(named[y], named[x])

        reverse = {a: n for n, a in named.items()}
        for target, expected in NAMED_DEFEATS.items():
            got = {
                (reverse[d], kind)
                for d, kind in index.defeaters(named[target])
                if d in reverse
            }
            assert got == expected

    check(4, "fixture arguments, attacks, and defeats reproduce exactly", body)


def test_criterion_5(parsed_framework):
    def body():
        a = atom_formula(ematom("condOp", "krasnovia", "worm123"))
        b = atom_formula(ematom("condOp", "baja", "worm123"))
        bad = EMKnowledgeBase(
            formulas=(
                ProbabilisticFormula(disj(a, b), F(2, 5), F(0)),
                ProbabilisticFormula(conj(a, b), F(3, 5), F(1, 10)),
            ),
        )
        assert not is_consistent(bad)
        assert is_consistent(parsed_framework.em)

    check(5, "inconsistency is detected; the fixture model is consistent", body)


def test_criterion_6(parsed_framework):
    def body():
        fw = parsed_framework
        (a5,) = fw.index.arguments_for(IS_CAP)
        assert frozenset(labels_of(a5)) == NAMED_ARGUMENTS["A5"]
        valid_on = {w for w in fw.worlds if fw.available(a5) >> fw.space.number(w) & 1}
        assert valid_on == {w for w in fw.worlds if available_oracle(fw, a5, w)}
        assert valid_on == {
            world(GOV), world(MSE), world(GOV, MSE),
            world(GOV, AGE), world(AGE, MSE), world(GOV, AGE, MSE),
        }
        warranted_on = {w for w in fw.worlds if fw.warrants_in(w, IS_CAP)}
        assert warranted_on == {world(GOV), world(MSE), world(GOV, MSE)}

    check(6, "argument validity and per-world warrant match the fixture", body)


def test_criterion_7():
    def body():
        rng = random.Random(4242)
        for _ in range(200):
            kb = random_em_kb(rng)
            query = random_formula(rng, list(kb.atom_universe))
            try:
                iv = lp_bounds(kb, query)
                engine = (iv.lower, iv.upper)
            except InconsistentKBError:
                engine = None
            assert engine == lp_bounds_oracle(kb, query)

        rng = random.Random(1717)
        for _ in range(100):
            program = random_am_program(rng)
            index = index_for(program)
            table = consistent_subsets_oracle(program)
            for literal in AM_LITERALS:
                expected = arguments_oracle(table, literal)
                got = {a.defeasible_part for a in index.arguments_for(literal)}
                assert got == expected

    check(7, "engine matches brute-force oracles on random inputs", body)


def test_criterion_8():
    def body():
        rng = random.Random(31415)
        literal_checks = 0
        for _ in range(100):
            fw = random_framework(rng)
            distributions = sample_distributions(
                fw.em, max_atoms=fw.max_atoms, limit=2
            )
            for literal in AM_LITERALS:
                if not fw.index.arguments_for(literal):
                    continue
                literal_checks += 1
                nec = set(fw.nec_set(literal))
                poss = set(fw.poss_set(literal))
                assert nec <= poss
                assert not (nec & set(fw.nec_set(literal.complement())))
                bounds = fw.prob_bounds(literal)
                assert 0 <= bounds.lower <= bounds.upper <= 1
                for dist in distributions:
                    iv = prob_from_distribution(fw, literal, dist)
                    assert bounds.lower <= iv.lower <= iv.upper <= bounds.upper
        assert literal_checks > 100

    check(8, "interval invariants hold on random frameworks", body)


def test_criterion_9(capsys, monkeypatch):
    def body():
        monkeypatch.chdir(FIXTURES)

        code = run_cli(
            ["entail", "worm123.inca", "-q", "govCybLab(baja) v mseTT(baja,2)"]
        )
        out = capsys.readouterr().out
        assert code == 0 and out == (GOLDEN / "entail.txt").read_text()

        code = run_cli(["bounds", "worm123.inca", "-l", "isCap(baja,worm123)"])
        out = capsys.readouterr().out
        assert code == 0 and out == (GOLDEN / "bounds.txt").read_text()

        code = run_cli(
            ["attribute", "worm123.inca", "--op", "worm123",
             "--suspects", "baja,mojave", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0 and out == (GOLDEN / "attribute.json").read_text()
        payload = json.loads(out)
        validate(payload, ENVELOPE_SCHEMA)
        validate(payload["result"], ATTRIBUTE_RESULT_SCHEMA)

        for argv in (
            ["entail", "worm123.inca", "-q", "govCybLab(baja) v mseTT(baja,2)",
             "--json"],
            ["bounds", "worm123.inca", "-l", "isCap(baja,worm123)", "--json"],
        ):
            assert run_cli(argv) == 0
            validate(json.loads(capsys.readouterr().out), ENVELOPE_SCHEMA)

    check(9, "golden CLI outputs are byte-identical and JSON is schema-valid", body)
