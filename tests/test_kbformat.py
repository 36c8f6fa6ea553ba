import contextlib
import gc
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from inca import bridge, kbformat
from inca.am import WARRANTED, index_for
from inca.em import IntegrityConstraint, max_entailment
from inca.errors import AssemblyError, GroundednessError, ParseError
from inca.kbformat import (
    _FragmentParser,
    KBDocument,
    _parse_error,
    _tokenize,
    assemble,
    format_fraction,
    load_kb,
    parse_evidence,
    parse_kb,
    parse_literal_text,
    parse_query,
    parse_world_spec,
    render_kb,
    render_world,
)
from inca.language import (
    F_ATOM,
    TOP,
    Atom,
    Literal,
    Term,
    _postorder,
    atom_formula,
    conj,
    disj,
    formula_atoms,
    neg,
    render_formula,
)

from conftest import AGE, FIXTURES, GOV, MSE, ematom, lit
from generators import random_am_program, random_em_kb
from oracles import tokens_oracle

F = Fraction


# -- fraction formatting --------------------------------------------------------


def test_format_fraction_decimal_when_exact():
    assert format_fraction(F(9, 10)) == "0.9"
    assert format_fraction(F(3, 4)) == "0.75"
    assert format_fraction(F(-1, 8)) == "-0.125"
    assert format_fraction(F(7, 20)) == "0.35"
    assert format_fraction(F(1)) == "1"
    assert format_fraction(F(0)) == "0"
    assert format_fraction(F(2)) == "2"


def test_format_fraction_keeps_ratio_otherwise():
    assert format_fraction(F(1, 3)) == "1/3"
    assert format_fraction(F(-5, 12)) == "-5/12"


@given(st.fractions(min_value=-4, max_value=4))
def test_format_fraction_round_trips(value):
    assert F(format_fraction(value)) == value


# -- document parsing ------------------------------------------------------------


def test_fixture_parses(worm_doc):
    assert len(worm_doc.em) == 3
    assert len(worm_doc.am) == 17
    assert len(worm_doc.af) == 2
    assert worm_doc.ic == ()
    assert worm_doc.universe is None
    assert worm_doc.sorts == (
        ("actor", "baja"), ("actor", "krasnovia"), ("actor", "mojave"),
        ("operation", "worm123"),
    )


def test_fixture_round_trips_byte_identically(worm_doc):
    text = (FIXTURES / "worm123.inca").read_text()
    assert render_kb(worm_doc) == text
    assert parse_kb(text) == worm_doc


def test_render_is_idempotent(worm_doc):
    once = render_kb(worm_doc)
    assert render_kb(parse_kb(once)) == once


def test_operator_precedence():
    f = parse_query("govCybLab(baja) v cybCapAge(baja,5) ^ mseTT(baja,2)")
    assert f == disj(atom_formula(GOV), conj(atom_formula(AGE), atom_formula(MSE)))
    g = parse_query("~(govCybLab(baja) v cybCapAge(baja,5))")
    assert g == neg(disj(atom_formula(GOV), atom_formula(AGE)))
    h = parse_query("~govCybLab(baja) ^ cybCapAge(baja,5)")
    assert h == conj(neg(atom_formula(GOV)), atom_formula(AGE))


def test_parse_query_constants_and_parens():
    assert parse_query("true").op == "top"
    assert parse_query("false").op == "bottom"
    parenthesized = parse_query("(govCybLab(baja) v cybCapAge(baja,5)) ^ mseTT(baja,2)")
    assert parenthesized == conj(
        disj(atom_formula(GOV), atom_formula(AGE)), atom_formula(MSE)
    )


def test_parse_literal_text():
    assert parse_literal_text("isCap(baja,worm123)") == lit("isCap", "baja", "worm123")
    assert parse_literal_text("neg expCw(baja)") == lit("expCw", "baja", negated=True)


def test_parse_world_spec():
    assert parse_world_spec("") == ()
    atoms = parse_world_spec("govCybLab(baja),mseTT(baja,2)")
    assert atoms == (GOV, MSE)


def test_parse_evidence():
    items = parse_evidence("origIP(mw123sam1,baja).\nmseTT(baja,2) : 0.5 +- 0.1.\n")
    assert len(items) == 2
    assert items[0].formula == atom_formula(ematom("origIP", "mw123sam1", "baja"))
    assert (items[0].p, items[0].eps) == (F(1), F(0))
    assert items[1].formula == atom_formula(MSE)
    assert (items[1].p, items[1].eps) == (F(1, 2), F(1, 10))
    assert parse_evidence("") == ()


def test_parse_evidence_fixture_file():
    items = parse_evidence((FIXTURES / "origip.evidence").read_text())
    assert len(items) == 1


def test_rational_forms():
    doc = parse_kb("#em\ngovCybLab(baja) : 4/5 +- 1/10.\n")
    assert doc.em[0].p == F(4, 5)
    assert doc.em[0].eps == F(1, 10)
    doc2 = parse_kb("#em\ngovCybLab(baja) : 0.8 +- 0.1.\n")
    assert doc2.em == doc.em


@pytest.mark.parametrize("text", [
    "007.50", "0.0", "000", "1.000", "0.123456789012345678901234567890",
    "123456789012345678901234567890.5", "7/21", "007/050",
])
def test_decimal_literals_are_exact(text):
    # A decimal is read as its digits over a power of ten; each literal must
    # equal Fraction's own reading of the same text.
    parser = _FragmentParser(text)
    assert parser.parse_rational() == Fraction(text)
    assert parser.peek() == ""


def test_long_decimal_probability_is_exact():
    p = "0." + "3" * 30
    doc = parse_kb(f"#em\ngovCybLab(baja) : {p} +- 0.{'0' * 29}1.\n")
    assert doc.em[0].p == Fraction(p)
    assert doc.em[0].eps == Fraction(1, 10**30)
    assert doc.em[0].lower == Fraction(p) - Fraction(1, 10**30)


def test_parse_error_positions():
    with pytest.raises(ParseError) as excinfo:
        parse_kb("#em\ngovCybLab(baja : 0.8 +- 0.1.\n")
    assert excinfo.value.line == 2
    assert excinfo.value.column > 1
    assert "line 2" in str(excinfo.value)


@pytest.mark.parametrize(
    "parse, text, line, column, message",
    [
        (
            parse_kb, "#em\np(a) : 0.5 +- 0.\n\t$ q(a) : 0.5 +- 0.\n",
            3, 2, "unexpected character '$'",
        ),
        (parse_kb, "#em\np(a) : 0.5 +- 0.\n  #bogus\n", 3, 3, "unknown section #bogus"),
        (parse_kb, "#em\n# comment\n", 2, 1, "expected a section name after '#'"),
        (
            parse_kb, "#em\r\np(a) : 0.5 +- 0.\r\nq(a : 0.5 +- 0.\r\n",
            3, 5, "expected ')', found ':'",
        ),
        (parse_kb, "#em\np(a) : 0.5 +- 0", 2, 16, "expected '.', found 'end of input'"),
        (parse_kb, "#em\np : .5 +- 0.\n", 2, 5, "expected a number"),
        (parse_kb, "#em\nq(a) : 0.5 +- 0.\np(1.5) : 0.5 +- 0.\n", 3, 1,
         "bad term name: '1.5'"),
        (parse_kb, "#em\nX : 0.5 +- 0.\n", 2, 1, "bad predicate name: 'X'"),
        (parse_kb, "#em\n  p(X) ^ q(a) : 0.5 +- 0.\n", 2, 3,
         "formula must be ground: p(X) ^ q(a)"),
        (parse_kb, "#em\np(a) : 1.5 +- 0.\n", 2, 16, "p must be in [0, 1], got 3/2"),
        (parse_kb, "#ic\noneOf{p(a), q(1.5)}.\n", 2, 1, "bad term name: '1.5'"),
        (parse_kb, "#am\nf1 : fact p(a).\n#af\nf1 : Q(a).\n", 4, 1,
         "bad predicate name: 'Q'"),
        (parse_kb, "#universe\np(a), q(1.5).\n", 2, 1, "bad term name: '1.5'"),
        # The command-line fragment parsers report the bad atom.
        (parse_query, "p(1.5)", 1, 1, "bad term name: '1.5'"),
        (parse_query, "p(a) ^ ~Q(a)", 1, 9, "bad predicate name: 'Q'"),
        (parse_literal_text, "neg isCap(1.5,x)", 1, 5, "bad term name: '1.5'"),
        (parse_world_spec, "p(a), q(1.5)", 1, 7, "bad term name: '1.5'"),
        (parse_evidence, "p(a).\n  q(1.5) : 1/2 +- 0.\n", 2, 3,
         "bad term name: '1.5'"),
        (parse_evidence, "p(a).\n  q(X) : 1/2 +- 0.\n", 2, 3,
         "formula must be ground: q(X)"),
        # The parser finds an atom seen before by its raw tokens; an atom
        # read well-formed and then again with another arity or a malformed
        # argument list misses and is reported as a first use would be.
        (parse_kb, "#em\np(a) : 0.5 +- 0.\np(a,b) : 0.5 +- 0.\n", 3, 1,
         "p used with 2 argument(s), earlier with 1"),
        (parse_kb, "#em\np(a) : 0.5 +- 0.\np(a b) : 0.5 +- 0.\n", 3, 5,
         "expected ')', found 'b'"),
        (parse_kb, "#em\np(a) : 0.5 +- 0.\np(a,) : 0.5 +- 0.\n", 3, 5,
         "expected a constant, variable, or number"),
        (parse_kb, "#em\np : 0.5 +- 0.\np(a : 0.5 +- 0.\n", 3, 5,
         "expected ')', found ':'"),
        (parse_kb, "#am\nf1 : fact p(a).\nf2 : fact p(a, b).\n", 3, 11,
         "p used with 2 argument(s), earlier with 1"),
        (parse_kb, "#am\nf1 : fact p(a).\nf2 : fact neg p(a b).\n", 3, 19,
         "expected ')', found 'b'"),
        (parse_kb, "#am\nf1 : fact p(a).\nr1 : q(a) -< p(a,).\n", 3, 18,
         "expected a constant, variable, or number"),
        (parse_kb, "#am\nf1 : fact p(a).\nf2 : fact p(a\n", 4, 1,
         "expected ')', found 'end of input'"),
        (parse_kb, "#em\np(a) : 1/2.5 +- 0.\n", 2, 10, "expected an integer denominator"),
        (parse_kb, "#am\nd1[(] : fact p(a).\n", 2, 4,
         "expected a constant inside the label"),
        (parse_kb, "p(a) : 0.5 +- 0.\n", 1, 1, "statements must appear inside a section"),
        (parse_kb, "#sorts\nagent baja.\n", 2, 1, "expected 'actor' or 'operation'"),
        (parse_kb, "#ic\nnoneOf{p(a), q(a)}.\n", 2, 1, "expected 'oneOf'"),
        (parse_kb, "#universe\np(a).\n#universe\nq(a).\n", 4, 1,
         "the universe is already given"),
        (parse_kb, "#am\nr1 : q(a) p(a).\n", 2, 11, "expected '<-' or '-<'"),
        (parse_kb, "#am\nr1 : q(X) -< p(X), X != b.\n", 2, 25,
         "inequality guards compare variables"),
        (parse_kb, "#am\nr1 : q(a) -< 5.\n", 2, 14, "expected a predicate name"),
        (parse_query, "p(a) q(a)", 1, 6, "unexpected trailing input"),
        (parse_literal_text, "p(a) q", 1, 6, "unexpected trailing input"),
        (parse_world_spec, "p(a), q(a) r", 1, 12, "unexpected trailing input"),
    ],
    ids=["tab", "unknown-section", "bare-hash", "crlf", "eof", "leading-dot",
         "em-term", "em-predicate", "em-not-ground", "em-interval",
         "ic-term", "af-predicate", "universe-term", "query-term",
         "query-predicate", "literal-term", "world-term", "evidence-term",
         "evidence-not-ground", "seen-then-arity", "seen-then-no-comma",
         "seen-then-trailing-comma", "nullary-then-unclosed", "am-seen-then-arity",
         "am-seen-then-no-comma", "am-seen-then-trailing-comma",
         "am-seen-then-unclosed", "fractional-denominator", "label-inner",
         "outside-section", "sort-kind", "constraint-kind", "second-universe",
         "rule-arrow", "guard-constant", "body-number", "query-trailing",
         "literal-trailing", "world-trailing"],
)
def test_parse_error_exact_position(parse, text, line, column, message):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)
    assert str(excinfo.value) == f"line {line}, column {column}: {message}"


def test_parse_error_cases():
    bad = [
        "#bogus\n",                                   # unknown section
        "#em\ngovCybLab(baja) : 1.2 +- 0.1.\n",       # p out of range
        "#em\ngovCybLab(baja) : 1/0 +- 0.\n",         # zero denominator
        "#em\ngovCybLab(baja) : 0.5/2 +- 0.\n",       # mixed rational form
        "#em\ngovCybLab(baja) : 0.5 +- 0\n",          # missing final period
        "#am\nr1 : isCap(baja,worm123) -< Foo.\n",    # bare uppercase body item
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_kb(text)


@pytest.mark.parametrize(
    "text, line, snippet",
    [
        # splitlines() would also break at \x0b, \x0c and \u2028
        ("#em\x0bq(a) : 0.5 +- 0.\np(a : 0.5 +- 0.\n", 2, "p(a : 0.5 +- 0."),
        ("#em\x0cq(a) : 0.5 +- 0.\u2028p(a : 0.5 +- 0.\n", 1,
         "#em\x0cq(a) : 0.5 +- 0.\u2028p(a : 0.5 +- 0."),
        ("#em\r\np(a) : 0.5 +- 0.\r\n\t$ q(a).\r\n", 3, "\t$ q(a)."),
        ("#em\np(a) : 0.5 +- 0.\n  #bogus\n", 3, "  #bogus"),
        ("#em\n# comment\n", 2, "# comment"),
        ("#em\np(a) : 0.5 +- 0\n", 3, ""),
    ],
    ids=["vertical-tab", "form-feed", "character", "section", "bare-hash", "eof"],
)
def test_parse_error_snippet_is_the_reported_line(text, line, snippet):
    with pytest.raises(ParseError) as excinfo:
        parse_kb(text)
    assert (excinfo.value.line, excinfo.value.snippet) == (line, snippet)


# Inserted characters: the tokenizer's error cases, its whitespace (a lone
# \r and \x0b included), symbol halves, and the start of each token kind.
_NOISE = ["#", "#em", "#x", "$", "\t", "\r", "\r\n", "\n", " ", "\x0b", "é", "٣",
          "+", "-", "<", "!", ".", ",", "(", ")", "a", "X", "_", "7", "0.5"]


@st.composite
def mutated_kb_texts(draw):
    if draw(st.booleans()):
        text = (FIXTURES / "worm123.inca").read_text()
    else:
        rng = random.Random(draw(st.integers(0, 2**16)))
        kb, program = random_em_kb(rng), random_am_program(rng)
        text = render_kb(KBDocument(em=kb.formulas, am=program.elements))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, max(len(text) - 1, 0)))
        if text and draw(st.booleans()):
            text = text[:at] + text[at + 1:]
        else:
            noise = draw(st.one_of(st.sampled_from(_NOISE), st.characters()))
            text = text[:at] + noise + text[at:]
    return text + draw(st.sampled_from(["", "\n", "\r\n", " "]))


@settings(max_examples=150, deadline=None)
@given(mutated_kb_texts())
def test_tokenizer_matches_oracle(text):
    try:
        expected = tokens_oracle(text)
    except ParseError as oracle_error:
        want = (oracle_error.line, oracle_error.column, str(oracle_error))
        for parse in (_tokenize, parse_kb):  # it wins over any syntax error
            with pytest.raises(ParseError) as excinfo:
                parse(text)
            assert (excinfo.value.line, excinfo.value.column, str(excinfo.value)) == want
        return
    tokens = _tokenize(text)
    assert tokens == [word for _, word, _, _ in expected] + [""]
    for kind, word, _, _ in expected[:-1]:
        # the parser tells kinds apart by these tests alone
        assert word.isidentifier() == (kind == "IDENT")
        assert word[:1].isdecimal() == (kind == "NUMBER")
    n = len(expected) - 1  # the index of the end of input
    for i in sorted({*range(0, n, max(1, n // 40)), n - 1, n} - {-1}):
        error = _parse_error(text, i, "message")
        assert (error.line, error.column) == expected[i][2:]


def _mentioned_atoms(doc):
    atoms = [a for f in doc.em for a in formula_atoms(f.formula)]
    atoms += [a for _, f in doc.af for a in formula_atoms(f)]
    return atoms + [lit.atom for lit in _mentioned_literals(doc)]


def _mentioned_literals(doc):
    return [lit for e in doc.am for lit in (e.head, *e.body)]


def _atom_formulas(doc):
    formulas = [f.formula for f in doc.em] + [f for _, f in doc.af]
    return [n for f in formulas for n in _postorder(f) if n.op == F_ATOM]


def test_equal_atoms_of_one_parse_are_one_object():
    doc = parse_kb(
        "#em\np2(c0) : 0.5 +- 0.\n"
        "#am\nf1 : fact p2(c0).\nr1 : q(c0) -< p2(c0).\n"
        "r2 : neg q(c0) -< p2( c0 ), neg q(c0).\n"
        "#af\nr1 : p2(c0) v ~p2(c0).\n"
    )
    em_atom = doc.em[0].formula.atom
    assert doc.af[0][1].parts[0].atom is em_atom
    assert doc.af[0][1].parts[1].parts[0].atom is em_atom
    assert doc.am[0].head.atom is doc.am[1].body[0].atom
    assert doc.am[0].head.atom is not em_atom  # another model
    assert doc.am[1].head.atom.args[0] is em_atom.args[0]
    # literals: one per (atom, negated); whitespace is no part of the key
    assert doc.am[0].head is doc.am[1].body[0] is doc.am[2].body[0]
    assert doc.am[2].head is doc.am[2].body[1]
    assert doc.am[2].head.atom is doc.am[1].head.atom
    assert doc.am[2].head is not doc.am[1].head
    # atom formulas: one per atom, across sections
    em_formula = doc.em[0].formula
    assert doc.af[0][1].parts[0] is em_formula
    assert doc.af[0][1].parts[1].parts[0] is em_formula


@pytest.mark.parametrize(
    "text",
    [
        "#universe\n" + ", ".join(f"u{i}(a)" for i in range(2_000)) + ".\n",
        "#ic\n" + "".join(f"oneOf{{a{i}, b{i}}}.\n" for i in range(1_000)),
    ],
    ids=["universe", "oneOf-pairs"],
)
def test_atoms_are_collected_without_pairwise_compares(monkeypatch, text):
    # 2,000 distinct atoms: a scan of a list of those seen before would make
    # 1,999,000 compares; dicts and sets make none.
    calls = []
    equal = Atom.__eq__
    monkeypatch.setattr(Atom, "__eq__", lambda a, b: calls.append(1) or equal(a, b))
    framework = assemble(parse_kb(text))
    assert len(framework.em.atom_universe) == 2_000
    assert len(calls) == 0


def _values(doc):
    """The terms, atoms, literals and atom formulas of doc, in document
    order."""
    atoms = _mentioned_atoms(doc)
    return [*atoms, *(t for a in atoms for t in a.args),
            *_mentioned_literals(doc), *_atom_formulas(doc)]


def test_parses_share_the_last_documents_values(monkeypatch):
    text = (FIXTURES / "worm123.inca").read_text()
    first = parse_kb(text)
    built = []
    for cls in (Term, Atom, Literal):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init:
                            built.append(self) or init(self, *args))
    second = parse_kb(text)
    monkeypatch.undo()
    assert built == []
    assert first is not second and first == second
    assert list(map(id, _values(first))) == list(map(id, _values(second)))
    # the assembled knowledge base and program compare and hash alike
    one, two = assemble(first), assemble(second)
    assert one.em == two.em and hash(one.em) == hash(two.em)
    assert one.program == two.program and hash(one.program) == hash(two.program)


def test_only_the_last_document_is_kept():
    doc = parse_kb("#em\nonly_here(c0) : 0.5 +- 0.\n#am\nf1 : fact held(c0).\n")
    atom, literal = weakref.ref(doc.em[0].formula.atom), weakref.ref(doc.am[0].head)
    del doc
    parse_kb("#em\nother(c0) : 0.5 +- 0.\n")
    gc.collect()
    assert atom() is None and literal() is None


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_kb, "#em\np(a) : 0.5 +- 0.\nq(b) : 2 +- 0.\n"),
        (parse_kb, "#am\nf1 : fact p(a).\nf1 : fact p(a).\n"),
        (parse_query, "p(a) ^ ~q(b"),
        (parse_query, "p(a) ^ ~q(b)"),
        (parse_literal_text, "neg condOp(baja,worm123)"),
        (parse_world_spec, "govCybLab(baja), p(a)"),
        (parse_evidence, "p(a).\nq(b) : 1/2 +- 1/4.\n"),
    ],
)
def test_a_failed_or_fragment_parse_leaves_the_tables(parse, text):
    parse_kb((FIXTURES / "worm123.inca").read_text())
    tables = kbformat._last_tables
    contents = [dict(table) for table in tables]
    with contextlib.suppress(ParseError):
        parse(text)
    assert kbformat._last_tables is tables
    assert [dict(table) for table in tables] == contents


def test_arity_is_checked_against_reused_atoms():
    parse_kb("#em\np(a) : 0.5 +- 0.\n")
    with pytest.raises(ParseError) as excinfo:
        parse_kb("#em\np(a,b) : 0.5 +- 0.\np(a) : 0.5 +- 0.\n")
    assert (excinfo.value.line, excinfo.value.column) == (3, 1)
    assert str(excinfo.value).endswith("p used with 1 argument(s), earlier with 2")


def _outcome(parse, text):
    """What parse makes of text: its value, or its error's type, message
    and position."""
    try:
        value = parse(text)
    except (ParseError, GroundednessError) as exc:
        where = getattr(exc, "line", None), getattr(exc, "column", None)
        return type(exc), str(exc), where, getattr(exc, "snippet", None)
    return value, repr(value)


def _fragments(text):
    """Each line of text, and its pieces between ':', '.', '<-' and '-<'."""
    lines = text.splitlines()
    pieces = [p.strip() for line in lines for p in re.split(r"[:.]|<-|-<", line)]
    return [*lines, *pieces]


_FRAGMENT_PARSERS = (parse_query, parse_literal_text, parse_world_spec, parse_evidence)


@settings(max_examples=60, deadline=None)
@given(mutated_kb_texts(), mutated_kb_texts())
def test_the_last_document_changes_no_outcome(before, text):
    def after(last):
        parse_kb("")
        with contextlib.suppress(ParseError):
            parse_kb(last)
        outcomes = [_outcome(parse_kb, text)]
        for fragment in _fragments(text):
            outcomes += [_outcome(parse, fragment) for parse in _FRAGMENT_PARSERS]
        return outcomes

    assert after(before) == after("")


def test_predicate_arity_is_checked_per_model():
    with pytest.raises(ParseError):
        parse_kb("#em\np(a) : 0.5 +- 0.\np(a,b) : 0.5 +- 0.\n")
    # the same name may have different shapes in the two models
    doc = parse_kb("#em\np(a) : 0.5 +- 0.\n#am\nf1 : fact p(a,b).\n")
    assert doc.am[0].head.atom.args[1].name == "b"


def test_duplicate_am_labels_rejected():
    text = "#am\nf1 : fact p(a).\nf1 : fact q(a).\n"
    with pytest.raises(ParseError):
        parse_kb(text)
    element = parse_kb("#am\nf1 : fact p(a).\n").am[0]
    with pytest.raises(AssemblyError):
        KBDocument(am=(element, element))


def test_af_must_reference_known_labels():
    with pytest.raises(ParseError):
        parse_kb("#em\ngovCybLab(baja) : 0.5 +- 0.\n#af\nnope : govCybLab(baja).\n")
    # an annotation for a schematic label covers its instances
    doc = parse_kb(
        "#am\nf1 : fact p(a).\n#em\ng(c) : 0.5 +- 0.\n#af\nf1 : g(c).\n"
    )
    assert doc.af[0][0] == "f1"


def test_duplicate_annotation_rejected():
    text = (
        "#am\nf1 : fact p(a).\n#em\ng(c) : 0.5 +- 0.\n"
        "#af\nf1 : g(c).\nf1 : ~g(c).\n"
    )
    with pytest.raises(ParseError):
        parse_kb(text)


def test_universe_section():
    doc = parse_kb(
        "#em\ngovCybLab(baja) : 0.5 +- 0.\n"
        "#universe\ngovCybLab(baja), extra(c).\n"
    )
    assert doc.universe is not None
    assert len(doc.universe) == 2
    with pytest.raises(ParseError):
        parse_kb("#universe\np(c), p(c).\n")


def test_constraint_prints_the_syntax_the_parser_reads():
    c = IntegrityConstraint((GOV, AGE, MSE))
    assert parse_kb(f"#ic\n{c}.\n").ic == (c,)


@pytest.mark.parametrize(
    "doc",
    [
        KBDocument(universe=()),
        KBDocument(ic=(IntegrityConstraint((GOV, MSE)),), universe=(MSE, AGE, GOV)),
    ],
    ids=["empty-universe", "constraint-and-universe"],
)
def test_documents_round_trip(doc):
    assert parse_kb(render_kb(doc)) == doc


def test_sorts_redeclaration_rejected():
    with pytest.raises(ParseError):
        parse_kb("#sorts\nactor baja.\noperation baja.\n")


def test_guards_parse_and_render():
    text = (
        "#am\n"
        "om1 : neg condOp(X,O) <- condOp(Y,O), X != Y.\n"
    )
    doc = parse_kb(text)
    element = doc.am[0]
    assert element.guards == (("X", "Y"),)
    assert "X != Y" in render_kb(doc)


def test_empty_document():
    doc = parse_kb("")
    assert doc == KBDocument((), (), (), (), ())
    assert render_kb(doc) == ""


def test_comments_are_not_supported_text_is_strict():
    with pytest.raises(ParseError):
        parse_kb("# comment\n")


# -- assembly ---------------------------------------------------------------------


def test_assemble_matches_programmatic_build(worm_doc, worm_framework, parsed_framework):
    assert parsed_framework.em == worm_framework.em
    assert set(parsed_framework.program.elements) == set(worm_framework.program.elements)
    assert parsed_framework.annotations == worm_framework.annotations


def test_assembled_framework_answers_queries(parsed_framework):
    query = parse_query("govCybLab(baja) v mseTT(baja,2)")
    answer = max_entailment(parsed_framework.em, query)
    assert (answer.p, answer.eps) == (F(9, 10), F(1, 10))
    interval = parsed_framework.prob_bounds(parse_literal_text("isCap(baja,worm123)"))
    assert (interval.p, interval.eps) == (F(3, 4), F(1, 4))


def test_assemble_universe_extension():
    doc = parse_kb(
        "#em\ngovCybLab(baja) : 0.5 +- 0.\n"
        "#universe\ngovCybLab(baja), extra(c).\n"
    )
    fw = assemble(doc)
    assert len(fw.em.atom_universe) == 2
    assert len(fw.worlds) == 4


def test_assemble_walks_each_annotation_once(monkeypatch):
    # The default universe lists annotation atoms in document order, not in
    # the label order the annotation function keeps.
    doc = parse_kb(
        "#am\nzz : presume p(a).\naa : presume q(a).\nmm : presume r(a).\n"
        "#af\nzz : e2(c) ^ e1(c).\naa : e0(c) v e1(c).\nmm : true.\n"
    )
    walked = []

    def counting(f):
        walked.append(f)
        return formula_atoms(f)

    for module in (bridge, kbformat):
        monkeypatch.setattr(module, "formula_atoms", counting, raising=False)
    fw = assemble(doc)
    assert sorted(map(render_formula, walked)) == ["e0(c) v e1(c)", "e2(c) ^ e1(c)"]
    assert [str(a) for a in fw.em.atom_universe] == ["e2(c)", "e1(c)", "e0(c)"]


def test_assemble_grounds_schematic_rules():
    text = (
        "#sorts\nactor baja, mojave.\noperation worm123.\n"
        "#am\n"
        "f1 : fact evidOf(baja,worm123).\n"
        "de1 : condOp(X,O) -< evidOf(X,O).\n"
    )
    fw = assemble(parse_kb(text))
    labels = {e.label for e in fw.program.elements}
    assert "de1[worm123,baja]" in labels
    assert "de1[worm123,mojave]" in labels
    assert fw.program.is_ground


def test_label_with_two_constants():
    text = "#am\nd1[a,b] : fact p(a).\n\n#af\nd1[a,b] : true.\n"
    doc = parse_kb(text)
    assert doc.am[0].label == "d1[a,b]"
    assert doc.af == (("d1[a,b]", TOP),)
    assert render_kb(doc) == text


def test_assemble_grounds_over_constants_of_statements():
    # a appears only in the fact, and the rule is grounded over it.
    fw = assemble(parse_kb("#am\nd1 : q(X) -< p(X).\nf1 : fact p(a).\n"))
    index = index_for(fw.program)
    q = parse_literal_text("q(a)")
    assert [str(a) for a in index.arguments_for(q)] == ["<{d1[a], f1}, q(a)>"]
    assert index.warrant_status(q) == WARRANTED


def test_annotation_on_ground_instance_label():
    # The document accepts an annotation on label[...] of a schematic
    # element, as the parser and the annotation function do.
    text = (
        "#sorts\nactor baja.\n"
        "#em\ngov(baja) : 0.5 +- 0.\n"
        "#am\nr1 : presume cap(A).\n"
        "#af\nr1[baja] : gov(baja).\n"
    )
    doc = parse_kb(text)
    assert doc.af == (("r1[baja]", atom_formula(ematom("gov", "baja"))),)
    fw = assemble(doc)
    interval = fw.prob_bounds(parse_literal_text("cap(baja)"))
    assert (interval.p, interval.eps) == (Fraction(1, 2), 0)
    with pytest.raises(AssemblyError, match="unknown element r2"):
        KBDocument(am=doc.am, af=(("r2[baja]", TOP),))


def test_assemble_rejects_duplicate_annotations():
    doc = KBDocument(
        am=parse_kb("#am\nr1 : fact p(a).\n").am,
        af=(("r1", atom_formula(GOV)), ("r1", atom_formula(MSE))),
    )
    with pytest.raises(AssemblyError, match="duplicate annotation for r1"):
        assemble(doc)


def test_sorts_after_am_ground_the_same_program():
    sorts = "#sorts\nactor baja, mojave.\noperation worm123.\n"
    am = (
        "#am\n"
        "f1 : fact evidOf(baja,worm123).\n"
        "de1 : condOp(X,O) -< evidOf(X,O).\n"
    )
    first = assemble(parse_kb(sorts + am)).program.elements
    last = assemble(parse_kb(am + sorts)).program.elements
    assert [e.label for e in last] == [e.label for e in first]
    assert last == first
    assert {e.label for e in last} == {
        "f1", "de1[worm123,baja]", "de1[worm123,mojave]",
    }


@pytest.mark.parametrize(
    "name, message", [("Baja", "variable Baja cannot carry a role"), ("_x", "bad term name: '_x'")]
)
def test_assemble_checks_declared_constants_of_a_ground_program(name, message):
    # A ground program grounds nothing, but a bad declared name still fails.
    doc = parse_kb(f"#sorts\nactor {name}.\n#am\nf1 : fact p(a).\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        assemble(doc)


def test_assemble_rejects_conducting_facts():
    with pytest.raises(AssemblyError):
        assemble(parse_kb("#am\nf1 : fact condOp(baja,worm123).\n"))


def test_render_world():
    universe = (GOV, AGE, MSE)
    assert render_world(frozenset({MSE, GOV}), universe) == "{govCybLab(baja), mseTT(baja,2)}"
    assert render_world(frozenset(), universe) == "{}"


def test_load_kb_missing_file():
    with pytest.raises(OSError):
        load_kb(FIXTURES / "missing.inca")


# one arity per predicate name, since a document must use each consistently
_SHAPES = {"alpha": (), "beta": ("c",), "gamma": ("c", "d")}


@st.composite
def em_formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        name = draw(st.sampled_from(sorted(_SHAPES)))
        return atom_formula(ematom(name, *_SHAPES[name]))
    kind = draw(st.sampled_from(["not", "and", "or"]))
    if kind == "not":
        return neg(draw(em_formulas(depth=depth - 1)))
    left = draw(em_formulas(depth=depth - 1))
    right = draw(em_formulas(depth=depth - 1))
    return conj(left, right) if kind == "and" else disj(left, right)


@given(em_formulas())
def test_formula_round_trips_through_concrete_syntax(f):
    assert parse_query(render_formula(f)) == f


def test_deep_formula_round_trips_through_concrete_syntax():
    # Right-nested: rendered with 100,000 nested parentheses.
    leaves = [atom_formula(ematom(name, *args)) for name, args in _SHAPES.items()]
    f = leaves[0]
    for i in range(100_000):
        f = disj(leaves[i % 3], f)
    assert parse_query(render_formula(f)) == f
