"""Text format for knowledge bases, plus rendering of exact rationals.

A document holds up to six sections: #sorts declares constant roles, #em the
probabilistic formulas, #ic the oneOf constraints, #am the labeled program
elements, #af the annotations, and #universe an optional explicit atom
universe. Statements end with a period. parse_kb and render_kb round-trip.

The sorts take effect when assemble grounds the program: its constant pool
carries the declared roles, and schematic variables bind by them. Constants
written in the parsed statements keep the plain role, wherever #sorts
appears in the document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .am import (
    AMElement,
    AMProgram,
    DEFAULT_SPECIFICITY_CAP,
    DEFEASIBLE_RULE,
    FACT,
    PRESUMPTION,
    STRICT_RULE,
    instantiate,
)
from .attribution import EvidenceItem
from .bridge import AnnotationFunction, InCAFramework
from .em import (
    DEFAULT_MAX_ATOMS,
    EMKnowledgeBase,
    IntegrityConstraint,
    ProbabilisticFormula,
)
from .errors import AssemblyError, GroundednessError, ParseError
from .language import (
    AM,
    EM,
    ROLE_ACTOR,
    ROLE_OPERATION,
    Atom,
    Formula,
    Literal,
    TOP,
    BOTTOM,
    Term,
    World,
    atom_formula,
    conj,
    disj,
    formula_atoms,
    neg,
    render_formula,
)

SECTIONS = ("#sorts", "#em", "#ic", "#am", "#af", "#universe")

# One alternative per token kind, tried in this order at each position: '.'
# is a symbol before a number can start, so ".5" reads as "." then "5". A
# bare '#' and any other character match the last two alternatives so that
# the scan never skips input.
_TOKEN_RE = re.compile(
    r"(?P<NEWLINE>\n)"
    r"|(?P<SPACE>[^\S\n]+)"
    r"|(?P<SECTION>#[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<SYMBOL>\+-|<-|-<|!=|[.:,(){}\[\]~^/])"
    r"|(?P<NUMBER>\d+(?:\.\d+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<HASH>#)"
    r"|(?P<OTHER>.)",
    re.DOTALL,
)


def format_fraction(value) -> str:
    """Exact decimal when the denominator divides a power of ten, else a/b."""
    fr = Fraction(value)
    if fr.denominator == 1:
        return str(fr.numerator)
    den = fr.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{fr.numerator}/{fr.denominator}"
    shift = max(twos, fives)
    scaled = abs(fr.numerator) * 10**shift // fr.denominator
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if fr.numerator < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


class Token(NamedTuple):
    kind: str  # SECTION, IDENT, NUMBER, SYMBOL, EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
            continue
        if kind == "SPACE":
            continue
        word = m.group()
        column = m.start() - line_start + 1
        if kind == "HASH":
            raise ParseError("expected a section name after '#'", line, column)
        if kind == "OTHER":
            raise ParseError(f"unexpected character {word!r}", line, column)
        if kind == "SECTION" and word not in SECTIONS:
            raise ParseError(f"unknown section {word}", line, column)
        tokens.append(Token(kind, word, line, column))
    eof = Token("EOF", "", line, len(text) - line_start + 1)
    return tokens + [eof, eof]


@dataclass(frozen=True)
class KBDocument:
    sorts: tuple[tuple[str, str], ...] = ()
    em: tuple[ProbabilisticFormula, ...] = ()
    ic: tuple[IntegrityConstraint, ...] = ()
    am: tuple[AMElement, ...] = ()
    af: tuple[tuple[str, Formula], ...] = ()
    universe: tuple[Atom, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "sorts", tuple(tuple(s) for s in self.sorts))
        object.__setattr__(self, "em", tuple(self.em))
        object.__setattr__(self, "ic", tuple(self.ic))
        object.__setattr__(self, "am", tuple(self.am))
        object.__setattr__(self, "af", tuple(tuple(a) for a in self.af))
        if self.universe is not None:
            object.__setattr__(self, "universe", tuple(self.universe))
        labels = [e.label for e in self.am]
        if len(set(labels)) != len(labels):
            raise AssemblyError("duplicate element labels")
        known = set(labels)
        for label, _ in self.af:
            if label not in known:
                raise AssemblyError(f"annotation for unknown element {label}")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # arity bookkeeping, keyed by (model, predicate)
        self.arities: dict[tuple[str, str], int] = {}

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        # ahead is 0 or 1; the second EOF token keeps pos + 1 in range
        return self.tokens[self.pos + ahead]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, token: Token | None = None):
        tok = token or self.peek()
        lines = self.text.splitlines()
        snippet = lines[tok.line - 1] if tok.line <= len(lines) else ""
        raise ParseError(message, tok.line, tok.column, snippet)

    def expect_symbol(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "SYMBOL" or tok.text != text:
            found = tok.text or "end of input"
            self.error(f"expected {text!r}, found {found!r}")
        return self.advance()

    def expect_ident(self, what: str = "an identifier") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            self.error(f"expected {what}")
        return self.advance()

    def at_symbol(self, text: str, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        return tok.kind == "SYMBOL" and tok.text == text

    def at_keyword(self, word: str) -> bool:
        # contextual keyword: an identifier not used as a predicate
        tok = self.peek()
        return (
            tok.kind == "IDENT"
            and tok.text == word
            and not self.at_symbol("(", 1)
        )

    # -- shared pieces --------------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Term(tok.text)
        if tok.kind == "IDENT":
            self.advance()
            return Term(tok.text)
        self.error("expected a constant, variable, or number")

    def parse_atom(self, model: str) -> Atom:
        tok = self.expect_ident("a predicate name")
        args = []
        if self.at_symbol("("):
            self.advance()
            args.append(self.parse_term())
            while self.at_symbol(","):
                self.advance()
                args.append(self.parse_term())
            self.expect_symbol(")")
        key = (model, tok.text)
        arity = self.arities.setdefault(key, len(args))
        if arity != len(args):
            self.error(
                f"{tok.text} used with {len(args)} argument(s), "
                f"earlier with {arity}",
                tok,
            )
        return Atom(tok.text, tuple(args), model)

    def parse_literal(self) -> Literal:
        if self.at_keyword("neg"):
            self.advance()
            return Literal(self.parse_atom(AM), negated=True)
        return Literal(self.parse_atom(AM))

    def parse_formula(self, model: str) -> Formula:
        # after a complete conjunct a bare identifier can only be the `v`
        # connective, so no parenthesis lookahead here
        left = self.parse_conjunct(model)
        while self.peek().kind == "IDENT" and self.peek().text == "v":
            self.advance()
            left = disj(left, self.parse_conjunct(model))
        return left

    def parse_conjunct(self, model: str) -> Formula:
        left = self.parse_unary(model)
        while self.at_symbol("^"):
            self.advance()
            left = conj(left, self.parse_unary(model))
        return left

    def parse_unary(self, model: str) -> Formula:
        if self.at_symbol("~"):
            self.advance()
            return neg(self.parse_unary(model))
        if self.at_symbol("("):
            self.advance()
            inner = self.parse_formula(model)
            self.expect_symbol(")")
            return inner
        if self.at_keyword("true"):
            self.advance()
            return TOP
        if self.at_keyword("false"):
            self.advance()
            return BOTTOM
        return atom_formula(self.parse_atom(model))

    def parse_rational(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "NUMBER":
            self.error("expected a number")
        self.advance()
        value = Fraction(tok.text)
        if self.at_symbol("/"):
            self.advance()
            den = self.peek()
            if den.kind != "NUMBER" or "." in den.text:
                self.error("expected an integer denominator")
            self.advance()
            if int(den.text) == 0:
                self.error("zero denominator", den)
            if "." in tok.text:
                self.error("a/b rationals take integers", tok)
            value = Fraction(int(tok.text), int(den.text))
        return value

    def parse_bound(self) -> tuple[Fraction, Fraction]:
        p = self.parse_rational()
        self.expect_symbol("+-")
        eps = self.parse_rational()
        return p, eps

    def parse_label(self) -> str:
        tok = self.expect_ident("an element label")
        label = tok.text
        if self.at_symbol("["):
            self.advance()
            parts = []
            while True:
                inner = self.peek()
                if inner.kind not in ("IDENT", "NUMBER"):
                    self.error("expected a constant inside the label")
                self.advance()
                parts.append(inner.text)
                if self.at_symbol(","):
                    self.advance()
                    continue
                break
            self.expect_symbol("]")
            label = f"{label}[{','.join(parts)}]"
        return label


def _parse_document(parser: _Parser) -> KBDocument:
    sorts: list[tuple[str, str]] = []
    em: list[ProbabilisticFormula] = []
    ic: list[IntegrityConstraint] = []
    am: list[AMElement] = []
    af: list[tuple[str, Formula]] = []
    universe: list[Atom] | None = None

    declared: dict[str, Token] = {}
    labels: dict[str, Token] = {}
    af_labels: dict[str, Token] = {}

    section = None
    while True:
        tok = parser.peek()
        if tok.kind == "EOF":
            break
        if tok.kind == "SECTION":
            parser.advance()
            section = tok.text
            continue
        if section is None:
            parser.error("statements must appear inside a section")

        # A bad name or a non-ground formula that a constructor rejects is
        # reported at the statement's first token.
        try:
            if section == "#sorts":
                role_tok = parser.expect_ident("'actor' or 'operation'")
                if role_tok.text == "actor":
                    role = ROLE_ACTOR
                elif role_tok.text == "operation":
                    role = ROLE_OPERATION
                else:
                    parser.error("expected 'actor' or 'operation'", role_tok)
                while True:
                    name = parser.expect_ident("a constant name")
                    if name.text in declared:
                        parser.error(f"{name.text} is already declared", name)
                    declared[name.text] = name
                    sorts.append((role, name.text))
                    if parser.at_symbol(","):
                        parser.advance()
                        continue
                    break
                parser.expect_symbol(".")
            elif section == "#em":
                formula = parser.parse_formula(EM)
                parser.expect_symbol(":")
                p, eps = parser.parse_bound()
                dot = parser.peek()
                parser.expect_symbol(".")
                try:
                    em.append(ProbabilisticFormula(formula, p, eps))
                except ValueError as exc:  # an interval out of range
                    parser.error(str(exc), dot)
            elif section == "#ic":
                kw = parser.expect_ident("'oneOf'")
                if kw.text != "oneOf":
                    parser.error("expected 'oneOf'", kw)
                parser.expect_symbol("{")
                atoms = [parser.parse_atom(EM)]
                while parser.at_symbol(","):
                    parser.advance()
                    atoms.append(parser.parse_atom(EM))
                parser.expect_symbol("}")
                parser.expect_symbol(".")
                ic.append(IntegrityConstraint(tuple(atoms)))
            elif section == "#am":
                label_tok = parser.peek()
                label = parser.parse_label()
                if label in labels:
                    parser.error(f"duplicate element label {label}", label_tok)
                labels[label] = label_tok
                parser.expect_symbol(":")
                am.append(_parse_element(parser, label))
            elif section == "#af":
                label_tok = parser.peek()
                label = parser.parse_label()
                if label in af_labels:
                    parser.error(f"duplicate annotation for {label}", label_tok)
                af_labels[label] = label_tok
                parser.expect_symbol(":")
                formula = parser.parse_formula(EM)
                parser.expect_symbol(".")
                af.append((label, formula))
            elif section == "#universe":
                if universe is not None:
                    parser.error("the universe is already given")
                universe = []
                while True:
                    atom_tok = parser.peek()
                    atom = parser.parse_atom(EM)
                    if atom in universe:
                        parser.error(f"duplicate universe atom {atom}", atom_tok)
                    universe.append(atom)
                    if parser.at_symbol(","):
                        parser.advance()
                        continue
                    break
                parser.expect_symbol(".")
        except (ValueError, GroundednessError) as exc:
            parser.error(str(exc), tok)

    for label, tok in af_labels.items():
        base = label.split("[", 1)[0]
        if label not in labels and base not in labels:
            parser.error(f"annotation for unknown element {label}", tok)

    return KBDocument(sorts, em, ic, am, af, universe)


def _parse_element(parser: _Parser, label: str) -> AMElement:
    if parser.at_keyword("fact") or parser.at_keyword("presume"):
        kw = parser.advance()
        head = parser.parse_literal()
        parser.expect_symbol(".")
        kind = FACT if kw.text == "fact" else PRESUMPTION
        return AMElement(label, kind, head)
    head = parser.parse_literal()
    if parser.at_symbol("<-"):
        kind = STRICT_RULE
    elif parser.at_symbol("-<"):
        kind = DEFEASIBLE_RULE
    else:
        parser.error("expected '<-' or '-<'")
    parser.advance()
    body: list[Literal] = []
    guards: list[tuple[str, str]] = []
    while True:
        tok = parser.peek()
        if tok.kind == "IDENT" and parser.at_symbol("!=", 1):
            left = parser.advance()
            parser.advance()
            right = parser.expect_ident("a variable")
            for t in (left, right):
                if not t.text[0].isupper():
                    parser.error("inequality guards compare variables", t)
            guards.append((left.text, right.text))
        else:
            body.append(parser.parse_literal())
        if parser.at_symbol(","):
            parser.advance()
            continue
        break
    parser.expect_symbol(".")
    return AMElement(label, kind, head, tuple(body), tuple(guards))


def parse_kb(text: str) -> KBDocument:
    """Parse a knowledge-base document; the first problem raises ParseError
    with its 1-based position."""
    return _parse_document(_Parser(text))


# -- rendering ---------------------------------------------------------------


def render_world(world: World, universe) -> str:
    inside = ", ".join(str(a) for a in universe if a in world)
    return "{" + inside + "}"


def _sort_lines(sorts) -> list[str]:
    lines = []
    run_role = None
    run: list[str] = []
    for role, name in sorts:
        if role != run_role and run:
            lines.append(f"{run_role} {', '.join(run)}.")
            run = []
        run_role = role
        run.append(name)
    if run:
        lines.append(f"{run_role} {', '.join(run)}.")
    return lines


def render_kb(doc: KBDocument) -> str:
    chunks: list[str] = []
    if doc.sorts:
        chunks.append("\n".join(["#sorts"] + _sort_lines(doc.sorts)))
    if doc.em:
        lines = [
            f"{render_formula(f.formula)} : "
            f"{format_fraction(f.p)} +- {format_fraction(f.eps)}."
            for f in doc.em
        ]
        chunks.append("\n".join(["#em"] + lines))
    if doc.ic:
        lines = [
            "oneOf{" + ", ".join(str(a) for a in c.atoms) + "}." for c in doc.ic
        ]
        chunks.append("\n".join(["#ic"] + lines))
    if doc.am:
        chunks.append("\n".join(["#am"] + [f"{e}." for e in doc.am]))
    if doc.af:
        lines = [f"{label} : {render_formula(f)}." for label, f in doc.af]
        chunks.append("\n".join(["#af"] + lines))
    if doc.universe is not None:
        chunks.append(
            "#universe\n" + ", ".join(str(a) for a in doc.universe) + "."
        )
    return "\n\n".join(chunks) + ("\n" if chunks else "")


# -- fragment parsers for the command line -------------------------------------


class _FragmentParser(_Parser):
    """A parser for one command-line fragment. A bad name is reported at
    the first token of its atom."""

    def parse_atom(self, model: str) -> Atom:
        tok = self.peek()
        try:
            return super().parse_atom(model)
        except ValueError as exc:
            self.error(str(exc), tok)


def parse_query(text: str) -> Formula:
    parser = _FragmentParser(text)
    formula = parser.parse_formula(EM)
    if parser.peek().kind != "EOF":
        parser.error("unexpected trailing input")
    return formula


def parse_literal_text(text: str) -> Literal:
    parser = _FragmentParser(text)
    literal = parser.parse_literal()
    if parser.peek().kind != "EOF":
        parser.error("unexpected trailing input")
    return literal


def parse_world_spec(text: str) -> tuple[Atom, ...]:
    if not text.strip():
        return ()
    parser = _FragmentParser(text)
    atoms = [parser.parse_atom(EM)]
    while parser.at_symbol(","):
        parser.advance()
        atoms.append(parser.parse_atom(EM))
    if parser.peek().kind != "EOF":
        parser.error("unexpected trailing input")
    return tuple(atoms)


def parse_evidence(text: str) -> tuple[EvidenceItem, ...]:
    """Evidence statements: `atom.` (certain) or `atom : p +- e.`."""
    parser = _FragmentParser(text)
    items = []
    while parser.peek().kind != "EOF":
        atom_tok = parser.peek()
        atom = parser.parse_atom(EM)
        p, eps = Fraction(1), Fraction(0)
        if parser.at_symbol(":"):
            parser.advance()
            p, eps = parser.parse_bound()
        parser.expect_symbol(".")
        try:
            items.append(EvidenceItem(atom, p, eps))
        except ValueError as exc:
            parser.error(str(exc), atom_tok)
    return tuple(items)


# -- assembly -------------------------------------------------------------------


def assemble(
    doc: KBDocument,
    max_atoms: int = DEFAULT_MAX_ATOMS,
    specificity_cap: int = DEFAULT_SPECIFICITY_CAP,
) -> InCAFramework:
    """Ground the program over the declared and mentioned constants and wire
    up the framework. The atom universe defaults to every atom mentioned in
    the probabilistic section, the constraints, and the annotations, in
    document order."""
    pool: list[Term] = [Term(name, role) for role, name in doc.sorts]
    seen = {t.name for t in pool}
    for e in doc.am:
        for lit in (e.head, *e.body):
            for t in lit.atom.args:
                if not t.is_variable and t.name not in seen:
                    seen.add(t.name)
                    pool.append(t)
    elements: list[AMElement] = []
    for e in doc.am:
        elements.extend(instantiate(e, pool))
    program = AMProgram(tuple(elements))

    universe = doc.universe
    if universe is None:
        ordered: list[Atom] = []
        known: set[Atom] = set()

        def add(atom: Atom):
            if atom not in known:
                known.add(atom)
                ordered.append(atom)

        for f in doc.em:
            for a in formula_atoms(f.formula):
                add(a)
        for c in doc.ic:
            for a in c.atoms:
                add(a)
        for _, f in doc.af:
            for a in formula_atoms(f):
                add(a)
        universe = tuple(ordered)

    em_kb = EMKnowledgeBase(doc.em, doc.ic, universe)
    annotations = AnnotationFunction(dict(doc.af))
    return InCAFramework(
        em=em_kb,
        program=program,
        annotations=annotations,
        max_atoms=max_atoms,
        specificity_cap=specificity_cap,
    )


def load_kb(path: str) -> KBDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_kb(fh.read())
