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
from fractions import Fraction
from itertools import islice

from .am import (
    AMElement,
    AMProgram,
    DEFEASIBLE_RULE,
    FACT,
    PRESUMPTION,
    STRICT_RULE,
    instantiate,
)
from .bridge import AnnotationFunction, InCAFramework, _base_label
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
    Value,
    World,
    atom_formula,
    conj,
    disj,
    neg,
    render_formula,
)

SECTIONS = ("#sorts", "#em", "#ic", "#am", "#af", "#universe")

# One token after optional whitespace. Apart from the last, the alternatives
# start with disjoint characters, so their order only sets how soon the
# common ones match: identifiers, then one-character symbols. '.' is a
# symbol and a number starts with a digit, so ".5" reads as "." then "5".
# The last alternative takes any other non-space character, a bare '#'
# included, so that the scan never skips input; _tokenize rejects those.
_TOKEN_RE = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*|[.:,(){}\[\]~^/]|\d+(?:\.\d+)?"
    r"|#[A-Za-z_][A-Za-z0-9_]*|\+-|<-|-<|!=|\S)"
)
_SYMBOLS = frozenset(["+-", "<-", "-<", "!=", *".:,(){}[]~^/"])
_CONNECTIVES = {"^": conj, "v": disj}
_CONSTANTS = {"true": TOP, "false": BOTTOM}


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


def _tokenize(text: str) -> list[str]:
    """The tokens of text as strings, then two "" end-of-input tokens; the
    second keeps a one-token lookahead in range. A token's kind is read off
    its first character: '#' starts a section, a decimal digit a number, an
    ASCII letter or '_' an identifier, and any other token is a symbol. Any
    other character raises here, so an identifier token is exactly one for
    which str.isidentifier() holds."""
    tokens = _TOKEN_RE.findall(text)
    problems: dict[str, str] = {}
    for word in set(tokens):
        first = word[0]
        if first == "#":
            if word == "#":
                problems[word] = "expected a section name after '#'"
            elif word not in SECTIONS:
                problems[word] = f"unknown section {word}"
        elif word not in _SYMBOLS and not (
            first.isdecimal() or first == "_" or first.isascii() and first.isalpha()
        ):
            problems[word] = f"unexpected character {word!r}"
    if problems:
        i = min(tokens.index(word) for word in problems)
        raise _parse_error(text, i, problems[tokens[i]])
    return tokens + ["", ""]


def _parse_error(text: str, i: int, message: str) -> ParseError:
    """The ParseError at token i of text, or at the end of input when text
    has no token i. Positions are found only here, by scanning again."""
    match = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    offset = match.start(1) if match else len(text)
    line_start = text.rfind("\n", 0, offset) + 1
    line = text.count("\n", 0, line_start) + 1
    snippet = text.split("\n")[line - 1].removesuffix("\r")
    return ParseError(message, line, offset - line_start + 1, snippet)


class KBDocument(Value):
    _fields = ("sorts", "em", "ic", "am", "af", "universe")

    def __init__(
        self,
        sorts: tuple[tuple[str, str], ...] = (),
        em: tuple[ProbabilisticFormula, ...] = (),
        ic: tuple[IntegrityConstraint, ...] = (),
        am: tuple[AMElement, ...] = (),
        af: tuple[tuple[str, Formula], ...] = (),
        universe: tuple[Atom, ...] | None = None,
    ):
        am = tuple(am)
        af = tuple(map(tuple, af))
        labels = [e.label for e in am]
        known = set(labels)
        if len(known) != len(labels):
            raise AssemblyError("duplicate element labels")
        for label, _ in af:
            if label not in known and _base_label(label) not in known:
                raise AssemblyError(f"annotation for unknown element {label}")
        self.__dict__.update(
            sorts=tuple(map(tuple, sorts)), em=tuple(em), ic=tuple(ic), am=am,
            af=af, universe=None if universe is None else tuple(universe),
        )


# The tables of terms, atoms, literals and atom formulas, in that order, of
# the last document parse_kb returned. A parse only reads them; parse_kb
# replaces the whole tuple once its document is built, so at most one
# document's values stay alive here.
_last_tables: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})


class _Parser:
    """A parser over the token list of one text. A token is referred to by
    its index, which error() turns into a position."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        # arity bookkeeping, keyed by (model, predicate)
        self.arities: dict[tuple[str, str], int] = {}
        # Each distinct term, atom, literal and atom formula of this text is
        # built once, or taken from the last document's tables when it
        # spelled the same one. Terms are keyed by their token, atoms by
        # (model, *their raw tokens), literals by (atom, negated) and atom
        # formulas by their atom.
        self.terms: dict[str, Term] = {}
        self.atoms: dict[tuple[str, ...], Atom] = {}
        self.literals: dict[tuple[Atom, bool], Literal] = {}
        self.formulas: dict[Atom, Formula] = {}
        self.last_terms, self.last_atoms, self.last_literals, self.last_formulas = (
            _last_tables
        )

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.pos]

    def error(self, message: str, index: int | None = None):
        raise _parse_error(self.text, self.pos if index is None else index, message)

    def expect_symbol(self, text: str) -> None:
        tok = self.tokens[self.pos]
        if tok != text:
            self.error(f"expected {text!r}, found {tok or 'end of input'!r}")
        self.pos += 1

    def expect_ident(self, what: str = "an identifier") -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier():
            self.error(f"expected {what}")
        self.pos += 1
        return tok

    def at_symbol(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    # -- shared pieces --------------------------------------------------------

    def parse_term(self) -> Term:
        tok = self.tokens[self.pos]
        if not (tok.isidentifier() or tok[:1].isdecimal()):
            self.error("expected a constant, variable, or number")
        self.pos += 1
        term = self.terms.get(tok)
        if term is None:
            term = self.last_terms.get(tok)
            if term is None:
                term = Term(tok)
            self.terms[tok] = term
        return term

    def parse_atom(self, model: str) -> Atom:
        # An atom seen before is found by its raw tokens. Only well-formed
        # atoms are stored, and the first ')' after '(' closes one; any
        # other slice misses and takes the full parse below.
        tokens, start = self.tokens, self.pos
        end = start + 1
        if tokens[end] == "(":
            try:
                end = tokens.index(")", end) + 1
            except ValueError:
                end = len(tokens)
        key = (model, *tokens[start:end])
        atom = self.atoms.get(key)
        if atom is None:
            # The last document's atom joins this parse's arity record; on
            # a mismatch the full parse below raises the error.
            atom = self.last_atoms.get(key)
            if atom is not None:
                n = len(atom.args)
                if self.arities.setdefault((model, atom.predicate), n) == n:
                    self.atoms[key] = atom
                else:
                    atom = None
        if atom is not None:
            self.pos = end
            return atom
        name = self.expect_ident("a predicate name")
        args = []
        if self.tokens[self.pos] == "(":
            self.pos += 1
            args.append(self.parse_term())
            while self.tokens[self.pos] == ",":
                self.pos += 1
                args.append(self.parse_term())
            self.expect_symbol(")")
        arity = self.arities.setdefault((model, name), len(args))
        if arity != len(args):
            self.error(
                f"{name} used with {len(args)} argument(s), earlier with {arity}",
                start,
            )
        atom = self.atoms[key] = Atom(name, tuple(args), model)
        return atom

    def parse_literal(self) -> Literal:
        # A keyword (neg, true, false, fact, presume) is contextual: an
        # identifier not followed by '(', which would make it a predicate.
        tokens, pos = self.tokens, self.pos
        negated = tokens[pos] == "neg" and tokens[pos + 1] != "("
        if negated:
            self.pos = pos + 1
        key = (self.parse_atom(AM), negated)
        literal = self.literals.get(key)
        if literal is None:
            literal = self.last_literals.get(key)
            if literal is None:
                literal = Literal(*key)
            self.literals[key] = literal
        return literal

    def parse_formula(self, model: str) -> Formula:
        """A formula: ~ binds tightest, then ^, then v, each binary
        connective to the left. Operators wait on one stack and the left
        operands of open connectives on another, so nesting costs no
        recursion."""
        tokens = self.tokens
        ops: list[str] = []  # open "~", "(", "^" and "v", innermost last
        lefts: list[Formula] = []  # the left operand of each open ^ and v
        while True:
            while tokens[self.pos] in ("~", "("):
                ops.append(tokens[self.pos])
                self.pos += 1
            tok = tokens[self.pos]
            if tok in _CONSTANTS and tokens[self.pos + 1] != "(":
                self.pos += 1
                f = _CONSTANTS[tok]
            else:
                atom = self.parse_atom(model)
                f = self.formulas.get(atom)
                if f is None:
                    f = self.last_formulas.get(atom)
                    if f is None:
                        f = atom_formula(atom)
                    self.formulas[atom] = f
            while True:
                while ops and ops[-1] == "~":
                    ops.pop()
                    f = neg(f)
                # After a complete operand a bare identifier can only be the
                # `v` connective. A `^` closes the open `^`s; anything else
                # closes the open `v`s too.
                tok = tokens[self.pos]
                while ops and ops[-1] in _CONNECTIVES and (tok != "^" or ops[-1] == "^"):
                    f = _CONNECTIVES[ops.pop()](lefts.pop(), f)
                if tok in _CONNECTIVES:
                    self.pos += 1
                    ops.append(tok)
                    lefts.append(f)
                    break
                if not ops:
                    return f
                self.expect_symbol(")")
                ops.pop()

    def parse_rational(self) -> Fraction:
        num = self.pos
        tok = self.tokens[num]
        if not tok[:1].isdecimal():
            self.error("expected a number")
        self.pos += 1
        # d.ddd is int(dddd) / 10**3: the tokenizer has matched the digits.
        whole, _, digits = tok.partition(".")
        top, bottom = int(whole + digits), 10 ** len(digits)
        if self.at_symbol("/"):
            self.pos += 1
            den = self.tokens[self.pos]
            if not den[:1].isdecimal() or "." in den:
                self.error("expected an integer denominator")
            self.pos += 1
            bottom = int(den)
            if bottom == 0:
                self.error("zero denominator", self.pos - 1)
            if digits:
                self.error("a/b rationals take integers", num)
        return Fraction(top, bottom)

    def parse_bound(self) -> tuple[Fraction, Fraction]:
        p = self.parse_rational()
        self.expect_symbol("+-")
        eps = self.parse_rational()
        return p, eps

    def parse_label(self) -> str:
        label = self.expect_ident("an element label")
        if self.at_symbol("["):
            self.pos += 1
            parts = []
            while True:
                inner = self.tokens[self.pos]
                if not (inner.isidentifier() or inner[:1].isdecimal()):
                    self.error("expected a constant inside the label")
                self.pos += 1
                parts.append(inner)
                if self.at_symbol(","):
                    self.pos += 1
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
    universe: dict[Atom, None] | None = None

    declared: set[str] = set()
    labels: set[str] = set()
    af_labels: dict[str, int] = {}  # label -> index of its first token

    section = None
    while True:
        start = parser.pos
        tok = parser.tokens[start]
        if not tok:
            break
        if tok[0] == "#":
            parser.pos += 1
            section = tok
            continue
        if section is None:
            parser.error("statements must appear inside a section")

        # A bad name or a non-ground formula that a constructor rejects is
        # reported at the statement's first token.
        try:
            if section == "#sorts":
                role = parser.expect_ident("'actor' or 'operation'")
                if role not in (ROLE_ACTOR, ROLE_OPERATION):
                    parser.error("expected 'actor' or 'operation'", start)
                while True:
                    name_at = parser.pos
                    name = parser.expect_ident("a constant name")
                    if name in declared:
                        parser.error(f"{name} is already declared", name_at)
                    declared.add(name)
                    sorts.append((role, name))
                    if parser.at_symbol(","):
                        parser.pos += 1
                        continue
                    break
                parser.expect_symbol(".")
            elif section == "#em":
                formula = parser.parse_formula(EM)
                parser.expect_symbol(":")
                p, eps = parser.parse_bound()
                dot = parser.pos
                parser.expect_symbol(".")
                try:
                    em.append(ProbabilisticFormula(formula, p, eps))
                except ValueError as exc:  # an interval out of range
                    parser.error(str(exc), dot)
            elif section == "#ic":
                if parser.expect_ident("'oneOf'") != "oneOf":
                    parser.error("expected 'oneOf'", start)
                parser.expect_symbol("{")
                atoms = [parser.parse_atom(EM)]
                while parser.at_symbol(","):
                    parser.pos += 1
                    atoms.append(parser.parse_atom(EM))
                parser.expect_symbol("}")
                parser.expect_symbol(".")
                ic.append(IntegrityConstraint(tuple(atoms)))
            elif section == "#am":
                label = parser.parse_label()
                if label in labels:
                    parser.error(f"duplicate element label {label}", start)
                labels.add(label)
                parser.expect_symbol(":")
                am.append(_parse_element(parser, label))
            elif section == "#af":
                label = parser.parse_label()
                if label in af_labels:
                    parser.error(f"duplicate annotation for {label}", start)
                af_labels[label] = start
                parser.expect_symbol(":")
                formula = parser.parse_formula(EM)
                parser.expect_symbol(".")
                af.append((label, formula))
            elif section == "#universe":
                if universe is not None:
                    parser.error("the universe is already given")
                universe = {}
                # A lone '.' is the empty universe.
                while not (parser.at_symbol(".") and not universe):
                    atom_at = parser.pos
                    atom = parser.parse_atom(EM)
                    if atom in universe:
                        parser.error(f"duplicate universe atom {atom}", atom_at)
                    universe[atom] = None
                    if parser.at_symbol(","):
                        parser.pos += 1
                        continue
                    break
                parser.expect_symbol(".")
        except (ValueError, GroundednessError) as exc:
            parser.error(str(exc), start)

    for label, at in af_labels.items():
        if label not in labels and _base_label(label) not in labels:
            parser.error(f"annotation for unknown element {label}", at)

    return KBDocument(sorts, em, ic, am, af, universe)


_UNIT_KINDS = {"fact": FACT, "presume": PRESUMPTION}
_RULE_KINDS = {"<-": STRICT_RULE, "-<": DEFEASIBLE_RULE}


def _parse_element(parser: _Parser, label: str) -> AMElement:
    tokens = parser.tokens
    tok = tokens[parser.pos]
    if tok in _UNIT_KINDS and tokens[parser.pos + 1] != "(":
        parser.pos += 1
        head = parser.parse_literal()
        parser.expect_symbol(".")
        return AMElement(label, _UNIT_KINDS[tok], head)
    head = parser.parse_literal()
    kind = _RULE_KINDS.get(tokens[parser.pos])
    if kind is None:
        parser.error("expected '<-' or '-<'")
    parser.pos += 1
    body: list[Literal] = []
    guards: list[tuple[str, str]] = []
    while True:
        left_at = parser.pos
        left = tokens[left_at]
        if left.isidentifier() and tokens[left_at + 1] == "!=":
            parser.pos += 2
            right_at = parser.pos
            right = parser.expect_ident("a variable")
            for at in (left_at, right_at):
                if not tokens[at][0].isupper():
                    parser.error("inequality guards compare variables", at)
            guards.append((left, right))
        else:
            body.append(parser.parse_literal())
        if tokens[parser.pos] == ",":
            parser.pos += 1
            continue
        break
    parser.expect_symbol(".")
    return AMElement(label, kind, head, body, guards)


def parse_kb(text: str) -> KBDocument:
    """Parse a knowledge-base document; the first problem raises ParseError
    with its 1-based position. A document parsed without error becomes the
    last document, whose values the next parse reuses."""
    global _last_tables
    parser = _Parser(text)
    doc = _parse_document(parser)
    _last_tables = parser.terms, parser.atoms, parser.literals, parser.formulas
    return doc


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
        chunks.append("\n".join(["#ic"] + [f"{c}." for c in doc.ic]))
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
        start = self.pos
        try:
            return super().parse_atom(model)
        except ValueError as exc:
            self.error(str(exc), start)


def parse_query(text: str) -> Formula:
    parser = _FragmentParser(text)
    formula = parser.parse_formula(EM)
    if parser.peek():
        parser.error("unexpected trailing input")
    return formula


def parse_literal_text(text: str) -> Literal:
    parser = _FragmentParser(text)
    literal = parser.parse_literal()
    if parser.peek():
        parser.error("unexpected trailing input")
    if not literal.is_ground:
        raise GroundednessError(f"query must be ground: {literal}")
    return literal


def parse_world_spec(text: str) -> tuple[Atom, ...]:
    if not text.strip():
        return ()
    parser = _FragmentParser(text)
    atoms = [parser.parse_atom(EM)]
    while parser.at_symbol(","):
        parser.pos += 1
        atoms.append(parser.parse_atom(EM))
    if parser.peek():
        parser.error("unexpected trailing input")
    return tuple(atoms)


def parse_evidence(text: str) -> tuple[ProbabilisticFormula, ...]:
    """Evidence statements, `atom.` (certain) or `atom : p +- e.`, each read
    as the probabilistic formula it adds to the EM."""
    parser = _FragmentParser(text)
    formulas = []
    while parser.peek():
        start = parser.pos
        atom = parser.parse_atom(EM)
        p, eps = Fraction(1), Fraction(0)
        if parser.at_symbol(":"):
            parser.pos += 1
            p, eps = parser.parse_bound()
        parser.expect_symbol(".")
        try:
            formulas.append(ProbabilisticFormula(atom_formula(atom), p, eps))
        except (ValueError, GroundednessError) as exc:
            parser.error(str(exc), start)
    return tuple(formulas)


# -- assembly -------------------------------------------------------------------


def assemble(doc: KBDocument, max_atoms: int = DEFAULT_MAX_ATOMS) -> InCAFramework:
    """Ground the program over the declared and mentioned constants and wire
    up the framework. The atom universe defaults to every atom mentioned in
    the probabilistic section, the constraints, and the annotations, in
    document order."""
    # The declared constants are built, and so checked, in any case; the
    # mentioned ones only for a schematic program, as instantiate returns a
    # ground element as it is.
    pool: list[Term] = [Term(name, role) for role, name in doc.sorts]
    elements = doc.am
    if not all(e.is_ground for e in elements):
        seen = {t.name for t in pool}
        for e in doc.am:
            for lit in (e.head, *e.body):
                for t in lit.atom.args:
                    if not t.is_variable and t.name not in seen:
                        seen.add(t.name)
                        pool.append(t)
        elements = [g for e in doc.am for g in instantiate(e, pool)]
    program = AMProgram(tuple(elements))

    annotations = AnnotationFunction(doc.af)
    universe = doc.universe
    if universe is None:
        universe = tuple(dict.fromkeys(
            [a for f in doc.em for a in f.atoms]
            + [a for c in doc.ic for a in c.atoms]
            + [a for label, _ in doc.af for a in annotations._atoms.get(label, ())]
        ))

    em_kb = EMKnowledgeBase(doc.em, doc.ic, universe)
    return InCAFramework(
        em=em_kb,
        program=program,
        annotations=annotations,
        max_atoms=max_atoms,
    )


def load_kb(path: str) -> KBDocument:
    with open(path, encoding="utf-8") as fh:
        return parse_kb(fh.read())
