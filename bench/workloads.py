"""The four benchmark workloads: their inputs, their query mixes and the
reference every answer is checked against.

A workload is a list of queries that repeats as a cycle. Each query is one
`inca` command line, run in-process through `inca.cli.run_cli`. Timing
statistics use whole cycles only, so every run weighs the commands of a mix
the same way.

`em_lp` and `am_args` draw their knowledge bases from a fixed pool of
generated items whose answers were recorded by `record.py`: no independent
oracle finishes at these sizes (see NOTES.md), so the pool is what makes
every answer checkable. Each pool item is run by one command of the mix per
cycle. Each query rewrites its item's file with the constant renamed after
the cycle (`c0`, `c1`, ...), so no query reads a knowledge base that an
earlier query in the process used, and the reference answer is renamed the
same way. The seed sets the order of the queries within each cycle.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

WORM_KB = FIXTURES / "worm123.inca"
WORM_EVIDENCE = FIXTURES / "origip.evidence"
IS_CAP = "isCap(baja,worm123)"
COND_OP = "condOp(baja,worm123)"

# Constant that pool items are generated and recorded with; query files and
# their reference answers rename it.
POOL_CONST = "c0"
# Pool items whose copies named `setup` time assemble(load_kb(path)).
SETUP_ITEMS = 16

EM_POOL = 32
EM_ATOMS = 6
EM_FORMULAS = 6
EM_MIX = ("check", "entail")

AM_POOL = 256
AM_EM_ATOMS = 3
AM_MIX = ("args", "warrant", "bounds", "nec")
# Atoms p0..p7 in layers: a rule's head sits above every literal of its body,
# so programs are acyclic and have at most 16 derivable literals.
AM_LAYERS = ((0, 1, 2), (3, 4), (5, 6), (7,))
AM_FACTS, AM_PRESUMPTIONS, AM_STRICT, AM_DEFEASIBLE = 4, 3, 8, 14
AM_ANNOTATED = 0.3
AM_NEGATED = 0.4


@dataclass
class Query:
    """One command line. `command` names the mix entry (`bounds`, ...);
    `check` gets the exit code and standard output and says whether the
    answer is right; `key` names the query within its cycle; `prepare`
    writes the query's input file outside the timed region."""

    command: str
    argv: list[str]
    check: Callable[[int, str], bool]
    key: str
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    """`setup_paths` are loaded to time `assemble(load_kb(path))`; no query
    reads them. `cycle(k)` gives the queries of the k-th mix cycle."""

    name: str
    setup_paths: list[str]
    cycle: Callable[[int], list[Query]]


# -- answer comparison ----------------------------------------------------------


def _interval(text: str) -> tuple[Fraction, Fraction] | None:
    parts = text.strip().split(" +- ")
    if len(parts) != 2:
        return None
    try:
        return Fraction(parts[0]), Fraction(parts[1])
    except ValueError:
        return None


def _worlds(text: str) -> frozenset | None:
    worlds = set()
    for line in filter(None, text.splitlines()):
        if not (line.startswith("{") and line.endswith("}")):
            return None
        inner = line[1:-1]
        worlds.add(frozenset(inner.split(", ")) if inner else frozenset())
    return frozenset(worlds)


def same_answer(command: str, expected: str, out: str) -> bool:
    """Exact rationals for intervals, sets for world and argument lists, the
    text itself for everything else."""
    if command in ("entail", "bounds"):
        want = _interval(expected)
        return want is not None and _interval(out) == want
    if command in ("nec", "poss", "worlds"):
        want = _worlds(expected)
        return want is not None and _worlds(out) == want
    if command == "args":
        return sorted(out.splitlines()) == sorted(expected.splitlines())
    return out == expected


def _checker(command: str, expected: str):
    def check(code: int, out: str) -> bool:
        return code == 0 and same_answer(command, expected, out)

    return check


def _exact(expected: str):
    def check(code: int, out: str) -> bool:
        return code == 0 and out == expected

    return check


def load_reference(name: str):
    with open(REFERENCE / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def _rename(text: str, const: str) -> str:
    return text.replace(f"({POOL_CONST})", f"({const})")


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# -- worm123 and worlds_wide ----------------------------------------------------


def worm123_queries(kb: str, evidence: str) -> list[tuple[str, list[str]]]:
    """(id, argv) of the worm123 mix: every command once."""
    return [
        ("check", ["check", kb]),
        ("worlds", ["worlds", kb]),
        ("entail", ["entail", kb, "-q", "govCybLab(baja) v mseTT(baja,2)"]),
        ("bounds_cap", ["bounds", kb, "-l", IS_CAP]),
        ("bounds_cond", ["bounds", kb, "-l", COND_OP]),
        ("nec", ["nec", kb, "-l", IS_CAP]),
        ("poss", ["poss", kb, "-l", IS_CAP]),
        ("args", ["args", kb, "-l", COND_OP]),
        ("warrant", ["warrant", kb, "-l", COND_OP]),
        ("explain", ["explain", kb, "-l", IS_CAP, "-w", "govCybLab(baja)"]),
        ("attribute", ["attribute", kb, "--op", "worm123",
                       "--suspects", "baja,mojave", "--json"]),
        ("attribute_evidence", ["attribute", kb, "--op", "worm123",
                                "--suspects", "baja,krasnovia,mojave",
                                "--evidence", evidence]),
    ]


# Answers with a golden file under tests/golden are checked byte for byte
# against it; the rest against the answers recorded in reference/worm123.json.
GOLDEN_FILES = {
    "entail": "entail.txt",
    "bounds_cap": "bounds.txt",
    "attribute": "attribute.json",
}


def worm123_expected() -> dict[str, str]:
    expected = load_reference("worm123")
    for qid, name in GOLDEN_FILES.items():
        expected[qid] = _golden(name)
    return expected


def worm123_checks() -> dict[str, Callable[[int, str], bool]]:
    expected = worm123_expected()
    return {
        qid: _exact(want) if qid in GOLDEN_FILES else _checker(qid.split("_")[0], want)
        for qid, want in expected.items()
    }


def worm123(seed: int, workdir: Path) -> Workload:
    checks = worm123_checks()
    queries = worm123_queries(str(WORM_KB), str(WORM_EVIDENCE))
    rng = random.Random(seed)

    def cycle(k: int) -> list[Query]:
        return [
            Query(argv[0], argv, checks[qid], qid)
            for qid, argv in _shuffled(rng, queries)
        ]

    return Workload("worm123", [str(WORM_KB)], cycle)


PADDING = ("pad0(x)", "pad1(x)")


def padded_worm_text(universe: list[str]) -> str:
    """worm123 with two atoms that appear only in #universe: 32 worlds."""
    text = WORM_KB.read_text(encoding="utf-8")
    return text + "\n#universe\n" + ", ".join(universe + list(PADDING)) + ".\n"


def _padded_worlds(text: str) -> str:
    """worm123's world list, each world with every subset of the padding."""
    lines = []
    for world in sorted(_worlds(text), key=sorted):
        for mask in range(1 << len(PADDING)):
            extra = [a for j, a in enumerate(PADDING) if mask >> j & 1]
            lines.append("{" + ", ".join(sorted(world) + extra) + "}")
    return "\n".join(lines) + "\n"


def worlds_wide(seed: int, workdir: Path, universe: list[str]) -> Workload:
    """`universe` is worm123's own atom universe, in order."""
    path = workdir / "worlds_wide.inca"
    path.write_text(padded_worm_text(universe), encoding="utf-8")
    kb = str(path)
    worm = worm123_expected()
    # Padding atoms cannot change any bound, so every answer is worm123's.
    queries = [
        Query("bounds", ["bounds", kb, "-l", IS_CAP], _exact(worm["bounds_cap"]),
              "bounds_cap"),
        Query("bounds", ["bounds", kb, "-l", COND_OP],
              _checker("bounds", worm["bounds_cond"]), "bounds_cond"),
        Query("nec", ["nec", kb, "-l", IS_CAP],
              _checker("nec", _padded_worlds(worm["nec"])), "nec"),
        Query("attribute", ["attribute", kb, "--op", "worm123",
                            "--suspects", "baja,mojave", "--json"],
              _exact(worm["attribute"]), "attribute"),
    ]
    rng = random.Random(seed)

    def cycle(k: int) -> list[Query]:
        return _shuffled(rng, queries)

    return Workload("worlds_wide", [kb], cycle)


# -- generated environmental formulas ----------------------------------------------


def random_formula(rng: random.Random, n: int, depth: int = 2):
    """A formula tree over atom indices 0..n-1."""
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return ("atom", rng.randrange(n))
    if roll < 0.6:
        return ("not", random_formula(rng, n, depth - 1))
    op = "and" if roll < 0.8 else "or"
    return (op, random_formula(rng, n, depth - 1), random_formula(rng, n, depth - 1))


def holds(f, world: int) -> bool:
    if f[0] == "atom":
        return bool(world >> f[1] & 1)
    if f[0] == "not":
        return not holds(f[1], world)
    if f[0] == "and":
        return holds(f[1], world) and holds(f[2], world)
    return holds(f[1], world) or holds(f[2], world)


def render(f, pred: str, const: str) -> str:
    if f[0] == "atom":
        return f"{pred}{f[1]}({const})"
    if f[0] == "not":
        return "~" + render(f[1], pred, const)
    op = " ^ " if f[0] == "and" else " v "
    return "(" + render(f[1], pred, const) + op + render(f[2], pred, const) + ")"


def witness(rng: random.Random, n: int) -> dict[int, Fraction]:
    """A random rational distribution over a few of the 2^n worlds."""
    support = rng.sample(range(1 << n), rng.randint(3, min(12, 1 << n)))
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    return {w: Fraction(x, total) for w, x in zip(support, weights)}


def probability(f, dist: dict[int, Fraction]) -> Fraction:
    return sum((p for w, p in dist.items() if holds(f, w)), Fraction(0))


def bracket(rng: random.Random, pr: Fraction) -> tuple[Fraction, Fraction]:
    """p +- eps on the 1/8 grid whose interval contains pr, sometimes
    widened by an eighth on either side."""
    lo = Fraction(int(pr * 8), 8)
    hi = Fraction(-int(-pr * 8 // 1), 8)
    lo = max(Fraction(0), lo - Fraction(rng.randint(0, 1), 8))
    hi = min(Fraction(1), hi + Fraction(rng.randint(0, 1), 8))
    return (lo + hi) / 2, (hi - lo) / 2


def em_lines(rng: random.Random, n: int, count: int, pred: str):
    """`count` formulas over n atoms, each bracketing its probability under
    one witness distribution, so the knowledge base is consistent. Returns
    the lines and the witness."""
    dist = witness(rng, n)
    lines = []
    for _ in range(count):
        f = random_formula(rng, n)
        p, eps = bracket(rng, probability(f, dist))
        lines.append(f"{render(f, pred, POOL_CONST)} : {p} +- {eps}.")
    return lines, dist


def universe_line(n: int, pred: str) -> str:
    return ", ".join(f"{pred}{i}({POOL_CONST})" for i in range(n)) + "."


# -- em_lp ------------------------------------------------------------------


@dataclass(frozen=True)
class PoolItem:
    """A generated knowledge base, the command the pool gives it and that
    command's argument (entail query or literal), all written with
    POOL_CONST. `witness` is the query's probability under the distribution
    the EM was bracketed around, so any entailed interval must contain it."""

    text: str
    command: str
    arg: str | None
    witness: Fraction | None = None


def em_item(index: int) -> PoolItem:
    rng = random.Random(f"em_lp-{index}")
    formulas, dist = em_lines(rng, EM_ATOMS, EM_FORMULAS, "a")
    lines = ["#em", *formulas, "#universe", universe_line(EM_ATOMS, "a")]
    query = random_formula(rng, EM_ATOMS)
    command = EM_MIX[index % len(EM_MIX)]
    return PoolItem("\n".join(lines) + "\n", command,
                    render(query, "a", POOL_CONST), probability(query, dist))


# -- am_args ------------------------------------------------------------------


def _literal(rng: random.Random, atoms, negatable: bool = True) -> str:
    neg = negatable and rng.random() < AM_NEGATED
    return ("neg " if neg else "") + f"p{rng.choice(atoms)}({POOL_CONST})"


def _rule(rng: random.Random, seen: set, positive_head: bool):
    while True:
        layer = rng.randrange(1, len(AM_LAYERS))
        below = [a for group in AM_LAYERS[:layer] for a in group]
        head = _literal(rng, AM_LAYERS[layer], negatable=not positive_head)
        body: list[str] = []
        for _ in range(rng.randint(1, 2)):
            lit = _literal(rng, below)
            complement = lit[4:] if lit.startswith("neg ") else "neg " + lit
            if lit not in body and complement not in body:
                body.append(lit)
        key = (head, tuple(sorted(body)))
        if key not in seen:
            seen.add(key)
            return head, body


def am_item(index: int) -> PoolItem:
    """A layered program of 29 elements over a 3-atom EM. Facts and strict
    heads are positive, so the strict part is consistent; about 30% of the
    elements carry an annotation."""
    rng = random.Random(f"am_args-{index}")
    em = ["#em"] + em_lines(rng, AM_EM_ATOMS, AM_EM_ATOMS, "e")[0]
    base = AM_LAYERS[0]
    am = ["#am"]
    for i in range(AM_FACTS):
        am.append(f"f{i} : fact {_literal(rng, base, negatable=False)}.")
    for i in range(AM_PRESUMPTIONS):
        am.append(f"h{i} : presume {_literal(rng, base)}.")
    seen: set = set()
    for i in range(AM_STRICT):
        head, body = _rule(rng, seen, positive_head=True)
        am.append(f"s{i} : {head} <- {', '.join(body)}.")
    for i in range(AM_DEFEASIBLE):
        head, body = _rule(rng, seen, positive_head=False)
        am.append(f"d{i} : {head} -< {', '.join(body)}.")
    af = ["#af"]
    for line in am[1:]:
        if rng.random() < AM_ANNOTATED:
            label = line.split(" : ", 1)[0]
            formula = render(random_formula(rng, AM_EM_ATOMS, depth=1), "e", POOL_CONST)
            af.append(f"{label} : {formula}.")
    uni = ["#universe", universe_line(AM_EM_ATOMS, "e")]
    layer = AM_LAYERS[rng.randrange(1, len(AM_LAYERS))]
    literal = _literal(rng, layer)
    command = AM_MIX[index % len(AM_MIX)]
    return PoolItem("\n".join(em + am + af + uni) + "\n", command, literal)


def item_argv(item: PoolItem, path: str, const: str) -> list[str]:
    if item.command == "check":
        return ["check", path]
    flag = "-q" if item.command == "entail" else "-l"
    return [item.command, path, flag, _rename(item.arg, const)]


def pool_workload(name: str, items: list[PoolItem], expected: list[str],
                  seed: int, workdir: Path) -> Workload:
    if len(expected) != len(items):
        raise ValueError(f"reference for {name} has {len(expected)} answers, "
                         f"the pool has {len(items)} items")
    setup_paths = []
    for i, item in enumerate(items[:SETUP_ITEMS]):
        path = workdir / f"setup-{i}.inca"
        path.write_text(_rename(item.text, "setup"), encoding="utf-8")
        setup_paths.append(str(path))
    rng = random.Random(seed)

    def cycle(k: int) -> list[Query]:
        const = f"c{k}"
        queries = []
        for i in _shuffled(rng, range(len(items))):
            item = items[i]
            path = workdir / f"q{i}.inca"
            text = _rename(item.text, const)
            queries.append(Query(
                item.command,
                item_argv(item, str(path), const),
                _checker(item.command, _rename(expected[i], const)),
                str(i),
                lambda path=path, text=text: path.write_text(text, encoding="utf-8"),
            ))
        return queries

    return Workload(name, setup_paths, cycle)


def em_lp(seed: int, workdir: Path) -> Workload:
    items = [em_item(i) for i in range(EM_POOL)]
    return pool_workload("em_lp", items, load_reference("em_lp"), seed, workdir)


def am_args(seed: int, workdir: Path) -> Workload:
    items = [am_item(i) for i in range(AM_POOL)]
    return pool_workload("am_args", items, load_reference("am_args"), seed, workdir)

