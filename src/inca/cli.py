"""Command-line interface.

Every subcommand loads a knowledge-base file, runs one query pipeline, and
prints either human-readable lines or (with --json) a JSON envelope with
`query` and `result` keys plus `interval`, `worlds`, or `forest` where they
apply. Exit codes: 0 success, 1 domain errors, running out of memory and
dialectical lines too long to walk, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import em
from .attribution import most_probable_suspects
from .errors import GroundednessError, InCAError
from .kbformat import (
    assemble,
    format_fraction,
    load_kb,
    parse_evidence,
    parse_literal_text,
    parse_query,
    parse_world_spec,
    render_world,
)


def _interval_json(interval) -> dict:
    return {
        "p": format_fraction(interval.p),
        "eps": format_fraction(interval.eps),
        "lower": format_fraction(interval.lower),
        "upper": format_fraction(interval.upper),
    }


def _interval_text(interval) -> str:
    return f"{format_fraction(interval.p)} +- {format_fraction(interval.eps)}"


def _interval_answer(name, interval):
    text = _interval_text(interval)
    return text, {"query": name, "result": text, "interval": _interval_json(interval)}


def _world_json(world, universe) -> list:
    return [str(a) for a in universe if a in world]


def _worlds_answer(name, worlds, universe):
    text = "\n".join(render_world(w, universe) for w in worlds)
    payload = {
        "query": name,
        "result": len(worlds),
        "worlds": [_world_json(w, universe) for w in worlds],
    }
    return text, payload


def _node_json(n) -> dict:
    return {
        "argument": str(n.argument),
        "mark": n.mark,
        "defeatKind": n.defeat_kind,
        "children": [_node_json(c) for c in n.children],
    }


def _node_lines(n, depth: int, lines: list) -> None:
    kind = f" ({n.defeat_kind})" if n.defeat_kind else ""
    lines.append(f"{'  ' * depth}{n.mark}{kind} {n.argument}")
    for c in n.children:
        _node_lines(c, depth + 1, lines)


def _forest_text(forest) -> str:
    lines: list[str] = []
    for tree in forest:
        _node_lines(tree, 0, lines)
    return "\n".join(lines)


def _load(ns):
    doc = load_kb(ns.kb)
    return assemble(doc, max_atoms=ns.max_atoms)


def _world_from_spec(framework, spec: str):
    atoms = parse_world_spec(spec)
    universe = set(framework.em.atom_universe)
    for atom in atoms:
        if atom not in universe:
            raise GroundednessError(f"world atom outside the universe: {atom}")
    return frozenset(atoms)


def cmd_check(ns):
    framework = _load(ns)
    ok = em.is_consistent(framework.em, ns.max_atoms)
    verdict = "consistent" if ok else "inconsistent"
    return verdict, {"query": "check", "result": verdict}


def cmd_worlds(ns):
    framework = _load(ns)
    return _worlds_answer("worlds", framework.worlds, framework.em.atom_universe)


def cmd_entail(ns):
    framework = _load(ns)
    query = parse_query(ns.query)
    answer = em.max_entailment(framework.em, query, ns.max_atoms)
    return _interval_answer("entail", answer)


def cmd_args(ns):
    framework = _load(ns)
    literal = parse_literal_text(ns.literal)
    arguments = framework.index.arguments_for(literal)
    text = "\n".join(str(a) for a in arguments)
    payload = {"query": "args", "result": [str(a) for a in arguments]}
    return text, payload


def cmd_warrant(ns):
    framework = _load(ns)
    literal = parse_literal_text(ns.literal)
    if ns.world is None:
        status = framework.index.warrant_status(literal)
    else:
        world = _world_from_spec(framework, ns.world)
        status = framework.warrant_status_in(world, literal)
    return status, {"query": "warrant", "result": status}


def _world_set_command(name, collect):
    def cmd(ns):
        framework = _load(ns)
        worlds = collect(framework, parse_literal_text(ns.literal))
        return _worlds_answer(name, worlds, framework.em.atom_universe)

    return cmd


cmd_nec = _world_set_command("nec", lambda fw, lit: fw.nec_set(lit))
cmd_poss = _world_set_command("poss", lambda fw, lit: fw.poss_set(lit))


def cmd_bounds(ns):
    framework = _load(ns)
    literal = parse_literal_text(ns.literal)
    return _interval_answer("bounds", framework.prob_bounds(literal))


def cmd_attribute(ns):
    framework = _load(ns)
    suspects = [s for s in ns.suspects.split(",") if s]
    evidence = ()
    if ns.evidence is not None:
        with open(ns.evidence, encoding="utf-8") as fh:
            evidence = parse_evidence(fh.read())
    result = most_probable_suspects(framework, ns.op, suspects, evidence)
    universe = framework.em.atom_universe

    lines = ["most probable: " + ", ".join(result.most_probable)]
    for report in result.reports:
        lines.append(f"{report.suspect}: {_interval_text(report.interval)}")
    text = "\n".join(lines)

    trace = None
    if result.traces:
        first = result.traces[0]
        trace = {
            "suspect": first.suspect,
            "world": _world_json(first.world, universe),
            "forest": [_node_json(t) for t in first.forest],
        }
    payload = {
        "query": "attribute",
        "result": {
            "mostProbable": list(result.most_probable),
            "perSuspect": {
                r.suspect: _interval_json(r.interval) for r in result.reports
            },
            "trace": trace,
        },
    }
    return text, payload


def cmd_explain(ns):
    framework = _load(ns)
    literal = parse_literal_text(ns.literal)
    world = _world_from_spec(framework, ns.world)
    status = framework.warrant_status_in(world, literal)
    forest = framework.forest_in(world, literal)
    text = status if not forest else f"{status}\n{_forest_text(forest)}"
    payload = {
        "query": "explain",
        "result": status,
        "forest": [_node_json(t) for t in forest],
    }
    return text, payload


def _count(text: str) -> int:
    """An integer >= 0 in decimal digits, as an argparse type."""
    if text.isdecimal():
        return int(text)
    raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("kb", help="knowledge-base file")
    common.add_argument("--json", action="store_true", help="JSON output")
    common.add_argument(
        "--max-atoms",
        type=_count,
        default=em.DEFAULT_MAX_ATOMS,
        help="largest atom universe to enumerate (default %(default)s)",
    )

    parser = argparse.ArgumentParser(
        prog="inca",
        description="Reason over probabilistic and defeasible knowledge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common]).set_defaults(func=cmd_check)
    sub.add_parser("worlds", parents=[common]).set_defaults(func=cmd_worlds)

    p = sub.add_parser("entail", parents=[common])
    p.add_argument("-q", "--query", required=True, help="formula to bound")
    p.set_defaults(func=cmd_entail)

    for name, func in (("args", cmd_args), ("nec", cmd_nec),
                       ("poss", cmd_poss), ("bounds", cmd_bounds)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("-l", "--literal", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("warrant", parents=[common])
    p.add_argument("-l", "--literal", required=True)
    p.add_argument("-w", "--world", help="comma-separated atoms")
    p.set_defaults(func=cmd_warrant)

    p = sub.add_parser("attribute", parents=[common])
    p.add_argument("--op", required=True, help="operation constant")
    p.add_argument("--suspects", required=True, help="comma-separated actors")
    p.add_argument("--evidence", help="evidence file")
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("explain", parents=[common])
    p.add_argument("-l", "--literal", required=True)
    p.add_argument("-w", "--world", required=True, help="comma-separated atoms")
    p.set_defaults(func=cmd_explain)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves no state in the parser, so one serves every call.
    return build_parser()


def run_cli(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        text, payload = ns.func(ns)
    except (InCAError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2) if ns.json else text)
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
