import gc
import json
import os
import re
import shutil
import subprocess
import sys
from types import FunctionType

import pytest
from jsonschema import validate

import inca
from inca import cli
from inca.cli import build_parser, run_cli

from conftest import FIXTURES, GOLDEN

KB = str(FIXTURES / "worm123.inca")
EVIDENCE = str(FIXTURES / "origip.evidence")

_fraction = {"type": "string", "pattern": r"^-?\d+(\.\d+)?(/\d+)?$"}
_interval = {
    "type": "object",
    "properties": {"p": _fraction, "eps": _fraction, "lower": _fraction, "upper": _fraction},
    "required": ["p", "eps", "lower", "upper"],
    "additionalProperties": False,
}
_forest = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "argument": {"type": "string"},
            "mark": {"enum": ["U", "D"]},
            "defeatKind": {"enum": ["proper", "blocking", None]},
            "children": {"$ref": "#/definitions/forest"},
        },
        "required": ["argument", "mark", "defeatKind", "children"],
        "additionalProperties": False,
    },
}
_worlds = {"type": "array", "items": {"type": "array", "items": {"type": "string"}}}

ENVELOPE_SCHEMA = {
    "definitions": {"forest": _forest},
    "type": "object",
    "properties": {
        "query": {
            "enum": ["check", "worlds", "entail", "args", "warrant",
                     "nec", "poss", "bounds", "attribute", "explain"],
        },
        "result": {},
        "interval": _interval,
        "worlds": _worlds,
        "forest": {"$ref": "#/definitions/forest"},
    },
    "required": ["query", "result"],
    "additionalProperties": False,
}

ATTRIBUTE_RESULT_SCHEMA = {
    "definitions": {"forest": _forest},
    "type": "object",
    "properties": {
        "mostProbable": {"type": "array", "items": {"type": "string"}},
        "perSuspect": {
            "type": "object",
            "additionalProperties": _interval,
        },
        "trace": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "properties": {
                        "suspect": {"type": "string"},
                        "world": {"type": "array", "items": {"type": "string"}},
                        "forest": {"$ref": "#/definitions/forest"},
                    },
                    "required": ["suspect", "world", "forest"],
                    "additionalProperties": False,
                },
            ],
        },
    },
    "required": ["mostProbable", "perSuspect", "trace"],
    "additionalProperties": False,
}


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    validate(payload, ENVELOPE_SCHEMA)
    return payload


# -- golden outputs ---------------------------------------------------------------

# The padded copies' universes add 7 or 17 atoms that no formula mentions:
# 1024 or 2^20 worlds (the default --max-atoms cap) and the same answers. The
# padding atoms come last in the universe, so the attribution trace still
# shows the first warranting world of worm123.
WORM_UNIVERSE = ["govCybLab(baja)", "cybCapAge(baja,5)", "mseTT(baja,2)"]
GOLDEN_KBS = pytest.mark.parametrize(
    "padded", [0, 7, 17], ids=["worm123", "padded", "padded20"]
)


def golden_kb(padded, tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    if not padded:
        return "worm123.inca"
    universe = WORM_UNIVERSE + [f"pad{i}(x)" for i in range(padded)]
    path = tmp_path / "worm123.inca"
    path.write_text(
        (FIXTURES / "worm123.inca").read_text()
        + "\n#universe\n" + ", ".join(universe) + ".\n"
    )
    return str(path)


def test_entail_golden(capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    code, out, err = run(
        capsys, "entail", "worm123.inca", "-q", "govCybLab(baja) v mseTT(baja,2)"
    )
    assert code == 0
    assert out == (GOLDEN / "entail.txt").read_text()


@GOLDEN_KBS
def test_bounds_golden(capsys, monkeypatch, tmp_path, padded):
    kb = golden_kb(padded, tmp_path, monkeypatch)
    code, out, err = run(capsys, "bounds", kb, "-l", "isCap(baja,worm123)")
    assert code == 0
    assert out == (GOLDEN / "bounds.txt").read_text()


@GOLDEN_KBS
def test_attribute_golden(capsys, monkeypatch, tmp_path, padded):
    kb = golden_kb(padded, tmp_path, monkeypatch)
    code, out, err = run(
        capsys, "attribute", kb,
        "--op", "worm123", "--suspects", "baja,mojave", "--json",
    )
    assert code == 0
    assert out == (GOLDEN / "attribute.json").read_text()
    payload = json.loads(out)
    validate(payload, ENVELOPE_SCHEMA)
    validate(payload["result"], ATTRIBUTE_RESULT_SCHEMA)
    assert payload["result"]["mostProbable"] == ["baja"]
    assert payload["result"]["perSuspect"]["baja"]["p"] == "1"
    assert payload["result"]["perSuspect"]["mojave"]["p"] == "0"
    assert payload["result"]["trace"] is not None


@pytest.mark.parametrize("command, expected", [
    (("explain", "-w", "e1(c0),e2(c0)"), "am42-7-explain.txt"),
    (("args",), "am42-7-args.txt"),
])
def test_am_scale_golden(capsys, monkeypatch, command, expected):
    """am_args item 7 at 42 defeasible rules (bench/workloads.py with
    AM_DEFEASIBLE = 42, as in CI's AM scale guard): the shown tree, whose
    children come in walk order, and the arguments, in sort order."""
    monkeypatch.chdir(GOLDEN)
    code, out, err = run(capsys, command[0], "am42-7.inca", "-l", "p7(c0)", *command[1:])
    assert code == 0, err
    assert out == (GOLDEN / expected).read_text()


def test_unrelated_facts_leave_answers_unchanged(capsys, monkeypatch, tmp_path):
    # Six more facts give worm123 18 derivable literals; each specificity
    # comparison it needs still ranges over a few.
    facts = "".join(f"pad{i} : fact unrelated{i}(baja).\n" for i in range(6))
    padded = tmp_path / "worm123.inca"
    padded.write_text((FIXTURES / "worm123.inca").read_text().replace("#am\n", "#am\n" + facts))
    queries = (
        ("bounds", "-l", "condOp(baja,worm123)"),
        ("warrant", "-l", "condOp(baja,worm123)"),
        ("attribute", "--op", "worm123", "--suspects", "baja,mojave", "--json"),
    )
    for command, *rest in queries:
        outputs = [run(capsys, command, kb, *rest) for kb in (KB, str(padded))]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]


# -- human-readable output ----------------------------------------------------------


def test_check(capsys):
    code, out, _ = run(capsys, "check", KB)
    assert code == 0
    assert out == "consistent\n"


def test_check_inconsistent_kb(capsys, tmp_path):
    bad = tmp_path / "bad.inca"
    bad.write_text(
        "#em\np(a) v q(a) : 0.4 +- 0.\np(a) ^ q(a) : 0.6 +- 0.1.\n"
    )
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 0
    assert out == "inconsistent\n"


def test_worlds(capsys):
    code, out, _ = run(capsys, "worlds", KB)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "{}"
    assert lines[1] == "{govCybLab(baja)}"
    assert lines[-1] == "{govCybLab(baja), cybCapAge(baja,5), mseTT(baja,2)}"


def test_args(capsys):
    code, out, _ = run(capsys, "args", KB, "-l", "condOp(baja,worm123)")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert "<{de1a, th1a}, condOp(baja,worm123)>" in lines


def test_warrant(capsys):
    code, out, _ = run(capsys, "warrant", KB, "-l", "condOp(baja,worm123)")
    assert code == 0 and out == "warranted\n"
    code, out, _ = run(capsys, "warrant", KB, "-l", "isCap(baja,worm123)")
    assert code == 0 and out == "undecided\n"
    code, out, _ = run(
        capsys, "warrant", KB, "-l", "isCap(baja,worm123)", "-w", "govCybLab(baja)"
    )
    assert code == 0 and out == "warranted\n"
    code, out, _ = run(
        capsys, "warrant", KB, "-l", "isCap(baja,worm123)", "-w", "cybCapAge(baja,5)"
    )
    assert code == 0 and out == "not-warranted\n"


def test_nec_poss(capsys):
    code, out, _ = run(capsys, "nec", KB, "-l", "isCap(baja,worm123)")
    assert code == 0
    assert out.splitlines() == [
        "{govCybLab(baja)}",
        "{mseTT(baja,2)}",
        "{govCybLab(baja), mseTT(baja,2)}",
    ]
    code, out, _ = run(capsys, "poss", KB, "-l", "isCap(baja,worm123)")
    assert code == 0
    assert len(out.splitlines()) == 6


def test_explain(capsys):
    code, out, _ = run(
        capsys, "explain", KB, "-l", "isCap(baja,worm123)", "-w", "govCybLab(baja)"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "warranted"
    assert lines[1] == "U <{de4, ph1}, isCap(baja,worm123)>"


def test_explain_shows_defeat(capsys):
    code, out, _ = run(
        capsys, "explain", KB, "-l", "isCap(baja,worm123)",
        "-w", "govCybLab(baja),cybCapAge(baja,5)",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "undecided"
    assert any(line.startswith("  U (blocking)") for line in lines)


def test_attribute_human(capsys):
    code, out, _ = run(
        capsys, "attribute", KB, "--op", "worm123", "--suspects", "baja,mojave"
    )
    assert code == 0
    assert out.splitlines() == [
        "most probable: baja",
        "baja: 1 +- 0",
        "mojave: 0 +- 0",
    ]


def test_attribute_with_evidence_file(capsys):
    code, out, _ = run(
        capsys, "attribute", KB, "--op", "worm123",
        "--suspects", "baja,mojave", "--evidence", EVIDENCE,
    )
    assert code == 0
    assert out.splitlines()[0] == "most probable: baja"


def test_attribute_with_inconsistent_evidence_names_conflict(capsys, tmp_path):
    evidence = tmp_path / "bad.evidence"
    evidence.write_text("govCybLab(baja) : 0.1 +- 0.\n")
    code, out, err = run(
        capsys, "attribute", KB, "--op", "worm123",
        "--suspects", "baja,mojave", "--evidence", str(evidence),
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: evidence is inconsistent with the knowledge base; conflicting "
        "formulas: govCybLab(baja) : 4/5 +- 1/10; govCybLab(baja) : 1/10 +- 0\n"
    )


def test_inconsistent_em_with_evidence_blames_the_em(capsys, tmp_path):
    bad = tmp_path / "bad.inca"
    bad.write_text(
        "#em\np(a) v q(a) : 0.4 +- 0.\np(a) ^ q(a) : 0.6 +- 0.1.\n"
    )
    evidence = tmp_path / "r.evidence"
    evidence.write_text("r(a).\n")
    expected = "error: no probability distribution satisfies the knowledge base\n"
    for extra in ((), ("--evidence", str(evidence))):
        code, out, err = run(
            capsys, "attribute", str(bad), "--op", "o", "--suspects", "x", *extra
        )
        assert (code, out, err) == (1, "", expected)


# -- json envelopes -----------------------------------------------------------------


@pytest.mark.parametrize("query, answer", [
    ("true", "1 +- 0"), ("false", "0 +- 0"), ("~false", "1 +- 0"),
    ("govCybLab(baja) v true", "1 +- 0"),
])
def test_entail_constant_query(capsys, query, answer):
    code, out, err = run(capsys, "entail", KB, "-q", query)
    assert (code, out, err) == (0, answer + "\n", "")


@pytest.mark.parametrize("statement, answer", [
    ("true : 1 +- 0.", "consistent"), ("false : 1/2 +- 0.", "inconsistent"),
])
def test_check_constant_statement(capsys, tmp_path, statement, answer):
    kb = tmp_path / "constant.inca"
    kb.write_text(f"#em\n{statement}\n")
    code, out, err = run(capsys, "check", str(kb))
    assert (code, out, err) == (0, answer + "\n", "")


def test_entail_json(capsys):
    payload = run_json(
        capsys, "entail", KB, "-q", "govCybLab(baja) v mseTT(baja,2)", "--json"
    )
    assert payload["query"] == "entail"
    assert payload["result"] == "0.9 +- 0.1"
    assert payload["interval"] == {
        "p": "0.9", "eps": "0.1", "lower": "0.8", "upper": "1",
    }
    payload = run_json(capsys, "entail", KB, "-q", "~false", "--json")
    assert payload["result"] == "1 +- 0"


def test_bounds_json(capsys):
    payload = run_json(
        capsys, "bounds", KB, "-l", "isCap(baja,worm123)", "--json"
    )
    assert payload["result"] == "0.75 +- 0.25"
    assert payload["interval"]["lower"] == "0.5"


def test_worlds_json(capsys):
    payload = run_json(capsys, "worlds", KB, "--json")
    assert payload["result"] == 8
    assert payload["worlds"][0] == []
    assert payload["worlds"][1] == ["govCybLab(baja)"]


def test_warrant_json(capsys):
    payload = run_json(capsys, "warrant", KB, "-l", "condOp(baja,worm123)", "--json")
    assert payload == {"query": "warrant", "result": "warranted"}


def test_nec_json(capsys):
    payload = run_json(capsys, "nec", KB, "-l", "isCap(baja,worm123)", "--json")
    assert payload["result"] == 3
    assert ["govCybLab(baja)"] in payload["worlds"]


def test_args_json(capsys):
    payload = run_json(capsys, "args", KB, "-l", "isCap(baja,worm123)", "--json")
    assert payload["result"] == ["<{de4, ph1}, isCap(baja,worm123)>"]


def test_explain_json(capsys):
    payload = run_json(
        capsys, "explain", KB, "-l", "isCap(baja,worm123)",
        "-w", "govCybLab(baja),cybCapAge(baja,5)", "--json",
    )
    assert payload["result"] == "undecided"
    assert len(payload["forest"]) == 1
    root = payload["forest"][0]
    assert root["mark"] == "D"
    assert root["children"][0]["defeatKind"] == "blocking"


# -- exit codes ----------------------------------------------------------------------


def test_missing_file_is_domain_error(capsys):
    code, out, err = run(capsys, "check", str(FIXTURES / "missing.inca"))
    assert code == 1
    assert err.startswith("error:")
    assert out == ""


def test_usage_error(capsys):
    code, _, _ = run(capsys, "bounds", KB)  # missing -l
    assert code == 2
    code, _, _ = run(capsys, "frobnicate", KB)
    assert code == 2


def test_shared_parser_carries_no_state_between_calls(capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    code, out, err = run(capsys, "entail", "worm123.inca")  # missing -q
    assert code == 2 and out == "" and "-q/--query" in err
    code, out, _ = run(
        capsys, "entail", "worm123.inca", "-q", "govCybLab(baja) v mseTT(baja,2)"
    )
    assert code == 0 and out == (GOLDEN / "entail.txt").read_text()
    # Options given to one call do not reach the next.
    payload = run_json(
        capsys, "warrant", KB, "-l", "isCap(baja,worm123)", "-w", "govCybLab(baja)",
        "--json",
    )
    assert payload == {"query": "warrant", "result": "warranted"}
    code, out, _ = run(capsys, "warrant", KB, "-l", "isCap(baja,worm123)")
    assert code == 0 and out == "undecided\n"


def test_fragment_parse_error_reports_position(capsys):
    code, out, err = run(capsys, "entail", KB, "-q", "p(1.5)")
    assert code == 1 and out == ""
    assert err == "error: line 1, column 1: bad term name: '1.5'\n"


def test_schematic_query_is_rendered(capsys):
    code, out, err = run(capsys, "entail", KB, "-q", "govCybLab(X)")
    assert (code, out, err) == (1, "", "error: query must be ground: govCybLab(X)\n")


@pytest.mark.parametrize("command", ["args", "warrant", "nec", "poss", "bounds", "explain"])
def test_schematic_literal_is_rejected(capsys, command):
    # A literal with a variable names no argument, so any answer would read
    # as if nothing were known about it.
    world = ["-w", "govCybLab(baja)"] if command == "explain" else []
    code, out, err = run(capsys, command, KB, "-l", "condOp(X,worm123)", *world)
    assert (code, out, err) == (1, "", "error: query must be ground: condOp(X,worm123)\n")


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0
    code, _, _ = run(capsys, "entail", "--help")
    assert code == 0


L = "isCap(baja,worm123)"
COMMANDS = ("check", "worlds", "entail", "args", "nec", "poss", "bounds",
            "warrant", "attribute", "explain")


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["frobnicate", KB],
    ["--json", "bounds", KB, "-l", L],
    *([command, "-h"] for command in COMMANDS),
    ["bounds", KB],
    ["bounds", KB, "-l", L],
    ["bounds", KB, "-l", L, "--json"],
    ["bounds", KB, "-l", L, "--bogus"],
    ["bounds", KB, "-l", L, "extra"],
    ["check", KB, "--max-atoms", "-1"],
], ids=lambda argv: " ".join(argv).replace(KB, "KB") or "none")
def test_dispatch_matches_the_top_level_parser(capsys, monkeypatch, argv):
    # run_cli hands a command's arguments to its own parser; every outcome,
    # help text and usage error included, is the top-level parser's.
    fast = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", build_parser().parse_args)
    assert run(capsys, *argv) == fast


def _no_json(*args):
    raise AssertionError("text output built a JSON value")


WORM_WORLDS = [
    "{}",
    "{govCybLab(baja)}",
    "{cybCapAge(baja,5)}",
    "{govCybLab(baja), cybCapAge(baja,5)}",
    "{mseTT(baja,2)}",
    "{govCybLab(baja), mseTT(baja,2)}",
    "{cybCapAge(baja,5), mseTT(baja,2)}",
    "{govCybLab(baja), cybCapAge(baja,5), mseTT(baja,2)}",
]


# Every command on worm123 without --json, and what it prints: the expected
# text, or the name of its golden file.
TEXT_ANSWERS = [
    (("check", KB), "consistent\n"),
    (("worlds", KB), "".join(w + "\n" for w in WORM_WORLDS)),
    (("entail", "worm123.inca", "-q", "govCybLab(baja) v mseTT(baja,2)"), "entail.txt"),
    (("args", KB, "-l", L), "<{de4, ph1}, isCap(baja,worm123)>\n"),
    (("warrant", KB, "-l", L, "-w", "govCybLab(baja)"), "warranted\n"),
    (("nec", KB, "-l", L),
     "{govCybLab(baja)}\n{mseTT(baja,2)}\n{govCybLab(baja), mseTT(baja,2)}\n"),
    (("poss", KB, "-l", L),
     "".join(WORM_WORLDS[i] + "\n" for i in (1, 3, 4, 5, 6, 7))),
    (("bounds", "worm123.inca", "-l", L), "bounds.txt"),
    (("attribute", KB, "--op", "worm123", "--suspects", "baja,mojave",
      "--evidence", EVIDENCE),
     "most probable: baja\nbaja: 1 +- 0\nmojave: 0 +- 0\n"),
    (("explain", KB, "-l", L, "-w", "govCybLab(baja),cybCapAge(baja,5)"),
     "undecided\nD <{de4, ph1}, isCap(baja,worm123)>\n"
     "  U (blocking) <{de5a, ph3}, neg isCap(baja,worm123)>\n"),
]


@pytest.mark.parametrize("argv, expected", TEXT_ANSWERS,
                         ids=[argv[0] for argv, _ in TEXT_ANSWERS])
def test_text_output_builds_no_json(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(FIXTURES)
    for name in ("_interval_json", "_world_json", "_node_json"):
        monkeypatch.setattr(cli, name, _no_json)
    if expected.endswith(".txt"):
        expected = (GOLDEN / expected).read_text()
    assert run(capsys, *argv) == (0, expected, "")


def test_world_atom_outside_universe(capsys):
    code, _, err = run(
        capsys, "warrant", KB, "-l", "isCap(baja,worm123)", "-w", "unknown(x)"
    )
    assert code == 1
    assert "universe" in err


@pytest.mark.parametrize("command", ["warrant", "explain"])
def test_world_breaking_a_one_of_is_rejected(capsys, tmp_path, command):
    """worlds, nec and poss never list a world that breaks a oneOf, and
    warrant -w and explain -w answer for none."""
    kb = tmp_path / "one-of.inca"
    kb.write_text("#em\na(x) : 0.5 +- 0.5.\nb(x) : 0.5 +- 0.5.\n\n#ic\n"
                  "oneOf{a(x), b(x)}.\n\n#am\nf1 : presume p(c).\n")
    code, out, err = run(capsys, command, str(kb), "-l", "p(c)", "-w", "a(x),b(x)")
    assert (code, out) == (1, "")
    assert err == "error: world {a(x), b(x)} breaks a oneOf constraint\n"
    for world in ("a(x)", "b(x)", ""):
        code, out, _ = run(capsys, command, str(kb), "-l", "p(c)", "-w", world)
        assert code == 0 and out.startswith("warranted")
    code, out, _ = run(capsys, "worlds", str(kb))
    assert "a(x), b(x)" not in out


def test_parse_error_reports_position(capsys, tmp_path):
    bad = tmp_path / "broken.inca"
    bad.write_text("#em\ngovCybLab(baja : 0.8 +- 0.1.\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "line 2" in err


def test_max_atoms_cap(capsys):
    code, _, err = run(capsys, "worlds", KB, "--max-atoms", "2")
    assert code == 1
    assert "atoms" in err


def test_negative_max_atoms_is_a_usage_error(capsys, tmp_path):
    for value in ("-1", "two"):
        code, out, err = run(capsys, "check", KB, "--max-atoms", value)
        assert (code, out) == (2, "")
        assert err.startswith("usage:")
        assert f"argument --max-atoms: expected an integer >= 0, got '{value}'" in err
    # No world is enumerated for a KB without EM atoms, so 0 is a valid cap.
    am_only = tmp_path / "am.inca"
    am_only.write_text("#am\nf : fact p(a).\n")
    assert run(capsys, "check", str(am_only), "--max-atoms", "0") == (0, "consistent\n", "")


def test_inconsistent_kb_query_fails_cleanly(capsys, tmp_path):
    bad = tmp_path / "bad.inca"
    bad.write_text(
        "#em\np(a) v q(a) : 0.4 +- 0.\np(a) ^ q(a) : 0.6 +- 0.1.\n"
    )
    code, _, err = run(capsys, "entail", str(bad), "-q", "p(a)")
    assert code == 1
    assert "error:" in err


def test_out_of_memory_fails_cleanly(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("inca.cli.em.is_consistent", exhausted)
    code, out, err = run(capsys, "check", KB)
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_recursion_error_fails_cleanly(capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError

    monkeypatch.setattr("inca.cli.em.is_consistent", too_deep)
    code, out, err = run(capsys, "check", KB)
    assert (code, out, err) == (1, "", "error: input is nested too deeply\n")


@pytest.mark.parametrize(
    "formula",
    [
        " v ".join(f"p{i % 5}(a)" for i in range(100_000)),
        "(" * 100_000 + "p(a)" + ")" * 100_000,
        "~" * 100_000 + "p(a)",
    ],
    ids=["disjunction-chain", "parentheses", "negations"],
)
def test_deep_formula_answers(capsys, tmp_path, formula):
    deep = tmp_path / "deep.inca"
    deep.write_text(f"#em\n{formula} : 0.5 +- 0.\n")
    # The second check meets the first one's cached world space and LP, so
    # two equal deep KBs are compared.
    for _ in range(2):
        code, out, err = run(capsys, "check", str(deep))
        assert (code, out, err) == (0, "consistent\n", "")
    code, out, _ = run(capsys, "bounds", KB, "-l", "condOp(baja,worm123)")
    assert (code, out) == (0, "1 +- 0\n")


def test_entail_on_a_long_disjunction_chain(capsys):
    chain = " v ".join(["govCybLab(baja)", "mseTT(baja,2)"] * 5_000)
    code, out, err = run(capsys, "entail", KB, "-q", chain)
    assert (code, out, err) == (0, "0.9 +- 0.1\n", "")


def _cyclic_garbage(capsys, *argv):
    """What one warm query leaves to the cyclic collector, with the collector
    off while it runs."""
    assert run(capsys, *argv)[0] == 0
    gc.collect()
    gc.disable()
    try:
        assert run(capsys, *argv)[0] == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
        gc.enable()


@pytest.mark.parametrize(
    "argv",
    [
        ("check", KB),
        ("entail", KB, "-q", "govCybLab(baja) v mseTT(baja,2)"),
        ("bounds", KB, "-l", "condOp(baja,worm123)"),
        ("explain", KB, "-l", "condOp(baja,worm123)", "-w", "govCybLab(baja)"),
    ],
    ids=["check", "entail", "bounds", "explain"],
)
def test_queries_leave_no_cyclic_garbage(capsys, argv):
    garbage = _cyclic_garbage(capsys, *argv)
    assert not garbage, sorted({type(o).__name__ for o in garbage})


def test_json_output_leaves_no_cycles_of_inca_objects(capsys):
    # The indenting json encoder's own closures form cycles; nothing defined
    # in inca may.
    garbage = _cyclic_garbage(
        capsys, "attribute", KB, "--op", "worm123", "--suspects", "baja,mojave", "--json"
    )
    owners = {
        o.__module__ if isinstance(o, FunctionType) else type(o).__module__
        for o in garbage
    }
    assert not {m for m in owners if m.startswith("inca")}


def test_console_script_entry_point():
    # The `inca` target named in pyproject.toml, run as the console script
    # would run it; and the installed script too, when one is on PATH. A
    # regex, not tomllib, which Python 3.10 lacks.
    pyproject = (FIXTURES.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)
    target = re.search(r'^inca\s*=\s*"([\w.]+):(\w+)"', scripts.group(1), re.M)
    module, function = target.groups()
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    script = (
        f"import sys; sys.argv[0] = 'inca'; from {module} import {function}; "
        f"sys.exit({function}())"
    )
    commands = [[sys.executable, "-c", script, "--help"]]
    if shutil.which("inca"):
        commands.append(["inca", "--help"])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "usage: inca" in proc.stdout


def test_module_entry_point():
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "inca", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "usage: inca" in proc.stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Counts modules rather than timing the import: `dataclasses` and the
    # `inspect` it pulls in were most of what `import inca.cli` cost.
    env = {**os.environ, "PYTHONPATH": str(FIXTURES.parent / "src")}
    script = (
        "import sys; before = set(sys.modules); import inca.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "inca.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_package_exports_what_the_readme_imports():
    readme = (FIXTURES.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    names = {
        name.strip()
        for line in re.findall(r"^from inca import (.+)$", library, re.M)
        for name in line.split(",")
    }
    assert sorted(inca.__all__) == sorted(names)
    assert all(callable(getattr(inca, name)) for name in names)
