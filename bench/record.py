"""Record the reference answers that bench/run.py checks every query against.

    python3 bench/record.py

Runs each worm123 query and each pool item of em_lp and am_args once
through `inca.cli.run_cli` and writes the standard output to
bench/reference/. Run it at the commit whose answers are the reference,
and again only when a generator or a mix changes. Before writing, it checks
what can be checked independently: the worm123 golden files, every em_lp
KB being consistent, every entailed interval containing the query's
probability under the witness distribution, and the first am_args `args`
items against `arguments_oracle` from tests/oracles.py (exhaustive subset
search, about ten seconds a program, too slow for the timed loop).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import run
import workloads as w

ORACLE_ITEMS = 4


def answer(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run_cli(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def record_worm123(cli) -> dict[str, str]:
    answers = {}
    for qid, argv in w.worm123_queries(str(w.WORM_KB), str(w.WORM_EVIDENCE)):
        answers[qid] = answer(cli, argv)
    for qid, name in w.GOLDEN_FILES.items():
        if answers.pop(qid) != w._golden(name):
            raise SystemExit(f"worm123 {qid} differs from tests/golden/{name}")
    return answers


def record_pool(cli, items, workdir: Path, check_item) -> list[str]:
    answers = []
    for i, item in enumerate(items):
        path = workdir / f"item-{i}.inca"
        path.write_text(item.text, encoding="utf-8")
        out = answer(cli, w.item_argv(item, str(path), w.POOL_CONST))
        check_item(i, item, path, out)
        answers.append(out)
    return answers


def check_em(i, item, path, out) -> None:
    if item.command == "check" and out != "consistent\n":
        raise SystemExit(f"em_lp item {i}: bracketed KB reported {out.strip()}")
    if item.command == "entail":
        p, eps = (Fraction(x) for x in out.split(" +- "))
        if not p - eps <= item.witness <= p + eps:
            raise SystemExit(f"em_lp item {i}: {out.strip()} misses {item.witness}")


def check_am(i, item, path, out) -> None:
    if item.command != "args" or i >= ORACLE_ITEMS * len(w.AM_MIX):
        return
    if str(w.ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(w.ROOT / "tests"))
    import oracles
    from inca.kbformat import assemble, load_kb, parse_literal_text

    framework = assemble(load_kb(str(path)))
    literal = parse_literal_text(item.arg)
    table = oracles.consistent_subsets_oracle(framework.program)
    want = oracles.arguments_oracle(table, literal)
    got = {a.defeasible_part for a in framework.index.arguments_for(literal)}
    shown = {line for line in out.splitlines() if line}
    if got != want or shown != {str(a) for a in framework.index.arguments_for(literal)}:
        raise SystemExit(f"am_args item {i}: arguments differ from arguments_oracle")


def main() -> int:
    cli = run.import_inca()
    workdir = run.OUT / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    w.REFERENCE.mkdir(exist_ok=True)
    outputs = {
        "worm123": record_worm123(cli),
        "em_lp": record_pool(cli, [w.em_item(i) for i in range(w.EM_POOL)],
                             workdir, check_em),
        "am_args": record_pool(cli, [w.am_item(i) for i in range(w.AM_POOL)],
                               workdir, check_am),
    }
    for name, data in outputs.items():
        path = w.REFERENCE / f"{name}.json"
        path.write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(w.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
