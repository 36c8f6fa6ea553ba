"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs one whole cycle of each workload, untraced and traced, and asserts
that every metric is printed by name with its unit, that the last line is
the result object BENCHMARK.json promises with every declared metric, and
that no query failed (`fail_frac` 0). Then checks that the benchmark refuses
to run, without printing a result, in a directory that holds only
BENCHMARK.json and bench/. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

# The per-command medians each workload's mix must print.
MIX_COMMANDS = {
    "worm123": run.COMMANDS,
    "em_lp": ("check", "entail"),
    "worlds_wide": ("bounds", "nec", "attribute"),
    "am_args": ("bounds", "nec", "warrant"),
}
PRINTED = ("setup_s", "import_s", "query_s", "query_tail_s", "queries_per_s",
           "fail_frac", "peak_rss_mb")


def bench(args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=run.CHILD_TIMEOUT)


def printed(lines: list[str], name: str, unit: str) -> float:
    for line in lines:
        fields = line.split()
        if len(fields) >= 3 and fields[0] == name and fields[2] == unit:
            return float(fields[1])
    raise AssertionError(f"{name} ({unit}) not printed")


def check_run(spec: dict, workload: str, trace: int) -> None:
    done = bench(["--workload", workload, "--seed", "0", "--seconds", "1",
                  "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
        printed(lines, m["name"], m["unit"])
    if not trace:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | run.UNITS
        for name in PRINTED + tuple(f"{c}_s" for c in MIX_COMMANDS[workload]):
            printed(lines, name, units[name])
        assert printed(lines, "fail_frac", "ratio") == 0
    print(f"ok {workload} --trace {trace}: {result['attempted']} queries")


def check_refuses_without_program() -> None:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.SPEC, bare / run.SPEC.name)
    try:
        done = bench(["--workload", "worm123", "--seed", "0", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and "correct" not in done.stdout, done.stdout
    print("ok refuses to run without src/")


def main() -> int:
    spec = run.load_spec()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
