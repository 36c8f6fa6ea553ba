"""Benchmark for the inca engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

One named workload runs in this process as a closed loop: one client, each
query issued in-process through `inca.cli.run_cli` only after the previous
one returned, for S seconds. Every answer is checked. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`,
its per-layer metrics with `--trace 1`. The lines above it print every
metric by name and unit.

`--workload all` runs each workload in its own process, untraced and then
traced, and prints every metric of every workload plus the tracing
overhead. Reports and span files go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"

# Per-command medians, each reported on the workloads whose mix has it.
COMMANDS = ("check", "entail", "bounds", "nec", "warrant", "attribute")
# Units of the printed metrics that BENCHMARK.json does not declare.
UNITS = {
    "query_tail_s": "s",
    "fail_frac": "ratio",
    **{f"{c}_s": "s" for c in COMMANDS},
}
# Every SIDE_EVERY seconds of the loop: SETUP_LOADS loads spread evenly
# over the set-up KBs, and one fresh-interpreter import.
SIDE_EVERY = 1.0
SETUP_LOADS = 16
# query_tail_s is the sample with this many samples above it.
TAIL_BEYOND = 10
# Bounds a whole --workload all run; one workload run takes about S seconds
# plus set-up.
CHILD_TIMEOUT = 600


class BenchError(Exception):
    pass


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found next to bench/")
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def import_inca():
    if not (SRC / "inca" / "cli.py").is_file():
        raise BenchError("src/inca not found: run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import inca.cli

    if Path(inca.cli.__file__).resolve().parent != SRC / "inca":
        raise BenchError(f"imported inca from {inca.cli.__file__}, not from src/")
    return inca.cli


# -- measuring ----------------------------------------------------------------


def time_import() -> float:
    """One `import inca.cli` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import inca.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


class SideSamples:
    """Set-up and import timings, taken before the loop and then between
    queries every SIDE_EVERY seconds, so that they span the run as the
    query timings do. No query reads a set-up KB. A traced run takes none:
    its spans would land on the queries."""

    def __init__(self, paths: list[str], enabled: bool):
        from inca.kbformat import assemble, load_kb

        self._load = lambda path: assemble(load_kb(path))
        self.enabled = enabled
        self.setup: dict[str, list[float]] = {path: [] for path in paths}
        self.imports: list[float] = []
        self.spent = 0.0
        if enabled:
            self._load(paths[0])  # first-call costs: regex compile, lazy imports
            time_import()  # compiles the .pyc files once

    def take(self) -> None:
        if not self.enabled:
            return
        t_begin = perf_counter()
        for path, times in self.setup.items():
            for _ in range(max(1, SETUP_LOADS // len(self.setup))):
                t0 = perf_counter()
                self._load(path)
                times.append(perf_counter() - t0)
        self.imports.append(time_import())
        self.spent += perf_counter() - t_begin


def run_query(run_cli, query) -> tuple[bool, float, str]:
    out, err = io.StringIO(), io.StringIO()
    dt = 0.0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = run_cli(query.argv)
            finally:
                dt = perf_counter() - t0
    except Exception as exc:  # a crash is a failed query, not a failed run
        return False, dt, f"raised {type(exc).__name__}: {exc}"
    if query.check(code, out.getvalue()):
        return True, dt, ""
    return False, dt, f"exit {code}, wrong answer: {out.getvalue()[:200]!r} {err.getvalue()[:200]!r}"


def closed_loop(workload, run_cli, seconds: float, side: SideSamples, tracer=None):
    """Whole cycles until `seconds` of loop time have passed; at least one
    cycle. The cycle cut by the deadline is checked and counted as
    attempted, but only whole cycles enter the timing statistics. Side
    samples do not count as loop time."""
    records = []  # (cycle, command, seconds) of whole cycles
    attempted = failed = 0
    errors = []
    side.take()
    t_start = perf_counter()
    next_side = SIDE_EVERY
    k = 0
    while True:
        current = []
        for query in workload.cycle(k):
            elapsed = perf_counter() - t_start - side.spent
            if k > 0 and elapsed >= seconds:
                return records, attempted, failed, errors
            if elapsed >= next_side:
                side.take()
                next_side += SIDE_EVERY
            if query.prepare is not None:
                query.prepare()
            if tracer is not None:
                tracer.begin_query()
            ok, dt, why = run_query(run_cli, query)
            if tracer is not None:
                tracer.end_query()
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"{' '.join(query.argv)}: {why}")
            current.append((k, query.command, dt, query.key))
        records.extend(current)
        k += 1


# -- metrics ------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    and that percentile."""
    s = sorted(times)
    i = max(0, len(s) - TAIL_BEYOND - 1)
    return s[i], 100.0 * (i + 1) / len(s)


def fastest(records) -> dict[str, tuple[str, float]]:
    """Each query of the mix (by key) with its command and its fastest time
    over the whole cycles. The machine this benchmark was built on switches
    every few seconds between a fast state and one 1.5-2x slower; a query's
    fastest run is its cost without that interference. Set-up loads and
    imports are reduced the same way."""
    best: dict[str, tuple[str, float]] = {}
    for _, command, dt, key in records:
        if key not in best or dt < best[key][1]:
            best[key] = (command, dt)
    return best


def end_to_end(records, attempted, failed, setup: dict[str, list[float]],
               import_times: list[float]):
    times = [dt for _, _, dt, _ in records]
    setup_best = [min(t) for t in setup.values()]
    loads = [dt for t in setup.values() for dt in t]
    best = fastest(records)
    best_times = [dt for _, dt in best.values()]
    tail_value, tail_pct = tail(times)
    cycles = len({k for k, _, _, _ in records})
    values = {
        "setup_s": statistics.median(setup_best),
        "import_s": min(import_times),
        "query_s": statistics.median(best_times),
        "query_tail_s": tail_value,
        "queries_per_s": len(best_times) / sum(best_times),
        "fail_frac": failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median over {len(setup)} KBs of each one's fastest of "
                   f"{len(loads) // len(setup)} loads (median of all: "
                   f"{statistics.median(loads):.6g})",
        "import_s": f"fastest of {len(import_times)} fresh interpreters "
                    f"(median {statistics.median(import_times):.6g})",
        "query_s": f"median over {len(best)} queries of each one's fastest of "
                   f"{cycles} cycles (median of all {len(times)}: "
                   f"{statistics.median(times):.6g})",
        "query_tail_s": f"p{tail_pct:.2f} of all {len(times)}, {TAIL_BEYOND} beyond",
        "queries_per_s": f"{len(best)} fastest queries in {sum(best_times):.4g} s "
                         f"(all: {len(times) / sum(times):.6g})",
        "fail_frac": f"{failed} of {attempted}",
        "peak_rss_mb": "ru_maxrss",
    }
    for command in COMMANDS:
        own = [dt for c, dt in best.values() if c == command]
        if own:
            values[f"{command}_s"] = statistics.median(own)
            notes[f"{command}_s"] = f"median over {len(own)} queries of their fastest"
    return values, notes


def per_layer(records, totals, names: list[str]):
    """Median over whole cycles of the layer's mean per query in the cycle;
    the cache hit ratio is over all whole cycles."""
    cycles: dict[int, list[dict]] = {}
    for (k, _, _, _), row in zip(records, totals):
        cycles.setdefault(k, []).append(row)
    values = {}
    for name in names:
        if name == "bridge.warrant_cache_hit_ratio":
            calls = sum(r.get("bridge.warrants_in_calls", 0) for r in totals[:len(records)])
            hits = sum(r.get("bridge.warrant_cache_hits", 0) for r in totals[:len(records)])
            values[name] = hits / calls if calls else 0.0
            continue
        values[name] = statistics.median(
            sum(r.get(name, 0) for r in rows) / len(rows) for rows in cycles.values()
        )
    return values


def per_command_layers(records, totals, names: list[str]) -> dict:
    """For each command: its median query time and each timed layer's
    median per query of that command."""
    out = {}
    for command in dict.fromkeys(c for _, c, _, _ in records):
        rows = [r for (_, c, _, _), r in zip(records, totals) if c == command]
        times = [dt for _, c, dt, _ in records if c == command]
        layers = {
            name: statistics.median(r.get(name, 0) for r in rows)
            for name in names if name.endswith("_s")
        }
        out[command] = {"query_s": statistics.median(times), "layers": layers}
    return out


# -- one workload ---------------------------------------------------------------


def build_workload(name: str, seed: int, workdir: Path):
    import workloads

    if name == "worlds_wide":
        from inca.kbformat import assemble, load_kb

        worm = assemble(load_kb(str(workloads.WORM_KB)))
        universe = [str(a) for a in worm.em.atom_universe]
        return workloads.worlds_wide(seed, workdir, universe)
    return getattr(workloads, name)(seed, workdir)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    cli = import_inca()
    if name not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {name}")
    workdir = OUT / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    workload = build_workload(name, seed, workdir)
    side = SideSamples(workload.setup_paths, enabled=not trace)

    tracer = None
    run_cli = cli.run_cli
    if trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        run_cli = tracer.span(ROOT_SPAN, cli.run_cli)
    gc.collect()
    try:
        records, attempted, failed, errors = closed_loop(
            workload, run_cli, seconds, side, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for line in errors[:5]:
        print(f"failed: {line}", file=sys.stderr)

    cycles = len({k for k, _, _, _ in records})
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"{len(records)} queries in {cycles} whole cycles, "
          f"{attempted} attempted, {failed} failed")
    report = {"workload": name, "seed": seed, "trace": int(trace),
              "attempted": attempted, "failed": failed, "cycles": cycles}
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        totals = tracer.layer_totals()
        values = per_layer(records, totals, names)
        breakdown = per_command_layers(records, totals, names)
        traced_query_s = statistics.median(dt for _, dt in fastest(records).values())
        for metric in names:
            print(f"  {metric:<42} {values[metric]:<14.6g} {units[metric]}")
        print(f"  traced query_s {traced_query_s:.6g} s (tracing overhead: "
              f"divide by query_s of a --trace 0 run)")
        for command, row in breakdown.items():
            shown = ", ".join(f"{k} {v:.3g}" for k, v in row["layers"].items()
                              if v >= 0.01 * row["query_s"])
            print(f"  {command}: query {row['query_s']:.4g} s; {shown}")
        spans = OUT / f"{name}-seed{seed}.spans.tsv"
        tracer.write(spans)
        print(f"  {len(tracer.start)} spans written to {spans.relative_to(ROOT)}")
        report.update(per_layer=values, per_command=breakdown,
                      traced_query_s=traced_query_s)
        declared = spec["per_layer"]
    else:
        values, notes = end_to_end(records, attempted, failed, side.setup, side.imports)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update(UNITS)
        for metric, value in values.items():
            print(f"  {metric:<16} {value:<14.6g} {units[metric]:<6} {notes[metric]}")
        report.update(end_to_end=values, notes=notes, setup_samples=side.setup,
                      import_samples=side.imports, records=records)
        declared = spec["end_to_end"]

    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


# -- every workload ---------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    spec = load_spec()
    import_inca()
    summary = {}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                raise BenchError(f"{name} --trace {trace} exited {done.returncode}")
            path = OUT / f"{name}-seed{seed}-trace{trace}.json"
            summary[(name, trace)] = json.loads(path.read_text(encoding="utf-8"))

    print("\nsummary (seed %d, %g s per run)" % (seed, seconds))
    names = [w["name"] for w in spec["workloads"]]
    rows = list(dict.fromkeys(k for n in names for k in summary[(n, 0)]["end_to_end"]))
    print(f"  {'metric':<16}" + "".join(f"{n:>14}" for n in names))
    for metric in rows:
        cells = []
        for n in names:
            v = summary[(n, 0)]["end_to_end"].get(metric)
            cells.append(f"{v:>14.6g}" if v is not None else f"{'-':>14}")
        print(f"  {metric:<16}" + "".join(cells))
    for n in names:
        traced = summary[(n, 1)]["traced_query_s"]
        plain = summary[(n, 0)]["end_to_end"]["query_s"]
        print(f"  tracing overhead on {n}: traced query_s {traced:.6g} s / "
              f"untraced {plain:.6g} s = {traced / plain:.3f}")
    failed = sum(s["failed"] for s in summary.values())
    print(f"  failed queries over all runs: {failed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    try:
        seconds = ns.seconds if ns.seconds is not None else load_spec()["run_seconds"]
        if ns.workload == "all":
            return run_all(ns.seed, seconds)
        return run_workload(ns.workload, ns.seed, seconds, bool(ns.trace))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
