"""Spans and counters around the public functions of each inca module.

The tracer replaces a function at the name where its callers look it up
(a module attribute, or a method on its class) with a wrapper that records
a span: name, start, end, parent span and query. A few hot functions get a
wrapper that only counts calls. Nothing under src/ changes; `uninstall`
puts every original back.

Spans live in flat arrays until the run ends; `write` dumps them as TSV and
`layer_totals` folds them into per-query layer totals.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

# (module, class or None, attribute, span name, observer)
# A function bound in two modules is wrapped at both names under one span
# name: `lp_extrema` in em and bridge, `is_consistent` in em and attribution.
SPANS = [
    ("cli", None, "load_kb", "kbformat.load_kb", None),
    ("kbformat", None, "parse_kb", "kbformat.parse_kb", None),
    ("cli", None, "assemble", "kbformat.assemble", "ground_elements"),
    ("em", None, "enumerate_worlds", "em.enumerate_worlds", "worlds"),
    ("bridge", None, "enumerate_worlds", "em.enumerate_worlds", "worlds"),
    ("em", None, "lp_extrema", "em.lp_extrema", None),
    ("bridge", None, "lp_extrema", "em.lp_extrema", None),
    ("em", None, "lp_bounds", "em.lp_bounds", None),
    ("em", None, "max_entailment", "em.max_entailment", None),
    ("em", None, "is_consistent", "em.is_consistent", None),
    ("attribution", None, "is_consistent", "em.is_consistent", None),
    ("simplex", None, "maximize", "simplex.maximize", "lp_size"),
    ("simplex", None, "minimize", "simplex.minimize", "lp_size"),
    ("bridge", None, "index_for", "am.index_for", None),
    ("am", "ProgramIndex", "arguments_for", "am.arguments_for", "arguments"),
    ("am", "ProgramIndex", "warrant_status", "am.warrant_status", None),
    ("am", "ProgramIndex", "forest", "am.forest", None),
    ("am", "ProgramIndex", "build_tree", "am.build_tree", "tree_nodes"),
    ("am", "ProgramIndex", "defeaters", "am.defeaters", None),
    ("bridge", "InCAFramework", "nec_set", "bridge.nec_set", None),
    ("bridge", "InCAFramework", "poss_set", "bridge.poss_set", None),
    ("bridge", "InCAFramework", "prob_bounds", "bridge.prob_bounds", None),
    ("bridge", "InCAFramework", "warrants_in", "bridge.warrants_in", None),
    ("bridge", "InCAFramework", "forest_in", "bridge.forest_in", None),
    ("bridge", "InCAFramework", "warrant_status_in", "bridge.warrant_status_in", None),
    ("attribution", None, "apply_evidence", "attribution.apply_evidence", None),
    ("cli", None, "most_probable_suspects", "attribution.most_probable_suspects", None),
]

# Called thousands of times per query: counted, not spanned. `satisfies`
# recurses through its own module's name, so every node it visits counts.
COUNTS = [
    ("language", None, "satisfies", "language.satisfies_calls"),
    ("em", None, "satisfies", "language.satisfies_calls"),
    ("bridge", None, "satisfies", "language.satisfies_calls"),
    ("am", "ProgramIndex", "prefers_ps", "am.prefers_ps_calls"),
]

ROOT_SPAN = "cli.run_cli"


def _tree_size(node) -> int:
    size, stack = 0, [node]
    while stack:
        n = stack.pop()
        size += 1
        stack.extend(n.children)
    return size


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self._stack = [-1]
        self.counts: list[Counter] = []
        self._argument_ids: set[int] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_query(self) -> None:
        self.counts.append(Counter())
        self._argument_ids = set()

    def end_query(self) -> None:
        self.counts[-1]["am.arguments"] = len(self._argument_ids)

    def _observe(self, kind: str, args, result) -> None:
        counts = self.counts[-1]
        if kind == "worlds":
            counts["em.worlds"] += len(result)
        elif kind == "ground_elements":
            counts["kbformat.ground_elements"] += len(result.program.elements)
        elif kind == "lp_size":
            objective, constraints = args[0], args[1]
            counts["simplex.lp_rows"] = max(counts["simplex.lp_rows"], len(constraints))
            counts["simplex.lp_cols"] = max(counts["simplex.lp_cols"], len(objective))
        elif kind == "arguments":
            self._argument_ids.update(id(a) for a in result)
        elif kind == "tree_nodes":
            counts["am.tree_nodes"] += _tree_size(result)

    def span(self, name: str, fn, observe: str | None = None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.query.append(len(self.counts) - 1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                self._stack.pop()
            if observe is not None:
                self._observe(observe, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[-1][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------

    def _patch(self, module: str, cls: str | None, attr: str, make) -> None:
        owner = importlib.import_module(f"inca.{module}")
        if cls is not None:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for module, cls, attr, name, observe in SPANS:
            self._patch(module, cls, attr, lambda fn, n=name, o=observe: self.span(n, fn, o))
        for module, cls, attr, key in COUNTS:
            self._patch(module, cls, attr, lambda fn, k=key: self.counter(k, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("query\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.query[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n"
                )

    def layer_totals(self) -> list[dict[str, float]]:
        """Per query: every span name's total time (`<name>_s`), self time
        (`<name>_self_s`) and call count (`<name>_calls`), plus the
        counters. Simplex spans nested in a simplex span (minimize calls
        maximize) count once, as `simplex.solves` and `simplex.solve_s`;
        `bridge.warrants_in` calls that ran no warrant_status are cache
        hits."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        computed = [False] * n
        warrant = self._ids.get("am.warrant_status", -2)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += duration[i]
                if self.name[i] == warrant:
                    computed[p] = True
        out = [dict(c) for c in self.counts]
        simplex = {i for name, i in self._ids.items() if name.startswith("simplex.")}
        hits_of = self._ids.get("bridge.warrants_in", -2)
        for i in range(n):
            totals = out[self.query[i]]
            name = self.names[self.name[i]]
            totals[f"{name}_s"] = totals.get(f"{name}_s", 0.0) + duration[i]
            totals[f"{name}_self_s"] = (
                totals.get(f"{name}_self_s", 0.0) + duration[i] - child[i]
            )
            totals[f"{name}_calls"] = totals.get(f"{name}_calls", 0) + 1
            p = self.parent[i]
            if self.name[i] in simplex and (p < 0 or self.name[p] not in simplex):
                totals["simplex.solves"] = totals.get("simplex.solves", 0) + 1
                totals["simplex.solve_s"] = totals.get("simplex.solve_s", 0.0) + duration[i]
            if self.name[i] == hits_of and not computed[i]:
                totals["bridge.warrant_cache_hits"] = (
                    totals.get("bridge.warrant_cache_hits", 0) + 1
                )
        return out
