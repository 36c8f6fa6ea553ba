"""Probabilistic-argumentative reasoning over cyber attribution problems.

The package couples two knowledge models. The environmental model holds
probabilistic formulas over ground atoms and answers queries by linear
programming over possible worlds. The analytical model holds strict and
defeasible constructs and answers queries by dialectical analysis. An
annotation function ties analytical elements to environmental formulas so
that warrant can be evaluated world by world and lifted back to
probability intervals.

The package exports what the README's Library section uses; every other
name is imported from its own module.
"""

from .attribution import most_probable_suspects
from .kbformat import assemble, load_kb, parse_evidence

__all__ = ["assemble", "load_kb", "most_probable_suspects", "parse_evidence"]
