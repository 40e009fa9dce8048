"""Ranking alternatives from opinions on the criteria they satisfy.

The model layer holds subsets, criterion tables, voter profiles over
criteria, and sparse opinion states with their support quotient.  On top of
it sit two choice methods driven by criterion scores, a family of opinion
aggregators built around the deepest-intersection score, an executable
axiom suite, and a brute-force oracle used for differential testing.
Import each name from its submodule, e.g. ``critrank.model``.
"""

__version__ = "0.1.0"
