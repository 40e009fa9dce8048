"""Ranking alternatives from opinions on the criteria they satisfy.

The model layer holds subsets, criterion tables, voter profiles over
criteria, and sparse opinion states with their support quotient.  On top of
it sit two choice methods driven by criterion scores, a family of opinion
aggregators built around the deepest-intersection score, an executable
axiom suite, and a brute-force oracle used for differential testing.
Import each name from its submodule, e.g. ``critrank.model``.
"""

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import ``axioms`` or ``oracle`` on first access as an attribute.

    ``import critrank.cli`` loads neither, so the ranking commands start
    faster; the benchmark's traced run still reads both as attributes of
    the package right after that import.
    """
    if name in ("axioms", "oracle"):
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
