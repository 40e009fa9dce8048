"""The statement analysis of ``scripts/uncovered.py``, on a small module.

The script runs tier-1 under a tracer, so tier-1 cannot run it; this test
loads it from its file and gives ``uncovered`` a source text and a set of
lines that ran.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "uncovered.py"

SOURCE = '''\
def f(x):
    """A docstring never runs as a line."""
    if x:
        y = 1
    try:
        z = 2
    except ValueError:
        z = 3
    for _ in range(x):
        pass
    def g():
        return y
    return z
'''

# the lines f(0) runs, less the ``try:`` header, so that ``try`` counts as
# run only through the statement inside it
RAN = {3, 6, 9, 11, 13}


def load_uncovered():
    spec = importlib.util.spec_from_file_location("uncovered", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.uncovered


def test_reports_each_statement_that_never_ran():
    # 2: the docstring is skipped; 4: the body of an ``if`` that never held;
    # 5: ``try`` ran through the statement inside it; 8: the ``except``
    # handler; 9: ``for`` ran through its header alone, 10 did not; 11:
    # ``def g`` ran, and 12, g's own body, is judged apart from f's
    uncovered = load_uncovered()
    assert [node.lineno for node in uncovered(SOURCE, RAN)] == [4, 8, 10, 12]

