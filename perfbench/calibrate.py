"""Host-speed calibration for the reported times.

Shared hosts change speed by a quarter or more from one minute to the
next, as neighbours come and go.  So every timed op is bracketed by runs of
a fixed pure-Python job, and its wall time is scaled by ``NOMINAL_S`` over
the job's mean time before and after it.  Reported op times are therefore
milliseconds at the host speed where the job takes ``NOMINAL_S``.  A change
to the program moves them; a slower minute on the host mostly does not.
The unscaled times are kept in the traffic record.
"""

from random import Random
from time import perf_counter

NOMINAL_S = 0.010
_ROUNDS = 400


def job():
    """Bit loops over random ints, string joins and splits, dict inserts and
    a tuple sort: the kind of work the program does, at a fixed size."""
    rng = Random(5)
    rows = {}
    for _ in range(_ROUNDS):
        mask = rng.getrandbits(64)
        members = []
        while mask:
            low = mask & -mask
            members.append(low.bit_length() - 1)
            mask ^= low
        text = ",".join([f"x{m}" for m in members])
        rows[text] = tuple(len(part) for part in text.split(","))
    return min(sorted(rows.values()))


def seconds():
    """Wall time of one run of the job."""
    start = perf_counter()
    job()
    return perf_counter() - start
