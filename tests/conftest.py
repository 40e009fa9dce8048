from random import Random

import pytest
from hypothesis import strategies as st

from critrank.axioms import random_state, random_support_state
from critrank.cli import DEMO_PROFILE_TEXT, DEMO_TABLE_TEXT, parse_criterion_table, parse_profile
from critrank.aggregators import induce_opinion


@pytest.fixture(scope="session")
def demo_table():
    return parse_criterion_table(DEMO_TABLE_TEXT)


@pytest.fixture(scope="session")
def demo_profile(demo_table):
    return parse_profile(DEMO_PROFILE_TEXT, demo_table)


@pytest.fixture(scope="session")
def demo_state(demo_table, demo_profile):
    return induce_opinion(demo_table, demo_profile)


def bits(*indices: int) -> int:
    """The mask of the listed alternative indices."""
    return sum(1 << i for i in indices)


def top_k(state, k: int) -> frozenset[int]:
    """Alternatives in every subset of the top ``k`` support classes: the
    running intersections are nested, so those whose score reaches ``k``."""
    return frozenset(x for x, e in enumerate(state.e_vector) if e >= k)


@st.composite
def opinion_states(draw, min_universe: int = 3, max_universe: int = 5):
    """Random sparse states; half entry-shaped, half support-shaped."""
    universe = draw(st.integers(min_universe, max_universe))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = Random(seed)
    if draw(st.booleans()):
        return random_state(rng, universe)
    return random_support_state(rng, universe)
