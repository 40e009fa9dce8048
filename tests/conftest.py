import contextlib
import sys
from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import strategies as st

from critrank.axioms import random_table
from critrank.choice import nurmi_first, nurmi_second
from critrank.cli import DEMO_PROFILE_TEXT, DEMO_TABLE_TEXT, parse_criterion_table, parse_profile
from critrank.aggregators import iis_rank, induce_opinion, support_rank
from critrank.model import (
    AltSubset,
    CriterionTable,
    OpinionState,
    PreferenceProfile,
    QuotientOrder,
    ValidationError,
    column_sums,
    random_state,
    random_support_state,
)


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


def class_of(ranking: tuple, label) -> int:
    """Index of the class holding ``label`` in a ranking, best class first."""
    return next(i for i, members in enumerate(ranking) if label in members)


def strictly_above(ranking: tuple, a, b) -> bool:
    return class_of(ranking, a) < class_of(ranking, b)


def weakly_above(ranking: tuple, a, b) -> bool:
    return class_of(ranking, a) <= class_of(ranking, b)


def tied(ranking: tuple, a, b) -> bool:
    return class_of(ranking, a) == class_of(ranking, b)


def max_of(ranking: tuple) -> AltSubset:
    """Top class of an index ranking, as a subset of the universe."""
    n = sum(map(len, ranking))
    if {x for cls_ in ranking for x in cls_} != set(range(n)):
        raise ValidationError("ranking labels must be exactly the alternative indices")
    return AltSubset(sum(1 << x for x in ranking[0]), n)


def satisfied_counts(table: CriterionTable) -> tuple[int, ...]:
    """How many criteria each alternative satisfies."""
    return tuple(column_sums(table.universe, ((table.tr[c].mask, 1) for c in table.criteria)))


def is_symmetric(table: CriterionTable) -> bool:
    """True when every alternative satisfies the same number of criteria."""
    return len(set(satisfied_counts(table))) == 1


def top_k(state, k: int) -> frozenset[int]:
    """Alternatives in every subset of the top ``k`` support classes: the
    running intersections are nested, so those whose score reaches ``k``."""
    return frozenset(x for x, e in enumerate(state.e_vector) if e >= k)


def assert_valid_quotient(q: QuotientOrder) -> None:
    """The invariant the unchecked ``QuotientOrder`` constructor relies on:
    every class is nonempty, every member is a mask of the universe, the
    classes are pairwise disjoint, and ``residual_present`` (so ``depth``)
    follows the member count."""
    capacity = (1 << q.universe) - 1
    members = [m for cls_ in q.classes for m in cls_]
    assert all(q.classes)
    assert all(type(m) is int and 0 < m <= capacity for m in members)
    assert len(set(members)) == len(members)
    assert q.residual_present == (len(members) < capacity)
    assert q.depth == len(q.classes) + q.residual_present


@contextlib.contextmanager
def trusted_calls():
    """Within the block, every call of ``OpinionState._trusted`` or
    ``PreferenceProfile._trusted`` also builds its record through the public
    constructor and asserts that the two are equal (for states, counts in
    the same order too), and every ``QuotientOrder`` built must pass
    :func:`assert_valid_quotient`.  Yields a list that gets (name of the
    calling function, record) per call."""
    calls = []
    originals = {cls: cls.__dict__["_trusted"] for cls in (OpinionState, PreferenceProfile)}
    make_state = originals[OpinionState].__func__
    make_profile = originals[PreferenceProfile].__func__
    init_quotient = QuotientOrder.__init__

    def state(cls, universe, counts):
        public = OpinionState(universe, counts)
        made = make_state(cls, universe, counts)
        assert made == public and list(made.counts) == list(public.counts)
        calls.append((sys._getframe(1).f_code.co_name, made))
        return made

    def quotient(self, universe, classes):
        init_quotient(self, universe, classes)
        assert_valid_quotient(self)
        calls.append((sys._getframe(1).f_code.co_name, self))

    def profile(cls, voters, orders):
        public = PreferenceProfile(voters, orders)
        made = make_profile(cls, voters, orders)
        assert made == public
        calls.append((sys._getframe(1).f_code.co_name, made))
        return made

    OpinionState._trusted = classmethod(state)
    PreferenceProfile._trusted = classmethod(profile)
    QuotientOrder.__init__ = quotient
    try:
        yield calls
    finally:
        for cls, original in originals.items():
            cls._trusted = original
        QuotientOrder.__init__ = init_quotient


@st.composite
def opinion_states(draw, min_universe: int = 3, max_universe: int = 5):
    """Random sparse states; half entry-shaped, half support-shaped."""
    universe = draw(st.integers(min_universe, max_universe))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = Random(seed)
    if draw(st.booleans()):
        return random_state(rng, universe)
    return random_support_state(rng, universe)


@dataclass(frozen=True)
class ChoiceEquivalence:
    """Side-by-side outcomes of the choice methods and their aggregator routes.

    ``score_matches`` is None when the table is not symmetric: the identity
    for the score-based method is only claimed under a constant number of
    satisfied criteria per alternative, so nothing is tested then.
    """

    cascade_choice: AltSubset
    excellence_choice: AltSubset
    cascade_matches: bool
    symmetric: bool
    score_choice: AltSubset
    support_choice: AltSubset
    score_matches: bool | None


def check_choice_equivalence(table: CriterionTable,
                             profile: PreferenceProfile) -> ChoiceEquivalence:
    state = induce_opinion(table, profile)
    cascade = nurmi_first(table, profile)
    excellence = max_of(iis_rank(state))
    score = nurmi_second(table, profile)
    support_top = max_of(support_rank(state))
    symmetric = is_symmetric(table)
    return ChoiceEquivalence(
        cascade_choice=cascade,
        excellence_choice=excellence,
        cascade_matches=cascade == excellence,
        symmetric=symmetric,
        score_choice=score,
        support_choice=support_top,
        score_matches=(score == support_top) if symmetric else None,
    )


def random_symmetric_table(rng: Random, universe: int, n_criteria: int) -> CriterionTable:
    """Random table where every alternative satisfies equally many criteria.

    Draws tables as ``random_table`` does until one is symmetric.  After 200
    misses it builds one from complement pairs, which cover every
    alternative once per pair, plus the full set when the count is odd.
    """
    for _ in range(200):
        table = random_table(rng, universe, n_criteria)
        if is_symmetric(table):
            return table
    top = (1 << universe) - 1
    masks = {top} if n_criteria % 2 else set()
    while len(masks) < n_criteria:
        b = rng.randint(1, top - 1)
        if b not in masks and top ^ b not in masks:
            masks |= {b, top ^ b}
    criteria = tuple(f"c{j + 1}" for j in range(n_criteria))
    tr = {c: AltSubset(m, universe) for c, m in zip(criteria, sorted(masks))}
    return CriterionTable(tuple(f"x{i}" for i in range(universe)), criteria, tr)


def trailing_merge_sequence(state: OpinionState) -> list[OpinionState]:
    """States keeping a shrinking prefix of the support classes intact.

    Entry j keeps the strongest len(classes) - j explicit classes, with
    supports keep, keep - 1, ..., 1, and drops every later subset to support
    zero, merging the tail into the residual.  Excellence scores clamp to
    the kept depth: each merged state scores min(original score, kept
    classes) for every alternative, so rankings of alternatives scoring
    within the kept prefix are untouched.
    """
    classes = list(state.quotient.classes)
    return [OpinionState.from_support(state.universe, {
                m: keep - i for i, members in enumerate(classes[:keep]) for m in members})
            for keep in range(len(classes), -1, -1)]
