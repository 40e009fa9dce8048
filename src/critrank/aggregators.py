"""Rules that turn a state of opinion into a ranking of alternatives.

All rules here consume an :class:`~critrank.model.OpinionState` and emit a
``Ranking``: the ordered partition of the alternative indices, a tuple of
classes, best class first.  The flagship rule ranks by excellence score
alone; the others are rivals and refinements used to map out which axioms
each rule does and does not satisfy: plain support sums, lexicographic
comparison of per-class membership counts, two tie-breaking refinements of
the excellence rule, two deliberately coarse rules, and total indifference.

``induce_opinion`` is the bridge from voting: a criterion table plus a
preference profile yields the state of the satisfier sets' pairwise voter
majorities; ``criterion_score_state`` gives its supports from the scores alone.

``RULES`` registers every rule by name, with the axiom a rival rule is
built to break; ``critrank.axioms`` holds the axioms and the named
witness instances.  Keeping the registry here lets the ranking commands
run without loading the axiom and oracle modules.
"""

import sys
from collections.abc import Callable, Sequence
from itertools import repeat

from .choice import positional_scores
from .model import (
    CriterionTable,
    OpinionState,
    PreferenceProfile,
    ValidationError,
    _Record,
    _set,
    column_sums,
    is_permutation,
    iter_bits,
    ranking_from_scores,
    refine_by_class_counts,
    score_groups,
)

# A weak order over the alternatives as its ordered partition, best class first.
Ranking = tuple[tuple[int, ...], ...]


def induce_opinion(table: CriterionTable, profile: PreferenceProfile) -> OpinionState:
    """State of opinion carried by a profile of preferences over criteria.

    For criteria c and d, the subset pair (satisfiers of c, satisfiers of d)
    is held by every voter who weakly prefers c to d; linear orders make the
    diagonal unanimous.

    ``rows[j]`` packs, for the j-th criterion c, one counter per criterion d
    in table order: the voters ranking c above d.  A counter is a native
    unsigned int of 1, 2, 4 or 8 bytes.  None exceeds the voter count, so
    none carries into the next, and each row reads out with one
    ``to_bytes``.  Walking each order by criterion index from worst to
    best, a row gains the units of every criterion already walked, so a
    call takes one step per voter and criterion, not one per voter and
    pair of criteria.  Built unchecked: table masks, unsigned counts.
    """
    if profile.criteria_set != set(table.criteria):
        raise ValidationError("profile ranks a different criterion set than the table lists")
    n_voters = len(profile.voters)
    size = 1
    while n_voters >> 8 * size:
        size *= 2
    m = len(table.criteria)
    index = {c: j for j, c in enumerate(table.criteria)}
    units = [1 << 8 * size * j for j in range(m)]
    rows = [0] * m
    for order in profile.orders:
        below = 0
        for j in map(index.__getitem__, reversed(order)):
            rows[j] += below
            below |= units[j]
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[size]
    masks = [table.tr[c].mask for c in table.criteria]
    counts: dict[tuple[int, int], int] = {}
    for s, row in zip(masks, rows):
        fields = memoryview(row.to_bytes(size * m, sys.byteorder)).cast(fmt)
        counts.update(zip(zip(repeat(s), masks), fields))
        # a criterion is never below itself, so its own field is 0 until set
        counts[(s, s)] = n_voters
    return OpinionState._trusted(table.universe, counts)


def criterion_score_state(table: CriterionTable, profile: PreferenceProfile) -> OpinionState:
    """One reflexive entry per satisfier set, holding its criterion's Borda score.

    That score is the set's support in ``induce_opinion``'s state: the
    diagonal ``n_voters`` plus, per voter, the criteria ranked below.  The
    masks are distinct (``CriterionTable`` enforces it), every score is at
    least ``n_voters`` > 0 and keys follow table order, so ``support_map``
    equals the induced one, key order included, and every rule ranks alike.
    Built unchecked: table masks, positive scores.
    """
    masks = [table.tr[c].mask for c in table.criteria]
    scores = positional_scores(table, profile).values()
    return OpinionState._trusted(table.universe, {(m, m): v for m, v in zip(masks, scores)})


def iis_rank(state: OpinionState) -> Ranking:
    """Rank by excellence score alone; equal scores tie."""
    e = state.e_vector
    return ranking_from_scores({x: e[x] for x in range(state.universe)})


def support_rank(state: OpinionState) -> Ranking:
    """Rank by the summed support of every subset containing the alternative."""
    totals = column_sums(state.universe, state.support_map.items())
    return ranking_from_scores(dict(enumerate(totals)))


def lexcel_rank(state: OpinionState) -> Ranking:
    """Compare per-class membership counts lexicographically, strongest first."""
    groups = refine_by_class_counts([(1 << state.universe) - 1], state.quotient.classes)
    return tuple(tuple(iter_bits(g)) for g in groups)


def iis_tiebreak_order(state: OpinionState, order: Sequence[int]) -> Ranking:
    """Excellence first, then an exogenous strict order on middling ties.

    Ties at the floor score 0 and at the ceiling score (one below the class
    count) are kept; any tie strictly between is broken by ``order``, given
    best first as a permutation of the alternatives.
    """
    if not is_permutation(order, state.universe):
        raise ValidationError("tie-break order must be a permutation of the alternatives")
    rank_in_order = {x: i for i, x in enumerate(order)}
    ceiling = state.quotient.depth - 1
    return ranking_from_scores({x: (e, -rank_in_order[x] if 0 < e < ceiling else 0)
                                for x, e in enumerate(state.e_vector)})


def iis_tiebreak_tau(state: OpinionState) -> Ranking:
    """Excellence first, positive-score ties broken by running totals.

    Alternatives tied at score 0 stay tied; alternatives tied at a positive
    score are compared lexicographically by their cumulative membership
    counts, strongest class first.  Running totals first differ where the
    counts do, by the same amount, so refining each positive score band by
    the class counts orders them.
    """
    bands = [(e, sum(1 << x for x in xs))
             for e, xs in score_groups(dict(enumerate(state.e_vector)))]
    groups = refine_by_class_counts([g for e, g in bands if e], state.quotient.classes)
    return tuple(tuple(iter_bits(g)) for g in groups + [g for e, g in bands if not e])


def coarse_f1(state: OpinionState) -> Ranking:
    """Three bands only: score two or more, score exactly one, score zero."""
    return ranking_from_scores({x: min(e, 2) for x, e in enumerate(state.e_vector)})


def coarse_f2(state: OpinionState) -> Ranking:
    """Two bands only: ceiling score against everyone else."""
    ceiling = state.quotient.depth - 1
    return ranking_from_scores({x: e == ceiling for x, e in enumerate(state.e_vector)})


def indifference_rule(state: OpinionState) -> Ranking:
    """Every alternative tied, regardless of the state."""
    return (tuple(range(state.universe)),)


# Short names of the five axioms of ``critrank.axioms``, in report order.
AXIOM_KINDS = ("nt", "iws", "ibs", "wivip", "inui")


class Rule(_Record):
    """One ranking rule, with the axiom it is built to break.

    A rule is itself an aggregator: ``rule(state, order)`` calls ``rank``,
    passing ``order`` (the identity order when None) only when ``takes_order``
    is set.  ``target`` is the one axiom of ``AXIOM_KINDS`` a rival rule
    breaks while keeping the other four, or None for rules outside the
    independence argument; ``critrank.axioms.WITNESSES`` holds its instances.
    """

    __slots__ = _fields = ("name", "rank", "takes_order", "target")

    def __init__(self, name: str, rank: Callable[..., Ranking],
                 takes_order: bool = False, target: str | None = None) -> None:
        _set(self, "name", name)
        _set(self, "rank", rank)
        _set(self, "takes_order", takes_order)
        _set(self, "target", target)

    def __call__(self, state: OpinionState,
                 order: Sequence[int] | None = None) -> Ranking:
        if not self.takes_order:
            return self.rank(state)
        return self.rank(state, tuple(range(state.universe)) if order is None else order)


RULES: dict[str, Rule] = {rule.name: rule for rule in (
    Rule("iis", iis_rank),
    Rule("support", support_rank),
    Rule("lexcel", lexcel_rank),
    Rule("iis-tb-order", iis_tiebreak_order, takes_order=True, target="nt"),
    Rule("iis-tb-tau", iis_tiebreak_tau, target="inui"),
    Rule("f1", coarse_f1, target="ibs"),
    Rule("f2", coarse_f2, target="iws"),
    Rule("indifferent", indifference_rule, target="wivip"),
)}
