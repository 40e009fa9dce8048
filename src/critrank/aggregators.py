"""Rules that turn a state of opinion into a ranking of alternatives.

All rules here consume an :class:`~critrank.model.OpinionState` and emit a
:class:`~critrank.model.Ranking` over alternative indices.  The flagship
rule ranks by excellence score alone; the others are rivals and refinements
used to map out which axioms each rule does and does not satisfy: plain
support sums, lexicographic comparison of per-class membership counts, two
tie-breaking refinements of the excellence rule, two deliberately coarse
rules, and total indifference.

``induce_opinion`` is the bridge from voting: a criterion table plus a
preference profile yields the state whose subsets are the satisfier sets and
whose counts are pairwise voter majorities.
"""

from collections.abc import Sequence

from .model import (
    AltSubset,
    CriterionTable,
    OpinionState,
    PreferenceProfile,
    Ranking,
    ValidationError,
    column_sums,
    ranking_from_scores,
)


def induce_opinion(table: CriterionTable, profile: PreferenceProfile) -> OpinionState:
    """State of opinion carried by a profile of preferences over criteria.

    For criteria c and d, the subset pair (satisfiers of c, satisfiers of d)
    is held by every voter who weakly prefers c to d; linear orders make the
    diagonal unanimous.

    ``rows[c]`` packs one counter per criterion d, ``width`` bits each in
    table order, of the voters ranking c above d.  No counter exceeds the
    voter count, so none carries into the next.  Walking each order from
    worst to best, c's row gains the units of every criterion already walked.
    """
    if profile.criteria_set != set(table.criteria):
        raise ValidationError("profile ranks a different criterion set than the table lists")
    n_voters = len(profile.voters)
    width = n_voters.bit_length()
    unit = {c: 1 << width * j for j, c in enumerate(table.criteria)}
    rows = dict.fromkeys(table.criteria, 0)
    for order in profile.orders:
        below = 0
        for c in reversed(order):
            rows[c] += below
            below |= unit[c]
    field = (1 << width) - 1
    masks = [table.tr[c].mask for c in table.criteria]
    shifts = range(0, width * len(masks), width)
    counts: dict[tuple[int, int], int] = {}
    for s, row in zip(masks, rows.values()):
        for t, shift in zip(masks, shifts):
            # satisfier masks are distinct, so s == t is the diagonal c == d
            counts[(s, t)] = n_voters if s == t else row >> shift & field
    return OpinionState(table.universe, counts)


def iis_rank(state: OpinionState) -> Ranking[int]:
    """Rank by excellence score alone; equal scores tie."""
    e = state.e_vector
    return ranking_from_scores({x: e[x] for x in range(state.universe)})


def support_rank(state: OpinionState) -> Ranking[int]:
    """Rank by the summed support of every subset containing the alternative."""
    totals = column_sums(state.universe, state.support_map.items())
    return ranking_from_scores(dict(enumerate(totals)))


def lexcel_rank(state: OpinionState) -> Ranking[int]:
    """Compare per-class membership counts lexicographically, strongest first."""
    return ranking_from_scores(dict(enumerate(state.class_count_keys)))


def iis_tiebreak_order(state: OpinionState, order: Sequence[int]) -> Ranking[int]:
    """Excellence first, then an exogenous strict order on middling ties.

    Ties at the floor score 0 and at the ceiling score (one below the class
    count) are kept; any tie strictly between is broken by ``order``, given
    best first as a permutation of the alternatives.
    """
    n = state.universe
    if sorted(order) != list(range(n)):
        raise ValidationError("tie-break order must be a permutation of the alternatives")
    rank_in_order = {x: i for i, x in enumerate(order)}
    ceiling = state.quotient.depth - 1
    return ranking_from_scores({x: (e, -rank_in_order[x] if 0 < e < ceiling else 0)
                                for x, e in enumerate(state.e_vector)})


def iis_tiebreak_tau(state: OpinionState) -> Ranking[int]:
    """Excellence first, positive-score ties broken by running totals.

    Alternatives tied at score 0 stay tied; alternatives tied at a positive
    score are compared lexicographically by their cumulative membership
    counts, strongest class first.  Running totals first differ where the
    counts do, by the same amount, so the class-count keys order them.  The
    keys omit the residual count, which never decides: each alternative lies
    in 2**(n-1) subsets, so equal explicit counts leave equal residuals.
    """
    keys = state.class_count_keys
    return ranking_from_scores({x: (e, e and keys[x]) for x, e in enumerate(state.e_vector)})


def coarse_f1(state: OpinionState) -> Ranking[int]:
    """Three bands only: score two or more, score exactly one, score zero."""
    return ranking_from_scores({x: min(e, 2) for x, e in enumerate(state.e_vector)})


def coarse_f2(state: OpinionState) -> Ranking[int]:
    """Two bands only: ceiling score against everyone else."""
    ceiling = state.quotient.depth - 1
    return ranking_from_scores({x: e == ceiling for x, e in enumerate(state.e_vector)})


def indifference_rule(state: OpinionState) -> Ranking[int]:
    """Every alternative tied, regardless of the state."""
    return Ranking((tuple(range(state.universe)),))


def max_of(ranking: Ranking[int]) -> AltSubset:
    """Top class of an index ranking, as a subset of the universe."""
    n = sum(len(c) for c in ranking.classes)
    if {x for cls_ in ranking.classes for x in cls_} != set(range(n)):
        raise ValidationError("ranking labels must be exactly the alternative indices")
    return AltSubset(sum(1 << x for x in ranking.top), n)
