"""Choosing alternatives from voter preferences over criteria.

Voters rank criteria, not alternatives.  A positional tally turns the
profile into a score per criterion, and two choice methods then read the
winners off the table of which alternatives satisfy which criteria: one
walks down the criterion score classes intersecting satisfier sets until the
intersection would die, the other scores each alternative by the total score
of the criteria it satisfies.
"""

from .model import (
    AltSubset,
    CriterionTable,
    PreferenceProfile,
    ValidationError,
    column_sums,
    ranking_from_scores,
    running_intersections,
)


def positional_scores(table: CriterionTable, profile: PreferenceProfile) -> dict[str, int]:
    """Score each criterion positionally, keys in the table's criterion order,
    which :func:`~critrank.model.ranking_from_scores` keeps inside a tie.

    A voter ranking m criteria contributes m points to their top criterion,
    m-1 to the next, and so on down to 1.  Each order is walked by criterion
    index into a list of totals, one step per voter and criterion.  A
    profile over other criteria than the table's raises
    :class:`~critrank.model.ValidationError`.
    """
    if profile.criteria_set != set(table.criteria):
        raise ValidationError("profile ranks a different criterion set than the table lists")
    m = len(table.criteria)
    index = {c: j for j, c in enumerate(table.criteria)}
    totals = [0] * m
    points = range(m, 0, -1)
    for order in profile.orders:
        for j, p in zip(map(index.__getitem__, order), points):
            totals[j] += p
    return dict(zip(table.criteria, totals))


def borda_criterion_scores(table: CriterionTable, profile: PreferenceProfile
                           ) -> tuple[dict[str, int], tuple[int, ...]]:
    """The pair ``(criterion_scores, alternative_scores)``: the
    :func:`positional_scores`, then the total score per alternative, the
    sum over the criteria it satisfies."""
    scores = positional_scores(table, profile)
    alt = column_sums(table.universe, [(table.tr[c].mask, v) for c, v in scores.items()])
    return scores, tuple(alt)


def cascade_sets(table: CriterionTable, profile: PreferenceProfile) -> tuple[int, ...]:
    """Cumulative satisfier intersections down the criterion score classes.

    Entry k is the mask of the alternatives satisfying every criterion in
    the top k+1 score classes, grouped by :func:`positional_scores` alone.
    A stage may be empty (mask 0) and stays empty once it is.
    """
    ranking = ranking_from_scores(positional_scores(table, profile))
    return tuple(running_intersections(
        table.universe, ([table.tr[c].mask for c in cls_] for cls_ in ranking)))


def nurmi_first(table: CriterionTable, profile: PreferenceProfile) -> AltSubset:
    """Intersect satisfier sets class by class, keeping the last alive stage.

    Criterion score classes are visited strongest first.  The choice is the
    cumulative intersection just before it would become empty, or the final
    stage if it never does.  When even the strongest class forces emptiness
    the choice falls back to every alternative.
    """
    chosen = (1 << table.universe) - 1
    for stage in cascade_sets(table, profile):
        if not stage:
            break
        chosen = stage
    return AltSubset(chosen, table.universe)


def nurmi_second(table: CriterionTable, profile: PreferenceProfile) -> AltSubset:
    """Alternatives maximizing the summed score of the criteria they satisfy."""
    _criterion_scores, scores = borda_criterion_scores(table, profile)
    best = max(scores)
    return AltSubset(sum(1 << i for i, s in enumerate(scores) if s == best), table.universe)
