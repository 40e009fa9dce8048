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
    Ranking,
    ValidationError,
    column_sums,
    ranking_from_scores,
    _Record,
    _set,
    running_intersections,
)


class BordaTally(_Record):
    """Positional scores: per criterion, and summed per alternative."""

    __slots__ = _fields = ("criterion_scores", "alternative_scores")

    def __init__(self, criterion_scores: dict[str, int],
                 alternative_scores: tuple[int, ...]) -> None:
        _set(self, "criterion_scores", criterion_scores)
        _set(self, "alternative_scores", alternative_scores)


def borda_criterion_scores(table: CriterionTable, profile: PreferenceProfile) -> BordaTally:
    """Score each criterion positionally, then total scores per alternative.

    A voter ranking m criteria contributes m points to their top criterion,
    m-1 to the next, and so on down to 1.  An alternative's score is the sum
    over the criteria it satisfies.  Criterion keys follow the table's
    criterion order.
    """
    if profile.criteria_set != set(table.criteria):
        raise ValidationError("profile ranks a different criterion set than the table lists")
    m = len(table.criteria)
    scores = {c: 0 for c in table.criteria}
    for order in profile.orders:
        for p, c in enumerate(order):
            scores[c] += m - p
    alt = column_sums(table.universe, ((table.tr[c].mask, score) for c, score in scores.items()))
    return BordaTally(scores, tuple(alt))


def borda_ranking(tally: BordaTally) -> Ranking[str]:
    """Criteria grouped by positional score, strongest first."""
    return ranking_from_scores(tally.criterion_scores)


def cascade_sets(table: CriterionTable, profile: PreferenceProfile) -> tuple[int, ...]:
    """Cumulative satisfier intersections down the criterion score classes.

    Entry k is the mask of the alternatives satisfying every criterion in
    the top k+1 score classes.  A stage may be empty (mask 0) and stays
    empty once it is.
    """
    ranking = borda_ranking(borda_criterion_scores(table, profile))
    tr = table.tr
    return tuple(running_intersections(
        table.universe, ([tr[c].mask for c in cls_] for cls_ in ranking.classes)))


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
    scores = borda_criterion_scores(table, profile).alternative_scores
    best = max(scores)
    return AltSubset(sum(1 << i for i, s in enumerate(scores) if s == best), table.universe)
