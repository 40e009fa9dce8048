"""Brute-force oracle over the fully enumerated subset space.

Everything here recomputes what the library's sparse fast paths compute,
but deliberately naively: every nonempty subset is materialized as a frozen
set of indices, every support class is listed, and every intersection walks
the full class unions.  The size cap keeps that instant.  The sweep then
compares the two routes field by field on random states; the oracle is the
authority, the sparse path is the accused.
"""

from random import Random

from .aggregators import RULES
from .model import (
    OpinionState,
    ValidationError,
    _Record,
    _set,
    cached_property,
    random_state,
    random_support_state,
)

ORACLE_MAX_UNIVERSE = 6


def _indices(mask: int, universe: int) -> frozenset[int]:
    return frozenset(i for i in range(universe) if mask >> i & 1)


class DenseState(_Record):
    """Support of every nonempty subset, in mask order (mask 1 first).

    The classes and top intersections are enumerated once per state.
    """

    _fields = ("universe", "support")

    def __init__(self, universe: int, support: tuple[int, ...]) -> None:
        if type(universe) is not int or universe < 1:
            raise ValidationError(f"universe size must be an integer in "
                                  f"[1, {ORACLE_MAX_UNIVERSE}], got {universe!r}")
        if universe > ORACLE_MAX_UNIVERSE:
            raise ValidationError(
                f"oracle handles at most {ORACLE_MAX_UNIVERSE} alternatives")
        if len(support) != (1 << universe) - 1:
            raise ValidationError("support array must cover every nonempty subset")
        if any(type(v) is not int or v < 0 for v in support):
            raise ValidationError("support values must be nonnegative integers")
        _set(self, "universe", universe)
        _set(self, "support", support)

    @classmethod
    def from_sparse(cls, state: OpinionState) -> "DenseState":
        support = [0] * ((1 << state.universe) - 1)
        for (s, _t), count in state.counts.items():
            support[s - 1] += count
        return cls(state.universe, tuple(support))

    @cached_property
    def _classes(self) -> tuple[tuple[int, tuple[frozenset[int], ...]], ...]:
        by_value: dict[int, list[frozenset[int]]] = {}
        for mask in range(1, 1 << self.universe):
            by_value.setdefault(self.support[mask - 1], []).append(
                _indices(mask, self.universe))
        return tuple((v, tuple(by_value[v])) for v in sorted(by_value, reverse=True))

    @cached_property
    def _top_intersections(self) -> tuple[frozenset[int], ...]:
        out = []
        union: list[frozenset[int]] = []
        for _value, members in self._classes:
            union += members
            out.append(frozenset(range(self.universe)).intersection(*union))
        return tuple(out)


def dense_classes(d: DenseState) -> list[tuple[int, list[frozenset[int]]]]:
    """Every equal-support class, strongest first, zero-support class included."""
    return [(v, list(members)) for v, members in d._classes]


def dense_e_score(d: DenseState, x: int) -> int:
    """Deepest class depth whose running intersection still contains x."""
    if not 0 <= x < d.universe:
        raise ValidationError(f"alternative index {x!r} out of range")
    best = 0
    for k, inter in enumerate(d._top_intersections, start=1):
        if x in inter:
            best = k
    return best


def dense_e_vector(d: DenseState) -> tuple[int, ...]:
    return tuple(dense_e_score(d, x) for x in range(d.universe))


def dense_support_totals(d: DenseState) -> tuple[int, ...]:
    totals = []
    for x in range(d.universe):
        totals.append(sum(d.support[mask - 1]
                          for mask in range(1, 1 << d.universe)
                          if x in _indices(mask, d.universe)))
    return tuple(totals)


def dense_class_counts(d: DenseState, x: int) -> tuple[int, ...]:
    return tuple(sum(1 for subset in members if x in subset)
                 for _value, members in d._classes)


def _partition_desc(scores: dict[int, object]) -> tuple[tuple[int, ...], ...]:
    values = sorted(set(scores.values()), reverse=True)
    return tuple(tuple(x for x in sorted(scores) if scores[x] == v) for v in values)


def dense_iis(d: DenseState) -> tuple[tuple[int, ...], ...]:
    return _partition_desc({x: dense_e_score(d, x) for x in range(d.universe)})


def dense_support_ranking(d: DenseState) -> tuple[tuple[int, ...], ...]:
    totals = dense_support_totals(d)
    return _partition_desc({x: totals[x] for x in range(d.universe)})


def dense_lexcel(d: DenseState) -> tuple[tuple[int, ...], ...]:
    return _partition_desc({x: dense_class_counts(d, x) for x in range(d.universe)})


def dense_tiebreak_tau(d: DenseState) -> tuple[tuple[int, ...], ...]:
    e = dense_e_vector(d)
    taus = {}
    for x in range(d.universe):
        row = dense_class_counts(d, x)
        taus[x] = tuple(sum(row[: i + 1]) for i in range(len(row)))
    classes: list[tuple[int, ...]] = []
    for value in sorted(set(e), reverse=True):
        members = [x for x in range(d.universe) if e[x] == value]
        if value == 0:
            classes.append(tuple(members))
            continue
        for tau in sorted({taus[x] for x in members}, reverse=True):
            classes.append(tuple(x for x in members if taus[x] == tau))
    return tuple(classes)


def dense_tiebreak_order(d: DenseState, order: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    e = dense_e_vector(d)
    ceiling = len(dense_classes(d)) - 1
    position = {x: i for i, x in enumerate(order)}
    classes: list[tuple[int, ...]] = []
    for value in sorted(set(e), reverse=True):
        members = [x for x in range(d.universe) if e[x] == value]
        if 0 < value < ceiling:
            for x in sorted(members, key=position.__getitem__):
                classes.append((x,))
        else:
            classes.append(tuple(members))
    return tuple(classes)


def dense_f1(d: DenseState) -> tuple[tuple[int, ...], ...]:
    e = dense_e_vector(d)
    bands = (tuple(x for x in range(d.universe) if e[x] >= 2),
             tuple(x for x in range(d.universe) if e[x] == 1),
             tuple(x for x in range(d.universe) if e[x] == 0))
    return tuple(b for b in bands if b)


def dense_f2(d: DenseState) -> tuple[tuple[int, ...], ...]:
    e = dense_e_vector(d)
    ceiling = len(dense_classes(d)) - 1
    bands = (tuple(x for x in range(d.universe) if e[x] == ceiling),
             tuple(x for x in range(d.universe) if e[x] != ceiling))
    return tuple(b for b in bands if b)


class DenseRankings(_Record):
    """The dense route's ranking classes for the order-free rules."""

    __slots__ = _fields = ("iis", "support", "lexcel", "iis_tau", "f1", "f2")

    def __init__(self, iis: tuple[tuple[int, ...], ...], support: tuple[tuple[int, ...], ...],
                 lexcel: tuple[tuple[int, ...], ...], iis_tau: tuple[tuple[int, ...], ...],
                 f1: tuple[tuple[int, ...], ...], f2: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "iis", iis)
        _set(self, "support", support)
        _set(self, "lexcel", lexcel)
        _set(self, "iis_tau", iis_tau)
        _set(self, "f1", f1)
        _set(self, "f2", f2)


def dense_rankings(d: DenseState) -> DenseRankings:
    return DenseRankings(
        iis=dense_iis(d),
        support=dense_support_ranking(d),
        lexcel=dense_lexcel(d),
        iis_tau=dense_tiebreak_tau(d),
        f1=dense_f1(d),
        f2=dense_f2(d),
    )


class SweepReport(_Record):
    """How many random states were compared, how many disagreed, and the
    first few disagreements."""

    __slots__ = _fields = ("trials", "mismatches", "details")

    def __init__(self, trials: int, mismatches: int, details: tuple[str, ...]) -> None:
        _set(self, "trials", trials)
        _set(self, "mismatches", mismatches)
        _set(self, "details", details)

    @property
    def clean(self) -> bool:
        return self.mismatches == 0


def _compare_state(state: OpinionState, order: tuple[int, ...]) -> list[str]:
    """All field-by-field disagreements between sparse and dense routes."""
    problems = []
    d = DenseState.from_sparse(state)
    u = state.universe

    dense_support = {m: d.support[m - 1] for m in range(1, 1 << u) if d.support[m - 1]}
    if state.support_map != dense_support:
        problems.append("support")

    q = state.quotient
    dcls = dense_classes(d)
    dense_positive = [sorted(members, key=sorted) for v, members in dcls if v > 0]
    sparse_positive = [sorted((_indices(m, u) for m in members), key=sorted)
                       for members in q.classes]
    if sparse_positive != dense_positive:
        problems.append("quotient-classes")
    if q.depth != len(dcls):
        problems.append("depth")

    e = state.e_vector
    if e != dense_e_vector(d):
        problems.append("e-vector")
    if any(v >= len(dcls) for v in e):
        problems.append("e-bound")

    for x, row in enumerate(state.class_count_rows):
        if row != dense_class_counts(d, x):
            problems.append(f"class-counts@{x}")

    expected = dense_rankings(d)
    dense = {
        "iis": expected.iis,
        "support": expected.support,
        "lexcel": expected.lexcel,
        "iis-tb-order": dense_tiebreak_order(d, order),
        "iis-tb-tau": expected.iis_tau,
        "f1": expected.f1,
        "f2": expected.f2,
        "indifferent": (tuple(range(u)),),
    }
    for name, rule in RULES.items():
        if name not in dense:
            raise LookupError(f"rule {name!r} has no dense counterpart in the oracle")
        if rule(state, order) != dense[name]:
            problems.append(f"ranking-{name}")
    return problems


def differential_sweep(universe: int, trials: int, seed: int) -> SweepReport:
    """Compare sparse and dense routes on random states; report disagreements.

    At one alternative every subset contains it, so its score is the full
    depth and the ``e-bound`` check does not apply; sweeps start at two.
    """
    if type(universe) is not int or not 2 <= universe <= ORACLE_MAX_UNIVERSE:
        raise ValidationError(
            f"oracle sweeps need 2 to {ORACLE_MAX_UNIVERSE} alternatives, got {universe!r}")
    rng = Random(f"oracle/{universe}/{seed}")
    mismatches = 0
    details: list[str] = []
    for trial in range(trials):
        if trial % 2:
            state = random_support_state(rng, universe)
        else:
            state = random_state(rng, universe)
        order = list(range(universe))
        rng.shuffle(order)
        problems = _compare_state(state, tuple(order))
        if problems:
            mismatches += 1
            if len(details) < 5:
                details.append(f"trial {trial}: " + ", ".join(problems))
    return SweepReport(trials, mismatches, tuple(details))
