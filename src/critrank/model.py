"""Subsets, criterion tables, voter profiles and sparse opinion states, with
the support quotient, excellence scores and class counts derived from them.
A ranking is its ordered partition: a tuple of classes of labels, best
class first, as :func:`ranking_from_scores` builds it.

A subset of the ``universe`` alternatives (at most 64) is a nonzero int
mask, bit i for alternative i.  Only pairs of subsets with a positive count
are stored; the subsets with no support form the quotient's residual class,
which is never enumerated.  Every record is immutable; one that outside
values can reach raises :class:`ValidationError` on a value breaking it.
"""

import functools
import sys
from collections.abc import Collection, Iterable, Mapping, Sequence
from random import Random
from typing import Hashable, TypeVar

MAX_UNIVERSE = 64

L = TypeVar("L", bound=Hashable)


class ValidationError(ValueError):
    """A domain invariant was violated."""


def _check_universe(universe: int) -> None:
    # exact ints here and in every mask check: no record holds a bool
    if type(universe) is not int or not 1 <= universe <= MAX_UNIVERSE:
        raise ValidationError(
            f"universe size must be an integer in [1, {MAX_UNIVERSE}], got {universe!r}"
        )


def is_permutation(pi: Sequence[int], universe: int) -> bool:
    """Whether ``pi`` holds each of ``0 .. universe-1`` once, as exact ints."""
    return all(type(x) is int for x in pi) and sorted(pi) == list(range(universe))


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BYTE_BITS = tuple(tuple(iter_bits(byte)) for byte in range(256))


def column_sums(universe: int, weighted_masks: Iterable[tuple[int, int]]) -> list[int]:
    """Per alternative, the summed weight of the masks containing it, totalled
    per byte position and byte value before each byte is spread over its bits."""
    width = (universe + 7) // 8
    pairs = list(weighted_masks)
    data = b"".join(mask.to_bytes(width, "little") for mask, _w in pairs)
    sums = [0] * universe
    for pos in range(width):
        totals = [0] * 256
        for byte, (_mask, weight) in zip(data[pos::width], pairs):
            totals[byte] += weight
        for byte in set(data[pos::width]):
            for bit in _BYTE_BITS[byte]:
                sums[8 * pos + bit] += totals[byte]
    return sums


_set = object.__setattr__


class cached_property(functools.cached_property):
    """A :class:`functools.cached_property` without the class-wide ``RLock``
    that Python 3.10 and 3.11 take on every first read: ``self.func(instance)``
    goes into the instance ``__dict__`` unguarded, as Python 3.12 does, so
    later reads skip the descriptor.  Two threads racing on a first read may
    both compute the value; the results are equal and immutable, and either
    may be kept.  ``func`` stays writable, so a wrapper can be swapped in and
    out."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        instance.__dict__[self.attrname] = value = self.func(instance)
        return value


class _Record:
    """An immutable record with value equality, the base of every record
    type of the package.

    Instances of the same class are equal when their ``_fields`` are, and
    hash and print as those fields; values a subclass caches in its
    ``__dict__`` take no part.  Assigning or deleting any attribute raises
    :class:`AttributeError`.

    A subclass names its public fields in ``_fields`` and stores them in its
    own ``__init__`` through ``_set`` (``object.__setattr__``).  A record
    that values from outside the library can reach checks them there, and a
    private ``_trusted`` classmethod may skip the checks that its callers'
    values already passed; a record that only the library builds has one
    unchecked ``__init__``.  It declares ``__slots__`` unless it
    keeps cached properties in a ``__dict__``.  Records are not
    ``dataclasses`` classes: importing ``dataclasses`` loads ``inspect``,
    and each decorated class ``exec``s its generated methods, on every
    start of the CLI.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class AltSubset(_Record):
    """A nonempty subset of the alternatives, stored as a bit vector.

    It keys :attr:`CriterionTable.tr` and :attr:`OpinionState.entries`, and
    the choice methods return it; everything else takes plain masks.
    """

    __slots__ = _fields = ("mask", "universe")

    def __init__(self, mask: int, universe: int) -> None:
        _check_universe(universe)
        if type(mask) is not int:
            raise ValidationError(f"subset mask must be an integer, got {mask!r}")
        if mask == 0:
            raise ValidationError("subset of alternatives must be nonempty")
        if not 0 < mask < (1 << universe):
            raise ValidationError(f"mask {mask:#x} out of range for universe of {universe}")
        _set(self, "mask", mask)
        _set(self, "universe", universe)


class CriterionTable(_Record):
    """Which alternatives satisfy which criteria.

    ``tr[c]`` is the set of alternatives satisfying criterion ``c``.  Every
    criterion must be satisfiable (nonempty set) and no two criteria may be
    satisfied by exactly the same alternatives, so the map from criteria to
    subsets is injective.
    """

    __slots__ = _fields = ("alternatives", "criteria", "tr")

    def __init__(self, alternatives: tuple[str, ...], criteria: tuple[str, ...],
                 tr: Mapping[str, AltSubset]) -> None:
        if len(alternatives) < 3:
            raise ValidationError("need at least 3 alternatives")
        _check_universe(len(alternatives))
        if len(set(alternatives)) != len(alternatives):
            raise ValidationError("alternative names must be distinct")
        if not criteria:
            raise ValidationError("need at least one criterion")
        if len(set(criteria)) != len(criteria):
            raise ValidationError("criterion names must be distinct")
        if set(tr) != set(criteria):
            raise ValidationError("tr must map exactly the listed criteria")
        n = len(alternatives)
        seen: dict[int, str] = {}
        for c in criteria:
            s = tr[c]
            if not isinstance(s, AltSubset):
                raise ValidationError(f"criterion {c!r} must map to an AltSubset")
            if s.universe != n:
                raise ValidationError(f"criterion {c!r} has subset over a different universe")
            if s.mask in seen:
                raise ValidationError(
                    f"criteria {seen[s.mask]!r} and {c!r} are equivalent: "
                    "both are satisfied by exactly the same alternatives"
                )
            seen[s.mask] = c
        _set(self, "alternatives", alternatives)
        _set(self, "criteria", criteria)
        _set(self, "tr", tr)

    @property
    def universe(self) -> int:
        return len(self.alternatives)


class PreferenceProfile(_Record):
    """One linear order over the criteria per voter, best first."""

    __slots__ = _fields = ("voters", "orders")

    def __init__(self, voters: tuple[str, ...], orders: tuple[tuple[str, ...], ...]) -> None:
        if not voters:
            raise ValidationError("need at least one voter")
        if len(set(voters)) != len(voters):
            raise ValidationError("voter ids must be distinct")
        if len(orders) != len(voters):
            raise ValidationError("need exactly one order per voter")
        base = set(orders[0])
        for voter, order in zip(voters, orders):
            if not order:
                raise ValidationError(f"voter {voter!r} has an empty order")
            if len(set(order)) != len(order):
                raise ValidationError(f"voter {voter!r} ranks a criterion twice")
            if set(order) != base:
                raise ValidationError(
                    f"voter {voter!r} ranks a different criterion set than the others"
                )
        _set(self, "voters", voters)
        _set(self, "orders", orders)

    @classmethod
    def _trusted(cls, voters: tuple[str, ...],
                 orders: tuple[tuple[str, ...], ...]) -> "PreferenceProfile":
        """A profile from at least one voter, all distinct, each with an
        order naming the table's criteria once each, as the profile reader
        has proved; nothing is checked."""
        profile = object.__new__(cls)
        _set(profile, "voters", voters)
        _set(profile, "orders", orders)
        return profile

    @property
    def criteria_set(self) -> frozenset[str]:
        return frozenset(self.orders[0])


class OpinionState(_Record):
    """A sparse state of opinion.

    ``counts[(s, t)]`` counts how many expressed opinions hold the subset
    with mask ``s`` to be at least as good as the subset with mask ``t``.
    Zero counts are dropped on construction, so equality between states is
    equality of the positive counts.
    """

    _fields = ("universe", "counts")

    def __init__(self, universe: int, counts: Mapping[tuple[int, int], int]) -> None:
        _check_universe(universe)
        top = 1 << universe
        for pair, count in counts.items():
            if type(pair) is not tuple or len(pair) != 2:
                raise ValidationError(f"opinion keys must be pairs of masks, got {pair!r}")
            s, t = pair
            if not (type(s) is type(t) is int and 0 < s < top and 0 < t < top):
                raise ValidationError(
                    f"opinion key {pair!r} out of range for universe of {universe}")
            if type(count) is not int or count < 0:
                raise ValidationError(f"opinion counts must be nonnegative integers, got {count!r}")
        _set(self, "universe", universe)
        _set(self, "counts", dict(counts))
        self.__post_init__()

    @classmethod
    def _trusted(cls, universe: int, counts: dict[tuple[int, int], int]) -> "OpinionState":
        """A state from a fresh dict, which it takes over, of counts already
        known valid (pairs of masks in range, nonnegative ints): only the
        universe is checked."""
        _check_universe(universe)
        state = object.__new__(cls)
        _set(state, "universe", universe)
        _set(state, "counts", counts)
        state.__post_init__()
        return state

    @classmethod
    def _from_classes(cls, universe: int,
                      classes: Sequence[Collection[int]]) -> "OpinionState":
        """A state of reflexive opinions realizing a class list, strongest
        first: each mask of class ``idx`` gets support ``len(classes) - idx``.
        The classes, nonempty disjoint masks of the universe as the axiom
        generators draw them, are the state's quotient, so it is stored, not
        rebuilt from the supports; nothing is checked."""
        depth = len(classes)
        counts = {(m, m): depth - idx for idx, masks in enumerate(classes) for m in masks}
        state = cls._trusted(universe, counts)
        _set(state, "quotient", QuotientOrder(universe, tuple(map(frozenset, classes))))
        return state

    def __post_init__(self) -> None:
        """Drop the zero counts, the tail both constructors share; the checks
        are the public constructor's.  A method of its own so that the
        benchmark's traced run can time it: it times only this filter."""
        counts = self.counts
        if 0 in counts.values():
            _set(self, "counts", {pair: count for pair, count in counts.items() if count})

    @classmethod
    def from_support(cls, universe: int, support: Mapping[int, int]) -> "OpinionState":
        """Realize an arbitrary support assignment, mask -> value, as a state.

        Any nonnegative support vector is achievable: give each subset its
        whole support in a single reflexive opinion.
        """
        return cls(universe, {(m, m): v for m, v in support.items()})

    @cached_property
    def entries(self) -> dict[tuple[AltSubset, AltSubset], int]:
        """The counts keyed by :class:`AltSubset` pairs, built on first use."""
        n = self.universe
        return {(AltSubset(s, n), AltSubset(t, n)): c for (s, t), c in self.counts.items()}

    @cached_property
    def support_map(self) -> dict[int, int]:
        """Total support per subset mask (row sums), positive entries only."""
        sums: dict[int, int] = {}
        for (s, _t), count in self.counts.items():
            sums[s] = sums.get(s, 0) + count
        return sums

    @cached_property
    def quotient(self) -> "QuotientOrder":
        """Subsets grouped into equal-support classes, strongest first."""
        # score_groups of a valid support map: nonempty, disjoint masks in range
        classes = tuple(frozenset(masks) for _v, masks in score_groups(self.support_map))
        return QuotientOrder(self.universe, classes)

    @cached_property
    def e_vector(self) -> tuple[int, ...]:
        """Excellence score of every alternative.

        ``e_vector[x]`` is the deepest ``k`` such that x lies in every subset
        of the top ``k`` support classes, or 0 when x already misses some
        subset of the strongest class.
        """
        return _e_scores_from_quotient(self.quotient)

    @cached_property
    def class_count_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per alternative, how many subsets of each support class contain it.

        Column order follows the quotient, strongest class first.  Each
        explicit column is read off its class's :func:`bit_planes`; the final
        column is the implicit residual class when present, computed by
        complement counting.  No rule reads the rows: ``lexcel`` and
        ``iis-tb-tau`` refine by :func:`refine_by_class_counts`; the oracle
        and the demo read them.
        """
        n, q = self.universe, self.quotient
        rows = [[0] * len(q.classes) for _ in range(n)]
        for k, members in enumerate(q.classes):
            for j, plane in enumerate(bit_planes(members)):
                for x in iter_bits(plane):
                    rows[x][k] += 1 << j
        if q.residual_present:
            # Each alternative lies in 2**(n-1) subsets of the universe overall.
            for row in rows:
                row.append((1 << (n - 1)) - sum(row))
        return tuple(map(tuple, rows))


class QuotientOrder(_Record):
    """The support quotient as an ordered partition, plus an implicit residual.

    ``classes`` holds one frozenset of masks per explicit class, strongest
    first; only their order matters, not the support values that produced
    it.  The residual class collects every subset not listed in ``classes``;
    it is last and never materialized: construction derives whether it is
    nonempty, ``residual_present``.
    Only :attr:`OpinionState.quotient` builds one, from a valid state's score
    groups, and :meth:`OpinionState._from_classes`, from the class list it
    realizes, so nothing is checked: nonempty, disjoint classes of its masks.
    """

    _fields = ("universe", "classes")
    __slots__ = _fields + ("residual_present",)

    def __init__(self, universe: int, classes: tuple[frozenset[int], ...]) -> None:
        _set(self, "universe", universe)
        _set(self, "classes", classes)
        # a plain attribute, not a property: ``depth`` reads the flag on every
        # access; the classes are disjoint, so their sizes add up
        _set(self, "residual_present", sum(map(len, classes)) < (1 << universe) - 1)

    @property
    def depth(self) -> int:
        """Number of classes, counting the residual when present."""
        return len(self.classes) + (1 if self.residual_present else 0)


def running_intersections(universe: int, families: Iterable[Iterable[int]]):
    """After each family, yield the intersection of every mask so far, from
    the whole universe down: the excellence walk over the support classes and
    Nurmi's cascade over the criterion score classes, strongest first."""
    inter = (1 << universe) - 1
    for family in families:
        for mask in family:
            inter &= mask
        yield inter


def _e_scores_from_quotient(q: QuotientOrder) -> tuple[int, ...]:
    # an alternative's score is set once, at the class that drops it from
    # the running intersection
    e = [0] * q.universe
    alive = (1 << q.universe) - 1
    depth = 0
    for inter in running_intersections(q.universe, q.classes):
        if inter != alive:
            if depth:  # a score of 0 is already set
                for x in iter_bits(alive ^ inter):
                    e[x] = depth
            if not inter:
                return tuple(e)
            alive = inter
        depth += 1
    for x in iter_bits(alive):
        e[x] = depth
    # If x lies in every explicit subset, all 2**(n-1) - 1 subsets missing x
    # sit in the residual, so the residual extends x's run only at n == 1.
    if q.residual_present and q.universe == 1:
        e[0] = depth + 1
    return tuple(e)


def bit_planes(members: Iterable[int]) -> list[int]:
    """Per alternative, how many of the masks contain it, as vertical bit
    planes, low plane first: bit x of plane j is bit j of x's count.  A
    ripple-carry counter adds each mask in, so no loop runs per set bit."""
    planes: list[int] = []
    for carry in members:
        for j, plane in enumerate(planes):
            planes[j] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    return planes


def refine_by_class_counts(groups: list[int],
                           classes: Iterable[Collection[int]]) -> list[int]:
    """Refine an ordered partition of the alternatives, given as masks, by
    the lexicographic order of their explicit class counts, strongest class
    first; within a group, a higher count comes first.

    Each class is counted into :func:`bit_planes` (a one-member class is its
    own single plane), and each plane, high first, splits every group it
    cuts into the members inside the plane, then the rest: a radix sort by
    count, most significant bit first.  A class after the first difference
    never decides, so the walk stops reading classes once every group is a
    single alternative.  The residual class is never read: each alternative
    lies in 2**(n-1) subsets, so equal explicit counts leave equal residuals.
    """
    # the groups are disjoint, so the sum of those of two or more members
    # is the set of alternatives still sharing a group
    shared = sum(g for g in groups if g & (g - 1))
    for members in classes if shared else ():
        for plane in members if len(members) == 1 else reversed(bit_planes(members)):
            if 0 < plane & shared != shared:
                groups = [part for g in groups for part in (g & plane, g & ~plane) if part]
                shared = sum(g for g in groups if g & (g - 1))
        if not shared:
            break
    return groups


def score_groups(scores: Mapping[L, object]) -> list[tuple[object, list[L]]]:
    """(score, labels) pairs, one per distinct score, highest score first.

    Scores only need to be mutually comparable; tuples compare
    lexicographically, which several aggregation rules rely on.  Insertion
    order of ``scores`` decides the order inside each group.
    """
    groups: dict[object, list[L]] = {}
    for label, score in scores.items():
        groups.setdefault(score, []).append(label)
    # scores are distinct keys, so the sort never compares two label lists
    return sorted(groups.items(), reverse=True)


def ranking_from_scores(scores: Mapping[L, object]) -> tuple[tuple[L, ...], ...]:
    """Group labels with equal scores, highest score first: a ranking as
    its ordered partition, best class first."""
    return tuple(tuple(labels) for _v, labels in score_groups(scores))


# ---------------------------------------------------------------------------
# Random states, shared by the axiom generators and the oracle's sweeps; they
# live here so that the oracle runs without loading the axiom suite


def _randint(rng: Random, a: int, b: int) -> int:
    """``rng.randint(a, b)``, drawn the way CPython's ``Random`` draws it
    (``getrandbits`` of the width's bit length, redrawn while out of range),
    so a seed gives the same values, without its three Python-level calls.
    Callers guarantee ``a <= b``; an empty range would never return."""
    n = b - a + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def random_state(rng: Random, universe: int) -> OpinionState:
    """Random state with entry-level structure (off-diagonal opinions too):
    up to 10 opinions, each adding 1 to 4 to its pair's count.  Built
    unchecked: masks drawn in range, positive counts."""
    top = (1 << universe) - 1
    counts: dict[tuple[int, int], int] = {}
    for _ in range(_randint(rng, 0, 10)):
        pair = (_randint(rng, 1, top), _randint(rng, 1, top))
        counts[pair] = counts.get(pair, 0) + _randint(rng, 1, 4)
    return OpinionState._trusted(universe, counts)


def _distinct_masks(rng: Random, top: int, n: int) -> list[int]:
    """n distinct masks drawn from 1 .. top.

    ``rng.sample`` needs the range's length to fit a machine word, which
    fails only for the full 64-alternative range; that case draws until n
    distinct masks are found, keeping draw order.
    """
    if top <= sys.maxsize:
        return rng.sample(range(1, top + 1), n)
    drawn: dict[int, None] = {}
    while len(drawn) < n:
        drawn[_randint(rng, 1, top)] = None
    return list(drawn)


def random_support_state(rng: Random, universe: int) -> OpinionState:
    """Random state built from a support assignment: up to 8 subsets with
    support 1 to 5, values small enough to force ties.  Built unchecked:
    masks drawn in range, positive supports."""
    top = (1 << universe) - 1
    n = _randint(rng, 0, min(8, top))
    masks = _distinct_masks(rng, top, n)
    return OpinionState._trusted(universe, {(m, m): _randint(rng, 1, 5) for m in masks})
