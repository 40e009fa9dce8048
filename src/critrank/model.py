"""Core domain model for ranking alternatives from supported subsets.

Alternatives are dense indices ``0 .. universe-1``; a subset of alternatives
is a single machine word, which caps the universe at 64 and keeps every
aggregation step a handful of integer operations even when thousands of
subsets carry support.  A subset is its plain int mask everywhere: the
opinion counts, the support map, the support classes, ``from_support`` and
the choice cascade all use masks, and a mask's members are read with
:func:`iter_bits`.  :class:`AltSubset` (a validated mask with its universe)
only keys criterion tables and the lazy ``entries`` view of a state, and is
what the choice methods return.

Opinion states are sparse: only pairs of subsets with a positive count are
stored.  The exponentially large family of subsets with zero support is never
materialized; :class:`QuotientOrder` represents it as an implicit residual
class.  The excellence scores never need its members, and the two facts
that are needed, its size and how many of its subsets contain each
alternative, are closed-form counts rather than enumerations.

Everything here is immutable after construction and all operations are pure
functions, so values can be shared freely across threads.  Every record type
of the package subclasses :class:`_Record` rather than using ``dataclasses``,
which would load ``inspect`` and ``exec`` generated methods on every start of
the CLI: a record names its public fields in ``_fields``, stores them in its
own ``__init__`` through ``_set`` (``object.__setattr__``) and checks them
there.  Test-only questions (``strictly_above``, ``weakly_above``, ``tied``,
``satisfied_counts``, ``is_symmetric``) live in ``tests/conftest.py``.
"""

from collections.abc import Iterable, Mapping
from functools import cached_property
from operator import attrgetter
from typing import Generic, Hashable, TypeVar

MAX_UNIVERSE = 64

L = TypeVar("L", bound=Hashable)


class ValidationError(ValueError):
    """A domain invariant was violated."""


def _check_universe(universe: int) -> None:
    if not isinstance(universe, int) or not 1 <= universe <= MAX_UNIVERSE:
        raise ValidationError(
            f"universe size must be an integer in [1, {MAX_UNIVERSE}], got {universe!r}"
        )


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


class _Record:
    """An immutable record with value equality.

    Instances of the same class are equal when their ``_fields`` are, and
    hash and print as those fields; values a subclass caches in its
    ``__dict__`` take no part.  Assigning or deleting any attribute raises
    :class:`AttributeError`.
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
    """A nonempty subset of the alternatives, stored as a bit vector."""

    __slots__ = _fields = ("mask", "universe")

    def __init__(self, mask: int, universe: int) -> None:
        _check_universe(universe)
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
            # one set check accepts an order; only a failing one is searched
            # for its first fault
            if order and len(order) == len(base) and set(order) == base:
                continue
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
        _set(self, "universe", universe)
        _set(self, "counts", counts)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the counts and keep the positive ones; a method of its own so
        that the benchmark's traced run can time it."""
        _check_universe(self.universe)
        top = 1 << self.universe
        clean: dict[tuple[int, int], int] = {}
        for pair, count in self.counts.items():
            if type(pair) is not tuple or len(pair) != 2:
                raise ValidationError(f"opinion keys must be pairs of masks, got {pair!r}")
            s, t = pair
            if not (isinstance(s, int) and isinstance(t, int) and 0 < s < top and 0 < t < top):
                raise ValidationError(
                    f"opinion key {pair!r} out of range for universe of {self.universe}")
            if not isinstance(count, int) or count < 0:
                raise ValidationError(f"opinion counts must be nonnegative integers, got {count!r}")
            if count:
                clean[pair] = count
        _set(self, "counts", clean)

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
        return _quotient_from_support(self.universe, self.support_map)

    @cached_property
    def e_vector(self) -> tuple[int, ...]:
        """Excellence score of every alternative.

        ``e_vector[x]`` is the deepest ``k`` such that x lies in every subset
        of the top ``k`` support classes, or 0 when x already misses some
        subset of the strongest class.
        """
        return _e_scores_from_quotient(self.quotient)

    @cached_property
    def class_count_keys(self) -> tuple[int, ...]:
        """Per alternative, an int that compares as its explicit class counts
        compare lexicographically, strongest class first.

        A ripple-carry counter sums each class's members into bit planes (bit
        x of plane j is bit j of x's count), padded to the class size's bit
        length.  The planes, strongest class and high plane first, are the
        64-bit rows of one int, and x's key holds bit x of every row.
        """
        rows: list[int] = []
        for cls_ in self.quotient.classes:
            planes: list[int] = []
            for carry in cls_.members:
                for j, plane in enumerate(planes):
                    planes[j] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    planes.append(carry)
            rows += [0] * (len(cls_.members).bit_length() - len(planes)) + planes[::-1]
        packed = int.from_bytes(b"".join(row.to_bytes(8, "big") for row in rows), "big")
        low_bits = int.from_bytes((bytes(7) + b"\1") * len(rows), "big")
        return tuple(packed >> x & low_bits for x in range(self.universe))

    @cached_property
    def class_count_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per alternative, how many subsets of each support class contain it.

        Column order follows the quotient, strongest class first.  The explicit
        counts are read off :attr:`class_count_keys`, whose bit ``64 * k`` is
        row ``k`` counted from the last; the final column is the implicit
        residual class when present, computed by complement counting.
        """
        q = self.quotient
        widths = [len(cls_.members).bit_length() for cls_ in q.classes]
        top = 64 * sum(widths)
        rows = []
        for key in self.class_count_keys:
            row = []
            shift = top
            for w in widths:
                count = 0
                for _ in range(w):  # planes run high to low
                    shift -= 64
                    count = count << 1 | key >> shift & 1
                row.append(count)
            if q.residual_present:
                # Each alternative lies in 2**(n-1) subsets of the universe overall.
                row.append((1 << (self.universe - 1)) - sum(row))
            rows.append(tuple(row))
        return tuple(rows)


class SupportClass(_Record):
    """One equivalence class of equally supported subsets, as masks."""

    __slots__ = _fields = ("value", "members")

    def __init__(self, value: int, members: frozenset[int]) -> None:
        _set(self, "value", value)
        _set(self, "members", members)


class QuotientOrder(_Record):
    """Support classes in strictly decreasing order, plus an implicit residual.

    The residual class collects every subset not listed in ``classes``; it is
    last (its value is below every explicit value) and never materialized:
    construction derives its size, ``residual_size``, and whether it is
    nonempty, ``residual_present``.  Its support is zero, so explicit classes
    then carry positive values.
    """

    _fields = ("universe", "classes")
    __slots__ = _fields + ("residual_size", "residual_present")

    def __init__(self, universe: int, classes: tuple[SupportClass, ...]) -> None:
        _check_universe(universe)
        capacity = (1 << universe) - 1
        seen: set[int] = set()
        prev = None
        for cls_ in classes:
            if not cls_.members:
                raise ValidationError("support classes must be nonempty")
            for mask in cls_.members:
                if not 0 < mask <= capacity:
                    raise ValidationError("class member out of range for the universe")
                if mask in seen:
                    raise ValidationError("support classes must be disjoint")
                seen.add(mask)
            if prev is not None and cls_.value >= prev:
                raise ValidationError("class values must strictly decrease")
            prev = cls_.value
        residual = capacity - len(seen)
        if residual and prev is not None and prev <= 0:
            raise ValidationError("residual value must fall below the last explicit class")
        _set(self, "universe", universe)
        _set(self, "classes", classes)
        # plain attributes, not properties: ``depth`` reads the flag on every access
        _set(self, "residual_size", residual)
        _set(self, "residual_present", residual > 0)

    @property
    def depth(self) -> int:
        """Number of classes, counting the residual when present."""
        return len(self.classes) + (1 if self.residual_present else 0)


def _quotient_from_support(universe: int, support: Mapping[int, int]) -> QuotientOrder:
    classes = tuple(SupportClass(v, frozenset(masks)) for v, masks in score_groups(support))
    return QuotientOrder(universe, classes)


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
    e = [0] * q.universe
    depth = 0
    for inter in running_intersections(q.universe, map(attrgetter("members"), q.classes)):
        if not inter:
            return tuple(e)
        depth += 1
        for x in iter_bits(inter):
            e[x] = depth
    # If x lies in every explicit subset, all 2**(n-1) - 1 subsets missing x
    # sit in the residual, so the residual extends x's run only at n == 1.
    if q.residual_present and q.universe == 1:
        e[0] = depth + 1
    return tuple(e)


class Ranking(_Record, Generic[L]):
    """A weak order presented as its ordered partition, best class first."""

    _fields = ("classes",)

    def __init__(self, classes: tuple[tuple[L, ...], ...]) -> None:
        seen: set[L] = set()
        for cls_ in classes:
            if not cls_:
                raise ValidationError("ranking classes must be nonempty")
            for label in cls_:
                if label in seen:
                    raise ValidationError(f"label {label!r} appears in two classes")
                seen.add(label)
        _set(self, "classes", classes)

    @cached_property
    def _position(self) -> dict[L, int]:
        return {label: i for i, cls_ in enumerate(self.classes) for label in cls_}

    def class_of(self, label: L) -> int:
        try:
            return self._position[label]
        except KeyError:
            raise ValidationError(f"label {label!r} not ranked") from None

    @property
    def top(self) -> tuple[L, ...]:
        return self.classes[0]


def score_groups(scores: Mapping[L, object]) -> list[tuple[object, list[L]]]:
    """(score, labels) pairs, one per distinct score, highest score first.

    Scores only need to be mutually comparable; tuples compare
    lexicographically, which several aggregation rules rely on.  Insertion
    order of ``scores`` decides the order inside each group.
    """
    groups: dict[object, list[L]] = {}
    for label, score in scores.items():
        groups.setdefault(score, []).append(label)
    return [(v, groups[v]) for v in sorted(groups, reverse=True)]


def ranking_from_scores(scores: Mapping[L, object]) -> Ranking[L]:
    """Group labels with equal scores, highest score first."""
    return Ranking(tuple(tuple(labels) for _v, labels in score_groups(scores)))
