"""Executable axioms for aggregation rules, with seeded instance generators.

Each axiom quantifies over an infinite family of states (or pairs of states)
with a prescribed quotient shape.  The executable form replaces the
universal quantifier with generators that build structurally valid witness
instances, plus a validator that rejects malformed instances before any
checking happens.  A passing sweep therefore only claims "no violation
found on these instances", while a reported violation is a concrete,
replayable counterexample.

Instance surgery works at the support level: the quotient shape is all that
the axioms constrain, and any support assignment is realizable, so
generators build the second state of a pair directly from a target class
list instead of perturbing opinion entries.

The module also houses ``WITNESSES``, the named instances aimed at each
rival rule's target axiom (the rules themselves are registered in
``critrank.aggregators.RULES``), and the random table and profile
generators used to test the choice methods.
"""

from collections.abc import Callable, Iterable, Sequence
from random import Random

from .aggregators import AXIOM_KINDS, Ranking
from .model import (
    AltSubset,
    CriterionTable,
    MAX_UNIVERSE,
    OpinionState,
    PreferenceProfile,
    ValidationError,
    _BYTE_BITS,
    _Record,
    _distinct_masks,
    _randint,
    _set,
    is_permutation,
    random_state,
    random_support_state,
)

Aggregator = Callable[[OpinionState], Ranking]


class InvalidInstanceError(ValidationError):
    """An axiom instance fails its structural side-conditions."""


class AxiomInstance(_Record):
    """One concrete test case for an axiom.

    ``kind`` selects the axiom; ``o2`` carries the restructured state for
    iws, ibs and inui, ``permutation`` the relabeling for neutrality (the
    verdict relabels ``o1`` itself), and ``promoted`` the subfamily (as
    masks) whose support was raised for the non-unanimous-improvement axiom.
    """

    __slots__ = _fields = ("kind", "o1", "o2", "permutation", "promoted")

    def __init__(self, kind: str, o1: OpinionState, o2: OpinionState | None = None,
                 permutation: tuple[int, ...] | None = None,
                 promoted: frozenset[int] | None = None) -> None:
        _set(self, "kind", kind)
        _set(self, "o1", o1)
        _set(self, "o2", o2)
        _set(self, "permutation", permutation)
        _set(self, "promoted", promoted)


def permute_state(state: OpinionState, pi: Sequence[int]) -> OpinionState:
    """Relabel the alternatives of a state.

    The relabeled state holds count v at (image of S, image of T) exactly
    when the original holds v at (S, T), so supports and scores follow the
    relabeling: the image of x scores in the new state what x scored before.
    Each mask is mapped byte by byte through the bits of each byte value and
    a list of the one-bit images, built once per permutation.  Built
    unchecked: a checked permutation maps valid masks to valid masks.
    """
    if not is_permutation(pi, state.universe):
        raise ValidationError(f"{pi!r} is not a permutation of {state.universe} alternatives")
    images = [1 << p for p in pi]

    def image(mask: int) -> int:
        out = base = 0
        while mask:
            for bit in _BYTE_BITS[mask & 255]:
                out |= images[base + bit]
            mask >>= 8
            base += 8
        return out

    counts = {(image(s), image(t)): v for (s, t), v in state.counts.items()}
    return OpinionState._trusted(state.universe, counts)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidInstanceError(message)


def validate_instance(inst: AxiomInstance) -> None:
    """Check the structural side-conditions of an instance; raise if broken.

    Validity depends only on the quotients, the permutation and the
    promoted family, and only the quotients' explicit classes are
    compared.  A quotient's classes, residual included, partition the
    nonempty subsets, so its last class is the complement of the others:
    two quotients over one universe with the same depth that agree on every
    class but the last agree on the last too.
    """
    _require(inst.kind in AXIOM_KINDS, f"unknown axiom kind {inst.kind!r}")
    u = inst.o1.universe
    needs_second = inst.kind not in ("nt", "wivip")
    _require((inst.o2 is not None) == needs_second,
             f"{inst.kind} instance carries the wrong number of states")
    if inst.o2 is not None:
        _require(inst.o2.universe == u, "paired states must share the universe")
    _require((inst.permutation is not None) == (inst.kind == "nt"),
             "only neutrality instances carry a permutation")
    _require((inst.promoted is not None) == (inst.kind == "inui"),
             "only non-unanimous-improvement instances carry a promoted family")

    if inst.kind == "nt":
        pi = inst.permutation
        if not is_permutation(pi, u):
            raise InvalidInstanceError(f"{pi!r} is not a permutation of {u} alternatives")
        return
    q1 = inst.o1.quotient
    d1 = q1.depth
    if inst.kind == "iws":
        q2 = inst.o2.quotient
        _require(q2.depth >= d1, "second state has too few classes to keep the prefix")
        _require(q2.classes[:d1 - 1] == q1.classes[:d1 - 1],
                 "a class above the worst changed; only the worst class may be restructured")
    elif inst.kind == "ibs":
        if d1 == 1:
            return  # the best class is the whole family; any state partitions it
        q2 = inst.o2.quotient
        head = q2.depth - d1 + 1  # the second state's classes that split the best class
        _require(head >= 1, "second state has too few classes to keep the tail")
        _require(q2.classes[head:q2.depth - 1] == q1.classes[1:d1 - 1],
                 "a class below the best changed; only the best class may be restructured")
        _require(frozenset().union(*q2.classes[:head]) == q1.classes[0],
                 "head classes must partition exactly the best class")
    elif inst.kind == "wivip":
        _require(d1 == 2, "state must have exactly two support classes")
    elif inst.kind == "inui":
        masks = inst.promoted
        _require(bool(masks), "promoted family must be nonempty")
        _require(all(0 < m < 1 << u for m in masks),
                 "promoted subsets must live in the state's universe")
        at = next((i for i, members in enumerate(q1.classes) if masks <= members), None)
        _require(at is not None, "promoted family must sit inside a single positive-support class")
        _require(at < d1 - 1, "the split class must be followed by at least one class")
        split = q1.classes[at]
        _require(masks != split, "promoted family must be a proper subfamily of its class")
        q2 = inst.o2.quotient
        _require(q2.depth == d1 + 1, "second state has the wrong number of classes")
        expected = q1.classes[:at] + (masks, split - masks) + q1.classes[at + 1:d1 - 1]
        _require(q2.classes[:d1] == expected,
                 "second state must promote exactly the given family one level")


class AxiomVerdict(_Record):
    """A rule's verdict on one instance: the first pair (x, y) that breaks
    the axiom and why, or no witness when the rule passes.  Pairs are tried
    x before y, each ascending; for ``wivip``, x runs over the veto set in
    set order."""

    __slots__ = _fields = ("witness", "note")

    def __init__(self, witness: tuple[int, int] | None = None, note: str = "") -> None:
        _set(self, "witness", witness)
        _set(self, "note", note)

    @property
    def passed(self) -> bool:
        return self.witness is None


def check_axiom(agg: Aggregator, inst: AxiomInstance) -> AxiomVerdict:
    """Evaluate one aggregation rule on one validated instance."""
    validate_instance(inst)
    return _verdict(agg, inst)


def _class_indices(ranking: Ranking, universe: int) -> list[int]:
    """Each alternative's class index in the ranking.  An aggregator's output
    is checked here and nowhere else: its classes must be nonempty and
    partition exactly the ints ``0 .. universe-1``, not a bool or float."""
    position: dict[int, int] = {}
    for i, members in enumerate(ranking):
        if not members:
            raise ValidationError("ranking classes must be nonempty")
        for label in members:
            if type(label) is not int:
                raise ValidationError(f"label {label!r} is not an alternative")
            if label in position:
                raise ValidationError(f"label {label!r} appears in two classes")
            position[label] = i
    try:
        at = list(map(position.pop, range(universe)))
    except KeyError as miss:
        raise ValidationError(f"label {miss.args[0]!r} not ranked") from None
    if position:
        raise ValidationError(f"label {next(iter(position))!r} is not an alternative")
    return at


def _verdict(agg: Aggregator, inst: AxiomInstance) -> AxiomVerdict:
    """The rule's verdict on an instance that has passed validation."""
    u = inst.o1.universe
    kind = inst.kind
    at1 = _class_indices(agg(inst.o1), u)
    if kind == "wivip":
        veto = {x for x, e in enumerate(inst.o1.e_vector) if e >= 1}
        broken = ((x, y) for x in veto for y in range(u)
                  if y not in veto and at1[x] >= at1[y])
        note = "veto element not ranked strictly above a non-veto one"
    elif kind == "nt":
        pi = inst.permutation
        at2 = _class_indices(agg(permute_state(inst.o1, pi)), u)
        broken = ((x, y) for x in range(u) for y in range(u)
                  if x != y and (at1[x] <= at1[y]) != (at2[pi[x]] <= at2[pi[y]]))
        note = "relabeling changed the pair's standing"
    else:
        at2 = _class_indices(agg(inst.o2), u)
        if kind in ("iws", "ibs"):
            broken = ((x, y) for x in range(u) for y in range(u)
                      if at1[x] < at1[y] and at2[x] >= at2[y])
            end = "worst" if kind == "iws" else "best"
            note = f"strict preference lost after the {end}-class split"
        else:
            # inui: pairs outside the promoted family's intersection must
            # stand as before
            inter = (1 << u) - 1
            for m in inst.promoted:
                inter &= m
            qualifying = [z for z in range(u) if not inter >> z & 1]
            broken = ((x, y) for x in qualifying for y in qualifying
                      if x != y and (at1[x] <= at1[y]) != (at2[x] <= at2[y]))
            note = "promotion moved a pair it should not reach"
    witness = next(broken, None)
    return AxiomVerdict() if witness is None else AxiomVerdict(witness, note)


# ---------------------------------------------------------------------------
# Random generation


def _state_from_class_masks(universe: int, class_masks: Sequence[Iterable[int]]) -> OpinionState:
    """Realize an explicit class list (strongest first) as a state; built
    unchecked: generated masks in range, supports at least 1."""
    blocks = [list(masks) for masks in class_masks]
    counts: dict[tuple[int, int], int] = {}
    for idx, masks in enumerate(blocks):
        for m in masks:
            counts[(m, m)] = len(blocks) - idx
    return OpinionState._trusted(universe, counts)


def _sample_residual_masks(rng: Random, universe: int, taken: frozenset[int],
                           want: int) -> list[int]:
    """Draw distinct zero-support subsets; enumerate only small universes."""
    top = (1 << universe) - 1
    if universe <= 5:
        pool = [m for m in range(1, top + 1) if m not in taken]
        return rng.sample(pool, min(want, len(pool)))
    out: set[int] = set()
    while len(out) < want:
        m = _randint(rng, 1, top)
        if m not in taken:
            out.add(m)
    return list(out)


def _chunk(rng: Random, items: list, parts: int) -> list[list]:
    """Shuffle and cut into the given number of nonempty runs."""
    items = items[:]
    rng.shuffle(items)
    parts = max(1, min(parts, len(items)))
    if parts == 1:
        return [items]
    cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
    return [items[a:b] for a, b in zip([0, *cuts], [*cuts, len(items)])]


def _gen_nt(rng: Random, universe: int) -> AxiomInstance:
    o1 = random_state(rng, universe)
    pi = list(range(universe))
    rng.shuffle(pi)
    return AxiomInstance("nt", o1, permutation=tuple(pi))


def _gen_iws(rng: Random, universe: int) -> AxiomInstance:
    o1 = random_support_state(rng, universe)
    if o1.quotient.depth == 1 or rng.random() < 0.05:
        if o1.quotient.depth > 1:
            o1 = OpinionState(universe, {})
        # single class: the worst class is the whole family, so any state
        # realizes a restructuring of it
        return AxiomInstance("iws", o1, random_support_state(rng, universe))
    classes = list(o1.quotient.classes)
    if o1.quotient.residual_present:
        taken = frozenset().union(*classes)
        extra = _sample_residual_masks(rng, universe, taken, _randint(rng, 0, 4))
        new_classes = classes + (_chunk(rng, extra, _randint(rng, 1, 3)) if extra else [])
    else:
        last = sorted(classes[-1])
        blocks = _chunk(rng, last, _randint(rng, 1, min(3, len(last))))
        if len(blocks) > 1 and rng.random() < 0.3:
            blocks = blocks[:-1]  # tail block drops to support zero
        new_classes = classes[:-1] + blocks
    return AxiomInstance("iws", o1, _state_from_class_masks(universe, new_classes))


def _gen_ibs(rng: Random, universe: int) -> AxiomInstance:
    o1 = random_support_state(rng, universe)
    if o1.quotient.depth == 1 or rng.random() < 0.05:
        if o1.quotient.depth > 1:
            o1 = OpinionState(universe, {})
        return AxiomInstance("ibs", o1, random_support_state(rng, universe))
    classes = list(o1.quotient.classes)
    first = sorted(classes[0])
    blocks = _chunk(rng, first, _randint(rng, 1, min(3, len(first))))
    return AxiomInstance("ibs", o1,
                         _state_from_class_masks(universe, blocks + classes[1:]))


def _gen_wivip(rng: Random, universe: int) -> AxiomInstance:
    """A two-class state, built unchecked: masks drawn from 1 .. top."""
    top = (1 << universe) - 1
    if universe <= 5 and rng.random() < 0.2:
        # dense flavor: every subset supported, two levels
        masks = list(range(1, top + 1))
        rng.shuffle(masks)
        cut = _randint(rng, 1, top - 1)
        return AxiomInstance("wivip",
                             _state_from_class_masks(universe, [masks[:cut], masks[cut:]]))
    if rng.random() < 0.6:
        # bias toward a nonempty intersection so the axiom has bite
        x = _randint(rng, 0, universe - 1)
        picked = {(_randint(rng, 1, top) | 1 << x) for _ in range(_randint(rng, 1, 6))}
    else:
        picked = {_randint(rng, 1, top) for _ in range(_randint(rng, 1, 6))}
    value = _randint(rng, 1, 5)
    # at most 6 of the top >= 7 masks, so the residual class stays nonempty
    counts = {(m, m): value for m in picked}
    return AxiomInstance("wivip", OpinionState._trusted(universe, counts))


def _gen_inui(rng: Random, universe: int) -> AxiomInstance | None:
    for _ in range(40):
        o1 = random_support_state(rng, universe)
        classes = list(o1.quotient.classes)
        eligible = [i for i in range(o1.quotient.depth - 1) if len(classes[i]) >= 2]
        if not eligible:
            continue
        at = rng.choice(eligible)
        members = sorted(classes[at])
        delta = None
        for _ in range(20):
            picked = rng.sample(members, _randint(rng, 1, len(members) - 1))
            inter = (1 << universe) - 1
            for m in picked:
                inter &= m
            if universe - inter.bit_count() >= 2:
                delta = frozenset(picked)
                break
        if delta is None:
            continue
        new_classes = classes[:at] + [delta, classes[at] - delta] + classes[at + 1:]
        return AxiomInstance("inui", o1, _state_from_class_masks(universe, new_classes),
                             promoted=delta)
    return None


_GENERATORS = {
    "nt": _gen_nt,
    "iws": _gen_iws,
    "ibs": _gen_ibs,
    "wivip": _gen_wivip,
    "inui": _gen_inui,
}


def generate_instances(kind: str, universe_size: int, seed: int,
                       count: int) -> list[AxiomInstance]:
    """Deterministic batch of validated instances; infeasible draws are skipped,
    so the result may be shorter than requested."""
    if kind not in AXIOM_KINDS:
        raise ValidationError(f"unknown axiom kind {kind!r}")
    if type(universe_size) is not int or not 3 <= universe_size <= MAX_UNIVERSE:
        raise ValidationError(
            f"instance generation needs 3 to {MAX_UNIVERSE} alternatives, got {universe_size}")
    rng = Random(f"{kind}/{universe_size}/{seed}")
    out = []
    for _ in range(count):
        inst = _GENERATORS[kind](rng, universe_size)
        if inst is None:
            continue
        validate_instance(inst)
        out.append(inst)
    return out


class SweepResult(_Record):
    """How many instances were asked for, built and violated, with the
    first few violating verdicts."""

    __slots__ = _fields = ("requested", "checked", "violations", "examples")

    def __init__(self, requested: int, checked: int, violations: int,
                 examples: tuple[AxiomVerdict, ...]) -> None:
        _set(self, "requested", requested)
        _set(self, "checked", checked)
        _set(self, "violations", violations)
        _set(self, "examples", examples)


def sweep_axiom(agg: Aggregator, kind: str, universe_size: int, seed: int,
                count: int) -> SweepResult:
    """Run one rule over a generated instance batch and tally violations."""
    violations = 0
    examples: list[AxiomVerdict] = []
    instances = generate_instances(kind, universe_size, seed, count)
    for inst in instances:
        verdict = _verdict(agg, inst)  # generate_instances validated each one
        if not verdict.passed:
            violations += 1
            if len(examples) < 3:
                examples.append(verdict)
    return SweepResult(count, len(instances), violations, tuple(examples))


# ---------------------------------------------------------------------------
# Named witnesses for the rival rules


def order_tiebreak_nt_witness() -> AxiomInstance:
    """Relabeling instance aimed at the exogenous-order refinement.

    The tied pair sits at the ceiling excellence score, which the refinement
    keeps tied, so the rule as defined reports no violation here; the
    interior-tie variant below is the one the rule actually fails.
    """
    o1 = OpinionState.from_support(3, {0b011: 2, 0b111: 1})
    return AxiomInstance("nt", o1, permutation=(1, 0, 2))


def order_tiebreak_nt_witness_interior() -> AxiomInstance:
    """Relabeling instance whose tied pair sits at an interior score.

    Both supported subsets are fixed by the swap, so both states rank by the
    same exogenous order while the relabeling demands the opposite pair.
    """
    o1 = OpinionState.from_support(3, {0b011: 2, 0b100: 1})
    return AxiomInstance("nt", o1, permutation=(1, 0, 2))


def tau_tiebreak_inui_witness() -> AxiomInstance:
    """Promotion instance aimed at the running-total refinement.

    Every excellence score is zero on both sides, a band the refinement
    leaves untouched, so the rule as defined reports no violation here; the
    positively scored variant below is the one the rule actually fails.
    """
    o1 = OpinionState.from_support(3, {0b001: 1, 0b101: 1, 0b010: 1, 0b110: 1})
    o2 = OpinionState.from_support(3, {0b101: 2, 0b010: 2, 0b110: 2, 0b001: 1})
    return AxiomInstance("inui", o1, o2, promoted=frozenset({0b101, 0b010, 0b110}))


def tau_tiebreak_inui_witness_scored() -> AxiomInstance:
    """Promotion instance whose qualifying pair is tied at a positive score.

    The promotion regroups the class membership counts of the pair so their
    running totals compare the other way around, flipping a strict outcome
    the promotion was not allowed to touch.
    """
    o1 = OpinionState.from_support(
        4, {0b0011: 3, 0b0001: 2, 0b0101: 2, 0b1001: 2, 0b0010: 2, 0b0110: 2})
    o2 = OpinionState.from_support(
        4, {0b0011: 3, 0b0010: 2, 0b0110: 2, 0b0001: 2, 0b0101: 1, 0b1001: 1})
    return AxiomInstance("inui", o1, o2, promoted=frozenset({0b0010, 0b0110, 0b0001}))


def band_rule_ibs_witness() -> AxiomInstance:
    """Best-class split that collapses a strict pair under the three-band rule."""
    o1 = OpinionState.from_support(3, {0b011: 1, 0b111: 1, 0b001: 1})
    o2 = OpinionState.from_support(3, {0b011: 3, 0b111: 2, 0b001: 1})
    return AxiomInstance("ibs", o1, o2)


def ceiling_rule_iws_witness() -> AxiomInstance:
    """Worst-class split that empties the ceiling band of the two-band rule."""
    o1 = OpinionState.from_support(3, {0b001: 1})
    o2 = OpinionState.from_support(3, {0b001: 2, 0b010: 1})
    return AxiomInstance("iws", o1, o2)


def indifference_wivip_witness() -> AxiomInstance:
    """Two-class state with veto elements, which total indifference ignores."""
    return AxiomInstance("wivip", OpinionState.from_support(3, {0b011: 1}))


# Per rival rule of ``critrank.aggregators.RULES``: (literal story, repaired
# instance or None).  The literal story is aimed at the rule's target axiom.
# For the two tie-break rules it places its tie in a band the rule keeps
# tied (the ceiling score for the order rule, score zero for the
# running-total rule), so the rule reports no violation on it; the repaired
# instance moves the tie out of that band and does bite.  For the other
# rival rules the literal story bites and there is no repaired instance.
WITNESSES: dict[str, tuple[Callable[[], AxiomInstance],
                           Callable[[], AxiomInstance] | None]] = {
    "iis-tb-order": (order_tiebreak_nt_witness, order_tiebreak_nt_witness_interior),
    "iis-tb-tau": (tau_tiebreak_inui_witness, tau_tiebreak_inui_witness_scored),
    "f1": (band_rule_ibs_witness, None),
    "f2": (ceiling_rule_iws_witness, None),
    "indifferent": (indifference_wivip_witness, None),
}


# ---------------------------------------------------------------------------
# Random tables and profiles


def random_table(rng: Random, universe: int, n_criteria: int) -> CriterionTable:
    """Alternatives x0, x1, ... and criteria c1, c2, ... with distinct
    random satisfier sets."""
    top = (1 << universe) - 1
    if n_criteria > top:
        raise ValidationError("more criteria requested than distinct nonempty subsets")
    masks = _distinct_masks(rng, top, n_criteria)
    alternatives = tuple(f"x{i}" for i in range(universe))
    criteria = tuple(f"c{j + 1}" for j in range(len(masks)))
    tr = {c: AltSubset(m, universe) for c, m in zip(criteria, masks)}
    return CriterionTable(alternatives, criteria, tr)


def random_profile(rng: Random, table: CriterionTable, n_voters: int) -> PreferenceProfile:
    voters = tuple(f"v{i + 1}" for i in range(n_voters))
    orders = []
    for _ in range(n_voters):
        order = list(table.criteria)
        rng.shuffle(order)
        orders.append(tuple(order))
    return PreferenceProfile(voters, tuple(orders))

