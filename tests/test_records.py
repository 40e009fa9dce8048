"""The record contract shared by every record type of the package.

Each record subclasses ``critrank.model._Record``: equal fields make equal
objects with the hash of the field tuple, a look-alike subclass holding the
same values is never equal, every field is read-only, and values cached in
an instance's ``__dict__`` take no part in equality.
"""

import pytest

from critrank.aggregators import Rule, iis_rank
from critrank.axioms import AxiomInstance, AxiomVerdict, SweepResult
from critrank.model import (
    AltSubset,
    CriterionTable,
    OpinionState,
    PreferenceProfile,
    QuotientOrder,
    ValidationError,
)
from critrank.oracle import DenseRankings, DenseState, SweepReport

BANDS = ((0, 2), (1,))

# (class, fields as keyword arguments, hashable); the lambda builds fresh
# field values on every call, so two records never share a mutable field.
RECORDS = [
    (AltSubset, lambda: dict(mask=0b011, universe=3), True),
    (CriterionTable, lambda: dict(alternatives=("a", "b", "c"), criteria=("c1",),
                                  tr={"c1": AltSubset(0b101, 3)}), False),
    (PreferenceProfile, lambda: dict(voters=("v1",), orders=(("c1", "c2"),)), True),
    (OpinionState, lambda: dict(universe=3, counts={(0b011, 0b100): 2}), False),
    (QuotientOrder, lambda: dict(universe=3, classes=(frozenset({3}),)), True),
    (Rule, lambda: dict(name="iis", rank=iis_rank, takes_order=False, target=None), True),
    (AxiomInstance, lambda: dict(kind="wivip", o1=OpinionState(3, {(3, 3): 1}), o2=None,
                                 permutation=None, promoted=None), False),
    (AxiomVerdict, lambda: dict(witness=(0, 1), note="lost"), True),
    (SweepResult, lambda: dict(requested=3, checked=2, violations=1,
                               examples=(AxiomVerdict((0, 1), "lost"),)), True),
    (DenseState, lambda: dict(universe=2, support=(1, 0, 2)), True),
    (DenseRankings, lambda: dict(iis=BANDS, support=BANDS, lexcel=BANDS, iis_tau=BANDS,
                                 f1=BANDS, f2=BANDS), True),
    (SweepReport, lambda: dict(trials=3, mismatches=0, details=()), True),
]
# The records with a cached property keep a ``__dict__``; the rest use slots.
CACHING = (OpinionState, DenseState)


@pytest.fixture(params=RECORDS, ids=lambda case: case[0].__name__)
def record(request):
    return request.param


def test_equal_fields_give_equal_records_and_hashes(record):
    cls, fields, hashable = record
    a, b = cls(**fields()), cls(**fields())
    assert a == b and not a != b
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields().items()) + ")"
    if hashable:
        assert hash(a) == hash(b) == hash(tuple(fields().values()))
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_a_look_alike_class_is_never_equal(record):
    cls, fields, _hashable = record
    twin = type(f"Twin{cls.__name__}", (cls,), {})
    assert cls(**fields()) != twin(**fields())
    assert twin(**fields()) != cls(**fields())


def test_fields_are_read_only(record):
    cls, fields, _hashable = record
    obj = cls(**fields())
    for name, value in fields().items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert hasattr(obj, "__dict__") == (cls in CACHING)


# Each checked record that takes a universe, a mask or a support value, as
# a function of the one value that is built first as the int 1, then as True;
# ``QuotientOrder`` checks nothing, as only ``OpinionState.quotient`` builds it.
BOOL_SITES = {
    "OpinionState-universe": lambda v: OpinionState(v, {(1, 1): 2}),
    "OpinionState._trusted-universe": lambda v: OpinionState._trusted(v, {}),
    "AltSubset-universe": lambda v: AltSubset(1, v),
    "AltSubset-mask": lambda v: AltSubset(v, 3),
    "DenseState-universe": lambda v: DenseState(v, (2,)),
    "DenseState-support": lambda v: DenseState(1, (v,)),
}


@pytest.mark.parametrize("build", BOOL_SITES.values(), ids=BOOL_SITES)
def test_a_bool_is_refused_where_an_int_is_taken(build):
    # a bool is an int, but no record holds one: its repr would read True
    build(1)
    with pytest.raises(ValidationError):
        build(True)


def test_cached_values_take_no_part_in_equality():
    counts = {(0b011, 0b100): 2, (0b001, 0b001): 1}
    read = OpinionState(3, counts)
    assert read.quotient.depth == 3 and read.e_vector == (2, 1, 0)
    assert {"quotient", "e_vector"} <= vars(read).keys()
    assert read == OpinionState(3, dict(counts))
