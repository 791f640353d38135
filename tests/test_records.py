"""The record types' value semantics: construction, ==, hash, repr, copies.

Every result object of the package is an immutable record.  The texts
and behaviours pinned here are those the records had as frozen
dataclasses, so callers that print, compare, hash, pickle or copy them
see no difference.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import pstseq
from pstseq import (
    BadSetReport,
    Block,
    CyclicBase,
    Decision,
    Labeling,
    Outcome,
    PackingResult,
    PartitionWitness,
    Segment,
    Sequence,
    Sts13Certificate,
    validate_system,
)
from pstseq.core import _Record
from pstseq.sequencer import CertificateEntry

B1, B2, B3, B4 = Block((0, 1, 2)), Block((3, 4, 5)), Block((6, 7, 8)), Block((9, 10, 11))
_B12 = "Block(points=(0, 1, 2)), Block(points=(3, 4, 5))"
_B123 = _B12 + ", Block(points=(6, 7, 8))"
_B1234 = _B123 + ", Block(points=(9, 10, 11))"

# (factory, one field name, repr text).  Each factory builds a new
# record, so two calls give equal records that are not the same object.
_RECORDS = {
    "Block": (
        lambda: Block((3, 1, 2)), "points", "Block(points=(1, 2, 3))"),
    "Sequence": (
        lambda: Sequence((2, 0, 1)), "entries", "Sequence(entries=(2, 0, 1))"),
    "Segment": (
        lambda: Segment(0, 3), "start", "Segment(start=0, length=3)"),
    "PartitionWitness": (
        lambda: PartitionWitness((B1, B2)), "parts", f"PartitionWitness(parts=({_B12}))"),
    "CyclicBase": (
        lambda: CyclicBase(13, ((0, 1, 4), (7, 2, 0))), "modulus",
        "CyclicBase(modulus=13, base_blocks=((0, 1, 4), (0, 2, 7)))"),
    "PackingResult": (
        lambda: PackingResult(2, (B1, B2), 5, True), "nu",
        f"PackingResult(nu=2, witness=({_B12}), nodes_explored=5, exact=True)"),
    "BadSetReport": (
        lambda: BadSetReport(3, ((0, 1, 2),), (PartitionWitness((B1, B2, B3)),)), "bad_sets",
        f"BadSetReport(m_size=3, bad_sets=((0, 1, 2),), "
        f"realizations=(PartitionWitness(parts=({_B123})),))"),
    "Decision": (
        lambda: Decision(Outcome.SEQUENCEABLE, Sequence((0, 1, 2)), 3, False, 3), "outcome",
        "Decision(outcome=<Outcome.SEQUENCEABLE: 'sequenceable'>, "
        "witness=Sequence(entries=(0, 1, 2)), nodes_explored=3, exhausted=False, "
        "budget_spent=3)"),
    "Decision-negative": (
        lambda: Decision(
            outcome=Outcome.NOT_SEQUENCEABLE, witness=None, nodes_explored=13,
            exhausted=True, budget_spent=13,
        ), "witness",
        "Decision(outcome=<Outcome.NOT_SEQUENCEABLE: 'not-sequenceable'>, witness=None, "
        "nodes_explored=13, exhausted=True, budget_spent=13)"),
    "Labeling": (
        lambda: Labeling((B1, B2, B3), {"1": 0, "2": 1}, Sequence((0, 1, 2))), "assignment",
        f"Labeling(block_roles=({_B123}), assignment={{'1': 0, '2': 1}}, "
        "sequence=Sequence(entries=(0, 1, 2)))"),
    "CertificateEntry": (
        lambda: CertificateEntry(0, 2, (B1, B2, B3, B4)), "vertex",
        f"CertificateEntry(vertex=0, exponent=2, blocks=({_B1234}))"),
    "Sts13Certificate": (
        lambda: Sts13Certificate(
            (CertificateEntry(0, 2, (B1, B2, B3, B4)),), validate_system(3, [(0, 1, 2)])
        ), "system",
        f"Sts13Certificate(entries=(CertificateEntry(vertex=0, exponent=2, "
        f"blocks=({_B1234})),))"),
}

_IDS = sorted(_RECORDS)
# A record holding a dict cannot be hashed, as the dict cannot.
_UNHASHABLE = {"Labeling"}


@pytest.fixture(params=_IDS)
def kind(request):
    return request.param


def test_repr_is_pinned(kind):
    make, _, text = _RECORDS[kind]
    assert repr(make()) == text


def test_equal_records_compare_and_hash_equal(kind):
    make = _RECORDS[kind][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if kind in _UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_records_of_other_classes_differ(kind):
    record = _RECORDS[kind][0]()
    for other in _IDS:
        other_record = _RECORDS[other][0]()
        if type(other_record) is not type(record):
            assert record != other_record
    assert record.__eq__(object()) is NotImplemented
    assert record != tuple(vars(record).values())


def test_assignment_and_deletion_raise(kind):
    make, field, _ = _RECORDS[kind]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is before
    assert not hasattr(record, "not_a_field")


@pytest.mark.parametrize("clone", [
    lambda r: pickle.loads(pickle.dumps(r)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_copies_round_trip(kind, clone):
    record = _RECORDS[kind][0]()
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record
    assert repr(twin) == repr(record)
    assert vars(twin) == vars(record)
    with pytest.raises(AttributeError):
        setattr(twin, _RECORDS[kind][1], None)


def test_block_sorts_its_points_and_orders_by_them():
    assert Block((3, 1, 2)).points == (1, 2, 3)
    assert Block([2, 0, 1]).points == (0, 1, 2)
    blocks = [Block((2, 5, 7)), Block((0, 4, 9)), Block((0, 1, 8)), Block((2, 3, 4))]
    assert [b.points for b in sorted(blocks)] == [(0, 1, 8), (0, 4, 9), (2, 3, 4), (2, 5, 7)]
    assert Block((0, 1, 2)) < Block((0, 1, 3)) <= Block((0, 1, 3))
    assert Block((0, 2, 3)) > Block((0, 1, 9)) >= Block((0, 1, 9))
    with pytest.raises(TypeError):
        Block((0, 1, 2)) < (0, 1, 3)


@pytest.mark.parametrize("args, message", [
    ((2, ()), "modulus must be at least 3, got 2"),
    ((7.0, ()), "modulus must be an integer, got 7.0"),
    ((7, ((0, 1),)), "base block (0, 1) must have 3 residues, got 2"),
    ((7, ((0, 1.5, 2),)), "residue must be an integer, got 1.5"),
    ((7, ((0, 7, 2),)), "base block (0, 7, 2) has repeated residues mod 7"),
])
def test_cyclic_base_error_messages(args, message):
    with pytest.raises(ValueError) as err:
        CyclicBase(*args)
    assert str(err.value) == message


def test_sts13_certificate_equality_ignores_the_system():
    entries = (CertificateEntry(0, 2, (B1, B2, B3, B4)),)
    small = validate_system(3, [(0, 1, 2)])
    large = validate_system(6, [(0, 1, 2), (3, 4, 5)])
    a, b = Sts13Certificate(entries, small), Sts13Certificate(entries=entries, system=large)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.system is small and b.system is large
    assert a != Sts13Certificate((), small)


def test_every_record_class_is_covered():
    # A record class missing from _RECORDS would escape every test here.
    for info in pkgutil.iter_modules(pstseq.__path__, "pstseq."):
        importlib.import_module(info.name)
    found, todo = set(), [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    covered = {type(make()) for make, _, _ in _RECORDS.values()}
    assert {c for c in found if c.__module__.startswith("pstseq.")} == covered


def test_fields_bind_by_position_by_name_or_both():
    names = ("outcome", "witness", "nodes_explored", "exhausted", "budget_spent")
    values = (Outcome.UNKNOWN, None, 7, False, 7)
    by_position = Decision(*values)
    by_name = Decision(**dict(reversed(list(zip(names, values)))))
    mixed = Decision(*values[:2], budget_spent=7, exhausted=False, nodes_explored=7)
    assert by_position == by_name == mixed
    assert repr(by_position) == repr(by_name) == repr(mixed)
    for record in (by_position, by_name, mixed):
        assert list(vars(record)) == list(names)
    assert Segment(length=3, start=0) == Segment(0, 3)
    assert PackingResult(2, (B1, B2), exact=True, nodes_explored=5) == _RECORDS["PackingResult"][0]()


@pytest.mark.parametrize("args, kwargs, got", [
    ((), {}, "0 by position and () by name"),
    ((0,), {}, "1 by position and () by name"),
    ((0,), {"size": 3}, "1 by position and ('size',) by name"),
    ((0, 3, 5), {}, "3 by position and () by name"),
    ((0, 3), {"length": 3}, "2 by position and ('length',) by name"),
    ((0,), {"start": 0}, "1 by position and ('start',) by name"),
    ((0,), {"start": 0, "length": 3}, "1 by position and ('start', 'length') by name"),
], ids=["none", "too-few", "unknown-name", "too-many", "twice-full", "twice-as-many",
        "twice-mixed"])
def test_binding_errors_name_the_fields(args, kwargs, got):
    with pytest.raises(TypeError) as err:
        Segment(*args, **kwargs)
    assert str(err.value) == f"Segment() takes the fields ('start', 'length'), got {got}"
