"""modiag's immutable records against frozen dataclasses as the oracle.

Each record below has a ``@dataclass(frozen=True)`` twin of the same name
and fields.  Built from the same field values, record and twin must agree
on ``repr``, field order, ``__match_args__`` and positional ``match``
patterns, equality, hashing, the refusal to assign or delete a field, and
the arguments their constructors refuse.
"""

import copy
import pickle
from dataclasses import dataclass, fields

import pytest

import modiag


@dataclass(frozen=True)
class Ambient:
    g: int
    m: int


@dataclass(frozen=True)
class FormalCycle:
    ambient: modiag.Ambient
    terms: dict


@dataclass(frozen=True)
class LinearMap:
    kind: str
    source_blocks: int
    target_blocks: int
    data: tuple


@dataclass(frozen=True)
class ExtClass:
    ambient: modiag.Ambient
    terms: dict


@dataclass(frozen=True)
class PigeonholeOutcome:
    g: int
    m: int
    weight: int
    complement_total: int
    holds: bool
    counterexample: tuple | None


@dataclass(frozen=True)
class Step:
    id: str
    kind: str
    statement: str
    reference: str
    status: str
    witness: dict


@dataclass(frozen=True)
class Certificate:
    schema_version: str
    g: int
    m: int
    steps: tuple
    result: str


TWINS = {
    cls.__name__: cls
    for cls in (Ambient, FormalCycle, LinearMap, ExtClass, PigeonholeOutcome, Step, Certificate)
}
UNHASHABLE = {"FormalCycle", "ExtClass", "Step", "Certificate"}


def _records():
    """Records of all seven classes, as the library builds them."""
    amb = modiag.Ambient(1, 3)
    cert = modiag.replay_proof(1, 3)
    return [
        amb,
        modiag.Ambient(2, 5),
        modiag.modified_diagonal(amb),
        modiag.zero_cycle(amb),
        modiag.diagonal_map((1, 2, 3)),
        modiag.drop_factor_map(3, 2),
        modiag.class_of_twist((1, 1, 0), amb),
        modiag.modified_diagonal_class(modiag.Ambient(1, 2)),
        modiag.prove_empty_pigeonhole(1, 2),
        modiag.prove_empty_pigeonhole(1, 3),
        *cert.steps,
        cert,
    ]


RECORDS = _records()
IDS = [f"{type(r).__name__}-{i}" for i, r in enumerate(RECORDS)]


def _twin(record):
    return TWINS[type(record).__name__](**vars(record))


def _error(action) -> str:
    """The text of the AttributeError that ``action`` raises; a frozen
    dataclass raises its subclass FrozenInstanceError."""
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


def test_every_record_class_has_a_twin():
    assert {type(r).__name__ for r in RECORDS} == set(TWINS)
    for name in TWINS:
        assert not hasattr(getattr(modiag, name), "__dataclass_fields__"), name


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_repr_and_field_order_match_the_dataclass(record):
    twin = _twin(record)
    assert repr(record) == repr(twin)
    assert list(vars(record)) == [f.name for f in fields(twin)] == list(vars(twin))
    assert type(record).__match_args__ == type(twin).__match_args__


def _match(obj, n: int):
    """The values a pattern of obj's class with n positional sub-patterns
    binds on obj; one with more sub-patterns than ``__match_args__`` names
    raises TypeError."""
    names = ", ".join(f"f{i}" for i in range(n))
    source = f"match obj:\n case cls({names}):\n  bound = [{names}]\n"
    namespace = {"obj": obj, "cls": type(obj)}
    exec(source, namespace)
    return namespace["bound"]


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_match_binds_what_the_dataclass_binds(record):
    twin, n = _twin(record), len(vars(record))
    assert _match(record, n) == _match(twin, n) == list(vars(record).values())
    assert _match(record, 1) == _match(twin, 1) == list(vars(record).values())[:1]
    for obj in (record, twin):
        with pytest.raises(TypeError):
            _match(obj, n + 1)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_keyword_and_mixed_builds_agree(record):
    cls, names, values = type(record), list(vars(record)), list(vars(record).values())
    half = len(values) // 2
    builds = [
        cls(*values),
        cls(**vars(record)),
        cls(**dict(reversed(vars(record).items()))),
        cls(*values[:half], **dict(zip(names[half:], values[half:]))),
    ]
    for built in builds:
        assert built == record and list(vars(built)) == names


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_constructor_refusals_match_the_dataclass(record):
    fields_ = vars(record)
    names, values = list(fields_), list(fields_.values())
    calls = {
        "missing-last": (values[:-1], {}),
        "missing-first": ((), dict(zip(names[1:], values[1:]))),
        "unknown": (values, {"not_a_field": 0}),
        "doubled": (values, {names[0]: values[0]}),
        "doubled-by-keyword-after-position": (values[:1], fields_),
        "one-positional-too-many": ([*values, 0], {}),
    }
    for cls in (type(record), type(_twin(record))):
        for what, (args, kwargs) in calls.items():
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
                pytest.fail(f"{cls.__qualname__} accepted a call with {what} fields")


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equality_matches_the_dataclass(record):
    twin = _twin(record)
    same = type(record)(**vars(record))
    assert (record == same, record != same) == (twin == _twin(same), twin != _twin(same))
    assert record == same
    for other in RECORDS:
        expected = twin == _twin(other)
        assert (record == other, record != other) == (expected, not expected)
    # A record and its twin are different classes, so neither equals the other.
    assert (record == twin, record != twin) == (False, True)


def test_records_of_different_classes_with_equal_fields_are_unequal():
    amb = modiag.Ambient(1, 2)
    fields_ = {"ambient": amb, "terms": {}}
    assert vars(modiag.FormalCycle(**fields_)) == vars(modiag.ExtClass(**fields_))
    record_pair = (modiag.FormalCycle(**fields_), modiag.ExtClass(**fields_))
    twin_pair = (FormalCycle(**fields_), ExtClass(**fields_))
    for a, b in (record_pair, twin_pair):
        assert (a == b, a != b, b == a) == (False, True, False)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_hash_matches_the_dataclass(record):
    twin = _twin(record)
    if type(record).__name__ in UNHASHABLE:
        with pytest.raises(TypeError) as got:
            hash(record)
        with pytest.raises(TypeError) as want:
            hash(twin)
        assert str(got.value) == str(want.value)
    else:
        assert hash(record) == hash(twin) == hash(type(record)(**vars(record)))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_refuse_assignment_and_deletion_as_the_dataclass_does(record):
    twin = _twin(record)
    before = dict(vars(record))
    for name in [*vars(record), "not_a_field"]:
        assert _error(lambda: setattr(record, name, 0)) == _error(lambda: setattr(twin, name, 0))
        assert _error(lambda: delattr(record, name)) == _error(lambda: delattr(twin, name))
    assert _error(lambda: setattr(record, "g", 0)) == "cannot assign to field 'g'"
    assert vars(record) == before


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_records_survive_pickle_and_deepcopy(record):
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record and repr(copied) == repr(record)
        assert list(vars(copied)) == list(vars(record))


@pytest.mark.parametrize("bad", [0, True, 1.5])
def test_ambient_rejects_non_positive_integers_with_the_same_text(bad):
    for name, args in (("g", (bad, 2)), ("m", (2, bad))):
        with pytest.raises(ValueError) as info:
            modiag.Ambient(*args)
        assert str(info.value) == f"{name} must be an integer >= 1, got {bad!r}"
