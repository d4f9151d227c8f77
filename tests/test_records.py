"""The package's records behave as frozen dataclasses of the same fields would:
assignment raises AttributeError, == and hash go by the tuple of fields, the
repr is Name(field=value, ...), defaults and keywords work, and the probes
still validate on construction."""

import copy
import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest

from phasebounds import bounds, oracle, qfim, states, verify
from phasebounds._record import Record
from phasebounds.errors import NormalizationError

_ECS = states.ecs_params(2, 1.0, 0.3, m=2)
_STATE = oracle.build_state(states.noon_params(2, 3), 4)

# one record of each class, built the way the package builds it
RECORDS = {
    "EcsParams": _ECS,
    "NoonParams": states.noon_params(2, 3),
    "DomainGeometry": states.domain_geometry(3, 1, 2.0),
    "BoundReport": bounds.minimize_bound_over_b(3, 1, 2.0),
    "StructuredQfim": qfim.ecs_qfim(_ECS),
    "ModeVector": _STATE.terms[0][1][0],
    "SparseProductState": _STATE,
    "CheckResult": verify.CheckResult("bounds", "zzb_ordering", 0.25, 0.5),
}
# the fields that have defaults, with the defaults
DEFAULTS = {"EcsParams": {"m": 1}, "NoonParams": {"m": 1}, "ModeVector": {"tail_mass": 0.0},
            "CheckResult": {"strict": False}}


def fields(record):
    return {name: getattr(record, name) for name in type(record).__slots__}


def frozen_dataclass_twin(record):
    """A frozen dataclass with the record's class name, fields and defaults, holding its values."""
    cls = type(record)
    signature = inspect.signature(cls.__init__)
    spec = [(name, object, dataclasses.field(default=signature.parameters[name].default))
            if signature.parameters[name].default is not inspect.Parameter.empty
            else (name, object) for name in cls.__slots__]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)(**fields(record))


def test_every_record_class_is_covered():
    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_and_defaults(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    signature = inspect.signature(type(record).__init__)
    assert list(signature.parameters)[1:] == list(type(record).__slots__)
    defaults = {k: p.default for k, p in signature.parameters.items()
                if p.default is not inspect.Parameter.empty}
    assert defaults == DEFAULTS.get(name, {})
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", RECORDS)
def test_assignment_and_deletion_raise(name):
    record = RECORDS[name]
    before = fields(record)
    twin = frozen_dataclass_twin(record)
    for field in (*type(record).__slots__, "unknown"):
        for target in (record, twin):
            with pytest.raises(AttributeError) as info:
                setattr(target, field, 1)
            assert str(info.value) == f"cannot assign to field {field!r}"
            with pytest.raises(AttributeError) as info:
                delattr(target, field)
            assert str(info.value) == f"cannot delete field {field!r}"
    assert all(getattr(record, k) is v for k, v in before.items())


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_the_dataclass_form(name):
    record = RECORDS[name]
    assert repr(record) == repr(frozen_dataclass_twin(record))
    shown = ", ".join(f"{k}={v!r}" for k, v in fields(record).items())
    assert repr(record) == f"{name}({shown})"


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_go_by_the_fields(name):
    record = RECORDS[name]
    cls, values = type(record), fields(record)
    by_keyword, by_position = cls(**values), cls(*values.values())
    assert by_keyword == record and by_position == record and not by_keyword != record
    assert record != tuple(values.values()) and record != frozen_dataclass_twin(record)
    try:
        expected = hash(tuple(values.values()))
    except TypeError:  # a dict or array field: unhashable, as the dataclass was
        for r in (record, frozen_dataclass_twin(record)):
            with pytest.raises(TypeError):
                hash(r)
    else:
        assert hash(record) == hash(by_keyword) == expected == hash(frozen_dataclass_twin(record))


@pytest.mark.parametrize("record,other", [
    (_ECS, states.ecs_params(2, 1.0, 0.31, m=2)),
    (RECORDS["NoonParams"], states.noon_params(2, 4)),
    (RECORDS["DomainGeometry"], states.domain_geometry(3, 1, 2.5)),
    (RECORDS["BoundReport"], bounds.minimize_bound_over_b(3, 2, 2.0)),
    (RECORDS["StructuredQfim"], qfim.StructuredQfim(2, 1.0, 0.5)),
    (RECORDS["ModeVector"], oracle.ModeVector(RECORDS["ModeVector"].amplitudes, 1e-3)),
    (RECORDS["SparseProductState"], oracle.SparseProductState(4, _STATE.terms)),
    (RECORDS["CheckResult"], verify.CheckResult("bounds", "zzb_ordering", 0.25, 0.5, True)),
], ids=list(RECORDS))
def test_a_changed_field_is_unequal(record, other):
    assert record != other and not record == other


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_rebuild_the_record(name):
    record = RECORDS[name]
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert repr(twin) == repr(record)


def test_defaults_apply():
    ecs = states.ecs_params(2, 1.0, 0.3)
    assert states.EcsParams(d=2, alpha_sq=1.0, b=0.3, c=ecs.c) == ecs and ecs.m == 1
    assert states.NoonParams(2, 3, RECORDS["NoonParams"].b, RECORDS["NoonParams"].c).m == 1
    assert oracle.ModeVector(np.ones(3)).tail_mass == 0.0
    assert verify.CheckResult("s", "n", 1.0, 1.0).strict is False


def test_construction_validates():
    ecs = states.ecs_params(2, 1.0, 0.3)
    with pytest.raises(NormalizationError):
        states.EcsParams(2, 1.0, 0.3, ecs.c + 1e-9)
    with pytest.raises(NormalizationError):
        states.EcsParams(d=2, alpha_sq=1.0, b=0.3, c=ecs.c + 1e-9)
    with pytest.raises(NormalizationError):
        states.NoonParams(2, 3, 0.3, math.nan)

