"""The twelve value classes are plain slotted classes on errors.Frozen: each is built
by position or by keyword with the same defaults, refuses to assign or delete a
field, compares, hashes and prints over its field values, and keeps its validation
in __post_init__, which is what perfbench's tracer counts."""

import numpy as np
import pytest

from grassgeo.errors import Frozen
from grassgeo.kernels import EnergySpec, OverlapValue, PluckerVector
from grassgeo.linalg import SvdResult
from grassgeo.loci import CartanVector, ConjugateTime, SchubertSymbol
from grassgeo.spaces import ChartPoint, Frame, GrassmannSpace, TangentVector, _built_frame
from grassgeo.topology import CharacteristicReport
from test_tracer_names import tracer  # perfbench/tracer.py, loaded from its file

G23 = GrassmannSpace(2, 3)
Z23 = np.array([[0.1, 0.2j, 0.0], [0.0, 0.3, -0.1]])
F23 = np.eye(5, 2, dtype=complex)

# class -> its field values in order; each is built from them by position and by keyword
FIELDS = {
    GrassmannSpace: (2, 3, -1),
    ChartPoint: (G23, Z23),
    TangentVector: (G23, Z23),
    Frame: (G23, F23),
    SvdResult: (np.eye(2), np.ones(2), np.eye(2)),
    OverlapValue: (0.5 + 0.5j, 0.25 + 0.0j),
    EnergySpec: (np.array([3.0, 2.0, 1.0]),),
    PluckerVector: (2, 4, np.arange(6.0)),
    CartanVector: (np.array([0.6, 0.8]),),
    ConjugateTime: (np.pi, "T2", 1, (0,), 1),
    SchubertSymbol: ((0, 1), 2),
    CharacteristicReport: (6,) * 7,
}


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_built_by_position_and_by_keyword(cls):
    values = FIELDS[cls]
    assert issubclass(cls, Frozen) and len(cls.__slots__) == len(values)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls.__slots__, values)))
    assert not hasattr(by_position, "__dict__")
    for name, value in zip(cls.__slots__, values):
        assert _same(getattr(by_position, name), value), name
        assert _same(getattr(by_keyword, name), value), name


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_a_field_cannot_be_assigned_or_deleted(cls):
    obj = cls(*FIELDS[cls])
    for name in cls.__slots__:
        before = getattr(obj, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        assert getattr(obj, name) is before


def test_the_default_sign_is_compact():
    assert GrassmannSpace(2, 3).epsilon == 1
    assert GrassmannSpace(2, 3) == GrassmannSpace(n=2, m=3, epsilon=1)


def test_equality_hash_and_repr_run_over_the_fields():
    space = GrassmannSpace(2, 3, -1)
    assert space == GrassmannSpace(2, 3, epsilon=-1)
    assert hash(space) == hash(GrassmannSpace(2, 3, epsilon=-1))
    assert space != GrassmannSpace(3, 2, -1) and space != GrassmannSpace(2, 3)
    assert space != (2, 3, -1)
    assert repr(space) == "GrassmannSpace(n=2, m=3, epsilon=-1)"
    time = ConjugateTime(np.pi, "T2", 1, (0,), 1)
    assert repr(time) == (
        f"ConjugateTime(t={np.pi!r}, family='T2', multiplicity=1, indices=(0,), lam=1)"
    )
    assert len({time, ConjugateTime(np.pi, "T2", 1, (0,), 1)}) == 1


def test_the_tracer_counts_each_validation_once():
    spans = tracer.Tracer()
    spans.install()
    try:
        ChartPoint(G23, Z23)
        TangentVector(G23, Z23)
        Frame(G23, F23)
        _built_frame(G23, F23)
    finally:
        spans.uninstall()
    calls = {name: calls for name, (calls, _) in spans.totals()[0].items()}
    validations = {name: n for name, n in calls.items() if name.startswith("spaces.")}
    assert validations == {"spaces.ChartPoint": 1, "spaces.TangentVector": 1, "spaces.Frame": 1}
