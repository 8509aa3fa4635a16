"""The package's records behave as the frozen dataclasses they replace:
class-aware equality, the hash of the field tuple, the dataclass repr,
refused assignment and the same validation errors."""

import dataclasses

import pytest

from liftgeo import gks
from liftgeo.connection import Riemann, christoffel, riemann
from liftgeo.expr import (
    ONE, ZERO, Const, Coord, ExprError, FuncApp, FuncSymbol, KnownFunc, ProbeConfig,
    ZeroVerdict, _Record,
)
from liftgeo.geometry import Chart, GeometryError, Metric, inverse
from liftgeo.harmonicity import HarmonicityReport, Verdict, harmonicity_residuals
from liftgeo.oracle import FdResult

t = Coord("t")
X = FuncSymbol("X", "t")
CHART = Chart(("t", "x"))


def _metric():
    return Metric(CHART, {(0, 0): ONE, (1, 1): t * t})


def _samples():
    g = _metric()
    conn = christoffel(g)
    report = harmonicity_residuals(g, g)
    return [
        t, Const("c1"), X, FuncSymbol("Y", "t", Const("c2")), FuncApp(X, 2, t),
        KnownFunc("sinh", Coord("theta")), ZeroVerdict("nonzero", {"t": 0.5}, 1.25),
        ProbeConfig(seed=3), CHART, CHART.tangent(), g, conn, riemann(conn),
        Verdict("undecided", undecided_indices=("1",)), report, gks.abstract_spec(),
        gks.TheoremCheck("pair", report, (ZERO, ZERO), True, {"trace-condition": True}),
        gks.ScenarioResult("traces", (), ("a note",)), FdResult(True, 2.5e-10, 20),
    ]


def _as_dataclass(record):
    """A frozen dataclass of the record's class name and fields, with its values."""
    cls = dataclasses.make_dataclass(type(record).__name__, record._fields, frozen=True)
    return cls(*(getattr(record, name) for name in record._fields))


def test_the_samples_cover_every_record():
    assert {type(r) for r in _samples()} == set(_Record.__subclasses__())
    assert len(_Record.__subclasses__()) == 17


def test_repr_and_hash_are_those_of_the_frozen_dataclass():
    for record in _samples():
        reference = _as_dataclass(record)
        assert repr(record) == repr(reference)
        try:
            expected = hash(reference)
        except TypeError:  # a field holds a dict
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected


def test_equality_is_by_class_and_fields():
    assert Coord("t") == Coord("t") and hash(Coord("t")) == hash(Coord("t"))
    assert Coord("t") != Const("t")
    assert FuncSymbol("X", "t") != FuncSymbol("X", "t", ONE)
    assert Chart(["t", "x"]) == CHART
    assert ProbeConfig() == ProbeConfig(0, 20, 1e-9) != ProbeConfig(seed=1)
    assert gks.abstract_spec() == gks.abstract_spec()
    assert {gks.abstract_spec(): 1}[gks.abstract_spec()] == 1
    # the values derived from a metric take no part in its equality
    g, h = _metric(), _metric()
    inverse(g)
    assert g._derived and not h._derived
    assert g == h and hash(g) == hash(h)


def test_assignment_raises():
    for record in _samples():
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1


def test_validation_still_raises():
    with pytest.raises(ValueError, match="probes"):
        ProbeConfig(probes=0)
    with pytest.raises(ValueError, match="zero_tol"):
        ProbeConfig(zero_tol=0.0)
    with pytest.raises(ExprError, match="non-negative"):
        FuncApp(X, -1, t)
    with pytest.raises(ExprError, match="unknown built-in"):
        KnownFunc("sec", t)
    with pytest.raises(GeometryError, match="repeats"):
        Chart(("t", "t"))
    with pytest.raises(GeometryError, match="2x2"):
        Metric(CHART, {(0, 2): ONE})
    with pytest.raises(ValueError, match="theta"):
        gks.GksSpec(X, X, X)


def test_repr_of_a_metric_and_its_connection_leaves_out_derived_values():
    # the benchmark's tracer tells metrics apart by their repr
    g = _metric()
    before = repr(g)
    conn = christoffel(g)  # fills g._derived with the inverse
    assert g._derived
    assert repr(g) == before == (
        "Metric(chart=Chart(coords=('t', 'x'), base=None), "
        "components=((Normal('1'), Normal('0')), (Normal('0'), Normal('t^2'))), "
        "frame=<Frame.NATURAL: 'natural'>)"
    )
    riemann(conn)  # fills conn._derived with the curvature
    assert conn._derived
    assert repr(conn) == (
        "Connection(chart=Chart(coords=('t', 'x'), base=None), "
        "coefficients={(0, 1, 1): Normal('-t'), (1, 0, 1): Normal('1/t')}, "
        "frame=<Frame.NATURAL: 'natural'>)"
    )
    assert repr(Riemann(CHART, {})) == (
        "Riemann(chart=Chart(coords=('t', 'x'), base=None), components={})"
    )
    assert repr(HarmonicityReport({}, Verdict("harmonic"))) == (
        "HarmonicityReport(residuals={}, verdict=Verdict(kind='harmonic', index=None, "
        "witness=None, value=None, undecided_indices=()), notes=())"
    )
