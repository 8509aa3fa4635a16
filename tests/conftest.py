import pytest

from liftgeo import _poly, connection, geometry, lifts
from liftgeo.expr import ONE, ZERO, FuncSymbol, ProbeConfig, SymbolTable, esum, parse
from liftgeo.geometry import Chart, Metric
from liftgeo.gks import abstract_spec, build_gks, example_pair, hatted_abstract_spec
from liftgeo.harmonicity import _trace
from liftgeo.lifts import lift_connection, lift_metric


def full_symbols() -> SymbolTable:
    """Coordinates of the base and tangent charts plus the abstract scale
    functions and their hatted partners."""
    table = SymbolTable(coords=("t", "r", "theta", "phi", "u1", "u2", "u3", "u4"))
    table.declare_func(FuncSymbol("X", "t"))
    table.declare_func(FuncSymbol("Y", "t"))
    table.declare_func(FuncSymbol("f", "theta"))
    table.declare_func(FuncSymbol("Xh", "t"))
    table.declare_func(FuncSymbol("Yh", "t"))
    table.declare_func(FuncSymbol("fh", "theta"))
    return table


def ref(text: str):
    return parse(text, full_symbols())


def f_pow(a, n: int):
    """The n-th power of a (num, den) pair a, reduced by f_make whatever a
    is: the reference that the gcd-free powers of the package are checked
    against."""
    num, den = a
    if n == 0:
        return _poly.p_one(), _poly.p_one()
    if n < 0:
        if _poly.p_is_zero(num):
            raise ZeroDivisionError("division by an identically zero expression")
        num, den = den, num
        n = -n
    return _poly.f_make(_poly.p_pow(num, n), _poly.p_pow(den, n))


def count_poly_calls(monkeypatch) -> dict:
    """Calls of _poly.p_mul and _poly.f_make from now until
    monkeypatch.undo(), by name."""
    calls = {"p_mul": 0, "f_make": 0}
    for name in calls:
        original = getattr(_poly, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_poly, name, counting)
    return calls


def identity_matrix(n: int) -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def matrix_mul(a, b) -> tuple:
    n = len(a)
    return tuple(
        tuple(esum((a[i][k], b[k][j]) for k in range(n)) for j in range(n))
        for i in range(n)
    )


def generic_lifted_traces(g: Metric, d: Metric, kind, cfg: ProbeConfig = ProbeConfig()):
    """The lifted pair's report computed the long way, as the trace system of
    the lifted metric and both lifted connections: the reference against
    which the lift identities are checked, so they are not read back from
    lifted_harmonicity itself."""
    return _trace(lift_metric(g, kind), lift_connection(g, kind, cfg=cfg),
                  lift_connection(d, kind, cfg=cfg), cfg)


@pytest.fixture
def lifted_builds(monkeypatch):
    """The lifted values built while a test runs, by the builder's name: a
    lifted metric, an inverse or a Christoffel table on a tangent chart, or
    the base block every lift connection starts from. Metrics built before
    the test may hold lifted values already."""
    built = []

    def record(module, name, counts):
        original = getattr(module, name)

        def recording(*args):
            if counts(*args):
                built.append(name)
            return original(*args)

        monkeypatch.setattr(module, name, recording)

    record(geometry, "_inverse", lambda g: g.chart.is_tangent)
    record(connection, "_christoffel", lambda g, ginv: g.chart.is_tangent)
    record(lifts, "_lift_metric", lambda g, kind: True)
    record(lifts, "_base_block", lambda conn, shift: True)
    return built


@pytest.fixture(scope="session")
def symbols():
    return full_symbols()


@pytest.fixture(scope="session")
def gks_metric():
    return build_gks(abstract_spec())


@pytest.fixture(scope="session")
def gks_hat_metric():
    return build_gks(hatted_abstract_spec())


@pytest.fixture(scope="session")
def example_metrics():
    g_spec, hat_spec = example_pair()
    return build_gks(g_spec), build_gks(hat_spec)


@pytest.fixture(scope="session")
def sphere_metric():
    chart = Chart(("theta", "phi"))
    return Metric(chart, {
        (0, 0): ref("1"),
        (1, 1): ref("sin(theta)^2"),
    })


@pytest.fixture(scope="session")
def flat4_metric():
    chart = Chart(("t", "r", "theta", "phi"))
    return Metric(chart, {(i, i): ref("1") for i in range(4)})
