"""The surface reader: its error messages and offsets, the products and
powers it folds, and the atom memo of a symbol table."""

import pytest
from hypothesis import given, settings, strategies as st

from liftgeo.expr import (
    Const, Coord, ExprError, FuncApp, FuncSymbol, KnownFunc, ParseError, ResourceLimitError,
    SymbolTable, eprod, esum, parse, simplify, _atoms,
)


def _table() -> SymbolTable:
    table = SymbolTable(coords=("t", "r", "theta"))
    table.declare_func(FuncSymbol("X", "t"))
    table.declare_func(FuncSymbol("f", "theta"))
    return table


# (text, error class, message, offset): what the reader of 332d8b4 raised on
# each text, recorded before the reader read bare atoms through a memo and
# folded products of monomials
PARSE_ERRORS = [
    ("X(t) + $", ParseError, "unexpected character '$'", 7),
    ("t # 2", ParseError, "unexpected character '#'", 2),
    ("t;r", ParseError, "unexpected character ';'", 1),
    ("t . 2", ParseError, "unexpected character '.'", 2),
    ("2.5", ParseError, "unexpected character '.'", 1),
    ("t^2.5", ParseError, "unexpected character '.'", 3),
    ("t + ٣", ParseError, "unexpected character '٣'", 4),
    ("t*１", ParseError, "unexpected character '１'", 2),
    ("t²", ParseError, "unexpected character '²'", 1),
    ("١", ParseError, "unexpected character '١'", 0),
    ("θ + 1", ParseError, "unexpected character 'θ'", 0),
    ("té", ParseError, "unexpected character 'é'", 1),
    ("café", ParseError, "unexpected character 'é'", 3),
    ("X(t)*µ", ParseError, "unexpected character 'µ'", 5),
    ("_t + 1", ParseError, "unexpected character '_'", 0),
    ("t*_", ParseError, "unexpected character '_'", 2),
    ("a_1 + 2_", ParseError, "unexpected character '_'", 7),
    ("(t + 1", ParseError, "expected ')'", 6),
    ("sin(t", ParseError, "expected ')'", 5),
    ("X(t", ParseError, "expected ')'", 3),
    ("((t)", ParseError, "expected ')'", 4),
    ("X'(t", ParseError, "expected ')'", 4),
    ("t t", ParseError, "unexpected trailing input 't'", 2),
    ("t)", ParseError, "unexpected trailing input ')'", 1),
    ("1 2", ParseError, "unexpected trailing input '2'", 2),
    ("X(t) r", ParseError, "unexpected trailing input 'r'", 5),
    ("sin(t) (r)", ParseError, "unexpected trailing input '('", 7),
    ("t^2^3", ParseError, "unexpected trailing input '^'", 3),
    ("sin'(t)", ParseError, "prime notation is not supported on built-in 'sin'", 0),
    ("cos''", ParseError, "prime notation is not supported on built-in 'cos'", 0),
    ("exp'(t + 1)", ParseError, "prime notation is not supported on built-in 'exp'", 0),
    ("Q'(t)", ParseError,
     "unknown function name 'Q' used with prime notation but never declared", 0),
    ("Q''", ParseError,
     "unknown function name 'Q' used with prime notation but never declared", 0),
    ("Q'", ParseError,
     "unknown function name 'Q' used with prime notation but never declared", 0),
    ("t'", ParseError,
     "unknown function name 't' used with prime notation but never declared", 0),
    ("X(t)*f(theta)*Q'(t)", ParseError,
     "unknown function name 'Q' used with prime notation but never declared", 14),
    ("Q(t)", ParseError, "unknown function name 'Q'", 0),
    ("r(t)", ParseError, "unknown function name 'r'", 0),
    ("sin", ParseError, "built-in function 'sin' needs an argument", 0),
    ("log + 1", ParseError, "built-in function 'log' needs an argument", 0),
    ("t^x", ParseError, "expected an integer exponent", 2),
    ("t^(2)", ParseError, "expected an integer exponent", 2),
    ("t^-x", ParseError, "expected an integer exponent", 3),
    ("t^", ParseError, "expected an integer exponent", 2),
    ("t^+2", ParseError, "expected an integer exponent", 2),
    ("X'(t)^r", ParseError, "expected an integer exponent", 6),
    ("1" * 5000, ParseError, "integer of 5000 digits is too long to read", 0),
    ("t^" + "9" * 5000, ParseError, "integer of 5000 digits is too long to read", 2),
    ("t + " + "2" * 4400 + "*r", ParseError, "integer of 4400 digits is too long to read", 4),
    ("(" * 101 + "t" + ")" * 101, ParseError, "expression nested more than 100 levels deep", 100),
    ("-" * 101 + "t", ParseError, "expression nested more than 100 levels deep", 100),
    ("sin(" * 100 + "t" + ")" * 100, ParseError,
     "expression nested more than 100 levels deep", 400),
    ("(1+t)^40*(1+r)^40*(1+theta)^40", ResourceLimitError,
     "product of 3 factors may expand past 2000 terms", None),
    ("2*t*(1+t)^40*(1+r)^40*(1+theta)^40/r", ResourceLimitError,
     "product of 6 factors may expand past 2000 terms", None),
    ("1/(1+t)^40/(1+r)^40/(1+theta)^40", ResourceLimitError,
     "product of 4 factors may expand past 2000 terms", None),
    ("(1+t+r)^100", ResourceLimitError,
     "power 100 of a 3-term polynomial may expand past 2000 terms", None),
    ("t/(t-t)", ExprError, "division by an identically zero expression", None),
    ("1/0", ExprError, "division by an identically zero expression", None),
    ("X(t)/(X(t) - X(t))^2", ExprError, "division by an identically zero expression", None),
    ("(t - t)^-1", ExprError, "division by an identically zero expression", None),
    ("t*r/(t - t)*$", ParseError, "unexpected character '$'", 12),
    ("", ParseError, "unexpected end of input", 0),
    ("   ", ParseError, "unexpected end of input", 3),
    ("t +", ParseError, "unexpected end of input", 3),
    ("f(", ParseError, "unexpected end of input", 2),
    ("*t", ParseError, "unexpected token '*'", 0),
    ("/", ParseError, "unexpected token '/'", 0),
    ("t*/r", ParseError, "unexpected token '/'", 2),
    (")", ParseError, "unexpected token ')'", 0),
]


@pytest.mark.parametrize("text, error, message, offset", PARSE_ERRORS,
                         ids=[repr(case[0][:24]) for case in PARSE_ERRORS])
def test_parse_errors_keep_their_message_and_offset(text, error, message, offset):
    table = _table()
    for _ in range(2):  # a second read goes through the table's atom memo
        with pytest.raises(ExprError) as err:
            parse(text, table)
        assert type(err.value) is error
        if offset is None:
            assert str(err.value) == message
        else:
            assert str(err.value) == f"{message} (at offset {offset})"
            assert err.value.offset == offset


def test_nesting_limit_counts_the_argument_of_an_application():
    # 99 groups and X(t) reach the limit at t, as a group around t would
    deep = "(" * 99 + "X(t)" + ")" * 99
    with pytest.raises(ParseError) as err:
        parse(deep, _table())
    assert err.value.offset == 101
    assert parse("(" * 98 + "X(t)" + ")" * 98, _table()) == parse("X(t)", _table())


_FACTOR_TEXTS = ["t", "c1", "theta", "X(t)", "X''(t)", "f'", "X(r)", "X(t^2)", "sin(theta)",
                 "1", "2", "3", "12", "(1 + t)"]


def _factor_value(text: str):
    """The value of a factor text, built without the reader."""
    if text.isdigit():
        return esum((int(text),))
    X, f = FuncSymbol("X", "t"), FuncSymbol("f", "theta")
    t, theta = Coord("t"), Coord("theta")
    return simplify({
        "t": t, "c1": Const("c1"), "theta": theta,
        "X(t)": FuncApp(X, 0, t), "X''(t)": FuncApp(X, 2, t), "f'": FuncApp(f, 1, theta),
        "X(r)": FuncApp(X, 0, Coord("r")), "X(t^2)": FuncApp(X, 0, eprod((t, t))),
        "sin(theta)": KnownFunc("sin", theta), "(1 + t)": esum((1, t)),
    }[text])


def _typed_pair(v) -> list:
    return [sorted((m, type(c).__name__, c) for m, c in p.items()) for p in (v.num, v.den)]


_FACTORS = st.tuples(st.sampled_from(["*", "/"]), st.booleans(),
                     st.sampled_from(_FACTOR_TEXTS), st.sampled_from([None, -2, -1, 0, 1, 2, 3]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_FACTORS, min_size=1, max_size=6))
def test_products_quotients_and_powers_read_as_their_values_property(factors):
    # the text op1 [-]a1[^n1] op2 [-]a2[^n2] ... (the first op is read as *)
    # against the same value built with eprod and powers of values
    pieces, values = [], []
    for i, (op, negated, text, n) in enumerate(factors):
        piece = text if n is None else f"{text}^{n}"
        pieces.append(("" if i == 0 else op) + ("-" if negated else "") + piece)
        v = _factor_value(text) ** (1 if n is None else n)
        if negated:
            v = -v
        values.append(v ** -1 if op == "/" and i else v)
    got = parse("".join(pieces), _table())
    assert _typed_pair(got) == _typed_pair(eprod(values))


def test_a_declaration_after_a_parse_is_honoured_by_the_next_parse():
    table = SymbolTable(coords=("t",))
    assert parse("s", table) == simplify(Const("s"))
    assert parse("k*t", table) == eprod((Const("k"), Coord("t")))
    with pytest.raises(ParseError, match="unknown function name 'B'"):
        parse("B(t)", table)
    table.declare_coord("s")
    assert parse("s", table) == simplify(Coord("s"))
    k = table.declare_func(FuncSymbol("k", "t"))
    assert parse("k*t", table) == eprod((FuncApp(k, 0, Coord("t")), Coord("t")))
    table.declare_func(FuncSymbol("B", "t", parse("t^2 + 1", table)))
    assert parse("B(t)", table) == parse("t^2 + 1", table)
    # the argument of a memoized application is read anew as well
    table.declare_func(FuncSymbol("X", "t"))
    assert Const("q") in set(_atoms(parse("X(q)", table)))
    table.declare_coord("q")
    assert Coord("q") in set(_atoms(parse("X(q)", table)))
