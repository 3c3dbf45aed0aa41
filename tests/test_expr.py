import math

import pytest
from hypothesis import given, strategies as st

from blowup.expr import EvalDomainError, ExprSyntaxError, _div, _exp, _ln, _pow, parse


def canonical(node):
    """Fully parenthesized text of a parsed AST; reparses to an equivalent AST."""
    op = node[0]
    if op == "num":
        return repr(node[1])
    if op == "var":
        return "x"
    if op == "neg":
        return f"(-{canonical(node[1])})"
    if op == "call":
        return f"{node[1]}({canonical(node[2])})"
    return f"({canonical(node[1])} {op} {canonical(node[2])})"


_CALLS = {"exp": _exp, "ln": _ln, "sin": math.sin, "cos": math.cos}


def _eval_node(node, x):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return x
    if op == "neg":
        return -_eval_node(node[1], x)
    if op == "call":
        return _CALLS[node[1]](_eval_node(node[2], x))
    a = _eval_node(node[1], x)
    b = _eval_node(node[2], x)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return _div(a, b)
    if op == "^":
        return _pow(a, b)
    raise AssertionError(f"unknown node {op!r}")


def eval_tree(e, x):
    """Reference evaluation of ``e`` by a walk of its AST, with the
    compiled call's finiteness check."""
    value = _eval_node(e.ast, x)
    if not math.isfinite(value):
        raise EvalDomainError(f"{e.text!r} is not finite at x={x!r}")
    return value


def test_numbers_and_variable():
    assert parse("42")(0.0) == 42.0
    assert parse("2.5")(0.0) == 2.5
    assert parse(".5")(0.0) == 0.5
    assert parse("1e3")(0.0) == 1000.0
    assert parse("2.5e-1")(0.0) == 0.25
    assert parse("x")(3.25) == 3.25


def test_precedence_and_associativity():
    assert parse("2+3*4")(0.0) == 14.0
    assert parse("(2+3)*4")(0.0) == 20.0
    assert parse("2*3^2")(0.0) == 18.0
    assert parse("2^3^2")(0.0) == 512.0  # right associative
    assert parse("6/4")(0.0) == 1.5
    assert parse("10-4-3")(0.0) == 3.0  # left associative
    assert parse("24/4/2")(0.0) == 3.0


def test_unary_minus_binds_looser_than_power():
    # -x^2 is -(x^2), the usual mathematical convention
    assert parse("-x^2")(3.0) == -9.0
    assert parse("(-x)^2")(3.0) == 9.0
    assert parse("2^-1")(0.0) == 0.5
    assert parse("--x")(5.0) == 5.0


def test_functions():
    assert parse("exp(0)")(0.0) == 1.0
    assert parse("sin(0)")(0.0) == 0.0
    assert parse("cos(0)")(0.0) == 1.0
    assert parse("ln(exp(2))")(0.0) == pytest.approx(2.0)
    assert parse("exp(-1/x)")(2.0) == pytest.approx(math.exp(-0.5))


def test_integer_powers_allow_negative_base():
    assert parse("x^3")(-2.0) == -8.0
    assert parse("x^2")(-3.0) == 9.0
    assert parse("x^0")(0.0) == 1.0
    assert parse("x^-2")(2.0) == 0.25


def test_syntax_errors_carry_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x*(x")
    assert info.value.offset == 4

    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("   ")
    with pytest.raises(ExprSyntaxError):
        parse("x 2")
    with pytest.raises(ExprSyntaxError):
        parse("2 +")
    with pytest.raises(ExprSyntaxError):
        parse("y + 1")
    with pytest.raises(ExprSyntaxError):
        parse("exp x")
    with pytest.raises(ExprSyntaxError):
        parse("1 @ 2")


def test_unknown_identifier_offset_points_at_name():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x + foo(x)")
    assert info.value.offset == 4


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        parse("1/x")(0.0)
    with pytest.raises(EvalDomainError):
        parse("ln(x)")(0.0)
    with pytest.raises(EvalDomainError):
        parse("ln(x)")(-1.0)
    with pytest.raises(EvalDomainError):
        parse("x^0.5")(-4.0)
    with pytest.raises(EvalDomainError):
        parse("x^-1")(0.0)
    with pytest.raises(EvalDomainError):
        parse("exp(x)")(1000.0)
    with pytest.raises(EvalDomainError):
        parse("x/(x-1)")(1.0)


def test_huge_products_overflow_to_domain_error():
    with pytest.raises(EvalDomainError):
        parse("x*x")(1e200)


def test_canonical_round_trip():
    for text in ("-x^2", "x*(x-1)", "exp(-1/x)", "2^x^0.5", "1 - x/3 + .5"):
        e = parse(text)
        again = parse(canonical(e.ast))
        for x in (0.5, 1.0, 2.5, 7.0):
            assert e(x) == again(x)


def test_canonical_is_fully_parenthesized():
    assert canonical(parse("-x^2").ast) == "(-(x ^ 2.0))"
    assert canonical(parse("x*(x-1)").ast) == "(x * (x - 1.0))"


_EXPRS = [parse(t) for t in (
    "x^2", "-x^2", "x*(x-1)", "x^3", "1 + x/2 - x^2/7",
    "sin(x)*cos(x)", "2^x", "x^4", "(x+1)^3", "x^0", "x^-2",
)]


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_compiled_path_matches_tree_walk(x):
    # the fast callable must agree with the reference walk bit for bit
    for e in _EXPRS:
        try:
            fast = e(x)
        except EvalDomainError:
            with pytest.raises(EvalDomainError):
                eval_tree(e, x)
            continue
        assert fast == eval_tree(e, x)


@given(
    st.floats(min_value=-9.0, max_value=9.0, allow_nan=False),
    st.floats(min_value=-9.0, max_value=9.0, allow_nan=False),
)
def test_arithmetic_matches_python(a, b):
    assert parse("x + %r" % b)(a) == a + b
    assert parse("x * %r" % b)(a) == a * b
    assert parse("x - %r" % b)(a) == a - b


def test_repr_mentions_source_text():
    assert "x^2" in repr(parse("x^2"))
