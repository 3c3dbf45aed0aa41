import math

import pytest
from hypothesis import given, strategies as st

from blowup.expr import EvalDomainError, ExprSyntaxError, _pow, parse


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


_CALLS = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos}


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
        return a / b
    if op == "^":
        return _pow(a, b)
    raise AssertionError(f"unknown node {op!r}")


def domain_message(text, x):
    return f"{text!r} has no finite real value at x={x!r}"


def eval_tree(e, x):
    """Reference evaluation of ``e`` by a walk of its AST, under the
    compiled call's domain rule."""
    try:
        value = _eval_node(e.ast, x)
        if math.isfinite(value):
            return value
    except (ArithmeticError, ValueError):
        pass
    raise EvalDomainError(domain_message(e.text, x))


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
    for text in ("\u00b2", "1\u00b2", "\u0661"):  # only ASCII digits make numbers
        with pytest.raises(ExprSyntaxError):
            parse(text)


def test_unknown_identifier_offset_points_at_name():
    with pytest.raises(ExprSyntaxError) as info:
        parse("x + foo(x)")
    assert info.value.offset == 4


def test_domain_errors():
    for text, x in (
        ("1/x", 0.0),
        ("ln(x)", 0.0),
        ("ln(x)", -1.0),
        ("ln(x)", -0.0),
        ("x^0.5", -4.0),
        ("x^-1", 0.0),
        ("x^-2", 1e-200),  # the power underflows to zero
        ("exp(x)", 1000.0),
        ("x/(x-1)", 1.0),
        ("sin(x^400)", 30.0),  # sin of an infinity
        ("2^(x^400)", 30.0),  # an infinite exponent
        ("2^(x^400 - x^400)", 30.0),  # a NaN exponent
        ("ln(x*x - x*x)", 1e200),  # ln of a NaN
    ):
        with pytest.raises(EvalDomainError) as info:
            parse(text)(x)
        assert str(info.value) == domain_message(text, x)


def test_huge_products_overflow_to_domain_error():
    with pytest.raises(EvalDomainError):
        parse("x*x")(1e200)


def test_negative_base_with_a_large_integral_exponent():
    # past 4096 an integral exponent goes to math.pow, which takes a
    # negative base
    assert parse("(-1)^5000")(0.0) == 1.0
    assert parse("x^5001")(-1.0) == -1.0
    assert parse("x^-5000")(-1.0) == 1.0


@pytest.mark.parametrize("text, offset", [
    ("x*1e400", 2),
    ("9" * 400, 0),
    ("x + 1.5e309", 4),
])
def test_literals_that_are_not_finite_are_out_of_range(text, offset):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert str(info.value) == f"number out of range (offset {offset})"
    assert parse("1e-400")(0.0) == 0.0  # underflow to zero is finite


@pytest.mark.parametrize("text", [
    "-" * 300 + "x",  # more parentheses than Python's parser takes
    "x" + "+x" * 3000,  # deeper than the compiler's recursion
    "(" * 1000 + "x" + ")" * 1000,  # deeper than the parser's recursion
])
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError) as info:
        parse(text)
    assert str(info.value) == "expression nested too deeply (offset 0)"


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


# expression text from the grammar, with literals that overflow a double
_LITERALS = st.one_of(
    st.integers(0, 9).map(str),
    st.floats(0.0, 1e308).map(repr),
    st.sampled_from(["0.5", ".25", "1e-400", "1e400", "9" * 400]),
)


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(" ".join),
        inner.map(lambda a: "-" + a),
        st.tuples(st.sampled_from(["exp", "ln", "sin", "cos"]), inner).map("{0[0]}({0[1]})".format),
        inner.map("({})".format),
    )


_TEXTS = st.recursive(_LITERALS | st.just("x"), _compound, max_leaves=12)


@given(
    _TEXTS,
    st.floats(-50.0, 50.0) | st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1e300]),
)
def test_grammar_expressions_obey_the_one_domain_rule(text, x):
    # parsing raises only ExprSyntaxError; a call equals the walk bit for
    # bit, or both raise the one EvalDomainError
    try:
        e = parse(text)
    except ExprSyntaxError as exc:
        assert str(exc).startswith("number out of range")
        return
    try:
        fast = e(x)
    except EvalDomainError as exc:
        assert str(exc) == domain_message(text, x)
        with pytest.raises(EvalDomainError):
            eval_tree(e, x)
        return
    assert fast.hex() == eval_tree(e, x).hex()


@given(st.text(st.sampled_from("x09.eE+-*/^() lnsi") | st.characters(), max_size=30))
def test_parse_raises_only_syntax_errors(text):
    try:
        parse(text)
    except ExprSyntaxError:
        pass


def test_repr_mentions_source_text():
    assert "x^2" in repr(parse("x^2"))
