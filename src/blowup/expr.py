"""One-variable arithmetic expressions used to define vector fields B(x).

Field expressions arrive as text (CLI flag or config file) and are parsed
into a small immutable AST.  The grammar, tightest binding first:

    ^           exponentiation, right associative
    unary -
    * /         left associative
    + -         left associative

Atoms are decimal numbers, the variable ``x``, calls of exp/ln/sin/cos,
and parenthesized expressions.  So ``-x^2`` means ``-(x^2)``.

Evaluation is exact IEEE double arithmetic over the AST.  Anything that
would leave the reals (log of a nonpositive number, division by zero,
overflow, a negative base under a fractional power) raises
:class:`EvalDomainError` instead of letting a NaN or infinity escape.
"""

from __future__ import annotations

import itertools
import math

__all__ = [
    "FieldExpr",
    "ExprSyntaxError",
    "EvalDomainError",
    "parse",
]

_FUNCTIONS = ("exp", "ln", "sin", "cos")


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ArithmeticError):
    """Evaluation left the real line (domain error, division by zero, overflow)."""


# --------------------------------------------------------------------------
# tokens
# --------------------------------------------------------------------------

def _tokenize(text):
    """Yield (kind, value, offset) triples; kinds: num, name, op, lparen, rparen."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(("num", float(text[start:i]), start))
        elif c.isalpha() or c == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("name", text[start:i], start))
        elif c in "+-*/^":
            tokens.append(("op", c, i))
            i += 1
        elif c == "(":
            tokens.append(("lparen", c, i))
            i += 1
        elif c == ")":
            tokens.append(("rparen", c, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# parser (recursive descent with one level per precedence tier)
# --------------------------------------------------------------------------
#
# AST nodes are tuples:
#   ("num", value)  ("var",)  ("neg", a)  ("call", fname, a)
#   ("+", a, b)  ("-", a, b)  ("*", a, b)  ("/", a, b)  ("^", a, b)

class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return tok

    def parse_sum(self):
        node = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = (op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = (op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return ("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            # right associative; exponent may carry its own unary minus
            return ("^", node, self.parse_unary())
        return node

    def parse_atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return ("num", value)
        if kind == "name":
            if value == "x":
                return ("var",)
            if value in _FUNCTIONS:
                self.expect("lparen", "'(' after function name")
                arg = self.parse_sum()
                self.expect("rparen", "')'")
                return ("call", value, arg)
            raise ExprSyntaxError(f"unknown identifier {value!r}", offset)
        if kind == "lparen":
            node = self.parse_sum()
            self.expect("rparen", "')'")
            return node
        raise ExprSyntaxError("expected a number, 'x', function call or '('", offset)


def _parse_ast(text: str):
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_sum()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input after expression", offset)
    return node


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _int_pow(base, k):
    # repeated multiplication (by squaring); exact for what it can represent
    result = 1.0
    factor = base
    while k:
        if k & 1:
            result *= factor
        factor *= factor
        k >>= 1
    return result


def _pow(base, exponent):
    k = round(exponent)
    if exponent == k and abs(k) <= 4096:
        k = int(k)
        if k < 0:
            power = _int_pow(base, -k)
            if power == 0.0:  # a zero base, or one whose power underflows
                raise EvalDomainError(f"{base!r} to the power {k} is not representable")
            return 1.0 / power
        return _int_pow(base, k)
    if base < 0.0:
        raise EvalDomainError("negative base with non-integer exponent")
    try:
        return math.pow(base, exponent)
    except (OverflowError, ValueError) as exc:
        raise EvalDomainError(f"pow({base!r}, {exponent!r}) not representable") from exc


def _div(num, den):
    if den == 0.0:
        raise EvalDomainError("division by zero")
    return num / den


def _ln(value):
    if value <= 0.0:
        raise EvalDomainError(f"ln of non-positive value {value!r}")
    return math.log(value)


def _exp(value):
    try:
        return math.exp(value)
    except OverflowError as exc:
        raise EvalDomainError(f"exp({value!r}) overflows") from exc


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


# x^2, x^3 and x^4 as the products _int_pow forms, in its order
_INLINE_POWERS = {
    2.0: "({0} * {0})",
    3.0: "({0} * ({0} * {0}))",
    4.0: "(({0} * {0}) * ({0} * {0}))",
}


def _compile_source(node, temps=None):
    # mirrors _eval_node operation for operation so results are bit-identical
    if temps is None:
        temps = itertools.count()
    op = node[0]
    if op == "num":
        return repr(node[1])
    if op == "var":
        return "x"
    if op == "neg":
        return f"(-{_compile_source(node[1], temps)})"
    if op == "call":
        return f"_c_{node[1]}({_compile_source(node[2], temps)})"
    a = _compile_source(node[1], temps)
    if op == "^" and node[2][0] == "num" and node[2][1] in _INLINE_POWERS:
        if node[1][0] in ("num", "var"):
            return _INLINE_POWERS[node[2][1]].format(a)
        # evaluate a compound base once and reuse it
        name = f"_p{next(temps)}"
        first, rest = _INLINE_POWERS[node[2][1]].split("{0}", 1)
        return first + f"({name} := {a})" + rest.format(name)
    b = _compile_source(node[2], temps)
    if op in "+-*":
        return f"({a} {op} {b})"
    if op == "/":
        return f"_c_div({a}, {b})"
    return f"_c_pow({a}, {b})"


_COMPILE_GLOBALS = {
    "__builtins__": {},
    "_c_div": _div,
    "_c_pow": _pow,
    "_c_exp": _exp,
    "_c_ln": _ln,
    "_c_sin": math.sin,
    "_c_cos": math.cos,
}


class FieldExpr:
    """A parsed field expression.  Immutable; evaluation is pure.

    Call the instance to evaluate at a scalar.  The call path runs
    through a lambda compiled from the AST; it performs the same operations
    in the same order as the reference tree walk (:meth:`eval_tree`), so
    the two agree bit for bit.
    """

    __slots__ = ("ast", "text", "_fn")

    def __init__(self, ast, text: str):
        self.ast = ast
        self.text = text
        self._fn = eval(f"lambda x: {_compile_source(ast)}", dict(_COMPILE_GLOBALS))

    def __call__(self, x: float) -> float:
        value = self._fn(x)
        if not math.isfinite(value):
            raise EvalDomainError(f"{self.text!r} is not finite at x={x!r}")
        return value

    def eval_tree(self, x: float) -> float:
        """Reference tree-walk evaluation (kept for cross-checking)."""
        value = _eval_node(self.ast, x)
        if not math.isfinite(value):
            raise EvalDomainError(f"{self.text!r} is not finite at x={x!r}")
        return value

    def __repr__(self):
        return f"FieldExpr({self.text!r})"


def parse(text: str) -> FieldExpr:
    """Parse expression text into a :class:`FieldExpr`.

    Raises :class:`ExprSyntaxError` (with byte offset) on malformed input
    or unknown identifiers.
    """
    return FieldExpr(_parse_ast(text), text)
