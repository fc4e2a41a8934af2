"""Parser for series expressions over named variables.

Grammar (whitespace-insensitive, documented in docs/grammar.md):

    expr    :=  term (('+' | '-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  atom (('^' | '**') INT)?
    atom    :=  rational | NAME | '(' expr ')' | '-' factor
    rational:=  INT ('/' INT)?

Multiplication must be written explicitly; exponents are nonnegative
integers.  The unicode minus sign and middle dot are accepted as aliases
for '-' and '*'.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .series import PowerSeries

_ALIASES = {"−": "-", "·": "*", "∗": "*"}

# Deepest allowed nesting of parentheses and unary minus signs; the parser is
# recursive, and a bound well inside the interpreter's stack keeps deeper
# input a parse error instead of a RecursionError.
MAX_NESTING = 100


def _tokenize(text: str) -> list:
    for bad, good in _ALIASES.items():
        text = text.replace(bad, good)
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("number", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        elif text.startswith("**", i):
            tokens.append(("op", "^"))
            i += 2
        elif ch in "+-*^()/":
            tokens.append(("op", ch))
            i += 1
        else:
            raise PreconditionError("parse", f"unexpected character {ch!r}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, truncation):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.truncation = truncation
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, op):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise PreconditionError("parse", f"expected {op!r}, found {value!r}")

    def nested(self, parse) -> PowerSeries:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise PreconditionError(
                "parse", f"expression nested deeper than {MAX_NESTING} levels"
            )
        value = parse()
        self.depth -= 1
        return value

    def expr(self) -> PowerSeries:
        value = self.term()
        while True:
            kind, op = self.peek()
            if kind == "op" and op in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> PowerSeries:
        value = self.factor()
        while True:
            kind, op = self.peek()
            if kind == "op" and op == "*":
                self.take()
                value = value * self.factor()
            else:
                return value

    def factor(self) -> PowerSeries:
        base = self.atom()
        kind, op = self.peek()
        if kind == "op" and op == "^":
            self.take()
            kind, value = self.take()
            if kind != "number":
                raise PreconditionError("parse", "exponent must be an integer")
            return base ** value
        return base

    def atom(self) -> PowerSeries:
        kind, value = self.take()
        if kind == "end":
            raise PreconditionError("parse", "unexpected end of input")
        if kind == "number":
            numerator = value
            k, nxt = self.peek()
            if k == "op" and nxt == "/":
                self.take()
                k, denominator = self.take()
                if k != "number" or denominator == 0:
                    raise PreconditionError("parse", "malformed rational literal")
                return PowerSeries.constant(
                    self.variables, Fraction(numerator, denominator), self.truncation
                )
            return PowerSeries.constant(self.variables, numerator, self.truncation)
        if kind == "name":
            if value not in self.variables:
                raise PreconditionError("parse", f"unknown variable {value!r}")
            return PowerSeries.variable(value, self.variables, self.truncation)
        if kind == "op" and value == "(":
            inner = self.nested(self.expr)
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.nested(self.factor)
        raise PreconditionError("parse", f"unexpected token {value!r}")


def parse_series(text: str, variables, truncation: int) -> PowerSeries:
    """Parse an expression into a series over the given variables."""
    parser = _Parser(_tokenize(text), variables, truncation)
    result = parser.expr()
    kind, value = parser.peek()
    if kind != "end":
        raise PreconditionError("parse", f"trailing input at {value!r}")
    return result
