"""SQL expression AST and evaluator.

Expressions are evaluated row-wise against a mapping of column name →
value.  SQL three-valued logic is implemented faithfully: comparisons and
arithmetic with NULL yield NULL, AND/OR follow Kleene logic, and WHERE
keeps a row only when its predicate is strictly ``True``.

``bind(env)`` is the executor's form of ``evaluate``: it resolves column
references once against an ``env`` of column name → value list and
returns a closure from row position to value.  Both forms share the
per-node helpers below, so NULL handling, evaluation order and every
``SqlError`` message are the same whichever one runs.

The builtin function table includes ``HASH`` (Vertica's segmentation hash,
the basis of the connector's locality-aware queries) and
``SYNTHETIC_HASH`` (a whole-row hash the connector uses to parallelise
loads of views and unsegmented tables).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.vertica.errors import SqlError
from repro.vertica.hashring import vertica_hash

Row = Dict[str, Any]
#: column name -> that column's values (one batch of rows)
Env = Mapping[str, List[Any]]
#: row position -> value, for one bound batch
RowFn = Callable[[int], Any]


class Expression:
    """Base class for all expression nodes."""

    def evaluate(self, row: Row) -> Any:
        raise NotImplementedError

    def bind(self, env: Env) -> RowFn:
        """Resolve against one batch; the result evaluates row ``i``."""
        raise NotImplementedError

    def columns(self) -> List[str]:
        """Column names referenced by this expression (with duplicates)."""
        return []

    def sql(self) -> str:
        """Render back to SQL text (used for pushdown round-trips)."""
        raise NotImplementedError


class Literal(Expression):
    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, row: Row) -> Any:
        return self.value

    def bind(self, env: Env) -> RowFn:
        value = self.value
        return lambda i: value

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class ColumnRef(Expression):
    def __init__(self, name: str):
        self.name = name

    def evaluate(self, row: Row) -> Any:
        try:
            return row[self.name]
        except KeyError:
            raise SqlError(f"unknown column {self.name!r}") from None

    def bind(self, env: Env) -> RowFn:
        column = env.get(self.name)
        if column is None:
            name = self.name

            def missing(i: int) -> Any:
                raise SqlError(f"unknown column {name!r}")

            return missing
        return column.__getitem__

    def columns(self) -> List[str]:
        return [self.name]

    def sql(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"ColumnRef({self.name!r})"


class Star(Expression):
    """``*`` in a select list; resolved by the engine, never evaluated."""

    def sql(self) -> str:
        return "*"


def _null_if_any_null(func: Callable[..., Any]) -> Callable[..., Any]:
    def wrapped(*args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return func(*args)

    return wrapped


def _div(a: Any, b: Any) -> Any:
    if b == 0:
        raise SqlError("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        # SQL integer division truncates toward zero.
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    return a / b


def _mod(a: Any, b: Any) -> Any:
    if b == 0:
        raise SqlError("modulo by zero")
    if isinstance(a, float) or isinstance(b, float):
        return math.fmod(a, b)
    quotient = abs(a) // abs(b) if (a >= 0) == (b >= 0) else -(abs(a) // abs(b))
    return a - b * quotient


_ARITHMETIC = {
    "+": _null_if_any_null(lambda a, b: a + b),
    "-": _null_if_any_null(lambda a, b: a - b),
    "*": _null_if_any_null(lambda a, b: a * b),
    "/": _null_if_any_null(_div),
    "%": _null_if_any_null(_mod),
    "||": _null_if_any_null(lambda a, b: str(a) + str(b)),
}

_COMPARISON = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class BinaryOp(Expression):
    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Row) -> Any:
        op = self.op
        if op == "AND":
            return _kleene_and(self.left.evaluate(row), self.right.evaluate(row))
        if op == "OR":
            return _kleene_or(self.left.evaluate(row), self.right.evaluate(row))
        return _binary(op, self.left.evaluate(row), self.right.evaluate(row))

    def bind(self, env: Env) -> RowFn:
        left, right = self.left.bind(env), self.right.bind(env)
        op = self.op
        if op in ("AND", "OR"):
            kleene = _kleene_and if op == "AND" else _kleene_or
            return lambda i: kleene(left(i), right(i))
        return lambda i: _binary(op, left(i), right(i))

    def columns(self) -> List[str]:
        return self.left.columns() + self.right.columns()

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


def _binary(op: str, left: Any, right: Any) -> Any:
    """Arithmetic or comparison on two evaluated operands."""
    if op in _ARITHMETIC:
        try:
            return _ARITHMETIC[op](left, right)
        except TypeError:
            raise SqlError(
                f"invalid operands to {op!r}: {type(left).__name__} "
                f"and {type(right).__name__}"
            ) from None
    if op in _COMPARISON:
        if left is None or right is None:
            return None
        try:
            return _COMPARISON[op](left, right)
        except TypeError:
            raise SqlError(
                f"cannot compare {type(left).__name__} with "
                f"{type(right).__name__}"
            ) from None
    raise SqlError(f"unknown operator {op!r}")  # pragma: no cover


def _kleene_and(a: Any, b: Any) -> Any:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _kleene_or(a: Any, b: Any) -> Any:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)


class UnaryOp(Expression):
    def __init__(self, op: str, operand: Expression):
        if op not in ("-", "+", "NOT"):
            raise SqlError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def evaluate(self, row: Row) -> Any:
        return _unary(self.op, self.operand.evaluate(row))

    def bind(self, env: Env) -> RowFn:
        operand, op = self.operand.bind(env), self.op
        return lambda i: _unary(op, operand(i))

    def columns(self) -> List[str]:
        return self.operand.columns()

    def sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.sql()})"
        return f"({self.op}{self.operand.sql()})"


def _unary(op: str, value: Any) -> Any:
    if value is None:
        return None
    if op == "NOT":
        return not value
    return -value if op == "-" else +value


class IsNull(Expression):
    def __init__(self, operand: Expression, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def evaluate(self, row: Row) -> bool:
        is_null = self.operand.evaluate(row) is None
        return not is_null if self.negated else is_null

    def bind(self, env: Env) -> RowFn:
        operand = self.operand.bind(env)
        if self.negated:
            return lambda i: operand(i) is not None
        return lambda i: operand(i) is None

    def columns(self) -> List[str]:
        return self.operand.columns()

    def sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {suffix})"


class InList(Expression):
    def __init__(self, operand: Expression, options: Sequence[Expression],
                 negated: bool = False):
        self.operand = operand
        self.options = list(options)
        self.negated = negated

    def evaluate(self, row: Row) -> Any:
        value = self.operand.evaluate(row)
        if value is None:
            return None
        return _in_list(
            value, (option.evaluate(row) for option in self.options),
            self.negated,
        )

    def bind(self, env: Env) -> RowFn:
        operand = self.operand.bind(env)
        options = [option.bind(env) for option in self.options]
        negated = self.negated

        def in_list(i: int) -> Any:
            value = operand(i)
            if value is None:
                return None
            return _in_list(value, (option(i) for option in options), negated)

        return in_list

    def columns(self) -> List[str]:
        out = self.operand.columns()
        for option in self.options:
            out.extend(option.columns())
        return out

    def sql(self) -> str:
        options = ", ".join(o.sql() for o in self.options)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({options}))"


def _in_list(value: Any, candidates: Iterable[Any], negated: bool) -> Any:
    """IN over lazily evaluated options: the first match stops evaluation."""
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif candidate == value:
            return not negated
    if saw_null:
        return None
    return negated


class Between(Expression):
    def __init__(self, operand: Expression, low: Expression, high: Expression):
        self.operand = operand
        self.low = low
        self.high = high

    def evaluate(self, row: Row) -> Any:
        return _between(
            self.operand.evaluate(row), self.low.evaluate(row),
            self.high.evaluate(row),
        )

    def bind(self, env: Env) -> RowFn:
        operand = self.operand.bind(env)
        low, high = self.low.bind(env), self.high.bind(env)
        return lambda i: _between(operand(i), low(i), high(i))

    def columns(self) -> List[str]:
        return self.operand.columns() + self.low.columns() + self.high.columns()

    def sql(self) -> str:
        return f"({self.operand.sql()} BETWEEN {self.low.sql()} AND {self.high.sql()})"


def _between(value: Any, low: Any, high: Any) -> Any:
    if value is None or low is None or high is None:
        return None
    return low <= value <= high


class Like(Expression):
    """SQL LIKE with ``%`` and ``_`` wildcards."""

    def __init__(self, operand: Expression, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = self._compile(pattern)

    @staticmethod
    def _compile(pattern: str):
        import re

        out = []
        for char in pattern:
            if char == "%":
                out.append(".*")
            elif char == "_":
                out.append(".")
            else:
                out.append(re.escape(char))
        return re.compile("^" + "".join(out) + "$", re.DOTALL)

    def evaluate(self, row: Row) -> Any:
        return self.match(self.operand.evaluate(row))

    def bind(self, env: Env) -> RowFn:
        operand, match = self.operand.bind(env), self.match
        return lambda i: match(operand(i))

    def match(self, value: Any) -> Any:
        """The LIKE result for one operand value (NULL stays NULL)."""
        if value is None:
            return None
        matched = bool(self._regex.match(str(value)))
        return not matched if self.negated else matched

    def columns(self) -> List[str]:
        return self.operand.columns()

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        escaped = self.pattern.replace("'", "''")
        return f"({self.operand.sql()} {keyword} '{escaped}')"


def _builtin_hash(*values: Any) -> int:
    return vertica_hash(*values)


_BUILTINS: Dict[str, Callable[..., Any]] = {
    "HASH": _builtin_hash,
    "ABS": _null_if_any_null(abs),
    "MOD": _null_if_any_null(_mod),
    "LENGTH": _null_if_any_null(lambda s: len(str(s))),
    "UPPER": _null_if_any_null(lambda s: str(s).upper()),
    "LOWER": _null_if_any_null(lambda s: str(s).lower()),
    "FLOOR": _null_if_any_null(lambda x: math.floor(x)),
    "CEIL": _null_if_any_null(lambda x: math.ceil(x)),
    "SQRT": _null_if_any_null(lambda x: math.sqrt(x)),
    "COALESCE": lambda *args: next((a for a in args if a is not None), None),
}


class FunctionCall(Expression):
    """A scalar function call.

    ``SYNTHETIC_HASH()`` is special-cased: it hashes the entire row (in
    column-name order), giving views and unsegmented tables a deterministic
    pseudo-segmentation for parallel V2S loads.
    """

    def __init__(self, name: str, args: Sequence[Expression]):
        self.name = name.upper()
        self.args = list(args)
        if self.name != "SYNTHETIC_HASH" and self.name not in _BUILTINS:
            raise SqlError(f"unknown function {name!r}")

    def evaluate(self, row: Row) -> Any:
        if self.name == "SYNTHETIC_HASH":
            values = [row[key] for key in sorted(row)]
            return vertica_hash(*values) if values else 0
        return self.call([arg.evaluate(row) for arg in self.args])

    def bind(self, env: Env) -> RowFn:
        if self.name == "SYNTHETIC_HASH":
            columns = [env[key] for key in sorted(env)]
            if not columns:
                return lambda i: 0
            return lambda i: vertica_hash(*[column[i] for column in columns])
        args, call = [arg.bind(env) for arg in self.args], self.call
        return lambda i: call([arg(i) for arg in args])

    def call(self, values: List[Any]) -> Any:
        """Apply the builtin to evaluated argument values."""
        try:
            return _BUILTINS[self.name](*values)
        except (TypeError, ValueError) as exc:
            raise SqlError(f"error in {self.name}(): {exc}") from exc

    def columns(self) -> List[str]:
        out: List[str] = []
        for arg in self.args:
            out.extend(arg.columns())
        return out

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


def predicate_holds(expression: Optional[Expression], row: Row) -> bool:
    """WHERE semantics: keep the row only when the predicate is True."""
    if expression is None:
        return True
    return expression.evaluate(row) is True
