"""Expressions compiled once per statement into closures over column lists.

An operator compiles each of its expressions when it starts, against
the exact value classes of the base-table columns below it
(``int``/``float``/``bool``/``str``, from the catalog).  A compiled
expression then evaluates a whole batch — an ``env`` of column name →
value list — in one of two ways:

- **column-at-a-time** when the optimizer's type-aware
  ``_never_raises`` proves the expression cannot raise and every column
  it reads is present: each node maps over whole lists (C-speed
  ``map``/``itemgetter`` wherever NULLs allow).  With no error possible,
  evaluation order is unobservable, so skipping rows an earlier AND
  conjunct already rejected is safe too.
- **row-major** otherwise, through :meth:`Expression.bind` closures, one
  row at a time in the legacy order — so a typed ``SqlError`` surfaces
  from the same row and sub-expression it always did.

NULL semantics, Kleene AND/OR and every error message live in
:mod:`repro.vertica.expr`; the column-at-a-time forms below reproduce
them for the never-raising shapes only.
"""

from __future__ import annotations

import operator
from itertools import compress
from typing import Any, Callable, Dict, List, Optional

from repro.vertica.expr import (
    Between,
    BinaryOp,
    ColumnRef,
    Env,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    RowFn,
    UnaryOp,
    _kleene_and,
    _kleene_or,
    _null_if_any_null,
)
from repro.vertica.plan import logical
from repro.vertica.plan.optimizer import (
    _EQUALITY_OPS,
    _RANGE_OPS,
    _join_scans,
    _never_raises,
    _scan_type_classes,
    _split_and,
)
from repro.vertica.storage import take

#: whole-batch evaluator: (env, row count) -> one value per row
Vector = Callable[[Env, int], List[Any]]

_OPERATORS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def column_classes(node: logical.LogicalNode) -> Dict[str, str]:
    """Exact value class of every column a node's input batches carry.

    Known only over base-table scans joined together (through filters);
    views, system tables and computed columns stay unknown, which keeps
    their expressions row-major.
    """
    while isinstance(node, logical.Filter):
        node = node.child
    scans = _join_scans(node)
    return _scan_type_classes(scans, exact=True) if scans else {}


class CompiledExpr:
    """One expression, compiled for column-at-a-time or row-major use."""

    __slots__ = ("expression", "refs", "_vector", "_conjuncts")

    def __init__(self, expression: Expression, classes: Dict[str, str]):
        self.expression = expression
        self.refs = sorted(set(expression.columns()))
        self._vector: Optional[Vector] = None
        #: (vector, refs, boolean) per AND conjunct, for selection
        self._conjuncts: List[Any] = []
        if _never_raises(expression, classes, exact=True):
            self._vector = _vector(expression)
            self._conjuncts = [
                (_vector(part), sorted(set(part.columns())), _boolean(part))
                for part in _split_and(expression)
            ]

    def columnar(self, env: Env) -> bool:
        """True when this batch can be evaluated column-at-a-time."""
        return self._vector is not None and all(r in env for r in self.refs)

    def bind(self, env: Env) -> RowFn:
        """Row-major form: see :meth:`Expression.bind`."""
        return self.expression.bind(env)

    def values(self, env: Env, n: int) -> List[Any]:
        """The value on each of the batch's ``n`` rows, column-at-a-time
        (only once :meth:`columnar` has said yes for this batch)."""
        assert self._vector is not None
        return self._vector(env, n)

    def select(self, env: Env, n: int) -> List[int]:
        """Positions whose value is strictly True (WHERE), in row order."""
        if not self.columnar(env):
            row = self.expression.bind(env)
            return [i for i in range(n) if row(i) is True]
        positions: Optional[List[int]] = None
        for vector, refs, boolean in self._conjuncts:
            if positions is None:
                positions = _true_positions(vector(env, n), boolean)
            else:
                sub = {ref: take(env[ref], positions) for ref in refs}
                keep = _true_positions(vector(sub, len(positions)), boolean)
                positions = take(positions, keep)
            if not positions:
                break
        return positions if positions is not None else list(range(n))


def _true_positions(values: List[Any], boolean: bool) -> List[int]:
    if boolean:  # only True/False/None: truthiness is "is True"
        return list(compress(range(len(values)), values))
    return [i for i, value in enumerate(values) if value is True]


def _boolean(expr: Expression) -> bool:
    """True when ``expr`` only ever yields True, False or None."""
    if isinstance(expr, Literal):
        return expr.value is None or isinstance(expr.value, bool)
    if isinstance(expr, BinaryOp):
        return expr.op in ("AND", "OR", *_EQUALITY_OPS, *_RANGE_OPS)
    if isinstance(expr, UnaryOp):
        return expr.op == "NOT"
    return isinstance(expr, (IsNull, InList, Between, Like))


def _vector(expr: Expression) -> Vector:
    """Column-at-a-time evaluator for one never-raising expression."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda env, n: [value] * n
    if isinstance(expr, ColumnRef):
        name = expr.name
        return lambda env, n: env[name]  # shared, never mutated
    if isinstance(expr, BinaryOp):
        return _binary_vector(expr)
    if isinstance(expr, UnaryOp):  # NOT: the only never-raising unary
        operand = _vector(expr.operand)
        return lambda env, n: [
            None if v is None else not v for v in operand(env, n)
        ]
    if isinstance(expr, IsNull):
        operand, negated = _vector(expr.operand), expr.negated
        if negated:
            return lambda env, n: [v is not None for v in operand(env, n)]
        return lambda env, n: [v is None for v in operand(env, n)]
    if isinstance(expr, Like):
        operand, match = _vector(expr.operand), expr.match
        return lambda env, n: list(map(match, operand(env, n)))
    if isinstance(expr, InList):
        return _in_list_vector(expr)
    if isinstance(expr, Between):
        return _between_vector(expr)
    raise AssertionError(f"no column-at-a-time form for {expr!r}")


def _binary_vector(expr: BinaryOp) -> Vector:
    left, right = _vector(expr.left), _vector(expr.right)
    op = expr.op
    if op in ("AND", "OR"):
        kleene = _kleene_and if op == "AND" else _kleene_or
        if not (_boolean(expr.left) and _boolean(expr.right)):
            return lambda env, n: list(map(kleene, left(env, n), right(env, n)))
        # Bool-only sides: plain &/| is Kleene logic, and a NULL operand
        # makes &/| raise TypeError instead of scanning for it up front.
        fast = operator.and_ if op == "AND" else operator.or_
    else:
        fast = _OPERATORS[op]
        kleene = _null_if_any_null(fast)
        if op in _EQUALITY_OPS:  # NULL = x is False, not an error: scan first
            def equality(env: Env, n: int) -> List[Any]:
                a, b = left(env, n), right(env, n)
                if None not in a and None not in b:
                    return list(map(fast, a, b))
                return list(map(kleene, a, b))

            return equality

    # Never-raising operands of one class: TypeError means a NULL operand.
    def binary(env: Env, n: int) -> List[Any]:
        a, b = left(env, n), right(env, n)
        try:
            return list(map(fast, a, b))
        except TypeError:
            return list(map(kleene, a, b))

    return binary


def _in_list_vector(expr: InList) -> Vector:
    operand, negated = _vector(expr.operand), expr.negated
    options = [option.value for option in expr.options]  # all literals
    present = [value for value in options if value is not None]
    # Not found: NULL when any option is NULL, else the negation flag.
    missing = None if len(present) < len(options) else negated

    def in_list(env: Env, n: int) -> List[Any]:
        return [
            None if v is None
            else (not negated if v in present else missing)
            for v in operand(env, n)
        ]

    return in_list


def _between_vector(expr: Between) -> Vector:
    operand = _vector(expr.operand)
    low, high = _vector(expr.low), _vector(expr.high)

    def between(env: Env, n: int) -> List[Any]:
        return [
            None if v is None or lo is None or hi is None else lo <= v <= hi
            for v, lo, hi in zip(operand(env, n), low(env, n), high(env, n))
        ]

    return between
