"""Reference ClassAd evaluator for the tests: a tree-walker.

The system evaluates expressions with the closures
:mod:`repro.condor.compile` builds. This module walks the same ASTs node
by node, dispatching on each node's type, and resolves every attribute
through :meth:`ClassAd.get_expr` with its own circularity guard. The
equivalence tests and the matchmaking bench's pre-PR replica compare the
compiler against it. The two share only the operator helpers: the
arithmetic, the comparisons, meta-equality and the builtin functions.
"""

from __future__ import annotations

from typing import Optional

from repro.condor.classad import (
    ERROR,
    UNDEFINED,
    AttrRef,
    BinaryOp,
    ClassAd,
    ClassAdError,
    Expr,
    FuncCall,
    Literal,
    Ternary,
    UnaryOp,
    Value,
)
from repro.condor.compile import _BUILTINS, _arith, _compare, _meta_equal


def interpret(
    ad: ClassAd, name: str, target: Optional[ClassAd] = None
) -> Value:
    """Evaluate attribute ``name`` of ``ad`` against an optional target."""
    expr = ad.get_expr(name)
    if expr is None:
        return UNDEFINED
    return walk(expr, Context(ad, target))


def walk(expr: Expr, ctx: "Context") -> Value:
    """Evaluate one node in ``ctx``."""
    return _WALKERS[type(expr)](expr, ctx)


class Context:
    """Name resolution for evaluation: (my ad, optional target ad)."""

    __slots__ = ("my", "target", "_depth")

    def __init__(self, my: ClassAd, target: Optional[ClassAd] = None) -> None:
        self.my = my
        self.target = target
        self._depth = 0

    def lookup(self, name: str, scope: Optional[str]) -> Value:
        if self._depth > 32:
            return ERROR  # circular attribute definitions
        self._depth += 1
        try:
            if scope == "my":
                return self._from(self.my, name)
            if scope == "target":
                if self.target is None:
                    return UNDEFINED
                return self._from_other(self.target, name)
            value = self._from(self.my, name)
            if value is UNDEFINED and self.target is not None:
                value = self._from_other(self.target, name)
            return value
        finally:
            self._depth -= 1

    def _from(self, ad: ClassAd, name: str) -> Value:
        expr = ad.get_expr(name)
        if expr is None:
            return UNDEFINED
        return walk(expr, self)

    def _from_other(self, ad: ClassAd, name: str) -> Value:
        # Attribute expressions on the other ad evaluate with roles swapped.
        expr = ad.get_expr(name)
        if expr is None:
            return UNDEFINED
        swapped = Context(ad, self.my)
        swapped._depth = self._depth
        return walk(expr, swapped)


def _literal(expr: Literal, ctx: Context) -> Value:
    return expr.value


def _attr_ref(expr: AttrRef, ctx: Context) -> Value:
    return ctx.lookup(expr.name, expr.scope)


def _unary(expr: UnaryOp, ctx: Context) -> Value:
    value = walk(expr.operand, ctx)
    if value is ERROR:
        return ERROR
    if value is UNDEFINED:
        return UNDEFINED
    if expr.op == "-":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return ERROR
        return -value
    if expr.op == "!":
        if not isinstance(value, bool):
            return ERROR
        return not value
    raise ClassAdError(f"unknown unary operator {expr.op!r}")


def _binary(expr: BinaryOp, ctx: Context) -> Value:
    op = expr.op
    if op in ("&&", "||"):
        return _logical(expr, ctx)
    if op in ("=?=", "=!="):
        left = walk(expr.left, ctx)
        right = walk(expr.right, ctx)
        same = _meta_equal(left, right)
        return same if op == "=?=" else not same

    left = walk(expr.left, ctx)
    right = walk(expr.right, ctx)
    if left is ERROR or right is ERROR:
        return ERROR
    if left is UNDEFINED or right is UNDEFINED:
        return UNDEFINED
    if op in ("+", "-", "*", "/"):
        return _arith(op, left, right)
    return _compare(op, left, right)


def _logical(expr: BinaryOp, ctx: Context) -> Value:
    left = walk(expr.left, ctx)
    if left is ERROR:
        return ERROR
    # Short-circuit around definite outcomes.
    if isinstance(left, bool):
        if expr.op == "&&" and left is False:
            return False
        if expr.op == "||" and left is True:
            return True
    elif left is not UNDEFINED:
        return ERROR  # non-boolean operand to a logical operator
    right = walk(expr.right, ctx)
    if right is ERROR:
        return ERROR
    if isinstance(right, bool):
        if expr.op == "&&" and right is False:
            return False
        if expr.op == "||" and right is True:
            return True
    elif right is not UNDEFINED:
        return ERROR
    if left is UNDEFINED or right is UNDEFINED:
        return UNDEFINED
    assert isinstance(left, bool) and isinstance(right, bool)
    return (left and right) if expr.op == "&&" else (left or right)


def _ternary(expr: Ternary, ctx: Context) -> Value:
    cond = walk(expr.cond, ctx)
    if cond is ERROR or cond is UNDEFINED:
        return cond
    if not isinstance(cond, bool):
        return ERROR
    return walk(expr.then, ctx) if cond else walk(expr.other, ctx)


def _func_call(expr: FuncCall, ctx: Context) -> Value:
    func = _BUILTINS.get(expr.name)
    if func is None:
        return ERROR
    values = [walk(arg, ctx) for arg in expr.args]
    if any(v is ERROR for v in values):
        return ERROR
    try:
        return func(values)
    except ClassAdError:
        return ERROR


_WALKERS = {
    Literal: _literal,
    AttrRef: _attr_ref,
    UnaryOp: _unary,
    BinaryOp: _binary,
    Ternary: _ternary,
    FuncCall: _func_call,
}
