"""ClassAd expression → Python-closure compiler, plus Requirements analysis.

This is the one ClassAd evaluator. Negotiation evaluates the *same
handful* of expressions (the three submit-file Requirements shapes, the
machine-side Requirements, the scheduler's per-node pins and the parking
literal) millions of times per run, so this module compiles each
:class:`~repro.condor.classad.Expr` tree **once** into a closure:

* operator dispatch happens at compile time (one specialized closure per
  node instead of a ``self.op`` string test per evaluation);
* attribute references become direct dict reads through
  :meth:`ClassAd.raw`, with the full UNDEFINED / role-swap semantics; an
  expression-valued attribute compiles through the same memo and runs
  one level deeper, and past :data:`_MAX_DEPTH` levels every read is
  ERROR (the circularity guard);
* constant subtrees are folded at compile time (the parking expression
  ``false`` compiles to a single return);
* ``&&`` / ``||`` short-circuit with the three-valued UNDEFINED rules.

Closures are memoized per AST node. Because :func:`classad.parse` itself
memoizes ASTs per source string, this is equivalent to memoization per
canonical expression string — and because ``condor_qedit`` (and the
requeue path's ``base_requirements`` restore) *replace* the stored Expr
rather than mutating it, a rewritten attribute can never be served a
stale closure: the new Expr object simply misses the cache and compiles
fresh.

Every lookup in the memo is a hit or a miss on the active profiler and
re-inserts a hit entry (LRU), so callers hoist lookups off hot loops.
Each :meth:`ClassAd.evaluate` makes one. The negotiator's full scan goes
through :func:`classad.matcher`, which makes one for the job and one for
the Requirements every machine ad shares: two per scan, not two per
probed machine.

``tests/classad_oracle.py`` keeps a tree-walking reference evaluator.
The property tests in ``tests/test_condor_classad_properties.py`` check
that this module matches it: values *and* UNDEFINED/ERROR propagation.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Optional

from ..sim import profile as _profile
from .classad import (
    ERROR,
    UNDEFINED,
    AttrRef,
    BinaryOp,
    ClassAd,
    ClassAdError,
    EvalContext,
    Expr,
    FuncCall,
    Literal,
    MISSING,
    Ternary,
    UnaryOp,
    Value,
)

#: A compiled expression: call with an evaluation context, get a value.
CompiledExpr = Callable[[EvalContext], Value]

#: Closure cache keyed by AST node identity. Entries hold a strong
#: reference to the Expr so its id can never be recycled while cached.
#: Parse-memoized ASTs make this effectively a per-source-string cache;
#: the cap only matters if unbounded distinct expressions are compiled.
#: Eviction is LRU (hits refresh recency), so long-lived shared ASTs —
#: the machine Requirements, the parking literal — never get wiped by a
#: burst of one-off expressions the way the old clear-all did.
_CACHE: dict[int, tuple[Expr, CompiledExpr, bool]] = {}
_CACHE_LIMIT = 4096

#: Requirements analyses, cached with the same identity-keyed discipline.
_PLANS: dict[int, tuple[Expr, "RequirementsPlan"]] = {}

#: Process-wide closure-cache statistics (also mirrored into the active
#: :class:`~repro.sim.profile.SimProfiler`, which reports per-run).
cache_hits = 0
cache_misses = 0
#: LRU evictions across the closure and plan caches since process start.
cache_evictions = 0

_CMP_OPS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Context for folding constant subtrees (they contain no attribute
#: references, so the ads are never consulted).
_FOLD_CTX = EvalContext(ClassAd())


def compile_expr(expr: Expr) -> CompiledExpr:
    """Compile ``expr`` into a closure (memoized per AST node)."""
    return _compiled(expr)[0]


def _compiled(expr: Expr) -> tuple[CompiledExpr, bool]:
    global cache_hits, cache_misses, cache_evictions
    prof = _profile.ACTIVE
    key = id(expr)
    entry = _CACHE.get(key)
    if entry is not None:
        cache_hits += 1
        if prof is not None:
            prof.compile_hits += 1
        # Dict order is recency order: re-append the hit entry.
        del _CACHE[key]
        _CACHE[key] = entry
        return entry[1], entry[2]
    cache_misses += 1
    if prof is not None:
        prof.compile_misses += 1
    fn, const = _build(expr)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.pop(next(iter(_CACHE)))
        cache_evictions += 1
        if prof is not None:
            prof.compile_evictions += 1
    _CACHE[key] = (expr, fn, const)
    return fn, const


# ---------------------------------------------------------------------------
# Requirements analysis
# ---------------------------------------------------------------------------


class RequirementsPlan:
    """How the negotiator should route one job's Requirements.

    Attributes
    ----------
    fn:
        The compiled Requirements closure.
    never_matches:
        The expression is constant and does not evaluate to ``True``
        (the scheduler's parking literal ``false`` is the common case);
        matchmaking can be skipped outright.
    pin_name:
        When the expression is a conjunction containing
        ``TARGET.Name == "<literal>"``, the lowercased literal: only the
        machine advertising that name can possibly match, so the
        negotiator routes the job through the collector's name index
        instead of scanning every machine. ``None`` for general
        expressions (full-scan fallback).
    needs_free_slot:
        Whether the conjunction contains ``TARGET.FreeSlots >= 1``: then
        no machine without a free slot can match, which is what lets the
        negotiator's full scan visit only the free-slot machines.
    """

    __slots__ = ("fn", "never_matches", "pin_name", "needs_free_slot")

    def __init__(
        self,
        fn: CompiledExpr,
        never_matches: bool,
        pin_name: Optional[str],
        needs_free_slot: bool,
    ) -> None:
        self.fn = fn
        self.never_matches = never_matches
        self.pin_name = pin_name
        self.needs_free_slot = needs_free_slot

    def __repr__(self) -> str:
        return (
            f"<RequirementsPlan never_matches={self.never_matches} "
            f"pin={self.pin_name!r} needs_free_slot={self.needs_free_slot}>"
        )


def requirements_plan(expr: Expr) -> RequirementsPlan:
    """Analyze a Requirements expression (memoized per AST node, LRU)."""
    global cache_evictions
    key = id(expr)
    entry = _PLANS.get(key)
    if entry is not None:
        # Dict order is recency order: re-append the hit entry.
        del _PLANS[key]
        _PLANS[key] = entry
        return entry[1]
    fn, const = _compiled(expr)
    never = const and fn(_FOLD_CTX) is not True
    plan = RequirementsPlan(
        fn, never, _pin_literal(expr), _needs_free_slot(expr)
    )
    if len(_PLANS) >= _CACHE_LIMIT:
        _PLANS.pop(next(iter(_PLANS)))
        cache_evictions += 1
        prof = _profile.ACTIVE
        if prof is not None:
            prof.compile_evictions += 1
    _PLANS[key] = (expr, plan)
    return plan


def _pin_literal(expr: Expr) -> Optional[str]:
    """Extract the pin target from ``TARGET.Name == "<literal>"``.

    Walks the ``&&`` spine only: any conjunct evaluating to False forces
    the whole conjunction to not-True regardless of what the remaining
    conjuncts yield (``UNDEFINED && False`` is ``False``), so a machine
    whose Name differs from the literal can never match. Only
    TARGET-scoped references qualify — an unscoped ``Name`` would read
    the *job's* ad first, which cannot be decided statically.
    """
    if isinstance(expr, BinaryOp):
        if expr.op == "&&":
            return _pin_literal(expr.left) or _pin_literal(expr.right)
        if expr.op == "==":
            for ref, lit in (
                (expr.left, expr.right),
                (expr.right, expr.left),
            ):
                if (
                    isinstance(ref, AttrRef)
                    and ref.scope == "target"
                    and ref.name.lower() == "name"
                    and isinstance(lit, Literal)
                    and isinstance(lit.value, str)
                ):
                    # ClassAd string equality is case-insensitive; the
                    # collector's index is keyed lowercase to match.
                    return lit.value.lower()
    return None


def _needs_free_slot(expr: Expr) -> bool:
    """Whether the ``&&`` spine carries ``TARGET.FreeSlots >= <n>``, n >= 1.

    The same argument as :func:`_pin_literal`: that conjunct is False on
    a machine with no free slot, and so is the whole conjunction.
    """
    if isinstance(expr, BinaryOp):
        if expr.op == "&&":
            return _needs_free_slot(expr.left) or _needs_free_slot(expr.right)
        if expr.op == ">=":
            ref, lit = expr.left, expr.right
        elif expr.op == "<=":
            ref, lit = expr.right, expr.left
        else:
            return False
        return (
            isinstance(ref, AttrRef)
            and ref.scope == "target"
            and ref.name.lower() == "freeslots"
            and isinstance(lit, Literal)
            and type(lit.value) in (int, float)
            and lit.value >= 1
        )
    return False


# ---------------------------------------------------------------------------
# Compilation proper
# ---------------------------------------------------------------------------


def _build(expr: Expr) -> tuple[CompiledExpr, bool]:
    """Compile one node; returns (closure, is_constant)."""
    kind = type(expr)
    if kind is Literal:
        value = expr.value
        return (lambda ctx, _v=value: _v), True
    if kind is AttrRef:
        return _build_attr(expr), False
    if kind is UnaryOp:
        return _fold(_build_unary(expr))
    if kind is BinaryOp:
        if expr.op in ("&&", "||"):
            return _build_logical(expr)
        return _fold(_build_binary(expr))
    if kind is Ternary:
        return _fold(_build_ternary(expr))
    if kind is FuncCall:
        return _fold(_build_func(expr))
    raise ClassAdError(f"cannot compile node {expr!r}")


def _fold(built: tuple[CompiledExpr, bool]) -> tuple[CompiledExpr, bool]:
    """Evaluate a constant subtree once and return it as a literal."""
    fn, const = built
    if const:
        value = fn(_FOLD_CTX)
        return (lambda ctx, _v=value: _v), True
    return fn, False


#: Expression-valued attributes evaluate against their ads down to this
#: many levels of nesting; one level further every attribute read is
#: ERROR, which is where circular definitions end.
_MAX_DEPTH = 32


class _Exhausted:
    """Both ads of an expression past :data:`_MAX_DEPTH`: every read is
    ERROR."""

    __slots__ = ()

    def raw(self, key: str) -> Value:
        return ERROR


_EXHAUSTED = _Exhausted()
_EXHAUSTED_CTX = EvalContext(_EXHAUSTED, _EXHAUSTED, _MAX_DEPTH + 1)


def _nested(
    expr: Expr, depth: int, my: ClassAd, target: Optional[ClassAd]
) -> Value:
    """Evaluate ``my``'s expression-valued attribute ``expr`` against
    ``target``, one level below an expression at ``depth``."""
    fn = _compiled(expr)[0]
    if depth >= _MAX_DEPTH:
        return fn(_EXHAUSTED_CTX)
    return fn(EvalContext(my, target, depth + 1))


def _build_attr(expr: AttrRef) -> CompiledExpr:
    key = expr.name.lower()
    scope = expr.scope
    if scope == "my":

        def run_my(ctx: EvalContext, _key=key) -> Value:
            value = ctx.my.raw(_key)
            if value is MISSING:
                return UNDEFINED
            if isinstance(value, Expr):
                return _nested(value, ctx._depth, ctx.my, ctx.target)
            return value

        return run_my
    if scope == "target":

        def run_target(ctx: EvalContext, _key=key) -> Value:
            target = ctx.target
            if target is None:
                return UNDEFINED
            value = target.raw(_key)
            if value is MISSING:
                return UNDEFINED
            if isinstance(value, Expr):
                # The other ad's expressions evaluate with roles swapped.
                return _nested(value, ctx._depth, target, ctx.my)
            return value

        return run_target

    def run(ctx: EvalContext, _key=key) -> Value:
        # Unscoped: my ad first; UNDEFINED (missing, literally undefined,
        # or what an expression yields) falls through to the target ad.
        value = ctx.my.raw(_key)
        if value is not MISSING and value is not UNDEFINED:
            if not isinstance(value, Expr):
                return value
            value = _nested(value, ctx._depth, ctx.my, ctx.target)
            if value is not UNDEFINED:
                return value
        target = ctx.target
        if target is None:
            return UNDEFINED
        value = target.raw(_key)
        if value is MISSING:
            return UNDEFINED
        if isinstance(value, Expr):
            return _nested(value, ctx._depth, target, ctx.my)
        return value

    return run


def _build_unary(expr: UnaryOp) -> tuple[CompiledExpr, bool]:
    fn, const = _compiled(expr.operand)
    if expr.op == "-":

        def run_neg(ctx: EvalContext, _f=fn) -> Value:
            value = _f(ctx)
            if value is ERROR:
                return ERROR
            if value is UNDEFINED:
                return UNDEFINED
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return ERROR
            return -value

        return run_neg, const
    if expr.op == "!":

        def run_not(ctx: EvalContext, _f=fn) -> Value:
            value = _f(ctx)
            if value is ERROR:
                return ERROR
            if value is UNDEFINED:
                return UNDEFINED
            if not isinstance(value, bool):
                return ERROR
            return not value

        return run_not, const
    raise ClassAdError(f"unknown unary operator {expr.op!r}")


def _build_logical(expr: BinaryOp) -> tuple[CompiledExpr, bool]:
    lf, lconst = _compiled(expr.left)
    rf, rconst = _compiled(expr.right)
    conj = expr.op == "&&"
    if lconst:
        left = lf(_FOLD_CTX)
        # Decisive constant left: the right side is never evaluated,
        # so folding is exact.
        if conj and left is False:
            return (lambda ctx: False), True
        if not conj and left is True:
            return (lambda ctx: True), True
    if conj:

        def run_and(ctx: EvalContext, _lf=lf, _rf=rf) -> Value:
            left = _lf(ctx)
            if left is False:
                return False
            if left is not True:
                if left is not UNDEFINED:
                    return ERROR  # ERROR or a non-boolean operand
                # left is UNDEFINED: the right side still decides False.
            right = _rf(ctx)
            if right is False:
                return False
            if right is not True:
                if right is not UNDEFINED:
                    return ERROR
            if left is UNDEFINED or right is UNDEFINED:
                return UNDEFINED
            return True

        return _fold((run_and, lconst and rconst))

    def run_or(ctx: EvalContext, _lf=lf, _rf=rf) -> Value:
        left = _lf(ctx)
        if left is True:
            return True
        if left is not False:
            if left is not UNDEFINED:
                return ERROR
        right = _rf(ctx)
        if right is True:
            return True
        if right is not False:
            if right is not UNDEFINED:
                return ERROR
        if left is UNDEFINED or right is UNDEFINED:
            return UNDEFINED
        return False

    return _fold((run_or, lconst and rconst))


def _build_binary(expr: BinaryOp) -> tuple[CompiledExpr, bool]:
    op = expr.op
    lf, lconst = _compiled(expr.left)
    rf, rconst = _compiled(expr.right)
    const = lconst and rconst
    if op in ("=?=", "=!="):
        same = op == "=?="

        def run_meta(ctx: EvalContext, _lf=lf, _rf=rf, _same=same) -> Value:
            result = _meta_equal(_lf(ctx), _rf(ctx))
            return result if _same else not result

        return run_meta, const
    if op in ("+", "-", "*", "/"):

        def run_arith(ctx: EvalContext, _lf=lf, _rf=rf, _op=op) -> Value:
            left = _lf(ctx)
            right = _rf(ctx)
            if left is ERROR or right is ERROR:
                return ERROR
            if left is UNDEFINED or right is UNDEFINED:
                return UNDEFINED
            return _arith(_op, left, right)

        return run_arith, const
    cmp = _CMP_OPS.get(op)
    if cmp is None:
        raise ClassAdError(f"unknown binary operator {op!r}")

    def run_cmp(ctx: EvalContext, _lf=lf, _rf=rf, _op=op, _cmp=cmp) -> Value:
        left = _lf(ctx)
        right = _rf(ctx)
        # Fast paths guard with *exact* types so markers, bools, and any
        # exotic numeric subclass fall through to the general helper,
        # keeping semantics bit-identical.
        lt = type(left)
        rt = type(right)
        if (lt is int or lt is float) and (rt is int or rt is float):
            return _cmp(left, right)
        if lt is str and rt is str:
            return _cmp(left.lower(), right.lower())
        if left is ERROR or right is ERROR:
            return ERROR
        if left is UNDEFINED or right is UNDEFINED:
            return UNDEFINED
        return _compare(_op, left, right)

    return run_cmp, const


def _build_ternary(expr: Ternary) -> tuple[CompiledExpr, bool]:
    cf, cconst = _compiled(expr.cond)
    tf, tconst = _compiled(expr.then)
    of, oconst = _compiled(expr.other)

    def run(ctx: EvalContext, _cf=cf, _tf=tf, _of=of) -> Value:
        cond = _cf(ctx)
        if cond is ERROR or cond is UNDEFINED:
            return cond
        if not isinstance(cond, bool):
            return ERROR
        return _tf(ctx) if cond else _of(ctx)

    return run, cconst and tconst and oconst


def _build_func(expr: FuncCall) -> tuple[CompiledExpr, bool]:
    func = _BUILTINS.get(expr.name)
    if func is None:
        # An unknown function is ERROR without evaluating the arguments;
        # evaluation is side-effect free, so folding to a constant is
        # exact.
        return (lambda ctx: ERROR), True
    built = [_compiled(arg) for arg in expr.args]
    arg_fns = [fn for fn, _ in built]
    const = all(c for _, c in built)

    def run(ctx: EvalContext, _fns=arg_fns, _func=func) -> Value:
        values = [fn(ctx) for fn in _fns]
        for value in values:
            if value is ERROR:
                return ERROR
        try:
            return _func(values)
        except ClassAdError:
            return ERROR

    return run, const


# ---------------------------------------------------------------------------
# Operator semantics
# ---------------------------------------------------------------------------


def _arith(op: str, left: Value, right: Value) -> Value:
    if isinstance(left, bool) or isinstance(right, bool):
        return ERROR
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        return ERROR
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        return ERROR
    result = left / right
    if isinstance(left, int) and isinstance(right, int):
        return int(left / right)  # C-style integer division
    return result

def _compare(op: str, left: Value, right: Value) -> Value:
    if isinstance(left, str) and isinstance(right, str):
        lv, rv = left.lower(), right.lower()  # ClassAd strings: case-insensitive
    elif isinstance(left, bool) and isinstance(right, bool):
        lv, rv = left, right
    elif (
        isinstance(left, (int, float))
        and isinstance(right, (int, float))
        and not isinstance(left, bool)
        and not isinstance(right, bool)
    ):
        lv, rv = left, right
    else:
        return ERROR
    if op == "==":
        return lv == rv
    if op == "!=":
        return lv != rv
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    if op == ">=":
        return lv >= rv
    raise ClassAdError(f"unknown comparison {op!r}")


def _meta_equal(left: Value, right: Value) -> bool:
    """=?= semantics: identical types and values; UNDEFINED =?= UNDEFINED."""
    if left is UNDEFINED or right is UNDEFINED:
        return left is right
    if left is ERROR or right is ERROR:
        return left is right
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, str) and isinstance(right, str):
        return left.lower() == right.lower()
    if type(left) is type(right) or (
        isinstance(left, (int, float)) and isinstance(right, (int, float))
    ):
        return left == right
    return False


# -- builtin functions -------------------------------------------------------


def _need_number(value: Value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ClassAdError("number expected")
    return value


def _builtin_floor(args: list[Value]) -> Value:
    (value,) = args
    if value is UNDEFINED:
        return UNDEFINED
    return int(math.floor(_need_number(value)))


def _builtin_ceiling(args: list[Value]) -> Value:
    (value,) = args
    if value is UNDEFINED:
        return UNDEFINED
    return int(math.ceil(_need_number(value)))


def _builtin_min(args: list[Value]) -> Value:
    if any(v is UNDEFINED for v in args):
        return UNDEFINED
    return min(_need_number(v) for v in args)


def _builtin_max(args: list[Value]) -> Value:
    if any(v is UNDEFINED for v in args):
        return UNDEFINED
    return max(_need_number(v) for v in args)


def _builtin_strcat(args: list[Value]) -> Value:
    parts = []
    for value in args:
        if value is UNDEFINED:
            return UNDEFINED
        if isinstance(value, bool):
            parts.append("true" if value else "false")
        elif isinstance(value, (int, float, str)):
            parts.append(str(value))
        else:
            raise ClassAdError("bad strcat argument")
    return "".join(parts)


def _builtin_tolower(args: list[Value]) -> Value:
    (value,) = args
    if value is UNDEFINED:
        return UNDEFINED
    if not isinstance(value, str):
        raise ClassAdError("string expected")
    return value.lower()


def _builtin_toupper(args: list[Value]) -> Value:
    (value,) = args
    if value is UNDEFINED:
        return UNDEFINED
    if not isinstance(value, str):
        raise ClassAdError("string expected")
    return value.upper()


def _builtin_string_list_member(args: list[Value]) -> Value:
    item, lst = args
    if item is UNDEFINED or lst is UNDEFINED:
        return UNDEFINED
    if not isinstance(item, str) or not isinstance(lst, str):
        raise ClassAdError("strings expected")
    members = [m.strip().lower() for m in lst.split(",")]
    return item.lower() in members


def _builtin_is_undefined(args: list[Value]) -> Value:
    (value,) = args
    return value is UNDEFINED


_BUILTINS: dict[str, Callable[[list[Value]], Value]] = {
    "floor": _builtin_floor,
    "ceiling": _builtin_ceiling,
    "min": _builtin_min,
    "max": _builtin_max,
    "strcat": _builtin_strcat,
    "tolower": _builtin_tolower,
    "toupper": _builtin_toupper,
    "stringlistmember": _builtin_string_list_member,
    "isundefined": _builtin_is_undefined,
}


def cache_info() -> dict[str, int]:
    """Closure-cache statistics (for the profiler and tests)."""
    return {
        "hits": cache_hits,
        "misses": cache_misses,
        "evictions": cache_evictions,
        "size": len(_CACHE),
        "plans": len(_PLANS),
    }

