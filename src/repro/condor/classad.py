"""A ClassAd expression language: lexer, parser, and evaluator.

HTCondor's matchmaking rests on ClassAds: each job and each machine is a
set of named attributes whose values are literals or expressions, and
matching evaluates each side's ``Requirements`` expression in the context
of the *pair* of ads (§II-D). This module implements the subset of the
language the paper's integration exercises:

* literals: integers, floats, double-quoted strings, ``true``/``false``,
  ``undefined``, ``error``;
* attribute references, optionally scoped: ``MY.Memory``, ``TARGET.Name``;
* arithmetic ``+ - * /``, comparisons ``== != < <= > >=``, boolean
  ``&& || !``, unary minus, parentheses, ternary ``?:``;
* the meta-equality operators ``=?=`` (is) and ``=!=`` (isnt), which never
  yield ``undefined``;
* a small builtin function library.

Evaluation follows ClassAd three-valued logic: ``undefined`` propagates
through strict operators, while ``&&``/``||`` short-circuit around it
(``False && undefined -> False``; ``True || undefined -> True``).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional, Union


class ClassAdError(Exception):
    """Syntax or evaluation error in a ClassAd expression."""


class _Marker:
    """Singleton sentinels for the UNDEFINED / ERROR values."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __bool__(self) -> bool:
        raise ClassAdError(f"{self.name} has no boolean value")


#: The ClassAd ``undefined`` value (missing attribute, undefined operand).
UNDEFINED = _Marker("UNDEFINED")
#: The ClassAd ``error`` value (type errors, division by zero).
ERROR = _Marker("ERROR")


class _MissingType:
    """Sentinel returned by :meth:`ClassAd.raw` for an absent attribute.

    Distinct from UNDEFINED: an attribute can be *present* with the
    literal value ``undefined``, and unscoped lookup treats the two
    differently only in that both fall through to the target ad — the
    compiled evaluator needs to tell them apart from real values either
    way, and identity checks against this sentinel are cheaper than
    exception handling.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"


MISSING = _MissingType()

Value = Union[int, float, str, bool, _Marker]

#: Route ``ClassAd.evaluate`` through compiled closures (see
#: :mod:`repro.condor.compile`). Disabled, every evaluation walks the
#: interpreted AST exactly as before the compiler existed — the
#: matchmaking benchmark uses this to measure its baseline, and the
#: equivalence property tests compare the two modes directly.
_COMPILE_ENABLED = True
#: ``compile.compile_expr``, bound on first use: that module imports this one.
_compile_expr = None


def set_compilation(enabled: bool) -> None:
    """Globally enable/disable the compiled evaluation path."""
    global _COMPILE_ENABLED
    _COMPILE_ENABLED = bool(enabled)


def compilation_enabled() -> bool:
    return _COMPILE_ENABLED


def _evaluator(expr: Expr) -> Callable[[EvalContext], Value]:
    """What evaluating ``expr`` calls with its context: the compiled
    closure (one lookup in the compiler's memo), or with compilation off,
    or for a literal, the interpreter's own ``Expr.evaluate``."""
    global _compile_expr
    if not _COMPILE_ENABLED or type(expr) is Literal:
        return expr.evaluate
    if _compile_expr is None:
        from .compile import compile_expr

        _compile_expr = compile_expr
    return _compile_expr(expr)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>=\?=|=!=|==|!=|<=|>=|&&|\|\||[-+*/<>!?:(),.])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"true", "false", "undefined", "error", "my", "target"}


def tokenize(text: str) -> list[tuple[str, str]]:
    """Split ``text`` into (kind, lexeme) tokens; raises on junk."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ClassAdError(f"unexpected character {text[pos]!r} at {pos}")
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        if kind == "ws":
            continue
        tokens.append((kind, match.group()))
    tokens.append(("end", ""))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class of expression nodes."""

    def evaluate(self, ctx: "EvalContext") -> Value:
        raise NotImplementedError


class Literal(Expr):
    def __init__(self, value: Value) -> None:
        self.value = value

    def evaluate(self, ctx: "EvalContext") -> Value:
        return self.value

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class AttrRef(Expr):
    """An attribute reference; ``scope`` is None, "my" or "target"."""

    def __init__(self, name: str, scope: Optional[str] = None) -> None:
        self.name = name
        self.scope = scope

    def evaluate(self, ctx: "EvalContext") -> Value:
        return ctx.lookup(self.name, self.scope)

    def __repr__(self) -> str:
        prefix = f"{self.scope}." if self.scope else ""
        return f"AttrRef({prefix}{self.name})"


class UnaryOp(Expr):
    def __init__(self, op: str, operand: Expr) -> None:
        self.op = op
        self.operand = operand

    def evaluate(self, ctx: "EvalContext") -> Value:
        value = self.operand.evaluate(ctx)
        if value is ERROR:
            return ERROR
        if value is UNDEFINED:
            return UNDEFINED
        if self.op == "-":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return ERROR
            return -value
        if self.op == "!":
            if not isinstance(value, bool):
                return ERROR
            return not value
        raise ClassAdError(f"unknown unary operator {self.op!r}")


class BinaryOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, ctx: "EvalContext") -> Value:
        op = self.op
        if op in ("&&", "||"):
            return self._evaluate_logical(ctx)
        if op in ("=?=", "=!="):
            left = self.left.evaluate(ctx)
            right = self.right.evaluate(ctx)
            same = _meta_equal(left, right)
            return same if op == "=?=" else not same

        left = self.left.evaluate(ctx)
        right = self.right.evaluate(ctx)
        if left is ERROR or right is ERROR:
            return ERROR
        if left is UNDEFINED or right is UNDEFINED:
            return UNDEFINED
        if op in ("+", "-", "*", "/"):
            return self._arith(op, left, right)
        return self._compare(op, left, right)

    def _evaluate_logical(self, ctx: "EvalContext") -> Value:
        left = self.left.evaluate(ctx)
        if left is ERROR:
            return ERROR
        # Short-circuit around definite outcomes.
        if isinstance(left, bool):
            if self.op == "&&" and left is False:
                return False
            if self.op == "||" and left is True:
                return True
        elif left is not UNDEFINED:
            return ERROR  # non-boolean operand to a logical operator
        right = self.right.evaluate(ctx)
        if right is ERROR:
            return ERROR
        if isinstance(right, bool):
            if self.op == "&&" and right is False:
                return False
            if self.op == "||" and right is True:
                return True
        elif right is not UNDEFINED:
            return ERROR
        if left is UNDEFINED or right is UNDEFINED:
            return UNDEFINED
        assert isinstance(left, bool) and isinstance(right, bool)
        return (left and right) if self.op == "&&" else (left or right)

    @staticmethod
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

    @staticmethod
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


class Ternary(Expr):
    def __init__(self, cond: Expr, then: Expr, other: Expr) -> None:
        self.cond = cond
        self.then = then
        self.other = other

    def evaluate(self, ctx: "EvalContext") -> Value:
        cond = self.cond.evaluate(ctx)
        if cond is ERROR or cond is UNDEFINED:
            return cond
        if not isinstance(cond, bool):
            return ERROR
        return self.then.evaluate(ctx) if cond else self.other.evaluate(ctx)


class FuncCall(Expr):
    def __init__(self, name: str, args: list[Expr]) -> None:
        self.name = name.lower()
        self.args = args

    def evaluate(self, ctx: "EvalContext") -> Value:
        func = _BUILTINS.get(self.name)
        if func is None:
            return ERROR
        values = [arg.evaluate(ctx) for arg in self.args]
        if any(v is ERROR for v in values):
            return ERROR
        try:
            return func(values)
        except ClassAdError:
            return ERROR


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
    import math

    return int(math.floor(_need_number(value)))


def _builtin_ceiling(args: list[Value]) -> Value:
    (value,) = args
    if value is UNDEFINED:
        return UNDEFINED
    import math

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


# ---------------------------------------------------------------------------
# Parser (precedence climbing)
# ---------------------------------------------------------------------------

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "=?=": 3,
    "=!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
}


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, lexeme: str) -> None:
        kind, text = self.advance()
        if text != lexeme:
            raise ClassAdError(f"expected {lexeme!r}, found {text or 'end'!r}")

    def parse(self) -> Expr:
        expr = self.parse_ternary()
        kind, text = self.peek()
        if kind != "end":
            raise ClassAdError(f"trailing input at {text!r}")
        return expr

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary(1)
        kind, text = self.peek()
        if text == "?":
            self.advance()
            then = self.parse_ternary()
            self.expect(":")
            other = self.parse_ternary()
            return Ternary(cond, then, other)
        return cond

    def parse_binary(self, min_prec: int) -> Expr:
        left = self.parse_unary()
        while True:
            kind, text = self.peek()
            prec = _PRECEDENCE.get(text)
            if kind != "op" or prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            left = BinaryOp(text, left, right)

    def parse_unary(self) -> Expr:
        kind, text = self.peek()
        if text in ("-", "!"):
            self.advance()
            return UnaryOp(text, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        kind, text = self.advance()
        if kind == "int":
            return Literal(int(text))
        if kind == "float":
            return Literal(float(text))
        if kind == "string":
            return Literal(_unescape(text[1:-1]))
        if kind == "name":
            lowered = text.lower()
            if lowered == "true":
                return Literal(True)
            if lowered == "false":
                return Literal(False)
            if lowered == "undefined":
                return Literal(UNDEFINED)
            if lowered == "error":
                return Literal(ERROR)
            if lowered in ("my", "target") and self.peek()[1] == ".":
                self.advance()  # consume '.'
                nkind, ntext = self.advance()
                if nkind != "name":
                    raise ClassAdError(f"attribute name expected after {text}.")
                return AttrRef(ntext, scope=lowered)
            if self.peek()[1] == "(":
                self.advance()  # consume '('
                args: list[Expr] = []
                if self.peek()[1] != ")":
                    args.append(self.parse_ternary())
                    while self.peek()[1] == ",":
                        self.advance()
                        args.append(self.parse_ternary())
                self.expect(")")
                return FuncCall(text, args)
            return AttrRef(text)
        if text == "(":
            expr = self.parse_ternary()
            self.expect(")")
            return expr
        raise ClassAdError(f"unexpected token {text or 'end'!r}")


def _unescape(body: str) -> str:
    return body.replace('\\"', '"').replace("\\\\", "\\")


#: Memoized ASTs keyed by source text. Expression trees are immutable
#: after parsing (``ClassAd.copy`` already shares them between ads), so
#: one AST can safely back every occurrence of the same source string —
#: and scheduler-driven qedit traffic repeats a handful of strings
#: (parking expressions, per-node pins) tens of thousands of times.
_PARSE_CACHE: dict[str, Expr] = {}
#: Cache cap: qedit strings are drawn from a small fixed vocabulary, so
#: eviction should be rare; it bounds memory if someone parses unbounded
#: distinct inputs. Eviction is LRU (hits refresh recency), so the hot
#: vocabulary survives a stream of one-off strings instead of being
#: wiped wholesale by a clear-all.
_PARSE_CACHE_LIMIT = 4096

#: LRU evictions from the parse memo since process start.
parse_cache_evictions = 0


def parse(text: str) -> Expr:
    """Parse a ClassAd expression string into an AST (memoized, LRU)."""
    global parse_cache_evictions
    expr = _PARSE_CACHE.get(text)
    if expr is None:
        expr = _Parser(tokenize(text)).parse()
        if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.pop(next(iter(_PARSE_CACHE)))
            parse_cache_evictions += 1
        _PARSE_CACHE[text] = expr
    else:
        # Dict order is recency order: re-append the hit entry.
        del _PARSE_CACHE[text]
        _PARSE_CACHE[text] = expr
    return expr


# ---------------------------------------------------------------------------
# Ads and evaluation context
# ---------------------------------------------------------------------------


class EvalContext:
    """Name resolution for evaluation: (my ad, optional target ad)."""

    __slots__ = ("my", "target", "_depth")

    def __init__(self, my: "ClassAd", target: Optional["ClassAd"] = None) -> None:
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

    def _from(self, ad: "ClassAd", name: str) -> Value:
        expr = ad.get_expr(name)
        if expr is None:
            return UNDEFINED
        return expr.evaluate(self)

    def _from_other(self, ad: "ClassAd", name: str) -> Value:
        # Attribute expressions on the other ad evaluate with roles swapped.
        expr = ad.get_expr(name)
        if expr is None:
            return UNDEFINED
        swapped = EvalContext(ad, self.my)
        swapped._depth = self._depth
        return expr.evaluate(swapped)


class ClassAd:
    """A set of named attributes; values are literals or expressions.

    Attribute names are case-insensitive, as in HTCondor.
    """

    def __init__(self, attrs: Optional[dict[str, Any]] = None) -> None:
        self._attrs: dict[str, Expr] = {}
        self._display: dict[str, str] = {}
        if attrs:
            for name, value in attrs.items():
                self[name] = value

    # -- mapping interface ---------------------------------------------------

    def __setitem__(self, name: str, value: Any) -> None:
        key = name.lower()
        self._display[key] = name
        if isinstance(value, Expr):
            self._attrs[key] = value
        elif isinstance(value, str):
            # Strings are stored as string literals; to store an
            # expression use set_expr (mirrors condor_qedit semantics).
            self._attrs[key] = Literal(value)
        elif isinstance(value, bool) or isinstance(value, (int, float)):
            self._attrs[key] = Literal(value)
        elif value is UNDEFINED or value is ERROR:
            self._attrs[key] = Literal(value)
        else:
            raise TypeError(f"unsupported attribute value {value!r}")

    def set_expr(self, name: str, expression: str) -> None:
        """Set an attribute to a parsed expression (``condor_qedit`` style)."""
        key = name.lower()
        self._display[key] = name
        self._attrs[key] = parse(expression)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._attrs

    def __delitem__(self, name: str) -> None:
        del self._attrs[name.lower()]
        del self._display[name.lower()]

    def get_expr(self, name: str) -> Optional[Expr]:
        return self._attrs.get(name.lower())

    def raw(self, key: str) -> Any:
        """Low-level read for the compiled evaluator.

        ``key`` must already be lowercase. Returns the literal value for
        literal-valued attributes, the :class:`Expr` for
        expression-valued ones (the caller falls back to the interpreted
        lookup, which owns the circularity guard and role-swap rules),
        or :data:`MISSING` when the attribute is absent.
        """
        expr = self._attrs.get(key)
        if expr is None:
            return MISSING
        if type(expr) is Literal:
            return expr.value
        return expr

    def keys(self) -> list[str]:
        return [self._display[k] for k in self._attrs]

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, name: str, target: Optional["ClassAd"] = None) -> Value:
        """Evaluate attribute ``name`` against an optional target ad.

        Routes through the closure compiler (:mod:`repro.condor.compile`)
        unless :func:`set_compilation` disabled it. Compiled closures are
        memoized per AST node, and each call pays one memo lookup and one
        fresh :class:`EvalContext`; matchmaking one ad against many goes
        through :func:`matcher`, which pays them once per side instead.
        ``set_expr`` (condor_qedit) and requeue's ``base_requirements``
        restore both *replace* the stored Expr, so a rewritten attribute
        always compiles (or cache-hits) on its new tree — stale closures
        are impossible by construction.
        """
        expr = self._attrs.get(name.lower())
        if expr is None:
            return UNDEFINED
        if _COMPILE_ENABLED and type(expr) is Literal:
            # No context needed: a literal evaluates to itself.
            return expr.value
        return _evaluator(expr)(EvalContext(self, target))

    def __getitem__(self, name: str) -> Value:
        return self.evaluate(name)

    def copy(self) -> "ClassAd":
        dup = ClassAd()
        dup._attrs = dict(self._attrs)
        dup._display = dict(self._display)
        return dup

    def __repr__(self) -> str:
        inner = ", ".join(self.keys())
        return f"<ClassAd [{inner}]>"


def _never(right: ClassAd) -> bool:
    return False


def matcher(left: ClassAd) -> Callable[[ClassAd], bool]:
    """Symmetric matchmaking of ``left`` against one ad after another.

    The returned predicate answers what ``left.evaluate("Requirements",
    right) is True and right.evaluate("Requirements", left) is True``
    would, ``left`` first: a missing Requirements on either side is no
    match, and a literal one is its value. It looks ``left``'s
    Requirements up once, and the right side's once per run of
    consecutive ads sharing one Requirements Expr (every machine ad
    shares one), and re-points one :class:`EvalContext` per side at each
    ad instead of allocating two per probe. The compilation mode is read
    when the matcher is made; ``left`` must not change while it is used.
    """
    left_expr = left._attrs.get("requirements")
    if left_expr is None:
        return _never
    left_fn = _evaluator(left_expr)
    # Each probe re-points left_ctx.target and right_ctx.my at the ad.
    left_ctx = EvalContext(left)
    right_ctx = EvalContext(left, left)
    right_expr = right_fn = None

    def match(right: ClassAd) -> bool:
        nonlocal right_expr, right_fn
        left_ctx.target = right
        if left_fn(left_ctx) is not True:
            return False
        expr = right._attrs.get("requirements")
        if expr is None:
            return False
        if expr is not right_expr:
            right_expr = expr
            right_fn = _evaluator(expr)
        right_ctx.my = right
        return right_fn(right_ctx) is True

    return match


def symmetric_match(left: ClassAd, right: ClassAd) -> bool:
    """Condor matchmaking: both ads' Requirements must evaluate to True."""
    return matcher(left)(right)


def rank(ad: ClassAd, candidate: ClassAd) -> float:
    """Evaluate ``ad``'s Rank against ``candidate`` (0.0 when undefined)."""
    value = ad.evaluate("Rank", candidate)
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    return 0.0
