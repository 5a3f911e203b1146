"""Property-based tests for the ClassAd language (hypothesis).

The evaluator must be *total*: whatever expression the fuzzer builds,
evaluation returns a value (possibly UNDEFINED/ERROR) and never raises.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classad_oracle import interpret
from repro.condor import ClassAd, parse
from repro.condor.classad import ERROR, UNDEFINED, Expr, Value
from repro.condor.submit import format_classad, parse_classad_text

# -- expression generators ----------------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=-1000, max_value=1000).map(str),
    st.floats(min_value=0.001, max_value=1000, allow_nan=False).map(
        lambda f: f"{f:.3f}"
    ),
)
_strings = st.text(
    alphabet="abcXYZ 09_", min_size=0, max_size=8
).map(lambda s: '"' + s + '"')
_names = st.sampled_from(["Memory", "Name", "Missing", "Threads", "Busy"])
_atoms = st.one_of(_numbers, _strings, _names,
                   st.sampled_from(["true", "false", "undefined"]))

_binops = st.sampled_from(
    ["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
     "=?=", "=!="]
)


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_atoms)
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        left = draw(expressions(depth=depth - 1))
        right = draw(expressions(depth=depth - 1))
        op = draw(_binops)
        return f"({left} {op} {right})"
    if kind == 1:
        inner = draw(expressions(depth=depth - 1))
        return f"(!{inner})" if draw(st.booleans()) else f"(-{inner})"
    if kind == 2:
        c = draw(expressions(depth=depth - 1))
        t = draw(expressions(depth=depth - 1))
        f = draw(expressions(depth=depth - 1))
        return f"({c} ? {t} : {f})"
    inner = draw(expressions(depth=depth - 1))
    fn = draw(st.sampled_from(["floor", "ceiling", "isUndefined", "toLower"]))
    return f"{fn}({inner})"


_CONTEXT = ClassAd({"Memory": 8192, "Name": "slot1@n0", "Threads": 240,
                    "Busy": False})

#: A nastier target for the compiled-vs-oracle sweep: attributes
#: that are expressions (role-swapped evaluation), literally undefined,
#: and self-referential (depth guard).
_EXPR_CONTEXT = ClassAd({"Name": "slot1@n0", "Busy": False})
_EXPR_CONTEXT.set_expr("Memory", "Threads * 34 + 32")
_EXPR_CONTEXT.set_expr("Threads", "240")
_EXPR_CONTEXT["Missing"] = UNDEFINED

_LOOP_MY = ClassAd()
_LOOP_MY.set_expr("Memory", "Memory + 1")  # circular: must yield ERROR


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_evaluator_is_total(text):
    """Parsing succeeds and evaluation never raises."""
    expr = parse(text)
    ad = ClassAd()
    ad.set_expr("X", text)
    value = ad.evaluate("X", _CONTEXT)
    assert isinstance(expr, Expr)
    _assert_classad_value(value)


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_evaluation_is_deterministic(text):
    ad = ClassAd()
    ad.set_expr("X", text)
    assert _norm(ad.evaluate("X", _CONTEXT)) == _norm(ad.evaluate("X", _CONTEXT))


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(["A", "B", "C", "D"]),
        st.one_of(
            st.integers(min_value=-100, max_value=100),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.booleans(),
            st.text(alphabet="xyz 12", max_size=6),
        ),
        max_size=4,
    )
)
def test_text_format_roundtrips_literal_ads(attrs):
    """format -> parse -> evaluate matches the original literals."""
    ad = ClassAd(attrs)
    dup = parse_classad_text(format_classad(ad))
    for name in attrs:
        assert dup.evaluate(name) == pytest.approx(ad.evaluate(name)) \
            if isinstance(attrs[name], float) \
            else dup.evaluate(name) == ad.evaluate(name)


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_compiled_evaluator_matches_interpreted(text):
    """The closure compiler agrees with the tree-walking oracle: same
    values AND same UNDEFINED/ERROR propagation."""
    ad = ClassAd()
    ad.set_expr("X", text)
    for target in (_CONTEXT, _EXPR_CONTEXT, None):
        expected = interpret(ad, "X", target)
        assert _norm(ad.evaluate("X", target)) == _norm(expected)


@settings(max_examples=150, deadline=None)
@given(expressions())
def test_compiled_matches_interpreted_with_expression_my_ad(text):
    """Unscoped references resolving to expression-valued (even circular)
    my-attributes compile and nest under the depth guard — still
    equivalent."""
    ad = _LOOP_MY.copy()
    ad.set_expr("X", text)
    expected = interpret(ad, "X", _CONTEXT)
    assert _norm(ad.evaluate("X", _CONTEXT)) == _norm(expected)


@settings(max_examples=150, deadline=None)
@given(expressions(), expressions())
def test_qedit_mid_run_swaps_compiled_closure(first, second):
    """Rewriting an attribute mid-run (condor_qedit) must never serve a
    stale closure: the post-edit value equals the oracle's evaluation of
    the new expression."""
    ad = ClassAd()
    ad.set_expr("X", first)
    ad.evaluate("X", _CONTEXT)  # populate the compile cache
    ad.set_expr("X", second)
    after = ad.evaluate("X", _CONTEXT)
    fresh = ClassAd()
    fresh.set_expr("X", second)
    assert _norm(after) == _norm(interpret(fresh, "X", _CONTEXT))


def _assert_classad_value(value: Value) -> None:
    assert (
        value is UNDEFINED
        or value is ERROR
        or isinstance(value, (bool, int, float, str))
    )


def _norm(value):
    if value is UNDEFINED:
        return "UNDEF"
    if value is ERROR:
        return "ERR"
    return value
