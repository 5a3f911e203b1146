"""Unit tests for the ClassAd closure compiler and Requirements analysis.

The hypothesis equivalence sweep lives in
``test_condor_classad_properties.py``; these tests pin down the exact
semantics the compiler must preserve (three-valued logic, short-circuit,
C-style division, case-insensitive strings, circularity guard), the pin
extraction rules, and the caching/invalidation contract. The reference
each semantic case is checked against is the tree-walking oracle in
``classad_oracle.py``.
"""

import pytest

from classad_oracle import Context, interpret, walk
from repro.condor import ClassAd, parse
from repro.condor.classad import ERROR, MISSING, UNDEFINED, EvalContext, Literal
from repro.condor import compile as compile_module
from repro.condor.compile import (
    cache_info,
    compile_expr,
    requirements_plan,
)
from repro.condor.submit import parse_classad_text

_TARGET = ClassAd({"Memory": 8192, "Name": "slot1@n0", "Threads": 240,
                   "Busy": False})

#: A job ad in the classic text format whose Requirements reads an
#: expression-valued attribute.
_SUBMITTED_AD = """
PhiBase = 1500
RequestPhiMemory = MY.PhiBase * 2
Requirements = MY.RequestPhiMemory <= TARGET.Memory
"""


def _interpreted(text, my=None, target=_TARGET):
    return walk(parse(text), Context(my or ClassAd(), target))


def _compiled(text, my=None, target=_TARGET):
    return compile_expr(parse(text))(EvalContext(my or ClassAd(), target))


def _norm(value):
    if value is UNDEFINED:
        return "UNDEF"
    if value is ERROR:
        return "ERR"
    return value


class TestCompiledSemantics:
    @pytest.mark.parametrize(
        "text",
        [
            # three-valued logic and short-circuit
            "false && undefined",
            "undefined && false",
            "true || undefined",
            "undefined || true",
            "undefined && true",
            "undefined || false",
            "1 && true",
            "undefined && 1",
            "undefined || 2",
            # strict operators propagate markers
            "undefined + 1",
            "1 - undefined",
            "-undefined",
            "!undefined",
            "!3",
            # arithmetic edge cases
            "3 / 0",
            "3.0 / 0",
            "7 / 2",
            "-7 / 2",
            "true + 1",
            '"a" + "b"',
            '"a" + 1',
            # comparisons: case-insensitive strings, bools aren't numbers
            '"ABC" == "abc"',
            '"abc" < "ABD"',
            "true == 1",
            "true == true",
            "2 == 2.0",
            '1 < "2"',
            # meta-equality never yields UNDEFINED
            "undefined =?= undefined",
            "error =?= error",
            "undefined =!= 1",
            '"A" =?= "a"',
            "1 =?= true",
            # ternary
            "undefined ? 1 : 2",
            "3 ? 1 : 2",
            "(1 < 2) ? 10 : 20",
            # builtins and unknown functions
            "floor(3.7)",
            "isUndefined(Missing)",
            "toLower(5)",
            "bogus(3 / 0)",
            # attribute references against the target ad
            "Memory / Threads",
            "TARGET.Memory + 1",
            "MY.Memory + 1",
            "TARGET.Name == \"SLOT1@N0\"",
            "Missing == 1",
        ],
    )
    def test_matches_interpreter(self, text):
        assert _norm(_compiled(text)) == _norm(_interpreted(text))

    def test_unscoped_undefined_my_attr_falls_through_to_target(self):
        # The my ad *defines* the attribute as literally undefined; the
        # unscoped lookup must still fall through to the target's value.
        my = ClassAd()
        my["Memory"] = UNDEFINED
        assert _compiled("Memory", my=my) == _interpreted("Memory", my=my) == 8192
        # So must it when the my ad's attribute is an expression that
        # yields UNDEFINED.
        my.set_expr("Memory", "MY.Missing + 1")
        assert _compiled("Memory", my=my) == _interpreted("Memory", my=my) == 8192

    def test_my_scope_does_not_fall_through(self):
        my = ClassAd()
        my["Memory"] = UNDEFINED
        assert _compiled("MY.Memory", my=my) is UNDEFINED

    def test_expression_valued_attribute_compiles_once(self):
        my = ClassAd()
        my.set_expr("Derived", "TARGET.Memory / 2")
        assert _compiled("Derived", my=my) == 4096
        # An ad as the classic text format carries it: RequestPhiMemory is
        # an expression, read from Requirements.
        ad = parse_classad_text(_SUBMITTED_AD)
        attr = ad.get_expr("RequestPhiMemory")
        assert not isinstance(attr, Literal)
        misses, hits = [], []
        for _ in range(3):
            before = cache_info()
            assert ad.evaluate("Requirements", _TARGET) is True
            after = cache_info()
            misses.append(after["misses"] - before["misses"])
            hits.append(after["hits"] - before["hits"])
        # The first evaluation compiles both trees (unless an earlier test
        # parsed the same text); after it, each evaluation is two memo
        # hits, Requirements and RequestPhiMemory, and no miss.
        assert id(attr) in compile_module._CACHE
        assert misses[1:] == [0, 0]
        assert hits[1:] == [2, 2]
        assert ad.evaluate("Requirements", _TARGET) == interpret(
            ad, "Requirements", _TARGET
        )

    def test_circular_attributes_hit_depth_guard(self):
        my = ClassAd()
        my.set_expr("A", "B")
        my.set_expr("B", "A")
        assert my.evaluate("A") is ERROR
        assert interpret(my, "A") is ERROR

    @pytest.mark.parametrize("evaluate", [ClassAd.evaluate, interpret],
                             ids=["compiled", "oracle"])
    @pytest.mark.parametrize("links", [31, 32, 33, 34])
    def test_depth_guard_boundary(self, evaluate, links):
        # X reads L1, and L1 .. L<links> are expressions that each read
        # the next attribute; the last one reads a literal. 32
        # expression-valued links evaluate, 33 are circular as far as
        # the guard can tell.
        one = ClassAd()
        one.set_expr("X", "L1")
        for i in range(1, links + 1):
            one.set_expr(f"L{i}", f"L{i + 1}")
        one[f"L{links + 1}"] = 7
        # The same chain across two ads, each link reading the other ad:
        # every step swaps roles.
        ads = (ClassAd(), ClassAd())
        ads[0].set_expr("X", "TARGET.L1")
        for i in range(1, links + 1):
            ads[i % 2].set_expr(f"L{i}", f"TARGET.L{i + 1}")
        ads[(links + 1) % 2][f"L{links + 1}"] = 5
        if links <= 32:
            assert evaluate(one, "X", None) == 7
            assert evaluate(ads[0], "X", ads[1]) == 5
        else:
            assert evaluate(one, "X", None) is ERROR
            assert evaluate(ads[0], "X", ads[1]) is ERROR

    def test_no_target_means_target_refs_undefined(self):
        assert _compiled("TARGET.Memory", target=None) is UNDEFINED

    def test_evaluate_literal_fast_path(self):
        ad = ClassAd({"X": 7})
        assert ad.evaluate("X") == 7
        assert ad["X"] == 7


class TestConstantFolding:
    def test_constant_expression_folds_to_literal_closure(self):
        fn = compile_expr(parse("(2 * 3 + 1) < 10"))
        assert fn(EvalContext(ClassAd())) is True

    def test_folding_preserves_error(self):
        fn = compile_expr(parse("1 / 0 > 2"))
        assert fn(EvalContext(ClassAd())) is ERROR

    def test_decisive_constant_left_short_circuits(self):
        # false && <attr> folds to False without touching the attr.
        fn = compile_expr(parse("false && Missing"))
        assert fn(EvalContext(ClassAd())) is False
        fn = compile_expr(parse("true || Missing"))
        assert fn(EvalContext(ClassAd())) is True


class TestRequirementsPlan:
    def test_park_expression_never_matches(self):
        assert requirements_plan(parse("false")).never_matches

    def test_constant_not_true_never_matches(self):
        assert requirements_plan(parse("2 > 3")).never_matches
        assert requirements_plan(parse("1 / 0")).never_matches
        assert requirements_plan(parse("42")).never_matches

    def test_constant_true_matches(self):
        assert not requirements_plan(parse("true")).never_matches

    def test_general_expression_is_not_static(self):
        plan = requirements_plan(parse("TARGET.FreeSlots >= 1"))
        assert not plan.never_matches
        assert plan.pin_name is None

    @pytest.mark.parametrize(
        "text",
        [
            'TARGET.Name == "slot1@n3"',
            '"slot1@n3" == TARGET.Name',
            'TARGET.Name == "slot1@n3" && TARGET.FreeSlots >= 1',
            'TARGET.FreeSlots >= 1 && TARGET.Name == "slot1@n3"',
            'A && (B && TARGET.Name == "slot1@n3")',
            'TARGET.Name == "SLOT1@N3"',  # lowered: compare is case-insensitive
        ],
    )
    def test_pin_extracted(self, text):
        assert requirements_plan(parse(text)).pin_name == "slot1@n3"

    @pytest.mark.parametrize(
        "text",
        [
            'Name == "slot1@n3"',          # unscoped: MY could define Name
            'MY.Name == "slot1@n3"',
            'TARGET.Name != "slot1@n3"',
            'TARGET.Name == 3',
            'TARGET.Name == "a" || TARGET.FreeSlots >= 1',  # disjunction
            'TARGET.Machine == "n3"',
            'TARGET.Name =?= "slot1@n3"',
        ],
    )
    def test_pin_not_extracted(self, text):
        assert requirements_plan(parse(text)).pin_name is None

    def test_scheduler_emitted_pin_shape(self):
        from repro.condor import pin_requirements

        plan = requirements_plan(parse(pin_requirements("node7")))
        assert plan.pin_name == "slot1@node7"
        assert not plan.never_matches


class TestCaching:
    def test_same_source_shares_one_closure(self):
        # parse() memoizes ASTs per source string, and compile memoizes
        # per AST, so equal strings compile exactly once.
        a = compile_expr(parse("Memory > 4096 && Threads < 300"))
        b = compile_expr(parse("Memory > 4096 && Threads < 300"))
        assert a is b

    def test_cache_counts_hits_and_misses(self):
        before = cache_info()
        compile_expr(parse("Threads * 1234 + 9"))
        compile_expr(parse("Threads * 1234 + 9"))
        after = cache_info()
        assert after["misses"] > before["misses"]
        assert after["hits"] > before["hits"]

    def test_qedit_style_replacement_recompiles(self):
        ad = ClassAd()
        ad.set_expr("Requirements", "TARGET.FreeSlots >= 1")
        first = ad.evaluate("Requirements", _TARGET)
        assert first is UNDEFINED  # _TARGET advertises no FreeSlots
        ad.set_expr("Requirements", 'TARGET.Name == "slot1@n0"')
        assert ad.evaluate("Requirements", _TARGET) is True
        ad.set_expr("Requirements", "false")
        assert ad.evaluate("Requirements", _TARGET) is False
        # An expression-valued attribute that Requirements reads is
        # served its new tree after a qedit too.
        ad = parse_classad_text(_SUBMITTED_AD)
        assert ad.evaluate("Requirements", _TARGET) is True
        # qedit the attribute Requirements reads: 1500 * 8 MB > 8192 MB.
        ad.set_expr("RequestPhiMemory", "MY.PhiBase * 8")
        edited = ad.get_expr("RequestPhiMemory")
        assert id(edited) not in compile_module._CACHE
        assert ad.evaluate("Requirements", _TARGET) is False
        assert id(edited) in compile_module._CACHE

    def test_plan_follows_replaced_tree(self):
        ad = ClassAd()
        ad.set_expr("Requirements", 'TARGET.Name == "slot1@n1"')
        assert (
            requirements_plan(ad.get_expr("Requirements")).pin_name == "slot1@n1"
        )
        ad.set_expr("Requirements", "false")
        assert requirements_plan(ad.get_expr("Requirements")).never_matches


class TestRawProtocol:
    def test_raw_returns_literal_value(self):
        ad = ClassAd({"X": 5})
        assert ad.raw("x") == 5

    def test_raw_returns_expr_for_expressions(self):
        ad = ClassAd()
        ad.set_expr("X", "1 + Y")
        assert not isinstance(ad.raw("x"), (int, float))
        assert ad.raw("x") is not MISSING

    def test_raw_missing_sentinel(self):
        assert ClassAd().raw("nope") is MISSING

    def test_raw_distinguishes_missing_from_undefined(self):
        ad = ClassAd({"X": UNDEFINED})
        assert ad.raw("x") is UNDEFINED
        assert ad.raw("y") is MISSING

    def test_literal_fast_path_type_check_is_exact(self):
        # Stored bools must come back as bools (not ints) through raw.
        ad = ClassAd({"B": True})
        assert ad.raw("b") is True
        assert type(parse("true")) is Literal
