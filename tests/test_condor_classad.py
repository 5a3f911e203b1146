"""Unit tests for the ClassAd expression language."""

import pytest

from repro.condor import compile as compile_mod
from repro.condor.classad import (
    ERROR,
    UNDEFINED,
    ClassAd,
    ClassAdError,
    Literal,
    matcher,
    parse,
    rank,
    symmetric_match,
    tokenize,
)


def ev(expression, my=None, target=None):
    ad = ClassAd(my or {})
    ad.set_expr("X", expression)
    return ad.evaluate("X", ClassAd(target) if target is not None else None)


class TestLexer:
    def test_tokens(self):
        kinds = [k for k, _ in tokenize('1 2.5 "hi" Name == && =?= ?')]
        assert kinds == ["int", "float", "string", "name", "op", "op", "op", "op", "end"]

    def test_bad_character(self):
        with pytest.raises(ClassAdError):
            tokenize("a @ b")

    def test_scientific_notation(self):
        assert ev("1e3") == 1000.0
        assert ev("2.5e-1") == 0.25


class TestLiteralsAndArithmetic:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("42", 42),
            ("4.5", 4.5),
            ('"abc"', "abc"),
            ("true", True),
            ("false", False),
            ("1 + 2 * 3", 7),
            ("(1 + 2) * 3", 9),
            ("10 / 4", 2),  # integer division, C-style
            ("10.0 / 4", 2.5),
            ("-5 + 2", -3),
            ("7 - 10", -3),
            ('"a" + "b"', "ab"),
        ],
    )
    def test_evaluation(self, expr, expected):
        assert ev(expr) == expected

    def test_division_by_zero_is_error(self):
        assert ev("1 / 0") is ERROR

    def test_string_arith_is_error(self):
        assert ev('"a" * 3') is ERROR

    def test_bool_arith_is_error(self):
        assert ev("true + 1") is ERROR


class TestComparisons:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1 < 2", True),
            ("2 <= 2", True),
            ("3 > 4", False),
            ("3 >= 3", True),
            ("1 == 1.0", True),
            ("1 != 2", True),
            ('"Foo" == "foo"', True),  # case-insensitive strings
            ('"a" < "b"', True),
            ("true == true", True),
        ],
    )
    def test_comparisons(self, expr, expected):
        assert ev(expr) is expected

    def test_mixed_type_comparison_is_error(self):
        assert ev('1 == "1"') is ERROR


class TestThreeValuedLogic:
    def test_undefined_propagates_through_arith(self):
        assert ev("Missing + 1") is UNDEFINED

    def test_false_and_undefined_is_false(self):
        assert ev("false && Missing") is False
        assert ev("Missing && false") is False

    def test_true_or_undefined_is_true(self):
        assert ev("true || Missing") is True
        assert ev("Missing || true") is True

    def test_true_and_undefined_is_undefined(self):
        assert ev("true && Missing") is UNDEFINED

    def test_not_undefined_is_undefined(self):
        assert ev("!Missing") is UNDEFINED

    def test_meta_equality_handles_undefined(self):
        assert ev("Missing =?= undefined") is True
        assert ev("1 =?= undefined") is False
        assert ev("Missing =!= undefined") is False
        assert ev('1 =?= "1"') is False
        assert ev("1 =?= 1") is True

    def test_error_dominates(self):
        assert ev("(1/0) && true") is ERROR
        assert ev("(1/0) + 1") is ERROR

    def test_non_bool_logical_operand_is_error(self):
        assert ev("1 && true") is ERROR


class TestTernaryAndFunctions:
    def test_ternary(self):
        assert ev("1 < 2 ? 10 : 20") == 10
        assert ev("1 > 2 ? 10 : 20") == 20

    def test_ternary_undefined_condition(self):
        assert ev("Missing ? 1 : 2") is UNDEFINED

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("floor(2.7)", 2),
            ("ceiling(2.1)", 3),
            ("min(3, 1, 2)", 1),
            ("max(3, 1, 2)", 3),
            ('strcat("a", 1, "b")', "a1b"),
            ('toLower("ABC")', "abc"),
            ('toUpper("abc")', "ABC"),
            ('stringListMember("b", "a, b, c")', True),
            ('stringListMember("z", "a, b, c")', False),
            ("isUndefined(Missing)", True),
            ("isUndefined(1)", False),
        ],
    )
    def test_builtins(self, expr, expected):
        assert ev(expr) == expected

    def test_unknown_function_is_error(self):
        assert ev("nosuch(1)") is ERROR

    def test_bad_argument_is_error(self):
        assert ev('floor("a")') is ERROR


class TestParserErrors:
    @pytest.mark.parametrize("bad", ["1 +", "(1", "? :", "a b", "my.", "1 ? 2"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ClassAdError):
            parse(bad)


class TestAds:
    def test_attribute_case_insensitive(self):
        ad = ClassAd({"Memory": 8192})
        assert ad.evaluate("memory") == 8192
        assert ad.evaluate("MEMORY") == 8192
        assert "mEmOrY" in ad

    def test_missing_attribute_is_undefined(self):
        assert ClassAd().evaluate("nope") is UNDEFINED

    def test_attributes_reference_each_other(self):
        ad = ClassAd({"A": 2})
        ad.set_expr("B", "A * 10")
        assert ad.evaluate("B") == 20

    def test_circular_reference_is_error(self):
        ad = ClassAd()
        ad.set_expr("A", "B")
        ad.set_expr("B", "A")
        assert ad.evaluate("A") is ERROR

    def test_my_and_target_scoping(self):
        machine = ClassAd({"Memory": 8192, "Name": "slot1@node1"})
        job = ClassAd({"RequestMemory": 4000})
        job.set_expr("Fits", "MY.RequestMemory <= TARGET.Memory")
        assert job.evaluate("Fits", machine) is True

    def test_unqualified_falls_through_to_target(self):
        machine = ClassAd({"Memory": 8192})
        job = ClassAd()
        job.set_expr("X", "Memory > 1000")
        assert job.evaluate("X", machine) is True

    def test_target_attribute_evaluates_in_target_context(self):
        machine = ClassAd({"Total": 100})
        machine.set_expr("Free", "Total - 40")
        job = ClassAd()
        job.set_expr("X", "TARGET.Free")
        assert job.evaluate("X", machine) == 60

    def test_delete_and_keys(self):
        ad = ClassAd({"A": 1, "B": 2})
        del ad["a"]
        assert ad.keys() == ["B"]

    def test_copy_is_independent(self):
        ad = ClassAd({"A": 1})
        dup = ad.copy()
        dup["A"] = 2
        assert ad.evaluate("A") == 1
        assert dup.evaluate("A") == 2

    def test_unsupported_value_rejected(self):
        with pytest.raises(TypeError):
            ClassAd({"A": [1, 2, 3]})

    def test_string_stored_verbatim(self):
        ad = ClassAd({"Name": "slot1@node1"})
        assert ad.evaluate("Name") == "slot1@node1"


class TestMatchmaking:
    def _machine(self, memory=8192, free_devices=1):
        machine = ClassAd(
            {"Name": "slot1@n1", "PhiMemory": memory, "PhiDevicesFree": free_devices}
        )
        machine.set_expr("Requirements", "TARGET.RequestPhiMemory <= MY.PhiMemory")
        return machine

    def _job(self, memory=4000):
        job = ClassAd({"RequestPhiMemory": memory})
        job.set_expr(
            "Requirements",
            "TARGET.PhiDevicesFree >= 1 && MY.RequestPhiMemory <= TARGET.PhiMemory",
        )
        return job

    def test_mutual_match(self):
        assert symmetric_match(self._job(), self._machine())

    def test_job_rejects_machine(self):
        assert not symmetric_match(self._job(9000), self._machine())

    def test_machine_rejects_job(self):
        machine = self._machine()
        machine.set_expr("Requirements", "TARGET.RequestPhiMemory <= 1000")
        assert not symmetric_match(self._job(4000), machine)

    def test_undefined_requirements_do_not_match(self):
        assert not symmetric_match(ClassAd(), self._machine())

    def test_rank(self):
        job = ClassAd()
        job.set_expr("Rank", "TARGET.PhiDevicesFree * 10")
        assert rank(job, self._machine(free_devices=3)) == 30.0

    def test_rank_defaults_to_zero(self):
        assert rank(ClassAd(), self._machine()) == 0.0

    def test_pinning_requirement_matches_only_named_machine(self):
        # The paper's qedit integration: Name == "<slot>@<node>".
        job = self._job()
        job.set_expr("Requirements", 'TARGET.Name == "slot1@n1"')
        machine = self._machine()
        machine.set_expr("Requirements", "true")
        assert symmetric_match(job, machine)
        other = machine.copy()
        other["Name"] = "slot1@n2"
        assert not symmetric_match(job, other)

    def test_matcher_reads_missing_and_literal_requirements(self):
        machine = self._machine()
        assert matcher(ClassAd())(machine) is False
        job = self._job()
        job["Requirements"] = True
        assert matcher(job)(machine) is True
        job["Requirements"] = Literal(1)
        assert matcher(job)(machine) is False
        job = self._job()
        del machine["Requirements"]
        assert matcher(job)(machine) is False
        machine["Requirements"] = True
        assert matcher(job)(machine) is True

    def test_matcher_looks_each_shared_closure_up_once(self):
        job = self._job()
        machines = [self._machine(memory=m) for m in (1000, 8192, 3000, 9000)]
        shared = machines[0].get_expr("Requirements")
        for machine in machines:
            machine._attrs["requirements"] = shared
        matches = matcher(job)
        before = compile_mod.cache_hits + compile_mod.cache_misses
        verdicts = [matches(machine) for machine in machines]
        # The job's closure was looked up when the matcher was made; the
        # machines' shared closure is looked up at the first probe only.
        assert compile_mod.cache_hits + compile_mod.cache_misses == before + 1
        assert verdicts == [symmetric_match(job, m) for m in machines]
        assert verdicts == [False, True, False, True]
