"""Regression vectors distilled from differential fuzzing against the real
reference library (tools/fuzz_spec.py + tools/refshim).  Every expectation
here was confirmed by running @hapi/joi v16.0.0-rc2 under node; the tests
re-assert them without needing node.
"""

from __future__ import annotations

import json

import pytest

import numpy as np
import pyarrow as pa

import joi_ray as jr
from joi_ray.engine import compile_schema


def _violations(schema, tbl, prefs=None):
    prefs = {"abort_early": False, **(prefs or {})}
    return compile_schema(schema, prefs=prefs).validate_table(tbl).violations.to_pandas()


def _codes(df, row=None):
    d = df if row is None else df[df.row == row]
    return list(zip(d["path"], d["code"]))


# ---------------------------------------------------------------- messages


def test_pattern_message_embeds_value_and_regex():
    # string/index.js:760: '"{{#label}}" with value "{[.]}" fails to match
    # the required pattern: {{#regex}}' — regex renders as a JS literal
    df = _violations(jr.object({"b": jr.string().pattern(r"^x")}), pa.table({"b": ["123"]}))
    assert df["message"][0] == '"b" with value "123" fails to match the required pattern: /^x/'


def test_pattern_message_per_item_value():
    s = jr.object({"a": jr.array().items(jr.string().pattern(r"\d"))})
    tbl = pa.table({"a": pa.array([["Hello World", "hello"]], type=pa.list_(pa.string()))})
    msgs = list(_violations(s, tbl)["message"])
    assert msgs == [
        '"a[0]" with value "Hello World" fails to match the required pattern: /\\d/',
        '"a[1]" with value "hello" fails to match the required pattern: /\\d/',
    ]


# ---------------------------------------------------------------- any.ref


def test_any_ref_on_undefined_ref_limit():
    # validator.js:281-293: a ref-resolved rule arg failing its assert
    # raises any.ref INSTEAD of the rule error
    s = jr.object({"a": jr.number(), "b": jr.number().max(jr.ref("a"))})
    tbl = pa.table({"a": pa.array([None, 3.0], type=pa.float64()), "b": [65536.0, 5.0]})
    df = _violations(s, tbl)
    assert _codes(df, 0) == [("b", "any.ref")]
    assert df[df.row == 0]["message"].iloc[0] == '"b" limit references "ref:a" which must be a number'
    assert _codes(df, 1) == [("b", "number.max")]


def test_any_ref_wrong_family_ref_limit():
    # a string column as a number limit fails typeof === 'number'
    s = jr.object({"a": jr.string(), "b": jr.number().min(jr.ref("a"))})
    tbl = pa.table({"a": ["abc"], "b": [1.0]})
    assert _codes(_violations(s, tbl), 0) == [("b", "any.ref")]


def test_any_ref_multiple_positive_number():
    # number.js:178-184: multiple's base must be a finite positive number
    s = jr.object({"a": jr.number(), "b": jr.number().multiple(jr.ref("a"))})
    tbl = pa.table({"a": pa.array([None, -2.0, 5.0], type=pa.float64()), "b": [10.0, 10.0, 10.0]})
    df = _violations(s, tbl)
    assert _codes(df, 0) == [("b", "any.ref")]
    assert _codes(df, 1) == [("b", "any.ref")]
    assert _codes(df, 2) == []
    assert "must be a positive number" in df[df.row == 0]["message"].iloc[0]


def test_errored_sibling_resolves_original_value():
    # object.js:125-140: result.value is written back ONLY on success, so a
    # required-missing key with a default still resolves undefined for later
    # sibling refs (verified: reference emits any.ref here, fuzz seed 20149)
    s = jr.object({
        "a": jr.number().min(30).default(1.0).required(),
        "b": jr.number().greater(jr.ref("a")),
    })
    tbl = pa.table({"a": pa.array([None, 50.0], type=pa.float64()), "b": pa.array([10.0, 60.0])})
    df = _violations(s, tbl)
    assert ("b", "any.ref") in _codes(df, 0)
    assert _codes(df, 1) == []


# ---------------------------------------------------------------- dates


def test_js_date_day_rollover():
    # V8 MakeDay rolls an out-of-range day forward: new Date('2019-02-30')
    # === 2019-03-02 (verified under node); month 13 stays Invalid
    import datetime

    s = jr.object({"a": jr.date()})
    tbl = pa.table({"a": ["2019-02-30", "2020-13-01", "2019-04-31"]})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(tbl)
    vals = res.value.column("a").to_pylist()
    assert vals[0] == datetime.datetime(2019, 3, 2)
    assert vals[1] is None
    assert vals[2] == datetime.datetime(2019, 5, 1)
    assert _codes(res.violations.to_pandas()) == [("a", "date.base")]


def test_iso_date_day_rollover():
    import datetime

    s = jr.object({"a": jr.date().iso()})
    tbl = pa.table({"a": ["2019-02-29", "2019-02-30T10:00:00Z"]})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(tbl)
    assert res.value.column("a").to_pylist() == [
        datetime.datetime(2019, 3, 1),
        datetime.datetime(2019, 3, 2, 10, 0),
    ]


# ---------------------------------------------------------------- valids


def test_valid_strict_type_families():
    # hoek deepEqual: 0 !== false and '1' !== 1 — a float valid value must
    # never match a boolean column through an Arrow cast
    s = jr.object({"c": jr.boolean(), "b": jr.string().min(2).when("c", is_=0.0, then=jr.string().forbidden())})
    tbl = pa.table({"c": [False], "b": ["x"]})
    assert _codes(_violations(s, tbl), 0) == [("b", "string.min")]


def test_valid_negative_zero_matches_zero():
    # JS ===: -0 equals 0 (Arrow's is_in hashes them apart — normalized)
    s = jr.object({"d": jr.number().valid(0.0)})
    tbl = pa.table({"d": [-0.0]})
    assert _codes(_violations(s, tbl), 0) == []


# ---------------------------------------------------------------- presence


def test_alternatives_presence_from_prefs():
    s = jr.object({"b": jr.alternatives().try_(jr.string(), jr.number())})
    tbl = pa.table({"b": pa.array([None], type=pa.string())})
    df = _violations(s, tbl, prefs={"presence": "required"})
    assert _codes(df, 0) == [("b", "any.required")]


# ---------------------------------------------------------------- arrays


def test_nonsparse_undefined_items_skip_item_schema():
    # array.js:154-164: undefined items error array.sparse and `continue` —
    # the (required) item schema never sees them
    s = jr.object({"a": jr.array().items(jr.number().required())})
    tbl = pa.table({"a": pa.array([[None, 5.0]], type=pa.list_(pa.float64()))})
    df = _violations(s, tbl)
    assert _codes(df, 0) == [("a", "array.sparse")]


def test_sparse_undefined_items_do_reach_item_schema():
    # with sparse(), undefined items flow through item validation
    # (verified under node: any.required + includesRequiredUnknowns)
    s = jr.object({"a": jr.array().sparse().items(jr.number().required())})
    tbl = pa.table({"a": pa.array([[None]], type=pa.list_(pa.float64()))})
    codes = [c for _, c in _codes(_violations(s, tbl), 0)]
    assert "any.required" in codes
    assert "array.includesRequiredUnknowns" in codes
    assert "array.sparse" not in codes


def test_converted_to_undefined_item_is_sparse_error():
    # array.js:286-292: an item that validates cleanly but converts to
    # undefined (empty('')) errors array.sparse — WITHOUT aborting early
    s = jr.object({"a": jr.array().items(jr.string().empty("").valid("ab", "abc123"))})
    tbl = pa.table({"a": pa.array([["ab", "", "zzz"]], type=pa.list_(pa.string()))})
    df = _violations(s, tbl, prefs={"abort_early": True})
    # set-compare: row order inside the table follows the repo's
    # deterministic (row, path, seq, item) convention, not joi's push order
    got = {(p, int(i), c) for p, i, c in zip(df["path"], df["item_index"], df["code"])}
    assert got == {("a", 1, "array.sparse"), ("a", 2, "any.only")}


# ---------------------------------------------------------------- deps


def test_dependency_sees_original_value_of_errored_key():
    # and(p,q): q='' with empty('')+required errors any.required, but the
    # object keeps q='' (original) — so the and() dependency counts it
    # PRESENT and does not fire (object.js:125-155)
    s = jr.object({
        "p": jr.number(),
        "q": jr.string().empty("").required(),
    }).and_("p", "q")
    tbl = pa.table({"p": [3.0], "q": [""]})
    df = _violations(s, tbl)
    assert _codes(df, 0) == [("q", "any.required")]


def test_dependency_fires_on_truly_missing_errored_key():
    s = jr.object({
        "p": jr.number(),
        "q": jr.string().required(),
    }).and_("p", "q")
    tbl = pa.table({"p": [3.0], "q": pa.array([None], type=pa.string())})
    codes = [c for _, c in _codes(_violations(s, tbl), 0)]
    assert "object.and" in codes and "any.required" in codes


# ---------------------------------------------------------------- abortEarly


def test_abort_early_keeps_first_error_only():
    s = jr.object({"a": jr.number().min(10), "b": jr.string().min(3)})
    tbl = pa.table({"a": [1.0], "b": ["x"]})
    df = _violations(s, tbl, prefs={"abort_early": True})
    assert _codes(df, 0) == [("a", "number.min")]


def test_base_error_aborts_rules():
    # validator.js:236-247: '' under string.min emits ONLY string.empty
    s = jr.object({"c": jr.string().min(3)})
    tbl = pa.table({"c": [""]})
    assert _codes(_violations(s, tbl), 0) == [("c", "string.empty")]


# ------------------------------------------------------- round-2 findings


def test_alternatives_match_not_types_for_pattern_base():
    # alternatives.js:79-86 destructures [type, code] = code.split('.') —
    # 'string.pattern.base' has code 'pattern', so mixed pattern failures
    # union into alternatives.match, NOT alternatives.types
    s = jr.object({"a": jr.alternatives().try_(
        jr.string().pattern(r"\d"),
        jr.string().min(1).pattern(r"^x"),
    )})
    tbl = pa.table({"a": ["abc"]})
    codes = [c for _, c in _codes(_violations(s, tbl), 0)]
    assert codes == ["alternatives.match"]


def test_alternatives_types_for_all_base():
    s = jr.object({"a": jr.alternatives().try_(jr.number(), jr.boolean())})
    tbl = pa.table({"a": ["zzz"]})
    df = _violations(s, tbl)
    assert [c for _, c in _codes(df, 0)] == ["alternatives.types"]
    assert json.loads(df["context"][0])["types"] == ["number", "boolean"]


def test_valids_set_dedups():
    # lib/values.js is a Set: valid(-1) twice (incl. via concat) keeps one;
    # 10 and 10.0 are the same JS number
    s = jr.object({"a": jr.number().valid(0.5, 10.0, -1.0).concat(jr.number().valid(-1.0, 1.0))})
    tbl = pa.table({"a": [8.0]})
    msg = _violations(s, tbl)["message"][0]
    assert msg == '"a" must be one of [0.5, 10, -1, 1]'


def test_insensitive_valid_match_rewrites_value():
    # validator.js:197-201: a valids match replaces the value with the
    # stored valid in convert mode — 'ABC' -> 'abc'
    s = jr.object({"a": jr.string().insensitive().valid("ab", "a", "abc")})
    tbl = pa.table({"a": ["ABC"]})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(tbl)
    assert res.value.column("a").to_pylist() == ["abc"]
    assert res.violations.num_rows == 0


def test_empty_check_trims_and_converts():
    # validator.js:162-163: the empty probe is TRIMMED when trim() is
    # enabled and matched under DEFAULT prefs even with convert:false
    s = jr.object({"a": jr.string().trim().valid("abc").empty("")})
    tbl = pa.table({"a": ["  "]})
    res = compile_schema(s, prefs={"abort_early": False, "convert": False}).validate_table(tbl)
    assert res.violations.num_rows == 0
    assert res.value.column("a").to_pylist() == [None]


def test_forbidden_missing_still_fills_default():
    # validator.js:172-174 -> finalize: forbidden + undefined returns
    # through finalize, which applies the default
    s = jr.object({"b": jr.number().max(-3).default(-1.0).forbidden()})
    tbl = pa.table({"b": pa.array([None], type=pa.string())})
    res = compile_schema(s, prefs={"abort_early": False, "convert": False}).validate_table(tbl)
    assert res.violations.num_rows == 0
    assert res.value.column("b").to_pylist() == [-1.0]


def test_when_condition_coerces_string_ref():
    # Joi.compile(0) is a TYPED number schema (compile.js:65-67), so the
    # is-condition coerces a sibling string '0' and matches
    s = jr.object({
        "a": jr.number().max(38).forbidden(),
        "b": jr.number().min(39).valid(10.0).when("a", is_=0.0, then=jr.number().integer()),
    })
    tbl = pa.table({"a": ["0"], "b": [-2.5]})
    codes = [c for p, c in _codes(_violations(s, tbl), 0) if p == "b"]
    assert "number.integer" in codes


def test_errored_item_keeps_original_for_unique():
    # array.js:286-297: value[i] is assigned only on success, so an
    # errored/empty-converted item keeps its original value and never
    # collides with a true undefined in unique()
    s = jr.object({"a": jr.array().items(jr.string().empty("").required()).unique()})
    tbl = pa.table({"a": pa.array([[None, "hello", ""]], type=pa.list_(pa.string()))})
    df = _violations(s, tbl, prefs={"presence": "required"})
    codes = [c for _, c in _codes(df, 0)]
    assert "array.unique" not in codes
    assert "array.sparse" in codes and "any.required" in codes


# --------------------------------------------------- rounds 3-4 findings


def test_topo_keeps_insertion_order():
    # @hapi/topo: b,c,d keep insertion order, a (after c) defers — with
    # abortEarly the FIRST error must come from b, not from the hoisted c
    s = jr.object({
        "a": jr.date().min(jr.ref("c")),
        "b": jr.string().valid("x1"),
        "c": jr.date(),
        "d": jr.string(),
    })
    tbl = pa.table({"a": ["2019-01-01"], "b": ["zz"], "c": ["not a date"], "d": ["ok"]})
    df = _violations(s, tbl, prefs={"abort_early": True})
    assert _codes(df, 0) == [("b", "any.only")]


def test_convert_false_rule_order_under_abort_early():
    # case rules validate in REGISTRATION order in the rules loop when
    # convert is off — pattern (registered first) wins the abort
    s = jr.object({"c": jr.string().pattern(r"[A-Z]{2}").uppercase()})
    tbl = pa.table({"c": ["xyzzy"]})
    df = _violations(s, tbl, prefs={"abort_early": True, "convert": False})
    assert [c for _, c in _codes(df, 0)] == ["string.pattern.base"]


def test_alternatives_adopt_branch_conversion():
    # alternatives.js:37-40: the matching branch's result is returned
    # verbatim — the number branch coerces '0' to 0.  (When DIFFERENT-type
    # branches match different rows, originals are kept — the documented
    # value_repr column limit.)
    s = jr.object({"a": jr.alternatives().try_(jr.number().max(5), jr.number().min(100))})
    tbl = pa.table({"a": ["0", "123"]})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(tbl)
    assert res.value.column("a").to_pylist() == [0.0, 123.0]
    assert res.violations.num_rows == 0


def test_ordered_slot_adopts_conversion():
    s = jr.object({"a": jr.array().ordered(jr.string().uppercase(), jr.string())})
    tbl = pa.table({"a": pa.array([["a", "b"]], type=pa.list_(pa.string()))})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(tbl)
    assert res.value.column("a").to_pylist() == [["A", "b"]]


def test_ordered_break_suppresses_later_sparse():
    # array.js:222-231: the first beyond-slots NON-undefined item raises
    # array.orderedLength (per-row pos) and BREAKs — later sparse checks
    # never run; undefined beyond-items sparse instead of orderedLength
    s = jr.object({"a": jr.array().ordered(jr.string())})
    tbl = pa.table({"a": pa.array([["x", "y", None], ["x", None]], type=pa.list_(pa.string()))})
    df = _violations(s, tbl)
    assert _codes(df, 0) == [("a", "array.orderedLength")]
    assert json.loads(df[df.row == 0]["context"].iloc[0])["pos"] == 1
    assert _codes(df, 1) == [("a", "array.sparse")]


def test_date_ref_arg_full_js_parse():
    # date.js internals.parse: numeric string '123' -> epoch 123 (valid),
    # '2019-02-30' rolls to Mar 2 (valid), 'hello' -> any.ref
    s = jr.object({"a": jr.date().min(jr.ref("b")), "b": jr.string()})
    tbl = pa.table({"a": ["2019-01-01"] * 3, "b": ["123", "2019-02-30", "hello"]})
    df = _violations(s, tbl)
    assert _codes(df, 0) == []                      # epoch 123 < 2019
    assert _codes(df, 1) == [("a", "date.min")]     # Mar 2 2019 > Jan 1
    assert _codes(df, 2) == [("a", "any.ref")]


def test_date_ref_arg_uses_raw_value_of_errored_key():
    # an errored number key keeps its RAW string for the date arg:
    # ' 7 ' fails joi's numeric regex (spaces) and legacy-parses to
    # July 2001 — valid, so the compare runs instead of any.ref
    s = jr.object({
        "a": jr.number().min(43),
        "b": jr.date().min(jr.ref("a")),
    })
    tbl = pa.table({"a": [" 7 "], "b": ["2021-06-15"]})
    df = _violations(s, tbl)
    codes = [c for p, c in _codes(df, 0) if p == "b"]
    assert codes == []  # 2021 >= 2001-07: passes, no any.ref


def test_when_condition_probes_raw_value_of_errored_key():
    # a='0' fails boolean.base; the when ref sees the RAW '0', which the
    # number-typed is-schema coerces to 0 -> then branch applies
    s = jr.object({
        "a": jr.boolean(),
        "b": jr.number().positive().when("a", is_=0.0, then=jr.number().min(20)),
    })
    tbl = pa.table({"a": ["0"], "b": [10.0]})
    df = _violations(s, tbl)
    assert ("b", "number.min") in _codes(df, 0)


def test_huge_ref_limit_does_not_wrap_length_column():
    # a 1e10 limit must not downcast into the int32 length column
    s = jr.object({"a": jr.number(), "d": jr.string().max(jr.ref("a"))})
    tbl = pa.table({"a": [1e10], "d": ["xyzzy"]})
    assert _codes(_violations(s, tbl), 0) == []


def test_excludes_wins_abort_early_over_later_sparse():
    # joi's items loop is item-outer: excludes at item 0 aborts before the
    # sparse check at item 1 ever runs
    s = jr.object({"a": jr.array().items(jr.string().forbidden(), jr.number())})
    tbl = pa.table({"a": pa.array([["ab", None, "cd"]], type=pa.list_(pa.string()))})
    df = _violations(s, tbl, prefs={"abort_early": True})
    got = [(c, int(i)) for c, i in zip(df["code"], df["item_index"])]
    assert got == [("array.excludes", 0)]


# --------------------------------------------------- rounds 5-6 findings


def test_switch_top_level_otherwise():
    # base.js:345-353: when(ref, switch=[...], otherwise=X) puts X on the
    # last expanded match entry
    s = jr.object({
        "a": jr.number().required().when("b", switch=[{"is": 3.0, "then": jr.number().valid(3.0)}],
                                         otherwise=jr.number().greater(27)),
        "b": jr.number(),
    })
    tbl = pa.table({"a": [0.0], "b": [1.0]})
    assert _codes(_violations(s, tbl), 0) == [("a", "number.greater")]


def test_switch_rejects_double_otherwise():
    import pytest

    with pytest.raises(ValueError):
        jr.number().when("b", switch=[{"is": 1.0, "then": jr.number(), "otherwise": jr.number()}],
                         otherwise=jr.number())


def test_number_cast_string_js_format():
    s = jr.object({"a": jr.number().cast("string")})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(pa.table({"a": [1e10, 5.0]}))
    assert res.value.column("a").to_pylist() == ["10000000000", "5"]


def test_date_cast_string_iso_format():
    s = jr.object({"a": jr.date().cast("string")})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": ["2021-06-15T08:00:00.123Z"]}))
    assert res.value.column("a").to_pylist() == ["2021-06-15T08:00:00.123Z"]


def test_cast_string_key_fails_limit_assert_for_refs():
    # joi assigns the CAST value into the object, so a ref-limit sees a
    # string and Common.limit raises any.ref — on CLEAN rows; on errored
    # rows the raw number passes the assert (the errored key's original)
    s = jr.object({
        "a": jr.number().min(45).cast("string"),
        "b": jr.string().max(jr.ref("a")),
    })
    tbl = pa.table({"a": [100.0, 5.0], "b": ["xy", "xy"]})
    df = _violations(s, tbl)
    assert _codes(df, 0) == [("b", "any.ref")]          # clean: '100' string
    codes1 = [c for p, c in _codes(df, 1) if p == "b"]
    assert codes1 == []                                  # errored: raw 5.0 valid limit, 2 <= 5


def test_raw_key_shadows_converted_value_for_refs():
    # validator.js:414-417: raw() keeps the original in the output but
    # shadows the converted value — refs resolve the shadow
    s = jr.object({
        "a": jr.number().raw(),
        "b": jr.number().max(jr.ref("a")),
    })
    tbl = pa.table({"a": ["5"], "b": [10.0]})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(tbl)
    assert res.value.column("a").to_pylist() == ["5"]   # output keeps original
    assert _codes(res.violations.to_pandas(), 0) == [("b", "number.max")]  # ref saw 5


def test_raw_default_missing_key_shadow():
    # a raw()+default key that is MISSING: output stays missing (original
    # undefined), but the shadow holds the default for refs
    s = jr.object({
        "b": jr.number().default(2.0).raw(),
        "c": jr.string().max(jr.ref("b")),
    })
    tbl = pa.table({"b": pa.array([None], type=pa.float64()), "c": ["ABC"]})
    df = _violations(s, tbl)
    assert ("c", "string.max") in _codes(df, 0)


# --------------------------------------------------- rounds 7-8 findings


def test_pattern_keys_skip_absent_cells():
    # object.js:112: unprocessed = Object.keys(value) — a null/absent cell
    # never reaches the pattern schema, so presence prefs don't apply
    s = jr.object({"p": jr.number()}).pattern(r"^q", jr.number().min(10))
    tbl = pa.table({"x": pa.array([{"p": 1.0, "q1": None}],
                                  type=pa.struct([("p", pa.float64()), ("q1", pa.float64())]))})
    outer = jr.object({"x": s})
    df = compile_schema(outer, prefs={"abort_early": False, "presence": "required"}).validate_table(tbl).violations.to_pandas()
    assert not any(c == "any.required" and p.startswith("x.q1") for p, c in zip(df["path"], df["code"]))


def test_cast_from_gate_under_convert_false():
    # validator.js:390-394: cast applies only when caster.from(value) —
    # a string that never coerced under convert:false stays uncast
    s = jr.object({"a": jr.date().cast("number")})
    tbl = pa.table({"a": ["2021-06-15T08:00:00.123Z"]})
    res = compile_schema(s, prefs={"abort_early": False, "convert": False}).validate_table(tbl)
    assert res.value.column("a").to_pylist() == ["2021-06-15T08:00:00.123Z"]


def test_ordered_mixed_slots_single_pass_adoption():
    # a number slot's promotion must not clobber an earlier string slot's
    # adopted value: mixed slot types keep the original column (repr limit)
    s = jr.object({"a": jr.array().ordered(jr.string().uppercase(), jr.number())})
    tbl = pa.table({"a": pa.array([["abc", "1.0"]], type=pa.list_(pa.string()))})
    res = compile_schema(s, prefs={"abort_early": False}).validate_table(tbl)
    vals = res.value.column("a").to_pylist()[0]
    assert vals[0] in ("ABC", "abc")  # never null


def test_failed_items_never_leak_defaults_into_unique():
    # a sparse array whose items all error: unique compares the ORIGINAL
    # values, not converted/defaulted ones ([2, undefined, 2] -> dup @2)
    s = jr.object({"c": jr.array().sparse().items(
        jr.number().min(10).default(2.0).cast("string")).unique()})
    tbl = pa.table({"c": pa.array([[2.0, None, 2.0]], type=pa.list_(pa.float64()))})
    df = _violations(s, tbl, prefs={"presence": "required"})
    uq = [(int(i)) for c, i in zip(df["code"], df["item_index"]) if c == "array.unique"]
    assert uq == [2]


def test_ordered_adopted_number_shadows_for_date_ref():
    # fuzz seed 4433 (node-verified): b = ordered(number, string) over
    # ["3.0"] adopts 3 into slot 0 — joi's value.b is [3], so a date ref
    # max(ref('b')) resolves new Date([3]) = Date('3') = Mar 2001 and
    # 2019-02-03 fails date.max.  The Arrow column keeps the original
    # string (repr limit), so the adopted typed view must shadow for ref
    # consumers; heterogeneous rows (["3.0", "x"]) keep the base-column
    # path (joi parity: any.ref either way).
    s = jr.object({
        "b": jr.array().ordered(jr.number(), jr.string()),
        "c": jr.date().max(jr.ref("b")),
    })
    tbl = pa.table({
        "b": pa.array([["3.0"], ["3.0", "x"], ["2000"]], pa.list_(pa.string())),
        "c": pa.array(["2019-02-03"] * 3, pa.string()),
    })
    df = _violations(s, tbl, prefs={"abort_early": False})
    by_row = {}
    for r, c, p in zip(df["row"], df["code"], df["path"]):
        if p == "c":
            by_row.setdefault(int(r), []).append(c)
    assert by_row[0] == ["date.max"]   # adopted [3] -> Mar 2001 limit
    assert by_row[1] == ["any.ref"]    # heterogeneous -> Invalid Date
    assert by_row[2] == ["date.max"]   # adopted [2000] -> Jan 2000 limit


def test_whens_cross_type_branch_value_reaches_refs_typed():
    # fuzz seed 9641 (node-verified): a's otherwise branch casts to string,
    # promoting the merged column — but the then-branch row holds joi's
    # NUMBER 42, so b's string.min(ref('a')) must see 42 (string.min
    # fires with limit 42), while the cast row's '2' fails the limit
    # assert (any.ref).  Also: `is_=True` compiles to a COERCING
    # boolean().valid(True) (lib/compile.js), so the string 'true'
    # matches the then branch.
    s = jr.object({
        "a": jr.number().when("c", is_=True, then=jr.number().default(5.0),
                              otherwise=jr.number().cast("string")),
        "b": jr.string().min(jr.ref("a")).required(),
        "c": jr.string(),
    })
    tbl = pa.table({
        "a": pa.array([42.0, 2.0]),
        "b": pa.array(["abc123", "abc123"]),
        "c": pa.array(["true", "xyz"]),
    })
    df = _violations(s, tbl, prefs={"abort_early": False})
    got = sorted(zip((int(r) for r in df["row"]), df["path"], df["code"]))
    assert got == [(0, "b", "string.min"), (1, "b", "any.ref")]


def test_date_cast_string_follows_date_format_pref():
    # fuzz seed 16068 (node-verified): date().cast('string') output is
    # Template.date(value, prefs) — the STRING follows prefs.dateFormat
    # (date.js:145-151), not just message rendering.  '2019-02-30' V8-rolls
    # to Mar 2, and dateFormat:'utc' casts to the toUTCString form.
    s = jr.object({"a": jr.date().iso().cast("string")})
    tbl = pa.table({"a": ["2019-02-30"]})
    res = jr.compile_schema(s, prefs={"abort_early": False, "date_format": "utc"}).validate_table(tbl)
    assert res.value["a"].to_pylist() == ["Sat, 02 Mar 2019 00:00:00 GMT"]
    res2 = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(tbl)
    assert res2.value["a"].to_pylist() == ["2019-03-02T00:00:00.000Z"]


def test_failed_alternatives_branch_raw_shadow_persists():
    # fuzz seed 38925 (node-verified): joi's finalize writes the raw()
    # shadow per branch TRY (validator.js:414-417), so a FAILED
    # trim().raw() branch still feeds the trimmed value to later refs —
    # when('a', is='') matches '  ' through the failed branch's shadow;
    # without raw() there is no shadow and the condition sees '  '
    s = jr.object({
        "a": jr.alternatives([jr.string().length(4).trim().raw(), jr.string()]),
        "b": jr.number().when("a", is_="", then=jr.number().min(33)),
    })
    tbl = pa.table({"a": ["  "], "b": [10.0]})
    df = _violations(s, tbl, prefs={"abort_early": False})
    assert list(zip(df["path"], df["code"])) == [("b", "number.min")]
    s2 = jr.object({
        "a": jr.alternatives([jr.string().length(4).trim(), jr.string()]),
        "b": jr.number().when("a", is_="", then=jr.number().min(33)),
    })
    df2 = _violations(s2, tbl, prefs={"abort_early": False})
    assert len(df2) == 0


def test_alternatives_branch_warnings_leak_from_every_attempt():
    # node-verified (fuzz seed 1400069 family): warn-rule reports push to
    # the MAIN state immediately (validator.js:303-306), so alternatives
    # leak warnings from every ATTEMPTED branch — matched, failed, and
    # no-match rows alike
    alts = jr.alternatives([jr.string().pattern(r"\d"), jr.string().length(2).warn()])
    df = _violations(jr.object({"a": alts}), pa.table({"a": ["Hello World"]}),
                     prefs={"abort_early": False})
    assert list(zip(df["code"], df["severity"])) == [("string.length", "warn")]
    # failed branch (hard rule follows the warn rule), second branch matches
    alts2 = jr.alternatives([jr.string().length(2).warn().min(9).pattern("zzz"), jr.string()])
    df2 = _violations(jr.object({"a": alts2}), pa.table({"a": ["Hello"]}),
                      prefs={"abort_early": False})
    assert list(zip(df2["code"], df2["severity"])) == [("string.length", "warn")]
    # no branch matches: warning rides next to the alternatives error
    alts3 = jr.alternatives([jr.string().length(2).warn().min(9), jr.number()])
    df3 = _violations(jr.object({"a": alts3}), pa.table({"a": ["Hello"]}),
                      prefs={"abort_early": False})
    assert sorted(zip(df3["code"], df3["severity"])) == [
        ("alternatives.match", "error"), ("string.length", "warn")]


def test_cross_type_branch_shadows_and_within_item_warn_order():
    # fuzz seeds 59592/63506/59130/63909, all node-verified.
    # 1) A FAILED number().raw() alternatives branch shadows the value
    #    finalize saw (the uncoerced original 'true'); the shadow WINS over
    #    the matching boolean branch's value for later refs, so the date
    #    ref-arg parses 'true' -> Invalid -> any.ref.
    s = jr.object({
        "a": jr.alternatives([jr.number().max(37).valid(3.0, 0.0, 1.0).default(10.0).raw(),
                              jr.boolean()]),
        "c": jr.date().max(jr.ref("a")),
    })
    t = pa.table({"a": ["true", "3", "-3"],
                  "c": ["2019-02-03T10:30:00Z"] * 3})
    df = _violations(s, t, prefs={"abort_early": False})
    got1 = sorted(zip(df["row"], df["path"], df["code"]))
    # node: row0 any.ref (shadow 'true'); row1 a=3 matches branch1 -> max
    # date 3ms -> date.max; row2 a=-3 fails valid-set -> alternatives.match
    # AND the shadow -3 still feeds c's limit -> date.max
    assert got1 == [(0, "c", "any.ref"), (1, "c", "date.max"),
                    (2, "a", "alternatives.match"), (2, "c", "date.max")]
    # 2) whens-branch cast('string') shadow on a raw() node: the cast
    #    STRING fails string.min's positive-integer arg assert -> any.ref
    s2 = jr.object({
        "b": jr.number().raw().when("a2", is_="ABC", then=jr.number().less(48),
                                    otherwise=jr.number().cast("string")),
        "a2": jr.string(),
        "d": jr.string().min(jr.ref("b")),
    })
    t2 = pa.table({"b": [1e10], "a2": ["x"], "d": ["-7"]})
    df2 = _violations(s2, t2, prefs={"abort_early": False, "convert": False})
    assert list(zip(df2["path"], df2["code"])) == [("d", "any.ref")]
    # 3) abortEarly keeps a warn emitted by an EARLIER item key (x before
    #    y in the item object's topo) of the same aborting item
    item = jr.object({"x": jr.number().min(jr.ref("$lim")).warn(),
                      "y": jr.string().pattern(r"\d").insensitive().valid("ABC", "")})
    s3 = jr.object({"c": jr.array().items(item)})
    t3 = pa.table({"c": pa.array([[{"x": 3.0, "y": "abc"}, {"x": 1.0, "y": "x1"}]],
                                 pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())])))})
    df3 = _violations(s3, t3, prefs={"abort_early": True})
    got = sorted(zip(df3["path"], df3["item_index"], df3["code"], df3["severity"]))
    assert got == [("c.x", 0, "any.ref", "warn"), ("c.x", 1, "any.ref", "warn"),
                   ("c.y", 1, "any.only", "error")]
    # 4) exclusion probes are real validate calls: their warn reports leak
    s4 = jr.object({"c": jr.array().items(jr.string().min(4).alphanum().warn().forbidden())})
    t4 = pa.table({"c": pa.array([["Hello World"]], pa.list_(pa.string()))})
    df4 = _violations(s4, t4, prefs={"abort_early": True})
    got4 = sorted(zip(df4["path"], df4["code"], df4["severity"]))
    assert got4 == [("c", "array.excludes", "error"), ("c", "string.alphanum", "warn")]


def test_probe_warn_leaks_inclusions_and_has():
    # node-verified: inclusion-match attempts and has() probes are real
    # validate calls — warn reports leak (with within-probe abortEarly
    # semantics), and has() short-circuits at the first matching item
    s = jr.object({"c": jr.array().items(jr.string().min(4).alphanum().warn().max(3),
                                         jr.string())})
    t = pa.table({"c": pa.array([["Hello World"]], pa.list_(pa.string()))})
    df = _violations(s, t, prefs={"abort_early": False})
    assert list(zip(df["code"], df["severity"])) == [("string.alphanum", "warn")]

    s2 = jr.object({"c": jr.array().items(jr.any_()).has(jr.string().alphanum().warn().min(4))})

    def run(vals, ae):
        return sorted(zip(
            *(lambda d: (d["item_index"], d["code"], d["severity"]))(
                _violations(s2, pa.table({"c": pa.array([vals], pa.list_(pa.string()))}),
                            prefs={"abort_early": ae}))))

    assert run(["HelloWorld", "fooBar1"], False) == []  # warn rule never fired
    assert run(["a b", "cd ef"], False) == [
        (0, "string.alphanum", "warn"), (1, "string.alphanum", "warn")]
    # short-circuit: item 0 matches (warn-only failure), item 1 never probed
    assert run(["a bcd", "ef ghi"], False) == [(0, "string.alphanum", "warn")]


def test_assert_subvalidate_warn_leak():
    # node-verified: object.assert's sub-validate is a real validate call —
    # its warn reports leak with joi's root-ish path ('"value" must be...',
    # path []), at root level and nested alike
    s = jr.object({"i": jr.object({"a": jr.number()}), "z": jr.number()}).assert_(
        jr.ref("i.a"), jr.number().min(100).warn().max(0))
    t = pa.table({"i": pa.array([{"a": 5.0}], pa.struct([("a", pa.float64())])), "z": [1.0]})
    df = _violations(s, t, prefs={"abort_early": False})
    got = sorted(zip(df["code"], df["severity"], df["message"]))
    assert got == [
        ("number.min", "warn", '"value" must be larger than or equal to 100'),
        ("object.assert", "error",
         '"value" is invalid because "i.a" failed to pass the assertion test'),
    ]


def test_all_empty_batch_required_items_still_error():
    # fuzz seed 99175 (node-verified): joi's fillMissedErrors fires for
    # EMPTY arrays too — the all-empty-batch fast path (zero flat items in
    # the whole block, a real shape for Ray partitions) must still claim
    # the misses, with the Knowns/Unknowns/Both split by item labels
    t = pa.table({"a": pa.array([[]], pa.list_(pa.string()))})
    s = jr.object({"a": jr.array().items(jr.string().required())})
    df = _violations(s, t, prefs={})
    assert list(df["code"]) == ["array.includesRequiredUnknowns"]
    s2 = jr.object({"a": jr.array().items(jr.string().required().label("L"),
                                          jr.number().required())})
    df2 = _violations(s2, t, prefs={})
    assert list(df2["code"]) == ["array.includesRequiredBoth"]


def test_strip_arrays_adoption_and_sparse_index():
    # fuzz seeds 2200074/2200454 (node-verified), stripUnknown arrays mode:
    # matched items adopt the inclusion's CONVERTED value through the
    # splice (trim/uppercase land), and a sparse error after a stripped
    # item reports its POST-SPLICE index ([10, undefined] -> index 0)
    prefs = {"abort_early": False, "strip_unknown": {"arrays": True, "objects": True}}
    s = jr.object({"b": jr.array().items(jr.string().min(3).uppercase().trim())})
    t = pa.table({"b": pa.array([["ABC", "abc", "ab"]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs=prefs).validate_table(t)
    assert r.value["b"].to_pylist() == [["ABC", "ABC"]]
    s2 = jr.object({"a": jr.array().items(jr.number().min(19).less(41))})
    t2 = pa.table({"a": pa.array([[10.0, None]], pa.list_(pa.float64()))})
    r2 = jr.compile_schema(s2, prefs=prefs).validate_table(t2)
    got = list(zip(r2.violations["code"].to_pylist(), r2.violations["item_index"].to_pylist()))
    assert got == [("array.sparse", 0)]


def test_strip_arrays_post_splice_warn_and_excludes_index():
    # fuzz seeds 109406/110082 (node-verified), stripUnknown arrays mode:
    # an item probe is a real validate call, so its leaked warn reports
    # use joi's CURRENT loop index — original position minus the items
    # stripped before it (array.js:148 path = [...state.path, i] with
    # fastSplice's i--).  [bad, bad, warn-only] -> the kept item's
    # string.min warn lands at index 0, not 2.
    prefs = {"abort_early": False, "strip_unknown": {"arrays": True, "objects": True}}
    item = jr.object({"x": jr.number().greater(40), "y": jr.string().min(4).warn()})
    s = jr.object({"a": jr.array().items(item).sparse()})
    t = pa.table({"a": pa.array(
        [[{"x": 0.0, "y": "zz"}, {"x": 2.0, "y": "zz"}, {"x": None, "y": "x1"}]],
        pa.list_(pa.struct({"x": pa.float64(), "y": pa.string()})))})
    r = jr.compile_schema(s, prefs=prefs).validate_table(t)
    v = r.violations
    got = list(zip(v["code"].to_pylist(), v["item_index"].to_pylist(),
                   v["severity"].to_pylist()))
    # items 0/1 stripped (x fails greater) and item 2 kept: each probe
    # fires at its POST-prior-splice position — item 0 at 0, item 1 at 0
    # (item 0 already spliced), item 2 at 0 (both spliced)
    assert got == [("string.min", 0, "warn"), ("string.min", 0, "warn"),
                   ("string.min", 0, "warn")]
    assert r.value["a"].to_pylist() == [[{"x": None, "y": "x1"}]]
    # array.excludes after a strip reports the post-splice index too:
    # ["!", "zz"] with items(min-2 string, forbidden 'zz'-pattern) — item 0
    # fails the inclusion (stripped), item 1 matches the exclusion at
    # post-splice index 0
    s2 = jr.object({"a": jr.array().items(
        jr.string().min(2), jr.string().pattern(r"^zz$").forbidden())})
    t2 = pa.table({"a": pa.array([["!", "zz"]], pa.list_(pa.string()))})
    r2 = jr.compile_schema(s2, prefs=prefs).validate_table(t2)
    got2 = list(zip(r2.violations["code"].to_pylist(), r2.violations["item_index"].to_pylist()))
    assert got2 == [("array.excludes", 0)]


def test_sparse_undefined_items_strip_and_required_claims():
    # fuzz seeds 3000260/3000341 (node-verified), stripUnknown arrays mode:
    # (a) under sparse(), an undefined item flows through joi's items loop
    # like any value — a required-only inclusion rejects it, so it strips,
    # and a later unique dup reports the POST-SPLICE index
    prefs = {"abort_early": False, "strip_unknown": {"arrays": True, "objects": True}}
    s = jr.object({"c": jr.array().items(
        jr.number().max(15).required().raw()).unique().sparse()})
    t = pa.table({"c": pa.array([[5.0, None, 5.0]], pa.list_(pa.float64()))})
    r = jr.compile_schema(s, prefs=prefs).validate_table(t)
    got = list(zip(r.violations["code"].to_pylist(), r.violations["item_index"].to_pylist()))
    assert got == [("array.unique", 1)]
    # (b) a NON-sparse undefined item sparse-errors and `continue`s — it
    # can never CLAIM a required occurrence, so the miss still fires
    s2 = jr.object({"d": jr.array().items(jr.string().min(1).required())})
    t2 = pa.table({"d": pa.array([[None]], pa.list_(pa.string()))})
    r2 = jr.compile_schema(s2, prefs=prefs).validate_table(t2)
    got2 = sorted(zip(r2.violations["code"].to_pylist(), r2.violations["item_index"].to_pylist()),
                  key=lambda x: str(x))
    assert got2 == [("array.includesRequiredUnknowns", -1), ("array.sparse", 0)]


def test_generic_loop_converted_sparse_keeps_original():
    # fuzz seed 3000556 (node-verified): in the multi-inclusion loop a
    # MATCHED item whose converted value is undefined (empty('')) errors
    # array.sparse softly, keeps the original value, and is not adopted
    # (array.js:286-292) — also under stripUnknown.arrays where the
    # single-inclusion path is bypassed
    prefs = {"abort_early": False, "strip_unknown": {"arrays": True, "objects": True}}
    s = jr.object({"a": jr.array().items(
        jr.string().empty(jr.string().valid("N/A", ""))).max(3).unique()})
    t = pa.table({"a": pa.array([["", "abc"], ["ab", "ab", ""]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs=prefs).validate_table(t)
    v = r.violations.to_pandas()
    got = sorted(zip(v["row"], v["code"], v["item_index"]), key=str)
    assert got == [(0, "array.sparse", 0), (1, "array.sparse", 2), (1, "array.unique", 1)]
    # the empty-converted item keeps its ORIGINAL value in the output
    assert r.value["a"].to_pylist()[0] == ["", "abc"]


def test_strip_flagged_item_and_ordered_slot_splice():
    # node-verified (proactive, pre-fuzz probe): a clean match of a
    # strip-flagged schema is spliced out of the output — for ordered
    # slots (array.js:195-200), for the single-inclusion path
    # (array.js:278-283, bypassing the fast path), and later reports use
    # the post-splice index
    s = jr.object({"a": jr.array().ordered(jr.number().strip(), jr.string())})
    t = pa.table({"a": pa.array([["3.0", "xx"]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value["a"].to_pylist() == [["xx"]]
    # single strip-flagged inclusion: matches splice, the failing item's
    # ACTUAL error reports post-splice index 0 (["abc","x","de"] -> "x")
    s2 = jr.object({"a": jr.array().items(jr.string().min(2).strip())})
    t2 = pa.table({"a": pa.array([["abc", "x", "de"]], pa.list_(pa.string()))})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(t2)
    got = list(zip(r2.violations["code"].to_pylist(), r2.violations["item_index"].to_pylist()))
    assert got == [("string.min", 0)]
    assert r2.value["a"].to_pylist() == [["x"]]
    # ordered strip + beyond items: orderedLength pos is the CURRENT
    # (post-splice) index of the first beyond item
    s3 = jr.object({"a": jr.array().ordered(jr.number().strip())})
    t3 = pa.table({"a": pa.array([["3.0", "xx", "yy"]], pa.list_(pa.string()))})
    r3 = jr.compile_schema(s3, prefs={"abort_early": False}).validate_table(t3)
    v3 = r3.violations.to_pandas()
    assert list(v3["code"]) == ["array.orderedLength"]
    assert '"a[1]"' in v3["message"][0] or "1" in str(v3["context"][0])


def test_strip_key_errored_rows_survive_for_unique():
    # fuzz seed 116307 (node-verified): an errored strip-flagged key keeps
    # its ORIGINAL value (object.js:125-139 — result.errors short-circuits
    # the delete), so unique() over object items differing only in that
    # key must NOT fire
    item = jr.object({
        "x": jr.number().greater(43).less(37).multiple(5).strip(),
        "y": jr.string().max(6),
    })
    s = jr.object({"a": jr.array().items(item).unique()})
    t = pa.table({"a": pa.array(
        [[{"x": 1.0, "y": None}, {"x": 2.0, "y": None}]],
        pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())])))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    codes = r.violations["code"].to_pylist()
    assert "array.unique" not in codes
    assert codes.count("number.greater") == 2
    # clean strip rows DO delete: identical-after-strip items fire unique
    s2 = jr.object({"a": jr.array().items(jr.object({
        "x": jr.number().strip(), "y": jr.string()})).unique()})
    t2 = pa.table({"a": pa.array(
        [[{"x": 1.0, "y": "q"}, {"x": 2.0, "y": "q"}]],
        pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())])))})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(t2)
    assert "array.unique" in r2.violations["code"].to_pylist()


def test_required_strip_claim_goes_undefined_not_spliced():
    # fuzz seed 4000136 (node-verified): the requireds loop has NO strip
    # check (array.js:237-255) — value[i] = res.value = undefined
    # (validator.js:414) so the FIRST clean match of a required+strip
    # inclusion sparse-errors in place with NO splice; later matches hit
    # the inclusions loop's strip fastSplice
    s = jr.object({"c": jr.array().items(
        jr.string().length(2).pattern(r"^[a-z0-9]+$").trim().required().strip()
    ).unique()})
    t = pa.table({"c": pa.array([["ab", "ABC", " pad "]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    got = sorted(zip(r.violations["code"].to_pylist(), r.violations["item_index"].to_pylist()))
    assert ("array.sparse", 0) in got            # claim at index 0, not spliced
    assert ("string.length", 1) in got           # "ABC" keeps its ORIGINAL index
    assert ("string.length", 2) in got           # " pad " too


def test_strip_inclusion_splices_empty_converted_item():
    # fuzz seed 4001409 (node-verified): strip check precedes the
    # undefined check in the inclusions loop (array.js:280-286) — an
    # empty('')-converted clean item under a strip schema splices
    # silently, no array.sparse
    s = jr.object({"b": jr.array().items(
        jr.string().max(10).trim().empty("").strip()).max(2)})
    t = pa.table({"b": pa.array([["hello", "abc", "", " pad "]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0            # all spliced; max(2) sees len 0
    assert r.value["b"].to_pylist() == [[]]


def test_strip_narrowed_struct_adoption_keeps_failed_originals():
    # fuzz seed 4000881 (node-verified): clean items adopt the
    # strip-narrowed struct (field -> null) while items failing
    # object.and keep their ORIGINAL key values, which unique() compares
    item = jr.object({"x": jr.number().less(6).default(1.0).strip(),
                      "y": jr.string().max(8)}).and_("x", "y")
    s = jr.object({"b": jr.array().items(item).unique()})
    t = pa.table({"b": pa.array(
        [[{"x": 1.0, "y": "abc"}, {"x": None, "y": "abc"}],
         [{"x": 1.0, "y": "ABC"}, {"x": -1.0, "y": None}, {"x": 0.0, "y": None}]],
        pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())])))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    v = list(zip(r.violations["row"].to_pylist(), r.violations["code"].to_pylist(),
                 r.violations["item_index"].to_pylist()))
    # row 0: both items fail and -> originals differ in x -> NO unique
    assert (0, "array.unique", 1) not in v
    # row 1: items 1,2 clean-strip to {y:null} twins -> unique at 2
    assert (1, "array.unique", 2) in v


def test_strip_schema_plants_shadow_for_refs():
    # fuzz seed 4000168 (node-verified): finalize shadows the CONVERTED
    # value for ANY result-flagged schema — raw OR strip — even when the
    # node errored inside a failed alternatives branch
    # (validator.js:413-417), so a sibling date ref resolves the coerced
    # number (1000 -> 1970-01-01T00:00:01Z)
    s = jr.object({
        "a": jr.date().less(jr.ref("b")),
        "b": jr.alternatives(jr.number().valid(10.0).strip(), jr.string()),
    })
    t = pa.table({"a": ["2019-02-30"], "b": ["1e3"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    codes = r.violations["code"].to_pylist()
    assert codes == ["date.less"]                # NOT any.ref


def test_empty_array_ordered_required_slot_misses():
    # fuzz seed 4100375 (node-verified): unconsumed required ORDERED slots
    # run fillMissedErrors too (array.js:345-347), as a separate record
    # after the items-requireds one — an empty array still misses
    s = jr.object({"a": jr.array().ordered(
        jr.number().max(-4).integer().required().strip(),
        jr.number().multiple(4)).min(1)})
    t = pa.table({"a": pa.array([[]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    codes = r.violations["code"].to_pylist()
    # violations table order is the engine's deterministic (row, path,
    # seq, item) contract, not joi's emission order — compare as a set
    assert sorted(codes) == ["array.includesRequiredUnknowns", "array.min"]
    # abortEarly follows joi's EMISSION order: the items-stage miss
    # aborts before the min rule runs
    ra = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t)
    assert ra.violations["code"].to_pylist() == ["array.includesRequiredUnknowns"]


def test_single_inclusion_sparse_undefined_no_array_includes():
    # fuzz seed 4101290 (node-verified): jl === 1 surfaces the item's
    # ACTUAL errors (array.js:302-315) — a sparse-flowing undefined that
    # fails the lone required inclusion reports any.required only, never
    # array.includes on top; strip splices shift later indexes
    s = jr.object({"c": jr.array().items(
        jr.string().length(2).token().lowercase().required().strip()).sparse()})
    t = pa.table({"c": pa.array([["ab", "ab", None, "ABC"]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    got = list(zip(r.violations["code"].to_pylist(), r.violations["item_index"].to_pylist()))
    assert got == [("any.required", 1), ("string.length", 2)]


def test_when_branch_raw_overrides_base_strip():
    # fuzz seed 4100748 (node-verified): strip/raw share joi's single
    # _flags.result slot — a matched when-branch's raw() REPLACES the
    # base schema's strip(), so the key stays in the output with its raw
    # value
    s = jr.object({"c": jr.string().min(0).strip().when(
        jr.string().min(4),
        then=jr.string().max(4).raw(),
        otherwise=jr.string().max(7).valid("abc", "hello", "ab"))})
    t = pa.table({"c": ["12.5"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert "c" in r.value.column_names
    assert r.value["c"].to_pylist() == ["12.5"]
    # and strip()/raw() setters are mutually exclusive
    assert "raw" not in jr.string().raw().strip().flags
    assert "strip" not in jr.string().strip().raw().flags


def test_string_coerce_pipeline_order():
    # fuzz seed 5000021 (node-verified): joi's string coerce has a FIXED
    # stage order — normalize -> case -> trim -> replace -> isoDate ->
    # truncate (string/index.js:68-135) — so lowercase lands BEFORE the
    # replace pattern matches, and truncate runs last
    s = jr.object({"b": jr.string().lowercase().replace(
        __import__("re").compile(r"^[a-z0-9]+$"), "Z").min(2)})
    t = pa.table({"b": ["ABC"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations["code"].to_pylist() == ["string.min"]   # "ABC"->"abc"->"Z"


def test_replace_regex_first_match_only():
    # fuzz seeds 1/94 (node-verified): a RegExp pattern without /g
    # replaces only the FIRST match (JS String.replace); joi wraps STRING
    # patterns in a GLOBAL regex (replace all)
    import re as _re
    s = jr.object({"b": jr.string().replace(_re.compile(r"\d"), "")})
    r = jr.compile_schema(s).validate_table(pa.table({"b": ["abc123"]}))
    assert r.value["b"].to_pylist() == ["abc23"]
    s2 = jr.object({"b": jr.string().replace("1", "")})
    r2 = jr.compile_schema(s2).validate_table(pa.table({"b": ["a11"]}))
    assert r2.value["b"].to_pylist() == ["a"]


def test_isodate_coerce_error_aborts_row():
    # fuzz seeds 5000076/5000251 (node-verified): isoDate converts at
    # COERCE time; failure is a coerce error that aborts the row — no
    # valids, no other rules
    s = jr.object({"b": jr.string().min(4).iso_date()})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"b": ["abc", "2019-02-03"]}))
    v = list(zip(r.violations["row"].to_pylist(), r.violations["code"].to_pylist()))
    assert v == [(0, "string.isoDate")]                        # no string.min on row 0
    assert r.value["b"].to_pylist()[1] == "2019-02-03T00:00:00.000Z"


def test_failover_cross_type_and_warning_survival():
    # fuzz seed 5000296 (node-verified): a number failover over an
    # all-failing string column under convert:false rebuilds the column
    # in the failover's type (joi value = 3)
    s = jr.object({"a": jr.number().greater(41).failover(3.0).forbidden()})
    r = jr.compile_schema(s, prefs={"abort_early": False, "convert": False}).validate_table(
        pa.table({"a": ["0"]}))
    assert r.violations.num_rows == 0
    assert r.value["a"].to_pylist() == [3.0]
    # fuzz seed 44 (node-verified): failover clears ERRORS only
    # (validator.js:359-364); warnings persist
    s2 = jr.object({"c": jr.string().pattern(r"^[a-z]+$").alphanum().warn().failover("A")})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(
        pa.table({"c": ["12.5"]}))
    codes = list(zip(r2.violations["code"].to_pylist(), r2.violations["severity"].to_pylist()))
    assert ("string.alphanum", "warn") in codes
    assert not any(sev == "error" for _, sev in codes)
    assert r2.value["c"].to_pylist() == ["A"]


def test_domain_email_address_v2_semantics():
    # @hapi/address v2 (public): TLD must START with a letter, non-TLD
    # segments alphanumeric with inner hyphens, min 2 segments; email
    # local is dot-separated atext with 64-byte cap — mirrored by the
    # refshim's faithful v2 port (fuzz seed 92 family)
    s = jr.compile_schema(jr.object({"x": jr.string().domain()}),
                          prefs={"abort_early": False})
    cases = {"example.com": True, "123.com": True, "a.b": True, "a.b2": True,
             "2.0": False, "a.2b": False, "com": False, "a..b": False,
             "-a.com": False, "a-.com": False, "localhost": False}
    r = s.validate_table(pa.table({"x": list(cases)}))
    assert list(r.ok) == list(cases.values())
    s2 = jr.compile_schema(jr.object({"x": jr.string().email()}),
                           prefs={"abort_early": False})
    ecases = {"a@b.com": True, "a_b@c.com": True, "A@B.COM": True,
              "x@y": False, "a@b..com": False, "bad@": False, "@bad.com": False}
    r2 = s2.validate_table(pa.table({"x": list(ecases)}))
    assert list(r2.ok) == list(ecases.values())


def test_failover_branch_values_graft_as_string_rendering():
    # fuzz seeds 5001791/5003214 (node-verified): a cross-type failover /
    # truthy conversion inside an alternatives branch or ordered slot
    # must land in a string column as its STRING rendering (joi's typed
    # value, tracked value_repr) — never the stale original it replaced
    s = jr.object({"d": jr.alternatives(
        jr.number().greater(9).integer(),
        jr.boolean().falsy("no", "N").failover(True))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"d": ["", "12", "no"]}))
    assert r.violations.num_rows == 0
    assert r.value["d"].to_pylist() == ["true", "12", "false"]
    s2 = jr.object({"d": jr.array().ordered(
        jr.number().multiple(5).failover(10.0).required(),
        jr.string().min(1))})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(
        pa.table({"d": pa.array([["ABC"], ["25", "x"]], pa.list_(pa.string()))}))
    assert r2.violations.num_rows == 0
    assert r2.value["d"].to_pylist() == [["10"], ["25", "x"]]


def test_coerce_error_preempts_empty_and_presence():
    # fuzz seed 5102192 (node-verified): a coerce-stage error returns
    # immediately (validator.js:150-156) — the empty('') stage never
    # converts the row, so required never fires on top
    s = jr.object({"b": jr.string().max(10).iso_date().required().empty("")})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"b": [""]}))
    assert r.violations["code"].to_pylist() == ["string.isoDate"]


def test_unique_is_typeof_sensitive_across_promotion():
    # fuzz seed 5300531 (node-verified): joi's unique buckets by typeof
    # (array.js:490-497) — a kept-original number 1 (its item errored)
    # never duplicates an adopted cast('string') "1", even though our
    # promoted Arrow column renders both as "1"
    item = jr.number().multiple(2).default(1.0).cast("string")
    s = jr.object({"c": jr.array().items(item).unique().sparse()})
    t = pa.table({"c": pa.array([[1.0, 0.0, 0.5, None]], pa.list_(pa.float64()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    codes = r.violations["code"].to_pylist()
    assert "array.unique" not in codes
    assert codes.count("number.multiple") == 2


def test_domain_email_min_segments_option():
    # @hapi/address v2 minDomainSegments option threads through both
    # rules ('a@b' valid under minDomainSegments:1)
    r = jr.compile_schema(jr.object({"x": jr.string().email(min_domain_segments=1)}),
                          prefs={"abort_early": False}).validate_table(pa.table({"x": ["a@b"]}))
    assert list(r.ok) == [True]
    r2 = jr.compile_schema(jr.object({"x": jr.string().domain(min_domain_segments=3)}),
                           prefs={"abort_early": False}).validate_table(
        pa.table({"x": ["a.b.com", "b.com"]}))
    assert list(r2.ok) == [True, False]


def test_node_lenient_binary_decoders_and_js_tonumber_timestamp():
    # fuzz seeds 6200002/6200866 families (node-verified): Buffer.from is
    # lenient — base64 ignores invalid chars / stops at '=' / truncates
    # partial groups; hex decodes pairs until the first bad char; neither
    # ever errors.  date timestamp multiplies via JS ToNumber, so radix
    # literals parse ('0x1f' -> 31ms) but signed radix does not
    import datetime
    s = jr.object({"a": jr.binary().encoding("base64"),
                   "d": jr.date().timestamp("javascript")})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": ["bad!", "YQ=YQ", "aG Vs"], "d": ["0x1f", "-3", "-0x1f"]}))
    assert r.value["a"].to_pylist() == [b"m\xa7", b"a", b"hel"]
    vals = r.value["d"].to_pylist()
    assert vals[0] == datetime.datetime(1970, 1, 1, 0, 0, 0, 31000)
    assert vals[1] == datetime.datetime(1969, 12, 31, 23, 59, 59, 997000)
    assert vals[2] is None                       # signed radix is NaN
    assert r.violations["code"].to_pylist() == ["date.timestamp.javascript"]


def test_binary_ref_date_arg_invalid_utf8_no_crash():
    # fuzz seed 133443 (node-verified semantics): a date limit ref
    # resolving a BINARY sibling stringifies via Buffer.toString() — a
    # UTF-8 decode with replacement chars — and the legacy date grammar
    # rejects it as any.ref; lenient base64 decodes (b'm\xa7') must never
    # crash the utf-8 conversion
    s = jr.object({"a": jr.binary().encoding("base64"),
                   "b": jr.date().min(jr.ref("a"))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": ["bad!"], "b": ["2019-01-01"]}))
    assert r.violations["code"].to_pylist() == ["any.ref"]


def test_chunked_table_validation_parity():
    # Ray hands multi-chunk columns; the engine's combine() defenses must
    # keep every session feature working across chunk boundaries (the
    # fuzzer only builds single-chunk tables)
    item = jr.object({"x": jr.number().strip(), "y": jr.string()})
    s = jr.object({
        "doc_id": jr.string().required(),
        "vals": jr.array().items(jr.number().cast("string")).unique().sparse(),
        "nested": jr.array().items(item),
        "b": jr.binary().encoding("base64"),
    })
    nested_t = pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())]))
    t1 = pa.table({"doc_id": ["a"], "vals": pa.array([[1.0, 2.0]], pa.list_(pa.float64())),
                   "nested": pa.array([[{"x": 1.0, "y": "q"}]], nested_t), "b": ["aGk="]})
    t2 = pa.table({"doc_id": ["b"], "vals": pa.array([[3.0, 3.0]], pa.list_(pa.float64())),
                   "nested": pa.array([[{"x": 2.0, "y": "r"}]], nested_t), "b": ["bad!"]})
    chunked = pa.concat_tables([t1, t2])
    assert chunked["vals"].num_chunks == 2
    r = jr.compile_schema(s, prefs={"abort_early": False}, id_column="doc_id").validate_table(chunked)
    v = list(zip(r.violations["doc_id"].to_pylist(), r.violations["code"].to_pylist()))
    assert v == [("b", "array.unique")]
    assert r.value["vals"].to_pylist() == [["1", "2"], ["3", "3"]]
    assert r.value["b"].to_pylist() == [b"hi", b"m\xa7"]


def test_sort_converts_at_coerce_before_items():
    # fuzz seed 10100012 family (node-verified): sort() is a COERCE-stage
    # conversion under prefs.convert (array.js coerce:44-48) — the items
    # loop sees the SORTED array, so sparse errors report post-sort
    # indexes (undefined always last regardless of order)
    s = jr.object({"a": jr.array().items(jr.number()).sort(order="descending")})
    t = pa.table({"a": pa.array([[None, 5.0, 5.0, 0.5]], pa.list_(pa.float64()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    got = list(zip(r.violations["code"].to_pylist(), r.violations["item_index"].to_pylist()))
    assert got == [("array.sparse", 3)]
    # under convert:false the rule CHECKS instead (array.sort)
    r2 = jr.compile_schema(s, prefs={"abort_early": False, "convert": False}).validate_table(
        pa.table({"a": pa.array([[0.5, 5.0]], pa.list_(pa.float64()))}))
    assert "array.sort" in r2.violations["code"].to_pylist()
    # unsupported item type: two distinct non-null booleans throw
    s3 = jr.object({"a": jr.array().sort()})
    r3 = jr.compile_schema(s3, prefs={"abort_early": False}).validate_table(
        pa.table({"a": pa.array([[True, False], [True, True]], pa.list_(pa.bool_()))}))
    v3 = list(zip(r3.violations["row"].to_pylist(), r3.violations["code"].to_pylist()))
    assert v3 == [(0, "array.sort.unsupported")]


def test_template_limit_nan_renders_in_any_ref_value():
    # fuzz seed 10004430 (node-verified): a Joi.x template limit whose
    # arithmetic hits undefined resolves NaN — the any.ref report's {[.]}
    # value renders 'NaN', not empty
    s = jr.object({
        "a": jr.number(),
        "c": jr.number().min(31).max(jr.x("{a - 2}")).message("v={[.]} on {{#label}}"),
    })
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": pa.array([None], pa.float64()), "c": [40.0]}))
    df = r.violations.to_pandas()
    ref_msgs = df[df["code"] == "any.ref"]["message"].tolist()
    assert ref_msgs == ["v=NaN on c"]


def test_sort_by_two_level_undefined_order():
    # fuzz seeds 11100076/11100981 (node-verified): joi's sort comparator
    # puts an undefined ITEM last before the by-ref resolves, and an
    # undefined BY-value last among defined items — both regardless of
    # order; convert sorts that way, the convert:false check enforces it
    T = pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())]))
    s = jr.object({"a": jr.array().items(jr.object({
        "x": jr.number(), "y": jr.string()})).sort(by="x").sparse()})
    t = pa.table({"a": pa.array(
        [[None, {"x": -1.0, "y": ""}, {"x": None, "y": None}]], T)})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    out = r.value["a"].to_pylist()
    assert out == [[{"x": -1.0, "y": ""}, {"x": None, "y": None}, None]]
    # check mode: [{x:1}, undefined, {x:undef}] is OUT of order (the
    # undefined item precedes the by-undefined one)
    s2 = jr.object({"a": jr.array().items(jr.object({
        "x": jr.number(), "y": jr.string()})).sort(by="x", order="descending").sparse()})
    t2 = pa.table({"a": pa.array(
        [[{"x": 1.0, "y": "aa"}, None, {"x": None, "y": "a"}]], T)})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False, "convert": False}).validate_table(t2)
    assert "array.sort" in r2.violations["code"].to_pylist()


def test_sort_mismatching_and_cast_field_widening():
    # fuzz seeds 13003105/13000587 (node-verified, convert:false): mixed
    # typeofs among compared items throw array.sort.MISMATCHING in joi's
    # comparator (cast('string') clean items vs kept raw numbers), and a
    # strip-narrowed struct whose cast key changed type widens back over
    # the base so failed items keep their ORIGINAL sibling field for
    # unique()
    T = pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())]))
    item = jr.object({"x": jr.number().optional().cast("string"),
                      "y": jr.string().max(3).uppercase()})
    s = jr.object({"a": jr.array().items(item).sort(by="x")})
    t = pa.table({"a": pa.array(
        [[{"x": 3.0, "y": None}, {"x": 3.0, "y": None}, {"x": 0.0, "y": "a"}]], T)})
    r = jr.compile_schema(s, prefs={"abort_early": False, "convert": False}).validate_table(t)
    codes = r.violations["code"].to_pylist()
    assert "array.sort.mismatching" in codes and "array.sort" not in codes
    item2 = jr.object({"x": jr.number().min(-1).port().cast("string"),
                       "y": jr.string().max(3).strip()}).or_("x", "y")
    s2 = jr.object({"b": jr.array().items(item2).unique().sparse()})
    t2 = pa.table({"b": pa.array(
        [[{"x": -1.0, "y": "abc"}, {"x": 3.0, "y": "AB"}, {"x": -1.0, "y": "ABC"}]], T)})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False, "convert": False}).validate_table(t2)
    assert "array.unique" not in r2.violations["code"].to_pylist()


def test_string_branch_grafts_numeric_parse_into_number_column():
    # fuzz seed 15300258 (node-verified): an alternatives branch whose
    # failover+cast('string') result matches into a NUMERIC column must land
    # as its numeric parse (value-equivalent to joi's "5", the tracked
    # value_repr form) — not keep the stale original the failover replaced
    s = jr.object({"a": jr.alternatives(
        jr.number().min(2),
        jr.number().max(34).negative().failover(5.0).cast("string"))})
    t = pa.table({"a": pa.array([-0.0, 0.5, 10.0, -2.5], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.ok.all()
    # -0.0/0.5 fail branch1 (min 2) and branch2's negative(), failover 5.0
    # -> cast "5" -> parse 5.0; 10.0 matches branch1 verbatim; -2.5 passes
    # branch2's rules so cast renders "-2.5" -> parse -2.5
    assert r.value["a"].to_pylist() == [5.0, 5.0, 10.0, -2.5]


def test_match_probe_suppresses_warn_after_hard_abort():
    # fuzz seed 15500173 (node-verified): $_match forces abortEarly
    # (base.js:719-726), so inside an object.assert's probed schema a
    # valids any.only HARD failure aborts the row BEFORE a later
    # hex().warn() rule runs — and a failover() then clears the error and
    # matches the row.  No warning may leak even under outer
    # abortEarly:false (the failover erases the hard-error evidence the
    # emission-order leak filter keys on).
    T = pa.struct([("n", pa.struct([("x", pa.string())])), ("y", pa.float64())])
    s = jr.object({"b": jr.object({
        "n": jr.object({"x": jr.string()}),
        "y": jr.number(),
    }).assert_(jr.ref("n.x"), jr.string().insensitive().hex().warn()
               .valid("a", "hello").failover(" pad "))})
    t = pa.table({"b": pa.array([{"n": {"x": "x"}, "y": None}], T)})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.ok.all()
    assert r.violations.num_rows == 0  # no leaked string.hex warning
    # warn-BEFORE-abort still leaks: hex warn fires on the live row, then
    # min() hard-fails -> assertion fails, warning persists (validator.js
    # :303-306 records the warn as it fires)
    s2 = jr.object({"b": jr.object({
        "n": jr.object({"x": jr.string()}),
        "y": jr.number(),
    }).assert_(jr.ref("n.x"), jr.string().hex().warn().min(5))})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(t)
    codes = r2.violations["code"].to_pylist()
    sev = r2.violations["severity"].to_pylist()
    assert "object.assert" in codes
    assert ("string.hex" in codes
            and sev[codes.index("string.hex")] == "warn")


def test_assert_context_ref_subject_resolves_prefs_context():
    # joi v16-rc2 CRASHES on any object.assert with a $context subject
    # (object.js:223 calls ref.resolve with no prefs -> ref.js:114 reads
    # undefined.context; node-verified, tracked as assert_context_crash).
    # joi_ray implements the documented intent: the subject resolves
    # prefs.context and unbound globals resolve undefined (optional pass).
    T = pa.struct([("n", pa.struct([("x", pa.float64())])), ("y", pa.float64())])
    s = jr.object({"c": jr.object({"n": jr.object({"x": jr.number()}),
                                   "y": jr.number()})
                   .assert_(jr.ref("$lim"), jr.number().min(10))})
    t = pa.table({"c": pa.array([{"n": {"x": 1.0}, "y": 2.0}], T)})
    for ctx, ok in (({"lim": 4}, False), ({"lim": 20}, True), ({}, True)):
        r = jr.compile_schema(
            s, prefs={"abort_early": False, "context": ctx}).validate_table(t)
        assert bool(r.ok[0]) is ok, ctx


def test_presence_forbidden_pref_hits_the_root():
    # node-verified: prefs {presence:'forbidden'} applies to the ROOT node
    # too (validator.js:168-190) — every provided root value (= every table
    # row) errors any.unknown at path [] ('"value" is not allowed') and
    # NOTHING else runs; an explicit root presence flag overrides the
    # default and keys then evaluate with per-key forbidden
    s = jr.object({"a": jr.number().min(2)})
    t = pa.table({"a": [5.0, None]})
    r = jr.compile_schema(s, prefs={"abort_early": False,
                                    "presence": "forbidden"}).validate_table(t)
    assert (~r.ok).all()
    v = r.violations.to_pylist()
    assert {(x["path"], x["code"]) for x in v} == {("", "any.unknown")}
    assert v[0]["message"] == '"value" is not allowed'
    assert r.value["a"].to_pylist() == [5.0, None]  # originals kept
    s2 = jr.object({"a": jr.number().min(2)}).required()
    r2 = jr.compile_schema(s2, prefs={"abort_early": False,
                                      "presence": "forbidden"}).validate_table(t)
    v2 = r2.violations.to_pylist()
    assert {(x["path"], x["code"]) for x in v2} == {("a", "any.unknown")}


def test_schema_local_abort_early_suppresses_later_stage_errors():
    # fuzz seed 16000129 (node-verified): a schema-LOCAL
    # prefs({abortEarly: true}) under an OUTER abortEarly:false must stop
    # that node's own stage machinery at the first error per row — '' with
    # valid('a') errors any.only at the valids stage and never reaches the
    # base string.empty check (validator.js:194-247 returns); the sibling
    # keys still report all their errors under the outer prefs
    s = jr.object({"b": jr.string().valid("a").preferences(abort_early=True),
                   "d": jr.number().integer().valid(0)})
    t = pa.table({"b": [""], "d": [12.0]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    got = [(v["path"], v["code"]) for v in r.violations.to_pylist()]
    assert ("b", "any.only") in got
    assert ("b", "string.empty") not in got
    assert ("d", "any.only") in got


def test_schema_local_abort_early_scopes_array_structural_errors():
    # fuzz seed 15100028 (node-verified): ordered-array with schema-local
    # prefs({abortEarly:true}) under outer abortEarly:false — the slot-0
    # any.only aborts the ARRAY's own validation per row, so the later
    # array.sparse and array.orderedLength never emit; sibling keys keep
    # reporting everything
    T = pa.list_(pa.string())
    s = jr.object({
        "b": jr.array().ordered(jr.string().length(3).valid("ABC", "ab").required(),
                                jr.string()).preferences(abort_early=True),
        "d": jr.number().integer().valid(0),
    })
    t = pa.table({"b": pa.array([["1.0", None, None, "ab"]], T),
                  "d": [12.0]})
    r = jr.compile_schema(s, prefs={"abort_early": False,
                                    "convert": False}).validate_table(t)
    got = [(v["path"], v["code"]) for v in r.violations.to_pylist()]
    assert ("b", "any.only") in got
    assert all(c not in ("array.sparse", "array.orderedLength") for _, c in got), got
    assert ("d", "any.only") in got


def test_alternatives_presence_forbidden_stage():
    # fuzz seeds 16100190/16100272 (node-verified): an alternatives node
    # whose EFFECTIVE presence is forbidden (e.g. via schema-local
    # prefs({presence:'forbidden'})) errors any.unknown at the presence
    # stage for provided rows — branches are never tried, absent rows pass
    s = jr.object({"a": jr.alternatives(
        jr.string().forbidden().empty(""), jr.string().min(4))
        .preferences(presence="forbidden")})
    t = pa.table({"a": ["", "  ", None]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.ok.tolist() == [False, False, True]
    got = [(v["path"], v["code"]) for v in r.violations.to_pylist()]
    assert got == [("a", "any.unknown"), ("a", "any.unknown")]


def test_stripped_slot_warn_survives_abort_before_shifted_sparse():
    # fuzz seed 16300451 (node-verified): ordered array where slot 0 is a
    # clean strip-flagged match whose pattern().warn() fired, and slot 1 is
    # a null on a non-sparse array.  After the splice BOTH reports display
    # index 0, but joi's walk fired the warn (item 0) BEFORE the sparse
    # (item 1) — under abortEarly the warning rides along and must survive
    # the first-error filter (fire-time ordering, not display index)
    T = pa.list_(pa.string())
    s = jr.object({"a": jr.array().ordered(
        jr.string().max(5).pattern(r"[A-Z]{2}").warn().strip(),
        jr.number().less(14).integer().strip())})
    t = pa.table({"a": pa.array([["0.0", None]], T)})
    r = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t)
    got = [(v["path"], v["item_index"], v["code"], v["severity"])
           for v in r.violations.to_pylist()]
    assert ("a", 0, "array.sparse", "error") in got
    assert ("a", 0, "string.pattern.base", "warn") in got


def test_schema_local_prefs_reject_uncopyable_keys():
    # base.js:248-250: context/externals/warnings cannot be schema-local
    import pytest

    for k in ("context", "externals", "warnings"):
        with pytest.raises(ValueError, match=f"Cannot override {k}"):
            jr.number().preferences(**{k: True})


def test_function_defaults_and_failovers_reference_semantics():
    # node-verified (validator.js:451-475): zero-arg function defaults run
    # FRESH per missing row; arg-taking fns receive (parent row dict,
    # prefs); a throw records any.default/any.failover with the reference
    # catalog message and the row keeps undefined / its original errors
    calls = [0]

    def gen():
        calls[0] += 1
        return float(calls[0])

    s = jr.object({"a": jr.number().default(gen)})
    t = pa.table({"a": [None, 3.0, None]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.value["a"].to_pylist() == [1.0, 3.0, 2.0]  # fresh per row
    s2 = jr.object({"a": jr.number(),
                    "b": jr.number().default(lambda parent, prefs: parent["a"] * 2)})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [5.0, 7.0], "b": [None, 1.0]}))
    assert r2.value["b"].to_pylist() == [10.0, 1.0]

    def boom(parent, prefs):
        raise RuntimeError("x")

    r3 = jr.compile_schema(jr.object({"a": jr.number().default(boom)}),
                           prefs={"abort_early": False}).validate_table(
        pa.table({"a": pa.array([None], pa.float64())}))
    v3 = r3.violations.to_pylist()
    assert not r3.ok[0]
    assert v3[0]["code"] == "any.default"
    assert v3[0]["message"] == '"a" threw an error when running default method'
    r4 = jr.compile_schema(
        jr.object({"a": jr.number().min(10).failover(lambda: 99.0)}),
        prefs={"abort_early": False}).validate_table(pa.table({"a": [1.0, 20.0]}))
    assert r4.ok.tolist() == [True, True]
    assert r4.value["a"].to_pylist() == [99.0, 20.0]


def test_failover_throw_rides_abort_early_only_when_its_node_ran():
    # fuzz seed 17100263 (node-verified): a failover-throw is a FINALIZE
    # push (validator.js:359-364) — under abortEarly it rides along with
    # the same node's aborting error, but an abort at an EARLIER key means
    # the node never validated and no any.failover exists
    def boom(parent, prefs):
        raise RuntimeError("x")

    s = jr.object({"a": jr.date(), "b": jr.boolean().failover(boom)})
    # b aborts (a passes): boolean.base + any.failover both present
    t1 = pa.table({"a": ["2019-02-03"], "b": ["maybe"]})
    r1 = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t1)
    c1 = r1.violations["code"].to_pylist()
    assert c1 == ["any.failover", "boolean.base"] or sorted(c1) == ["any.failover", "boolean.base"]
    # a aborts first: b never runs -> ONLY date.base
    t2 = pa.table({"a": ["2020-13-01"], "b": ["maybe"]})
    r2 = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t2)
    assert r2.violations["code"].to_pylist() == ["date.base"]


def test_finalize_order_failover_never_swallows_default_throw():
    # fuzz seed 18000796 (node-verified): joi's finalize runs FAILOVER
    # first (on rule errors) and the Default step after, on values still
    # undefined (validator.js:353-385) — so a missing value whose
    # function default throws keeps any.default and stays undefined; the
    # failover never sees it
    def boom():
        raise RuntimeError("x")

    s = jr.object({"c": jr.number().max(12).greater(14).failover(0.0).default(boom)})
    t = pa.table({"c": pa.array([None, 3.0], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    v = r.violations.to_pylist()
    # row 0: any.default (kept; failover must not clear it), value undefined
    # row 1: 3.0 fails greater(14) -> failover 0.0, errors cleared
    assert [x["code"] for x in v] == ["any.default"]
    assert v[0]["row"] == 0
    assert r.value["c"].to_pylist() == [None, 0.0]


def test_default_throw_aborts_later_keys_like_any_error():
    # fuzz seed 18000711 (node-verified): a default-throw lands in its
    # key's error bundle, so under abortEarly the object loop breaks and
    # a LATER key's presence error never fires
    def boom():
        raise RuntimeError("x")

    s = jr.object({
        "b": jr.string().default(boom),
        "c": jr.boolean().preferences(presence="forbidden"),
    })
    t = pa.table({"b": pa.array([None], pa.string()), "c": ["false"]})
    r = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t)
    assert r.violations["code"].to_pylist() == ["any.default"]


def test_alternatives_default_fires_on_no_match_keeping_errors():
    # fuzz seed 18001299 (node-verified): a no-branch-match alternatives
    # leaves value = base.value = undefined (validator.js:234), so the
    # Default step fires EVEN for the errored row and the error persists
    # (joi returns both alternatives.match and the default-filled value)
    s = jr.object({"b": jr.alternatives(
        jr.object({"p": jr.number().required()}),
        jr.object({"q": jr.string().required()}),
    ).default(77.0)})
    t = pa.table({"b": [{"z": 1.0}, None]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    codes = r.violations["code"].to_pylist()
    assert any(c.startswith("alternatives.") or c == "object.unknown" for c in codes)
    # the missing row adopts the default; the failed row's fill is the
    # engine's documented partial-value form (joi's PARENT discards an
    # errored key's value, object.js:125-140 — failed-row output values
    # are outside the fuzz compare, which checks ref-ok rows only)
    s2 = jr.object({"b": jr.alternatives(
        jr.number().min(100), jr.boolean()).default(77.0)})
    t2 = pa.table({"b": pa.array([5.0, None], pa.float64())})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(t2)
    assert r2.value["b"].to_pylist() == [77.0, 77.0]
    assert r2.violations["code"].to_pylist() == ["alternatives.match"]


def test_cross_type_failover_never_corrupts_typed_columns():
    # fuzz seed 18001374 (node-verified): failover/default values adopt
    # VERBATIM — pyarrow's silent int->timestamp conversion (7 becoming
    # epoch+7ms) must be rejected; blocked rows keep undefined/original
    # and the error set still matches joi's cleared-by-failover state
    s = jr.object({"a": jr.date().failover(7)})
    t = pa.table({"a": ["2020-13-01", "2019-02-03"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    vals = r.value["a"].to_pylist()
    assert vals[1] is not None  # the clean date survives
    import datetime
    assert vals[0] != datetime.datetime(1970, 1, 1, 0, 0, 0, 7000)  # not epoch+7ms
    assert r.violations.num_rows == 0  # failover cleared the date.base


def test_blocked_failover_value_feeds_sibling_refs():
    # fuzz seed 18001890 (node-verified): joi topo-sorts a after b (ref
    # dependency); b's failover 7 replaces the failed OBJECT, and a's
    # date.greater(ref:b) then resolves 7 (a valid epoch) — no any.ref.
    # The struct column cannot hold 7 (repr ceiling), so the typed value
    # must reach the ref through the AltView side-channel.
    s = jr.object({
        "a": jr.date().greater(jr.ref("b")),
        "b": jr.object({"p": jr.number().forbidden()}).failover(7),
    })
    t = pa.table({
        "a": ["2021-06-15T08:00:00.123Z"],
        "b": [{"p": 1.0}],
    })
    r = jr.compile_schema(s, prefs={"abort_early": False, "allow_unknown": True}).validate_table(t)
    assert r.violations.num_rows == 0
    assert bool(r.ok[0])


def test_pre_when_label_hidden_in_finalize_errors():
    # fuzz seed 277 (node-verified): when() on a non-alternatives base
    # returns a FRESH unlabeled alternatives wrapper (base.js:364) — a
    # label set BEFORE the when lives in the branches, so the wrapper's
    # finalize errors (any.default/any.failover throws) render the KEY
    # name; a label set AFTER the when lands on the wrapper and renders
    def boom():
        raise RuntimeError("x")

    base = jr.number().label("L9").when("a", is_="ab", then=jr.number().required())
    s = jr.object({"a": base.default(boom)})
    t = pa.table({"a": pa.array([None], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations["message"].to_pylist() == [
        '"a" threw an error when running default method']
    s2 = jr.object({"a": base.label("L10").default(boom)})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(t)
    assert r2.violations["message"].to_pylist() == [
        '"L10" threw an error when running default method']


def test_post_when_default_fires_on_strip_branch_rows():
    # fuzz seed 957 (node-verified): a strip branch returns undefined from
    # joi's finalize even when it ERRORED (validator.js:413-421), so a
    # default set AFTER the when fires on EVERY row of the strip key —
    # and with errors present the strip delete is skipped (value kept)
    def boom():
        raise RuntimeError("x")

    s = jr.object({
        "a": jr.number().strip().when(
            "b", is_="z", then=jr.number().min(5)).default(boom),
        "b": jr.string(),
    })
    t = pa.table({"a": pa.array([3.0, 3.0, None], pa.float64()),
                  "b": ["z", "q", "q"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations["message"].to_pylist() == [
        '"a" must be larger than or equal to 5',
        '"a" threw an error when running default method',
        '"a" threw an error when running default method',
        '"a" threw an error when running default method',
    ]
    assert "a" in r.value.column_names  # errors block the strip delete


def test_pre_when_failover_clears_before_post_when_failover():
    # fuzz seed 1028 (node-verified): failover('ab') BEFORE the when lives
    # in the branches and clears their errors; the failover(boom) set
    # AFTER the when belongs to the wrapper and only fires on rows the
    # branches left errored — here none, so no any.failover anywhere
    def boom():
        raise RuntimeError("x")

    s = jr.object({
        "a": jr.number().failover("ab").when(
            "b", is_="z", then=jr.number().min(100)).failover(boom),
        "b": jr.string(),
    })
    t = pa.table({"a": pa.array(["3", "xx"], pa.string()),
                  "b": ["z", "q"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value["a"].to_pylist() == ["ab", "ab"]


def test_branch_default_beats_post_when_default():
    # node-verified: default(9) before the when fills in the BRANCH
    # finalize, so the wrapper's default(11) sees the row as defined and
    # must not overwrite (joi: value !== undefined after the branch)
    base = jr.number().default(9).when(
        "b", is_="z", then=jr.number().min(5)).default(11)
    s = jr.object({"a": base, "b": jr.string()})
    t = pa.table({"a": pa.array([None, None], pa.float64()), "b": ["q", "z"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value["a"].to_pylist() == [9.0, 9.0]


def test_post_when_default_fills_missing_rows():
    # node-verified: a default set only AFTER the when applies in the
    # wrapper finalize over the merged branch result for every condition
    s = jr.object({
        "a": jr.number().when("b", is_="z", then=jr.number().min(5)).default(7),
        "b": jr.string(),
    })
    t = pa.table({"a": pa.array([None, None], pa.float64()), "b": ["q", "z"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value["a"].to_pylist() == [7.0, 7.0]


def test_failover_filled_required_row_skips_default():
    # fuzz seed 19000479 (node-verified): a required-missing row carries
    # any.required, so the finalize FAILOVER consumes it first (fills -1,
    # clears the error); the default step then sees the value as defined
    # (validator.js:383) and must not overwrite with 10 — chain order of
    # .default()/.failover() is irrelevant (they are flags)
    s = jr.object({"b": jr.number().default(10.0).failover(-1.0).required()})
    t = pa.table({"b": pa.array([None], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value["b"].to_pylist() == [-1.0]
    # same through a when-otherwise branch (the seed's original shape)
    s2 = jr.object({
        "a": jr.string(),
        "b": jr.number().default(10.0).when(
            "a", is_=1.0, then=jr.number().multiple(2),
            otherwise=jr.number().failover(-1.0).required()),
    })
    t2 = pa.table({"a": ["12.5"], "b": pa.array([None], pa.float64())})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(t2)
    assert r2.violations.num_rows == 0
    assert r2.value["b"].to_pylist() == [-1.0]


def test_alternatives_strip_branch_feeds_node_default():
    # fuzz seed 20003109 (node-verified): a MATCHED strip-flagged
    # alternatives branch returns undefined from joi's finalize
    # (validator.js:413-421), so the alternatives node's OWN default
    # fires on present values — and with a thrower the any.default error
    # suppresses the strip delete (the parent keeps the original)
    def boom():
        raise RuntimeError("x")

    branches = [jr.string().max(5).strip(), jr.string().max(9).uppercase()]
    t = pa.table({"a": ["a"]})
    r = jr.compile_schema(jr.object({"a": jr.alternatives(list(branches))}),
                          prefs={"abort_early": False}).validate_table(t)
    assert r.value.to_pylist() == [{"a": None}]  # strip-match: key deleted
    r = jr.compile_schema(
        jr.object({"a": jr.alternatives(list(branches)).default("dd")}),
        prefs={"abort_early": False}).validate_table(t)
    assert r.value.to_pylist() == [{"a": "dd"}]  # default fills the strip
    r = jr.compile_schema(
        jr.object({"a": jr.alternatives(list(branches)).default(boom)}),
        prefs={"abort_early": False}).validate_table(t)
    assert r.violations["message"].to_pylist() == [
        '"a" threw an error when running default method']
    assert r.value.to_pylist() == [{"a": "a"}]  # error blocks the delete


def test_blocked_cross_type_failover_lands_after_cast():
    # fuzz seed 20004648 (node-verified): failover 'q7' cannot live in the
    # float64 column at failover time, but joi's cast is gated by a `from`
    # predicate (validator.js:390-394) so the adopted string passes
    # through cast('string') UNCAST — the output is 'q7', never the cast
    # of the stale original
    s = jr.object({"b": jr.number().less(45).valid(2.0, 0.0)
                   .cast("string").failover(lambda: "q7")})
    t = pa.table({"b": pa.array([1024.0, 2.0], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value["b"].to_pylist() == ["q7", "2"]


def test_object_concat_merges_same_named_keys():
    # fuzz seed 21100015 (node-verified): object concat CONCATS same-named
    # keys (object.js:1110-1133 Keys.concat) — a {q: raw()} delta must not
    # drop the target's {q: length(2)} rule
    base = jr.object({"p": jr.number().integer().multiple(5),
                      "q": jr.string().length(2)})
    delta = jr.object({"q": jr.string().raw()})
    at = pa.struct([("p", pa.float64()), ("q", pa.string())])
    t = pa.table({"a": pa.array([{"p": 2.0, "q": "a"}], at), "b": ["zz"]})
    r = jr.compile_schema(jr.object({"a": base.concat(delta), "b": jr.string()}),
                          prefs={"abort_early": False}).validate_table(t)
    codes = sorted(zip(r.violations["path"].to_pylist(), r.violations["code"].to_pylist()))
    assert codes == [("a.p", "number.multiple"), ("a.q", "string.length")]
    # and through a when-otherwise branch (base.concat(otherwise))
    s2 = jr.object({"a": base.when("b", is_="", then=jr.object({"q": jr.string().forbidden()}),
                                   otherwise=delta), "b": jr.string()})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(t)
    codes2 = sorted(zip(r2.violations["path"].to_pylist(), r2.violations["code"].to_pylist()))
    assert codes2 == [("a.p", "number.multiple"), ("a.q", "string.length")]


def test_post_when_label_pushes_into_branches():
    # fuzz seed 23000401 (node-verified): alternatives' label() override
    # pushes the name into EVERY match branch, replacing their own labels
    # (alternatives.js:121-142) — a when-bearing schema IS that wrapper,
    # so a post-when label wins over the then-branch's own label
    s = jr.object({
        "b": jr.string().when(
            jr.string().min(3),
            then=jr.string().valid("hello", "ABC", "x1").label("L3"),
            otherwise=jr.string().valid("x1").required(),
        ).label("W3"),
    })
    t = pa.table({"b": ["12.5"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations["message"].to_pylist() == [
        '"W3" must be one of [hello, ABC, x1]']


def test_empty_matched_alternatives_branch_feeds_node_default():
    # fuzz seed 23600100 (node-verified): a matched branch whose empty('')
    # coercion turned the present value undefined feeds the alternatives
    # node's OWN default — here a thrower, so any.default fires on ''
    def boom():
        raise RuntimeError("x")

    s = jr.object({
        "a": jr.alternatives([
            jr.string().empty(""),
            jr.string().max(6).valid("x1", "hello"),
        ]).default(boom),
    })
    t = pa.table({"a": ["", "x1"]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations["message"].to_pylist() == [
        '"a" threw an error when running default method']


def test_sort_by_field_tags_only_apply_to_promoted_field():
    # fuzz seed 26000610 (node-verified): joi resolves settings.by BEFORE
    # the comparator's typeof check (array.js:753-766), so a struct items
    # schema whose CAST field is x sorted by y errors plain array.sort
    # when out of order — not array.sort.mismatching
    T = pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())]))
    item = jr.object({"x": jr.number().max(30).default(3.0).required().cast("string"),
                      "y": jr.string().pattern(r"[A-Z]{2}").optional()})
    s = jr.object({"b": jr.array().items(item).min(1)
                   .sort(by="y", order="descending").sparse()})
    t = pa.table({"b": pa.array(
        [[{"x": 0.0, "y": "ABC"}, {"x": 0.0, "y": "x1"}, {"x": None, "y": None}]], T)})
    r = jr.compile_schema(s, prefs={"abort_early": False, "convert": False}).validate_table(t)
    codes = r.violations["code"].to_pylist()
    assert "array.sort" in codes and "array.sort.mismatching" not in codes


def test_when_branch_key_strip_is_per_row():
    # fuzz seed 24001572 (node-verified): a when() on an object column
    # whose OTHERWISE branch strips key p must not drop p for THEN rows —
    # the merge widens the strip-narrowed struct back (deleted key ≙ null)
    # instead of casting the full struct down
    at = pa.struct([("p", pa.float64()), ("q", pa.string())])
    s = jr.object({
        "b": jr.string(),
        "d": jr.object({"p": jr.number(), "q": jr.string().min(0)}).when(
            "b", is_="zz",
            then=jr.object({"p": jr.number().required()}),
            otherwise=jr.object({"p": jr.number().strip()})),
    })
    t = pa.table({"b": ["zz", "nn"],
                  "d": pa.array([{"p": -1.0, "q": "k"}, {"p": 3.0, "q": "a"}], at)})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value["d"].to_pylist() == [
        {"p": -1.0, "q": "k"},   # then row keeps p
        {"p": None, "q": "a"},   # otherwise row: p stripped (≙ deleted)
    ]


def test_failed_strip_branch_shadow_beats_cast_branch_pair_in_ref_args():
    # fuzz seed 27000130 (node-verified): refs check joi's shadow FIRST
    # (ref.js _resolve) — a FAILED strip-flagged alternatives branch
    # shadows its coerced number, so min(ref) resolves 42 (number) even
    # though the matched cast('string') branch output '42'; with another
    # row matching the numeric branch the shadow folds into the column
    # and must still override the cast branch's typed pair
    a = jr.alternatives([
        jr.number().min(46).negative().warn().strip(),
        jr.number().min(29).multiple(3).cast("string"),
    ]).preferences(presence="required")
    s = jr.object({
        "a": a,
        "c": jr.array().items(jr.number().max(37).strip()).min(jr.ref("a")).max(4),
    })
    t = pa.table({"a": pa.array([65536.0, 42.0], pa.float64()),
                  "c": pa.array([[2.0, 2.0], [2.0, 2.0]], pa.list_(pa.float64()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    codes = sorted(zip(r.violations["path"].to_pylist(), r.violations["code"].to_pylist()))
    assert ("c", "any.ref") not in codes
    assert codes.count(("c", "array.min")) == 2  # limits 65536 and 42 both > 0 items


def test_post_when_typed_rules_and_cast_are_build_errors():
    # node-verified: when() returns an alternatives wrapper (base.js:364)
    # — type-specific rule methods don't exist on it (TypeError in the
    # reference) and cast() asserts 'Type alternatives does not support
    # casting' (base.js:104-108); flags like default/label stay legal
    base = jr.number().when("b", is_=1.0, then=jr.number().max(2))
    with pytest.raises(TypeError):
        base.min(3)
    with pytest.raises(ValueError):
        base.cast("string")
    base.default(5).label("W")  # wrapper-legal chain calls still work
    jr.number().min(3).when("b", is_=1.0, then=jr.number().max(2))  # pre-when ok


def test_failover_does_not_resurrect_post_abort_warns():
    # fuzz seed 29003478 (node-verified, abortEarly): joi returns at the
    # row's first hard error (slot0 number.base), so slot1's alphanum
    # warn never fires — the node failover then clears the error and the
    # warn must NOT surface; a warn fired BEFORE the first hard error
    # still outlives the failover (seed 44 behavior preserved)
    s = jr.object({
        "a": jr.array().ordered(
            jr.number().max(32).integer().port().label("L5"),
            jr.string().max(7).alphanum().warn(),
        ).failover(lambda: 7),
    })
    t = pa.table({"a": pa.array([["ab", "0.0", "2.0", "-1.0"]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t)
    assert r.violations.num_rows == 0  # no errors (failover), no warns (post-abort)
    # warn BEFORE the hard error persists through the failover
    s2 = jr.object({
        "a": jr.array().ordered(
            jr.string().max(7).alphanum().warn(),
            jr.number().max(2).integer(),
        ).failover(lambda: 7),
    })
    t2 = pa.table({"a": pa.array([["0.0", "9"]], pa.list_(pa.string()))})
    r2 = jr.compile_schema(s2, prefs={"abort_early": True}).validate_table(t2)
    assert r2.violations["code"].to_pylist() == ["string.alphanum"]
    assert r2.violations["severity"].to_pylist() == ["warn"]


def test_ended_switch_alternatives_ignores_presence_default():
    # fuzz seed 35000022 (node-verified): a match entry carrying BOTH
    # then and otherwise makes the presence default 'ignore'
    # (validator.js:170 _endedSwitch) — undefined flows INTO the matched
    # branch, whose own presence/defaults govern; a then-only entry does
    # NOT end the switch, so prefs presence applies at the wrapper
    ended = jr.object({
        "a": jr.alternatives().when("c", is_=2.0, then=jr.string().default("T"),
                                    otherwise=jr.string().default("F")),
        "c": jr.number(),
    })
    t = pa.table({"a": pa.array([None], pa.string()), "c": [6.0]})
    r = jr.compile_schema(ended, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value["a"].to_pylist() == ["F"]  # branch default fills
    r2 = jr.compile_schema(ended, prefs={"abort_early": False,
                                         "presence": "required"}).validate_table(t)
    assert r2.violations["code"].to_pylist() == ["any.required"]  # from the BRANCH
    not_ended = jr.object({
        "a": jr.alternatives().when("c", is_=2.0, then=jr.string().default("T")),
        "c": jr.number(),
    })
    r3 = jr.compile_schema(not_ended, prefs={"abort_early": False}).validate_table(t)
    assert r3.violations.num_rows == 0
    assert r3.value["a"].to_pylist() == [None]  # wrapper optional: early return
    r4 = jr.compile_schema(not_ended, prefs={"abort_early": False,
                                             "presence": "required"}).validate_table(t)
    assert r4.violations["code"].to_pylist() == ["any.required"]  # wrapper


def test_decided_branch_failure_keeps_value_from_node_default():
    # fuzz seed 35000189 (node-verified): a DECIDED when-branch failure
    # keeps its processed value (joi returns the branch result as-is), so
    # the node default must NOT fire — only try-style no-match leaves the
    # value undefined (validator.js:234)
    def boom():
        raise RuntimeError("x")

    s = jr.object({
        "a": jr.string(),
        "b": jr.alternatives().when("a", is_="a", then=jr.number().strip(),
                                    otherwise=jr.number().max(37).negative()
                                    ).default(boom),
    })
    t = pa.table({"a": ["q"], "b": pa.array([65536.0], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    codes = sorted(r.violations["code"].to_pylist())
    assert codes == ["number.max", "number.negative"]  # no any.default


def test_emptied_rows_shadow_undefined_not_raw_original():
    # fuzz seed 35000213 (node-verified): an empty('')-converted row in a
    # strip-flagged branch shadows UNDEFINED (finalize saw the conversion)
    # — a later sibling is:'' condition must not resolve the raw ''
    s = jr.object({
        "a": jr.alternatives([jr.string().length(2).empty(
            jr.string().valid("N/A", "")).strip()]),
        "b": jr.alternatives().when("a", is_="", then=jr.number().max(-1)),
    })
    t = pa.table({"a": [""], "b": pa.array([0.5], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": False, "convert": False}).validate_table(t)
    assert "number.max" not in r.violations["code"].to_pylist()


def test_claimed_required_strip_splices_later_matches():
    # fuzz seed 38000247 (node-verified): the requireds pre-loop claims
    # the FIRST match of a required+strip items schema (undefined +
    # array.sparse, no splice); LATER matches reach the inclusions stage
    # of the already-claimed schema and splice like plain inclusions
    # (array.js:280-283) — they must not produce a second sparse claim
    s = jr.object({
        "b": jr.array().items(jr.string().max(7).trim().required().strip()),
        "c": jr.array().items(jr.number()),
    })
    t = pa.table({"b": pa.array([[" pad ", "x1"]], pa.list_(pa.string())),
                  "c": pa.array([[3.0]], pa.list_(pa.float64()))})
    r = jr.compile_schema(s, prefs={
        "abort_early": False,
        "strip_unknown": {"arrays": True, "objects": True},
    }).validate_table(t)
    recs = list(zip(r.violations["path"].to_pylist(),
                    r.violations["item_index"].to_pylist(),
                    r.violations["code"].to_pylist()))
    assert recs == [("b", 0, "array.sparse")]  # one claim, item1 spliced


def test_raw_branch_reverts_default_fill_for_wrapper_default():
    # fuzz seed 40000303 (node-verified): the branch's default fills the
    # required-missing value, but the branch's raw() result flag reverts
    # to the ORIGINAL (undefined) at the end of finalize
    # (validator.js:413-421) — so the post-when wrapper default still
    # sees the row as undefined and its thrower errors any.default
    # alongside the branch's any.required
    def boom():
        raise RuntimeError("x")

    s = jr.object({
        "a": jr.string().default("abc").when(
            "a", is_="abc",
            then=jr.string().uppercase().valid(" pad ", "a", "x1").forbidden().label("L7"),
            otherwise=jr.string().alphanum().hex().valid("x1").raw(),
        ).default(boom),
    })
    t = pa.table({"a": pa.array([None], pa.string())})
    r = jr.compile_schema(s, prefs={"abort_early": False,
                                    "presence": "required"}).validate_table(t)
    assert sorted(r.violations["code"].to_pylist()) == ["any.default", "any.required"]


def test_branch_scoped_array_sparse_rec_stays_aligned():
    # fuzz seed 43005514: under a whens branch scope, _Node.add drops
    # out-of-scope rows from the violation rec — every item-level
    # bookkeeping mask (sparse strip-splice shifts, shift_recs) must be
    # row-scoped the same way or the violations assembly misaligns
    # (ArrowInvalid length mismatch)
    s = jr.object({
        "a": jr.alternatives([jr.number(), jr.string().min(2).default("").optional()]),
        "b": jr.array().items(jr.string().min(1)).when(
            "a", is_=0.0, then=jr.array().max(2)).label("W1"),
    })
    t = pa.table({
        "a": ["0.0", "xx", None],
        "b": pa.array([["x", None], [None, "y"], [None]], pa.list_(pa.string())),
    })
    r = jr.compile_schema(s, prefs={
        "abort_early": False,
        "strip_unknown": {"arrays": True, "objects": True},
    }).validate_table(t)  # must not raise
    assert r.violations.num_rows >= 1


def test_excluded_items_cannot_claim_requireds():
    # fuzz seed 43005251 (node-verified): an exclusion-errored item
    # `continue`s before joi's requireds loop (array.js:206-218), so it
    # can never CLAIM a required items schema — an all-excluded array
    # still misses the required (array.includesRequiredUnknowns)
    s = jr.object({
        "a": jr.array().items(
            jr.number().invalid(0.5, 10.0).forbidden(),
            jr.number().max(32).integer().valid(0.0, -1.0, 5.0).required(),
        ),
    })
    t = pa.table({"a": pa.array([[3.0, 5.0]], pa.list_(pa.float64()))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    codes = sorted(r.violations["code"].to_pylist())
    assert codes == ["array.excludes", "array.excludes", "array.includesRequiredUnknowns"]


def test_duplicate_single_rule_is_a_noop_keeping_position():
    # fuzz seed 46000268 (node-verified): re-adding a non-multi rule with
    # DEEP-EQUAL options is a no-op (base.js:617-621 returns `this`) — the
    # original keeps its chain position, so under abortEarly
    # min(2)...min(2) on 0.5 errors number.min, not a later rule; a
    # DIFFERENT limit removes the old rule and pushes at the end
    s = jr.object({"a": jr.number().min(2).max(48).less(-4).integer().min(2)})
    t = pa.table({"a": pa.array([0.5], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": True, "convert": False}).validate_table(t)
    assert r.violations["code"].to_pylist() == ["number.min"]
    s2 = jr.object({"a": jr.number().min(5).max(48).less(-4).min(2)})
    r2 = jr.compile_schema(s2, prefs={"abort_early": True, "convert": False}).validate_table(t)
    assert r2.violations["code"].to_pylist() == ["number.less"]  # min moved last


def test_parent_arg_fns_read_processed_sibling_values():
    # fuzz seed 48002125 (node-verified): joi's value object MUTATES as
    # keys validate in topo order — an arg-taking failover fn receives
    # the sibling's PROCESSED value (here the default-filled a=5), not
    # the raw null; and a forbidden key's presence return still runs
    # finalize, so the failover consumes the any.unknown
    def parent_a2(parent, prefs):
        return parent["a"] * 2

    s = jr.object({
        "a": jr.number().default(5.0).optional(),
        "d": jr.number().integer().default(5.0).forbidden().failover(parent_a2),
    })
    t = pa.table({"a": pa.array([None], pa.float64()),
                  "d": pa.array([0.0], pa.float64())})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert r.violations.num_rows == 0
    assert r.value.to_pylist() == [{"a": 5.0, "d": 10.0}]
    # schema-local prefs on the consuming node keep the parent accessor
    s2 = jr.object({
        "a": jr.number().default(5.0).optional(),
        "b": jr.number().greater(47.0).less(13.0).default(5.0).when(
            "a", is_="ABC", then=jr.number().min(8)).preferences(
            convert=False).failover(parent_a2),
    })
    t2 = pa.table({"a": pa.array([2.0], pa.float64()),
                   "b": pa.array([65536.0], pa.float64())})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(t2)
    assert r2.violations.num_rows == 0
    assert r2.value["b"].to_pylist() == [4.0]


def test_forbidden_alternatives_runs_finalize_default():
    # fuzz seed 48004116 (node-verified): joi's forbidden presence return
    # goes through internals.finalize (validator.js:186), so a node
    # default(thrower) on a schema-local-forbidden alternatives errors
    # any.default on MISSING rows too
    def boom():
        raise RuntimeError("x")

    s = jr.object({
        "a": jr.alternatives([
            jr.object({"p": jr.number().required()}),
            jr.object({"q": jr.string().required()}),
        ]).preferences(presence="forbidden").default(boom).label("W1"),
    })
    t = pa.table({"a": pa.array([None], pa.struct([("p", pa.float64()), ("q", pa.string())]))})
    r = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t)
    assert r.violations["message"].to_pylist() == [
        '"W1" threw an error when running default method']


def test_string_duplicate_min_always_repushes():
    # node-verified v16 artifact (seed 48004609): string min's undefined
    # `encoding` arg is DELETED from the stored options at first add
    # (base.js:630-634 mutates), so a re-added identical min never
    # compares deep-equal and moves to the END — unlike number.min,
    # whose args survive intact and no-op in place
    s = jr.object({"a": jr.string().min(2).token().data_uri().min(2)})
    t = pa.table({"a": ["3"]})
    r = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t)
    assert r.violations["code"].to_pylist() == ["string.dataUri"]


def test_failover_keeps_item_warn_fired_before_later_items_hard_error():
    # fuzz seed 49000734 (node-verified): joi's items walk is ITEM-outer —
    # item 0's creditCard warn fires BEFORE item 1's any.invalid hard
    # error, so under abortEarly the warn rides along and SURVIVES the
    # node failover's error-clear (the post-abort drop orders by
    # fire-item index, not flat rec position)
    s = jr.object({
        "a": jr.array().items(
            jr.string().max(7).credit_card().warn().invalid("ABC").strip()
        ).failover(lambda: 7),
    })
    t = pa.table({"a": pa.array([["abc", "ABC"]], pa.list_(pa.string()))})
    r = jr.compile_schema(s, prefs={"abort_early": True}).validate_table(t)
    assert r.violations["code"].to_pylist() == ["string.creditCard"]
    assert r.violations["severity"].to_pylist() == ["warn"]
    assert r.violations["item_index"].to_pylist() == [0]


def test_wrapper_valids_stage_runs_before_branch_dispatch():
    # fuzz seed 54000083 (node-verified): values added by valid() AFTER a
    # when() live on joi's fresh wrapper, whose own valids stage runs
    # BEFORE the branch dispatch — a match returns VERBATIM (no branch
    # coercion), a no-match pushes the wrapper's any.only first and the
    # branch's own any.only follows
    base = (jr.string().uppercase().valid("ABC", "ab", "a").required()
            .when(jr.string().min(3),
                  then=jr.string().max(5).valid("abc"),
                  otherwise=jr.string().max(4).default("abc"))
            .label("W3").valid(" pad "))
    s = jr.object({"a": base})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": ["yy"]}))
    msgs = r.violations["message"].to_pylist()
    assert msgs == ['"W3" must be one of [ pad ]',
                    '"W3" must be one of [ABC, ab, a]']
    r2 = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [" pad "]}))
    assert r2.violations.num_rows == 0
    assert r2.value["a"].to_pylist() == [" pad "]  # verbatim: no uppercase


def test_alternatives_only_flag_pushes_any_only_before_branch_union():
    # fuzz seed 56000275 (node-verified): the valids stage is universal —
    # an only-flagged alternatives pushes any.only for non-matches and
    # CONTINUES into the matches, so alternatives.base follows
    s = jr.object({
        "a": jr.alternatives()
            .when("b", is_=3.0, then=jr.string().max(3).lowercase())
            .when("b", is_=1.0, then=jr.string().length(5))
            .valid("a", "ABC"),
        "b": jr.number(),
    })
    t = pa.table({"a": ["Hello World"], "b": pa.array([7.0])})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    assert sorted(r.violations["code"].to_pylist()) == [
        "alternatives.base", "any.only"]


def test_invalid_emptying_valids_under_only_is_a_build_error():
    # fuzz seed 15100014 (node-verified): invalid() removes the value
    # from a previous valid() set at registration (base.js:188-196) —
    # emptying it under the only flag asserts at build; the reverse
    # direction re-allows (base.js:73-80)
    with pytest.raises(ValueError):
        jr.number().valid(2.0).invalid(2.0)
    s = jr.object({"a": jr.string().invalid("x").valid("x")})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": ["x"]}))
    assert r.violations.num_rows == 0  # valid('x') re-allowed it


def _seed_88123215_schema():
    # gen_case(88123215)'s key b: an alternatives carrying invalid() and a
    # default(thrower); "hello" matches neither branch
    def boom():
        raise RuntimeError("x")

    return jr.object({
        "b": jr.alternatives().try_(
            jr.string().max(3),
            jr.string().max(10).pattern(r"[A-Z]{2}").valid("ab", "abc").strip(),
        ).default(boom).invalid("hello"),
    })


def test_alternatives_invalid_continues_into_matches_without_abort_early():
    # fuzz seed 88123215, row 9 (the reference's recorded run): joi pushes
    # any.invalid and CONTINUES unless abortEarly is set (validator.js:
    # 218-227) — no branch matches, so alternatives.match follows, and the
    # value stays undefined, so the node default runs (and throws)
    r = jr.compile_schema(_seed_88123215_schema(), prefs={"abort_early": False}).validate_table(
        pa.table({"b": ["hello"]}))
    assert r.violations["code"].to_pylist() == [
        "any.invalid", "alternatives.match", "any.default"]


def test_alternatives_invalid_stops_the_row_under_abort_early():
    r = jr.compile_schema(_seed_88123215_schema()).validate_table(pa.table({"b": ["hello"]}))
    assert r.violations["code"].to_pylist() == ["any.invalid"]



def test_failover_returning_undefined_keeps_the_errors():
    # joi adopts a failover only when it is not undefined (validator.js:
    # 357-364); a function returning undefined leaves the errors in place
    s = jr.object({"a": jr.number().failover(lambda: None)})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": ["abc"]}))
    assert r.violations["code"].to_pylist() == ["number.base"]
    assert list(r.ok) == [False]
