"""Reference array test vectors — items/ordered/required/stripUnknown
semantics (reference: /root/reference/test/types/array.js, lines cited
per test).  Mixed-type JS arrays that Arrow list columns cannot hold are
re-expressed over a single value type with the same matching structure.
"""

import datetime as dt

import pyarrow as pa
import pytest

import joi_ray as jr
from joi_ray import compile_schema, object as obj

LIST_STR = pa.list_(pa.string())
LIST_I64 = pa.list_(pa.int64())
LIST_BOOL = pa.list_(pa.bool_())


def run(schema_root, tbl, prefs=None):
    cs = compile_schema(schema_root, prefs={"abort_early": False, **(prefs or {})})
    return cs.validate_table(tbl)


def codes(res, row=None):
    vs = res.violations.to_pylist()
    return [v["code"] for v in vs if row is None or v["row"] == row]


# ------------------------------------------------- required occurrences
def test_duplicate_required_schemas_fail():
    # array.js:581-593 — two required duplicates of the same schema need
    # two distinct matching items; one 'four' -> 1 unknown miss
    t = pa.table({"x": pa.array([["one", "two", "three", "four"]], type=LIST_STR)})
    schema = jr.array().items(
        jr.string().valid("four").required(),
        jr.string().valid("four").required(),
        jr.string(),
    )
    res = run(obj({"x": schema}), t)
    vs = res.violations.to_pylist()
    assert [v["code"] for v in vs] == ["array.includesRequiredUnknowns"]
    assert "does not contain 1 required value(s)" in vs[0]["message"]


def test_duplicate_required_schemas_pass():
    # array.js:595-602
    t = pa.table({"x": pa.array([["one", "two", "three", "four", "four"]], type=LIST_STR)})
    schema = jr.array().items(
        jr.string().valid("four").required(),
        jr.string().valid("four").required(),
        jr.string(),
    )
    res = run(obj({"x": schema}), t)
    assert list(res.ok) == [True], res.violations.to_pylist()


def test_required_label_known_misses():
    # array.js:611-624 — labeled required schema miss renders the label
    t = pa.table({"x": pa.array([[True, False]], type=LIST_BOOL)})
    schema = jr.array().items(
        jr.string().required().label("required string"), jr.boolean()
    )
    res = run(obj({"x": schema}), t)
    vs = res.violations.to_pylist()
    assert [v["code"] for v in vs] == ["array.includesRequiredKnowns"]
    assert "does not contain [required string]" in vs[0]["message"]


def test_required_label_mixed_known_unknown():
    # array.js:626-644 — one labeled + one unlabeled miss -> Both
    t = pa.table({"x": pa.array([[True, False]], type=LIST_BOOL)})
    schema = jr.array().items(
        jr.string().required().label("required string"),
        jr.string().required(),
        jr.boolean(),
    )
    res = run(obj({"x": schema}), t)
    vs = res.violations.to_pylist()
    assert [v["code"] for v in vs] == ["array.includesRequiredBoth"]
    assert (
        "does not contain [required string] and 1 other required value(s)"
        in vs[0]["message"]
    )


def test_single_required_inclusion_empty_array():
    # array.js:341 fillMissedErrors fires even on an empty input array
    t = pa.table({"x": pa.array([[], ["a"]], type=LIST_STR)})
    schema = jr.array().items(jr.string().required())
    res = run(obj({"x": schema}), t)
    assert list(res.ok) == [False, True]
    assert codes(res, 0) == ["array.includesRequiredUnknowns"]


# --------------------------------------------------------- ordered
def test_ordered_length_single_row_error():
    # array.js:1150-1162 — extra items yield ONE row-level orderedLength
    # (pos = first beyond index), not one error per extra item
    t = pa.table({"x": pa.array([["a", "b", "c", "d", "e"]], type=LIST_STR)})
    schema = jr.array().ordered(jr.string(), jr.string())
    res = run(obj({"x": schema}), t)
    vs = res.violations.to_pylist()
    assert [v["code"] for v in vs] == ["array.orderedLength"]
    assert "must contain at most 2 items" in vs[0]["message"]


def test_ordered_length_with_item_error_abort_early_false():
    # array.js:1164-1185 — item error AND the single orderedLength both
    # surface with abortEarly=false
    t = pa.table({"x": pa.array([[1, 2, 3, 4, 5]], type=LIST_I64)})
    schema = jr.array().ordered(jr.string(), jr.number())
    res = run(obj({"x": schema}), t)
    got = codes(res)
    assert sorted(got) == ["array.orderedLength", "string.base"], got


def test_ordered_missing_required_slots():
    # array.js:1187-1199 — required ordered slots beyond the input length
    # are misses (unknown: no label)
    t = pa.table({"x": pa.array([["a"]], type=LIST_STR)})
    schema = jr.array().ordered(
        jr.string().required(), jr.string().pattern(r"^\d$").required()
    )
    res = run(obj({"x": schema}), t)
    vs = res.violations.to_pylist()
    assert [v["code"] for v in vs] == ["array.includesRequiredUnknowns"]
    assert "does not contain 1 required value(s)" in vs[0]["message"]


def test_ordered_missing_required_slot_labeled():
    t = pa.table({"x": pa.array([["a"], ["a", "b"]], type=LIST_STR)})
    schema = jr.array().ordered(
        jr.string().required(), jr.string().required().label("second")
    )
    res = run(obj({"x": schema}), t)
    assert list(res.ok) == [False, True]
    vs = res.violations.to_pylist()
    assert [v["code"] for v in vs] == ["array.includesRequiredKnowns"]
    assert "does not contain [second]" in vs[0]["message"]


def test_ordered_tail_single_items_actual_errors():
    # array.js:1201-1213 — items beyond the ordered prefix with a single
    # items() schema surface the item's ACTUAL error, not array.includes
    t = pa.table({"x": pa.array([["s1", "2", "3", "4", "s5"]], type=LIST_STR)})
    schema = jr.array().ordered(
        jr.string().required(), jr.string().required()
    ).items(jr.string().pattern(r"^\d+$"))
    res = run(obj({"x": schema}), t)
    vs = res.violations.to_pylist()
    assert [v["code"] for v in vs] == ["string.pattern.base"]
    assert vs[0]["item_index"] == 4


def test_single_inclusion_actual_errors_not_includes():
    # array.js:304-315 (jl === 1) — one non-required inclusion: failures
    # report the item schema's own error
    t = pa.table({"x": pa.array([["ab", "x"]], type=LIST_STR)})
    schema = jr.array().items(jr.string().max(1))
    res = run(obj({"x": schema}), t)
    vs = res.violations.to_pylist()
    assert [v["code"] for v in vs] == ["string.max"]
    assert vs[0]["item_index"] == 0


# --------------------------------------------------------- stripUnknown
def test_strip_unknown_plain_true_still_errors():
    # array.js:436-457 — stripUnknown: true (boolean form) does NOT strip
    # array items; unmatched items still error array.includes
    t = pa.table({"x": pa.array([["a", "zzz", "1"]], type=LIST_STR)})
    schema = jr.array().items(jr.string().max(1), jr.string().pattern(r"^\d+$"))
    res = run(obj({"x": schema}), t, prefs={"strip_unknown": True})
    assert codes(res) == ["array.includes"]


def test_strip_unknown_arrays_object_form_strips():
    # array.js:459-467 — stripUnknown: {arrays: true} silently drops
    # unmatched items from the output
    t = pa.table({"x": pa.array([["a", "zzz", "1"], ["a", "1"]], type=LIST_STR)})
    schema = jr.array().items(jr.string().max(1), jr.string().pattern(r"^\d+$"))
    res = run(
        obj({"x": schema}), t,
        prefs={"strip_unknown": {"arrays": True, "objects": False}},
    )
    assert list(res.ok) == [True, True], res.violations.to_pylist()
    out = res.value.column("x").to_pylist()
    assert out == [["a", "1"], ["a", "1"]]


# ------------------------------------------------- single() + JSON coerce
def test_single_wraps_json_unparseable_string():
    # array.js:36-49 + :67-74 — with single(), a string that is not a JSON
    # array is wrapped as [value] instead of erroring array.base
    t = pa.table({"x": pa.array(['["a","b"]', "plain"], type=pa.string())})
    schema = jr.array().items(jr.string()).single()
    res = run(obj({"x": schema}), t)
    assert list(res.ok) == [True, True], res.violations.to_pylist()
    assert res.value.column("x").to_pylist() == [["a", "b"], ["plain"]]


# ------------------------------------------------- one items loop per batch
def _row_violations(res, row):
    return [(v["path"], v["item_index"], v["code"], v["context"], v["message"])
            for v in res.violations.to_pylist() if v["row"] == row]


def test_empty_row_result_does_not_depend_on_its_batch():
    # array.js:341-350: after the loop the missed requireds are reported
    # before the missed ordered slots — for an empty row validated alone
    # (every item list in the batch empty) and beside a non-empty row alike
    schema = obj({"a": jr.array().items(jr.string().required())
                  .ordered(jr.number().required(), jr.number().required())})
    for prefs in ({}, {"abort_early": False}):
        cs = compile_schema(schema, prefs=prefs)
        alone = cs.validate_table(pa.table({"a": pa.array([[]], type=pa.list_(pa.float64()))}))
        beside = cs.validate_table(pa.table({"a": pa.array([[], [1.0]])}))
        got = _row_violations(alone, 0)
        assert got == _row_violations(beside, 0), prefs
        assert got[0][2:4] == ("array.includesRequiredUnknowns", '{"unknownMisses": 1}')
        assert not alone.ok[0] and not beside.ok[0]


def test_ordered_slot_item_does_not_claim_a_required_item():
    # the ordered branch `continue`s before the requireds loop
    # (array.js:222-231 vs :233-258): row 0's only item fills the slot,
    # so the required items schema misses; row 1's second item claims it
    schema = obj({"a": jr.array().ordered(jr.number()).items(jr.number().required())})
    res = run(schema, pa.table({"a": pa.array([[1.0], [1.0, 2.0]])}))
    assert [(v["row"], v["code"], v["context"]) for v in res.violations.to_pylist()] == [
        (0, "array.includesRequiredUnknowns", '{"unknownMisses": 1}')]
    assert list(res.ok) == [False, True]


def test_branch_promotion_may_lose_items_outside_the_branch():
    # the items' adoption promotes the list type when every item the
    # array owns survives it; a when() branch owns only its own rows, so
    # 'abc' in an otherwise-row does not block the number promotion of the
    # then-rows.  Row 0 converts to [1, 1] and unique() sees the duplicate
    # (array.js:297 value[i] = res.value before the unique rule)
    schema = obj({"t": jr.boolean(), "x": jr.array().when(
        "t", is_=True, then=jr.array().items(jr.number()).unique(),
        otherwise=jr.array().items(jr.string()))})
    tbl = pa.table({"t": [True, False, True],
                    "x": pa.array([["1", "1.0"], ["abc"], ["2"]], type=LIST_STR)})
    for prefs in ({}, {"abort_early": False}):
        res = compile_schema(schema, prefs=prefs).validate_table(tbl)
        assert [(v["row"], v["item_index"], v["code"], v["message"])
                for v in res.violations.to_pylist()] == [
            (0, 1, "array.unique", '"x[1]" contains a duplicate value')]
        assert list(res.ok) == [False, True, True]
        assert res.value.column("x").to_pylist() == [["1", "1"], ["abc"], ["2"]]


def test_includes_reports_post_splice_index():
    # a strip-flagged inclusion splices its match out during the loop
    # (fastSplice, i--), so a later unmatched item reports array.includes
    # at its CURRENT index (array.js inclusions loop: path [..., i])
    schema = obj({"x": jr.array().items(jr.number().max(5).strip(), jr.number().min(100))})
    res = run(schema, pa.table({"x": pa.array([[1.0, 50.0, 2.0, 60.0]])}))
    assert [(v["item_index"], v["code"], v["message"]) for v in res.violations.to_pylist()] == [
        (0, "array.includes", '"x[0]" does not match any of the allowed types'),
        (1, "array.includes", '"x[1]" does not match any of the allowed types')]
    assert res.value.column("x").to_pylist() == [[50.0, 60.0]]


def test_lone_inclusion_reports_the_items_own_errors():
    # `jl === 1` (array.js:304-315): one inclusion reports the item's own
    # error instead of array.includes; stripUnknown.arrays strips it
    # silently; a lone required claims a clean item per row
    schema = obj({"x": jr.array().items(jr.number().min(10).required())})
    tbl = pa.table({"x": pa.array([[5.0, 20.0], [3.0], []])})
    res = run(schema, tbl)
    assert [(v["row"], v["item_index"], v["code"]) for v in res.violations.to_pylist()] == [
        (0, 0, "number.min"), (1, 0, "number.min"),
        (1, -1, "array.includesRequiredUnknowns"), (2, -1, "array.includesRequiredUnknowns")]
    res = run(schema, tbl, {"strip_unknown": {"arrays": True}})
    assert [(v["row"], v["code"]) for v in res.violations.to_pylist()] == [
        (1, "array.includesRequiredUnknowns"), (2, "array.includesRequiredUnknowns")]
    assert res.value.column("x").to_pylist() == [[20.0], [], []]


# ------------------------------------------- sort() under convert=False
def _structs(fields, rows):
    return pa.array(rows, type=pa.list_(pa.struct(fields)))


_NAN = float("nan")
_DAY = [dt.datetime(2020, 1, d) for d in (1, 2)]
SORT_CHECK_VECTORS = {
    # an undefined item sorts after an undefined by-value, both after every
    # defined value, whatever the order (array.js:747-760, 790-801)
    "by_int_null_value_and_item": (
        jr.object({"x": jr.number()}), {"by": "x"},
        _structs([("x", pa.int64())], [
            [{"x": 1}, {"x": 2}, {"x": 2}], [{"x": 2}, {"x": 1}], [{"x": 1}, {"x": None}, {"x": 3}],
            [{"x": 1}, {"x": 3}, {"x": None}, None], [{"x": 1}, None, {"x": None}], [], None,
            [None, {"x": 0}]]),
        [True, False, False, True, False, True, True, False]),
    # NaN ranks as an undefined by-value; -0.0 equals 0.0
    "by_float_nan_signed_zero": (
        jr.object({"f": jr.any_()}), {"by": "f"},
        _structs([("f", pa.float64())], [
            [{"f": 1.5}, {"f": 1.5}, {"f": 2.0}], [{"f": 0.0}, {"f": -0.0}, {"f": 0.0}],
            [{"f": 1.0}, {"f": _NAN}, {"f": 2.0}], [{"f": 1.0}, {"f": 2.0}, {"f": _NAN}],
            [{"f": _NAN}, {"f": _NAN}], [{"f": 3.0}, {"f": -1.0}], [{"f": _NAN}, {"f": None}]]),
        [True, True, False, True, True, False, True]),
    "descending": (
        jr.number(), {"order": "descending"},
        pa.array([[3, 2, 2, 1], [1, 2], [3, None], [None, 3], [5]], pa.list_(pa.int64())),
        [True, False, True, False, True]),
    # strings compare by code point: "B" < "a" < "z" < "é"
    "plain_string_with_nulls": (
        jr.string(), {},
        pa.array([["a", "b", "b"], ["b", "a"], ["a", None, "b"], ["a", "b", None], ["B", "a"],
                  ["a", "B"], ["z", "é"], ["é", "z"]], pa.list_(pa.string())),
        [True, False, False, True, True, False, True, False]),
    "by_nested_field": (
        jr.object({"a": jr.object({"b": jr.number()})}), {"by": "a.b"},
        _structs([("a", pa.struct([("b", pa.int64())]))], [
            [{"a": {"b": 1}}, {"a": {"b": 2}}], [{"a": {"b": 2}}, {"a": {"b": 1}}],
            [{"a": None}, {"a": {"b": 1}}], [{"a": {"b": 1}}, {"a": {"b": None}}]]),
        [True, False, False, True]),
    "by_timestamp_field": (
        jr.object({"t": jr.any_()}), {"by": "t"},
        _structs([("t", pa.timestamp("ms"))], [
            [{"t": _DAY[0]}, {"t": _DAY[1]}], [{"t": _DAY[1]}, {"t": _DAY[0]}],
            [{"t": None}, {"t": _DAY[0]}], [{"t": _DAY[1]}, {"t": _DAY[1]}, {"t": None}]]),
        [True, False, False, True]),
}


@pytest.mark.parametrize("name", list(SORT_CHECK_VECTORS))
def test_sort_check_vectors(name):
    # array.js:420-452: each out-of-order row reports one array.sort
    items, args, col, ok = SORT_CHECK_VECTORS[name]
    schema = jr.array().items(items).sparse().sort(**args, convert=False)
    res = run(obj({"a": schema}), pa.table({"a": col}))
    assert res.ok.tolist() == ok
    by, order = args.get("by", "value"), args.get("order", "ascending")
    assert [(v["row"], v["code"], v["item_index"], v["context"], v["message"])
            for v in res.violations.to_pylist()] == [
        (row, "array.sort", -1, f'{{"by": "{by}", "order": "{order}"}}',
         f'"a" must be sorted in {order} order by {by}')
        for row, good in enumerate(ok) if not good]
