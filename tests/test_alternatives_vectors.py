"""Reference alternatives conditional-match vectors (reference:
/root/reference/test/types/alternatives.js, lines cited per test).
``alternatives().when()`` adds a MATCH entry whose selected branch's result
is final for that row — no fall-through to later try branches
(lib/types/alternatives.js:36-57)."""

import pyarrow as pa

import joi_ray as jr
from joi_ray import build, compile_schema, object as obj


def run(root, tbl, prefs=None):
    return compile_schema(root, prefs={"abort_early": False, **(prefs or {})}).validate_table(tbl)


def codes(res, row):
    return [v["code"] for v in res.violations.to_pylist()
            if v["severity"] == "error" and v["row"] == row]


def msg(res, row):
    return [v["message"] for v in res.violations.to_pylist() if v["row"] == row]


def test_conditional_then_otherwise():
    # alternatives.js:966-1014 — then/otherwise literal branches
    a = jr.alternatives().when("b", is_=5, then="x", otherwise="y")
    t = pa.table({"a": ["x", "x", "y", "y", "z", "z"], "b": [5, 6, 5, 6, 5, 6]})
    res = run(obj({"a": a, "b": jr.any_()}), t)
    assert [bool(b) for b in res.ok] == [True, False, False, True, False, False]
    assert '"a" must be one of [y]' in msg(res, 1)[0]
    assert '"a" must be one of [x]' in msg(res, 2)[0]
    assert '"a" must be one of [x]' in msg(res, 4)[0]
    assert '"a" must be one of [y]' in msg(res, 5)[0]


def test_conditional_only_then_with_try():
    # alternatives.js:1254-1304 — matched condition returns the then-branch
    # result; 'z' (a later try) is NOT tried when b == 5
    a = jr.alternatives().when(jr.Ref("b"), is_=5, then="x").try_(jr.string().valid("z"))
    t = pa.table({"a": ["x", "x", "y", "y", "z", "z"], "b": [5, 6, 5, 6, 5, 6]})
    res = run(obj({"a": a, "b": jr.any_()}), t)
    assert [bool(b) for b in res.ok] == [True, False, False, False, False, True]
    assert '"a" must be one of [z]' in msg(res, 1)[0]
    assert '"a" must be one of [x]' in msg(res, 2)[0]
    assert '"a" must be one of [x]' in msg(res, 4)[0]


def test_conditional_only_otherwise():
    # alternatives.js:1305-1355 — unmatched condition returns the otherwise
    # branch; matched falls through to try branches
    a = jr.alternatives().when("b", is_=5, otherwise="y").try_(jr.string().valid("z"))
    t = pa.table({"a": ["y", "y", "z", "z"], "b": [5, 6, 5, 6]})
    res = run(obj({"a": a, "b": jr.any_()}), t)
    assert [bool(b) for b in res.ok] == [False, True, True, False]
    assert '"a" must be one of [z]' in msg(res, 0)[0]
    assert '"a" must be one of [y]' in msg(res, 3)[0]


def test_then_after_otherwise_only_when():
    # alternatives.js:1356-1381 — a preceding when with ONLY otherwise lets
    # matching rows continue to the next when's then
    a = (jr.alternatives()
         .when("b", is_=5, otherwise=jr.number())
         .when("c", is_=5, then=jr.string().valid("x")))
    t = pa.table({"a": ["x", "x", "7"], "b": [5, 5, 6], "c": [5, 6, 0]})
    res = run(obj({"a": a, "b": jr.any_(), "c": jr.any_()}), t)
    # row0: b==5 (no otherwise taken) -> c==5 -> then 'x' ok
    # row1: b==5 -> c==6 no then -> nothing matched -> fails
    # row2: b==6 -> otherwise number -> "7" converts
    assert [bool(b) for b in res.ok] == [True, False, True]


def test_conditional_is_ref():
    # alternatives.js:1422-1470 — `is` itself carries a ref-valued rule
    a = jr.alternatives().when(
        "b", is_=jr.number().valid(jr.Ref("c")), then=jr.string().valid("x"))
    t = pa.table({"a": ["x", "x"], "b": [5, 5], "c": [5, 6]})
    res = run(obj({"a": a, "b": jr.any_(), "c": jr.any_()}), t)
    # row0: b == c -> then 'x' ok; row1: b != c, no otherwise -> no match
    assert [bool(b) for b in res.ok] == [True, False]
    assert codes(res, 1) == ["alternatives.base"]


def test_conditional_then_has_ref():
    # alternatives.js:1555-1586 — branch schema resolves a sibling ref
    a = jr.alternatives().when("b", is_=5, then=jr.number().valid(jr.Ref("c")))
    t = pa.table({"a": [1.0, 2.0], "b": [5, 5], "c": [1, 1]})
    res = run(obj({"a": a, "b": jr.any_(), "c": jr.any_()}), t)
    assert [bool(b) for b in res.ok] == [True, False]


def test_peek_inside_simple_value():
    # alternatives.js:1725-1741 — schema condition evaluated on OWN value
    a = jr.alternatives().when(jr.number().min(0), then=jr.number().min(10),
                               otherwise=jr.number().max(-10))
    t = pa.table({"a": [12.0, 5.0, -5.0, -12.0]})
    res = run(obj({"a": a}), t)
    assert [bool(b) for b in res.ok] == [True, False, False, True]
    assert codes(res, 1) == ["number.min"]
    assert codes(res, 2) == ["number.max"]


def test_alternatives_switch_on_alternatives():
    # alternatives.js:1770-1827 — when(..., switch=[...]) expands to
    # ordered conditional entries
    a = jr.alternatives().when("b", switch=[
        {"is": 0, "then": jr.string().valid("zero")},
        {"is": 1, "then": jr.string().valid("one"), "otherwise": jr.string().valid("other")},
    ])
    t = pa.table({"a": ["zero", "one", "other", "one"], "b": [0, 1, 2, 2]})
    res = run(obj({"a": a, "b": jr.any_()}), t)
    assert [bool(b) for b in res.ok] == [True, True, True, False]
    assert '"a" must be one of [other]' in msg(res, 3)[0]


def test_conditional_describe_build_roundtrip():
    # manifest round-trip of conditional match entries
    for s in (
        jr.alternatives().when("b", is_=5, then="x", otherwise="y"),
        jr.alternatives().when(jr.number().min(0), then=jr.number().min(10)),
        jr.alternatives().when("b", is_=5, then=jr.string()).try_(jr.number()),
    ):
        assert build(s.describe()) == s, s.describe()


def test_no_alternatives_undefined_ok():
    # alternatives.js:36-39 — undefined passes an empty alternatives;
    # defined value with no matches -> alternatives.base (error :19-34 is
    # alternatives.any in rc2; the engine reports the no-branch union code)
    a = jr.alternatives()
    t = pa.table({"a": pa.array([None, "x"], type=pa.string())})
    res = run(obj({"a": a}), t)
    assert bool(res.ok[0]) is True
    assert bool(res.ok[1]) is False


def test_label_passes_to_underlying_schema():
    # alternatives.js:366-419 — label renders in branch and union errors
    t = pa.table({"a": pa.array([True], type=pa.bool_())})
    single = jr.alternatives(jr.number()).label("Age")
    res = run(obj({"a": single}), t)
    assert msg(res, 0) == ['"Age" must be a number']
    union = jr.alternatives(jr.number(), jr.string()).label("Age")
    res2 = run(obj({"a": union}), t)
    assert msg(res2, 0) == ['"Age" must be one of [number, string]']


def test_label_applies_to_then_otherwise():
    # alternatives.js:485-579 — label maps into conditional branches
    a = (jr.alternatives()
         .when("c", is_=True, then=jr.string(), otherwise=jr.number())
         .label("Label"))
    t = pa.table({"a": pa.array([1, 2], type=pa.int64()), "c": [True, False]})
    res = run(obj({"a": a, "c": jr.any_()}), t)
    assert msg(res, 0) == ['"Label" must be a string']
    assert bool(res.ok[1]) is True


def test_error_override_top_level():
    # alternatives.js:350-361 (template form) — error() replaces the union
    # error of the node itself
    s = jr.alternatives(jr.number(), jr.string()).error("failed!")
    t = pa.table({"x": pa.array([True], type=pa.bool_())})
    res = run(obj({"x": s}), t)
    assert msg(res, 0) == ["failed!"]


def test_schema_local_messages_reach_alternatives_reports():
    # validator.js:116-118 — the node's merged prefs make its reports, so
    # schema-local messages reach the union error and the presence error
    s = (jr.alternatives(jr.number(), jr.boolean()).required()
         .preferences(messages={"alternatives.types": "ALT!", "any.required": "REQ!"}))
    res = run(obj({"x": s}), pa.table({"x": pa.array(["a", None])}))
    assert msg(res, 0) == ["ALT!"]
    assert msg(res, 1) == ["REQ!"]


def test_alternatives_insensitive_valid_returns_stored_value():
    # joi's valids stage runs for every type before the type dispatch, and
    # under convert a match returns the stored value (validator.js:194-201):
    # 'ABC' matching valid('abc').insensitive() becomes 'abc' on an
    # alternatives exactly as on a string
    t = pa.table({"a": ["ABC", "abc"]})
    for a in (jr.alternatives().try_(jr.number()).valid("abc").insensitive(),
              jr.string().valid("abc").insensitive()):
        res = run(obj({"a": a}), t)
        assert res.value.column("a").to_pylist() == ["abc", "abc"]
        assert res.ok.tolist() == [True, True]


def test_alternatives_allow_none_settles_a_required_missing_value():
    # allow(None) lets a missing value through before presence can report
    # it (validator.js:168-201: a null passes presence and matches the
    # valids), on an alternatives as on a number
    t = pa.table({"a": pa.array([None, 1.0, None], pa.float64())})
    for a in (jr.alternatives().try_(jr.number()).allow(None).required(),
              jr.number().allow(None).required()):
        res = run(obj({"a": a}), t)
        assert res.ok.tolist() == [True, True, True]
        assert res.violations.num_rows == 0


def test_alternatives_only_report_returns_under_abort_early():
    # under abortEarly joi returns at the valids stage's any.only
    # (validator.js:194-227): the row is never tried against the matches,
    # so it keeps its input value, and the valid row keeps its own
    a = jr.alternatives().try_(jr.number()).valid("x")
    res = compile_schema(obj({"a": a})).validate_table(pa.table({"a": ["7", "x"]}))
    assert res.ok.tolist() == [False, True]
    assert codes(res, 0) == ["any.only"]
    assert res.value.column("a").to_pylist() == ["7", "x"]


def test_alternatives_empty_value_is_missing():
    # joi's empty stage runs for every type before presence (validator.js:
    # 162-165): a value empty() names becomes undefined on an alternatives
    # exactly as on a string, so optional passes it and required reports it
    t = pa.table({"a": ["x", "abcd"]})
    for a in (jr.alternatives().try_(jr.string().min(3)).empty("x"), jr.string().min(3).empty("x")):
        res = run(obj({"a": a}), t)
        assert res.ok.tolist() == [True, True]
        assert res.value.column("a").to_pylist() == [None, "abcd"]
        res = run(obj({"a": a.required()}), t)
        assert codes(res, 0) == ["any.required"]


def test_alternatives_valids_match_keeps_its_value_beside_a_branch_value():
    # joi's valids stage returns the matched value (validator.js:197-201);
    # a try-branch of another output type on other rows must not cast it
    # away.  The column holds the mixed-type value repr ('7' for 7.0), and
    # refs see each row's typed value
    a = jr.alternatives().try_(jr.number()).allow("abc")
    res = run(obj({"a": a}), pa.table({"a": ["abc", "7"]}))
    assert res.ok.tolist() == [True, True]
    assert res.value.column("a").to_pylist() == ["abc", "7"]
    res = run(obj({"a": a, "b": jr.number().valid(jr.ref("a"))}),
              pa.table({"a": ["abc", "7"], "b": pa.array([None, 7.0])}))
    assert res.ok.tolist() == [True, True]
