"""Reference ref test vectors (reference: /root/reference/test/ref.js,
lines cited per test): joi dot convention, nested-path refs, virtual
``length``, map/adjust/ancestor/separator options, self refs in when()."""

import pyarrow as pa
import pytest

import joi_ray as jr
from joi_ray import build, compile_schema, object as obj


def run(root, tbl, prefs=None):
    return compile_schema(root, prefs={"abort_early": False, **(prefs or {})}).validate_table(tbl)


def test_reaches_parent_plain_and_dotdot():
    # ref.js:63-81 — 'a' and '..a' are the same (ancestor 1)
    t = pa.table({"a": [1, 1], "a1": [1, 2], "a2": [1, 2]})
    s = obj({"a": jr.any_(), "a1": jr.any_().valid(jr.ref("a")),
             "a2": jr.any_().valid(jr.ref("..a"))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]
    assert sorted(v["path"] for v in res.violations.to_pylist()) == ["a1", "a2"]


def test_reaches_grandparent():
    # ref.js:82-103 — '...a' climbs one object level
    st = pa.struct({"a1": pa.int64(), "a2": pa.int64()})
    t = pa.table({"a": [1, 1], "b": pa.array([{"a1": 1, "a2": 1}, {"a1": 1, "a2": 2}], type=st)})
    s = obj({"a": jr.any_(),
             "b": jr.object({"a1": jr.any_().valid(jr.ref("...a")),
                             "a2": jr.any_().valid(jr.ref("...a"))})})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]


def test_ancestor_option():
    # ref.js:294-382 — explicit ancestor option equals the dot prefix
    st = pa.struct({"a1": pa.int64()})
    t = pa.table({"a": [1, 1], "b": pa.array([{"a1": 1}, {"a1": 5}], type=st)})
    s = obj({"a": jr.any_(),
             "b": jr.object({"a1": jr.any_().valid(jr.ref("a", ancestor=2))})})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]
    with pytest.raises(ValueError):
        jr.ref("..x", ancestor=2)  # prefix + ancestor option (ref.js:53)


def test_nested_keys_as_valid_value():
    # ref.js:891-934 — dotted path traverses struct fields
    st = pa.struct({"b": pa.struct({"c": pa.string()})})
    t = pa.table({"a": pa.array([{"b": {"c": "x"}}, {"b": {"c": "x"}}], type=st),
                  "v": ["x", "y"]})
    s = obj({"a": jr.object({"b": jr.object({"c": jr.string()})}),
             "v": jr.string().valid(jr.Ref("a.b.c"))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]


def test_references_array_length():
    # ref.js:618-646 — virtual length segment on a list column
    t = pa.table({"x": pa.array([[1, 2], [1, 2, 3]], type=pa.list_(pa.int64())),
                  "n": [2, 5]})
    s = obj({"x": jr.array().items(jr.number()),
             "n": jr.number().valid(jr.ref("x.length"))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]


def test_references_string_length():
    # JS property semantics: 'abc'.length
    t = pa.table({"x": ["ab", "abc"], "n": [2, 2]})
    s = obj({"x": jr.string(), "n": jr.number().valid(jr.ref("x.length"))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]


def test_map_option():
    # ref.js:810-857 — map rewrites the resolved value
    t = pa.table({"a": ["x", "x", "y"], "b": [1, 2, 3]})
    s = obj({"a": jr.any_(),
             "b": jr.number().valid(jr.ref("a", map=[["x", 1], ["y", 3]]))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False, True]


def test_adjust_option():
    # ref.js:762-809 — adjust function post-processes the resolved value
    t = pa.table({"a": [2, 2], "b": [4, 5]})
    s = obj({"a": jr.any_(),
             "b": jr.number().valid(jr.ref("a", adjust=lambda v: v * 2))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]
    with pytest.raises(ValueError):
        jr.ref("a", map=[["x", 1]], adjust=lambda v: v)  # ref.js:94


def test_custom_separator():
    # ref.js:1398-1401 — custom separator splits the path
    st = pa.struct({"c": pa.int64()})
    t = pa.table({"a": pa.array([{"c": 1}, {"c": 1}], type=st), "b": [1, 2]})
    s = obj({"a": jr.object({"c": jr.number()}),
             "b": jr.number().valid(jr.ref("a/c", separator="/"))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]


def test_separator_false_literal_key():
    # separator=False treats the whole path as one literal key
    t = pa.table({"a.b": [7, 7], "v": [7, 8]})
    s = obj({"a.b": jr.number(), "v": jr.number().valid(jr.ref("a.b", separator=False))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, False]


def test_self_ref_in_when():
    # ref.js:40-61 — when('.a') peeks at the node's OWN child
    st = pa.struct({"a": pa.bool_(), "b": pa.string()})
    t = pa.table({"x": pa.array(
        [{"a": True, "b": "x"}, {"a": True, "b": None}, {"a": False, "b": None}], type=st)})
    inner = jr.object({"a": jr.boolean().required(), "b": jr.string()}).when(
        ".a", is_=True, then=jr.object({"b": jr.string().required()}))
    res = run(obj({"x": inner}), t)
    assert [bool(b) for b in res.ok] == [True, False, True]


def test_ref_describe_roundtrip():
    # map/separator/ancestor options survive describe()/build()
    for s in (
        jr.number().valid(jr.ref("a", map=[["x", 1]])),
        jr.number().valid(jr.ref("a/c", separator="/")),
        jr.number().valid(jr.ref("a", ancestor=2)),
        jr.number().min(jr.ref("...cap")),
    ):
        assert build(s.describe()) == s, s.describe()


def test_context_nested_path():
    t = pa.table({"v": ["x", "y"]})
    s = obj({"v": jr.string().valid(jr.ref("$cfg.name"))})
    res = run(s, t, prefs={"context": {"cfg": {"name": "x"}}})
    assert [bool(b) for b in res.ok] == [True, False]


def test_ref_as_default_value():
    # ref.js:993-1034 — default resolves a sibling per row
    t = pa.table({"a": ["x", "y"], "b": pa.array([None, "z"], type=pa.string())})
    s = obj({"a": jr.string(), "b": jr.string().default(jr.ref("a"))})
    res = run(s, t)
    assert [bool(b) for b in res.ok] == [True, True]
    assert res.value["b"].to_pylist() == ["x", "z"]


def test_no_defaults_pref():
    # base.js:1104-1155 — noDefaults skips default AND failover
    t = pa.table({"b": pa.array([None], type=pa.string())})
    s = obj({"b": jr.string().default("d")})
    res = run(s, t, prefs={"no_defaults": True})
    assert res.value["b"].to_pylist() == [None]
    res2 = run(s, t)
    assert res2.value["b"].to_pylist() == ["d"]


def test_callable_default_factory():
    # base.js:893-919 — zero-arg factory default evaluated at validate time
    t = pa.table({"b": pa.array([None, "v"], type=pa.string())})
    s = obj({"b": jr.string().default(lambda: "gen")})
    res = run(s, t)
    assert res.value["b"].to_pylist() == ["gen", "v"]


def test_unbound_context_ref_fires_any_ref_per_row():
    # node-verified: joi resolves an unbound global ref to undefined and the
    # rule's ARG ASSERT fires per-row any.ref — for EVERY row the rule runs
    # on, with the ref display in the message (ref.js:207 'ref:global:lim')
    import joi_ray as jr
    import pyarrow as pa

    s = jr.object({"x": jr.number().max(jr.ref("$lim"))})
    cs = jr.compile_schema(s, prefs={"abort_early": False})
    res = cs.validate_table(pa.table({"x": [2.0, 5.0]}))
    assert res.violations["code"].to_pylist() == ["any.ref", "any.ref"]
    assert res.violations["message"].to_pylist()[0] == (
        '"x" limit references "ref:global:lim" which must be a number'
    )
    # bound: the rule runs normally
    cs2 = jr.compile_schema(s, prefs={"abort_early": False, "context": {"lim": 3}})
    res2 = cs2.validate_table(pa.table({"x": [2.0, 5.0]}))
    assert res2.violations["code"].to_pylist() == ["number.max"]


def test_ref_display_forms():
    # ref.js:204-233 updateDisplay, node semantics
    from joi_ray.spec import Ref

    assert Ref("$lim").display == "ref:global:lim"
    assert Ref("/a").display == "ref:root:a"
    assert Ref("a").display == "ref:a"
    assert Ref(".a").display == "ref:.a"
    assert Ref("...a").display == "ref:...a"
    assert Ref("a", ancestor=3).display == "ref:....a"


def test_value_token_empty_on_any_ref():
    # node-verified: a custom message's {[.]} renders '' on the arg-assert
    # any.ref (the report's value is undefined there)
    import joi_ray as jr
    import pyarrow as pa

    s = jr.object({"x": jr.number().max(jr.ref("$lim")).message("v={[.]} on {{#label}}")})
    cs = jr.compile_schema(s, prefs={"abort_early": False})
    res = cs.validate_table(pa.table({"x": [7.0]}))
    assert res.violations["message"].to_pylist() == ["v= on x"]


def test_local_ref_in_rule_arg_and_root_label():
    import joi_ray as jr
    import pyarrow as pa

    # node-verified: local refs resolve undefined in rule-arg position ->
    # any.ref with display 'ref:local:loc' (ref.js:74-78,207)
    s = jr.object({"x": jr.number().max(jr.ref("#loc"))})
    res = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(pa.table({"x": [5.0]}))
    assert res.violations["message"].to_pylist() == [
        '"x" limit references "ref:local:loc" which must be a number'
    ]
    assert jr.build(s.describe()) == s  # '#' refs round-trip the manifest
    # node-verified: prefs.messages.root renames the root label
    s2 = jr.object({"a": jr.number(), "b": jr.number()}).and_("a", "b")
    t = pa.table({"a": [1.0], "b": [None]},
                 schema=pa.schema([("a", pa.float64()), ("b", pa.float64())]))
    res2 = jr.compile_schema(s2, prefs={"abort_early": False, "messages": {"root": "myroot"}}).validate_table(t)
    assert res2.violations["message"].to_pylist() == [
        '"myroot" contains [a] without its required peers [b]'
    ]


def test_any_ref_report_value_is_resolved_arg():
    # fuzz seed 44248 (node-verified): joi's any.ref report VALUE is the
    # RESOLVED (pre-normalize) arg (validator.js:289), so a custom {[.]}
    # message renders 'abc' for a bound wrong-type context ref and ''
    # (dropped undefined) for an unbound one
    import joi_ray as jr
    import pyarrow as pa

    s = jr.object({"x": jr.number().max(jr.ref("$lim")).message("v={[.]} on {{#label}}")})
    r = jr.compile_schema(s, prefs={"abort_early": False, "context": {"lim": "abc"}}).validate_table(
        pa.table({"x": [7.0]}))
    assert r.violations["message"].to_pylist() == ["v=abc on x"]
    r2 = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(pa.table({"x": [7.0]}))
    assert r2.violations["message"].to_pylist() == ["v= on x"]


# ---- refs read joi's shadow (validator.js:414-417, ref.js _resolve): the
# converted value of a raw() key, whatever node wraps it

def _ok(res):
    return [bool(b) for b in res.ok]


def _codes(res):
    return sorted((v["row"], v["path"], v["code"]) for v in res.violations.to_pylist())


_ALT_RAW = jr.alternatives().try_(jr.number().raw(), jr.boolean().raw())
_NESTED_TBL = pa.table({"a": ["5", "true", "7"], "b": [4.0, 1.0, 9.0], "k": [1, 1, 1]})


@pytest.mark.parametrize("a", [
    _ALT_RAW,
    jr.any_().when("k", is_=1, then=_ALT_RAW),
    jr.alternatives().try_(_ALT_RAW),
], ids=["plain", "in_when", "in_alternatives"])
def test_cross_type_shadow_survives_nesting(a):
    # '5' and '7' shadow as numbers, 'true' as a boolean the number limit
    # rejects: a when() or alternatives around the same node keeps that
    res = run(obj({"a": a, "b": jr.number().max(jr.ref("a")), "k": jr.number()}), _NESTED_TBL)
    assert _ok(res) == [True, False, False]
    assert _codes(res) == [(1, "b", "any.ref"), (2, "b", "number.max")]


_RAW_A = {"a": jr.number().raw()}


def test_valid_ref_reads_raw_shadow():
    res = run(obj({**_RAW_A, "b": jr.number().valid(jr.ref("a"))}),
              pa.table({"a": ["5", "6"], "b": [5.0, 7.0]}))
    assert _ok(res) == [True, False]
    assert _codes(res) == [(1, "b", "any.only")]


def test_default_ref_adopts_raw_shadow():
    res = run(obj({**_RAW_A, "b": jr.number().default(jr.ref("a"))}),
              pa.table({"a": ["5", "6"], "b": pa.array([None, None], pa.float64())}))
    assert _ok(res) == [True, True]
    assert res.value.column("a").to_pylist() == ["5", "6"]
    assert res.value.column("b").to_pylist() == [5, 6]


def test_multiple_ref_reads_raw_shadow():
    res = run(obj({**_RAW_A, "b": jr.number().multiple(jr.ref("a"))}),
              pa.table({"a": ["5", "6"], "b": [10.0, 7.0]}))
    assert _ok(res) == [True, False]
    assert _codes(res) == [(1, "b", "number.multiple")]


def test_max_ref_reads_raw_shadow():
    res = run(obj({**_RAW_A, "b": jr.number().max(jr.ref("a"))}),
              pa.table({"a": ["5", "6"], "b": [4.0, 7.0]}))
    assert _ok(res) == [True, False]
    assert _codes(res) == [(1, "b", "number.max")]


def test_valid_ref_keeps_clean_rows_beside_blocked_failover():
    # the failover 5 cannot live in a's string column (an AltView pair);
    # the clean 'xy' row must still resolve 'xy', not undefined
    s = obj({"a": jr.string().min(2).failover(5), "b": jr.any_().valid(jr.ref("a"))})
    res = run(s, pa.table({"a": ["xy", "z"], "b": ["xy", "xy"]}))
    assert _ok(res) == [True, False]
    assert _codes(res) == [(1, "b", "any.only")]


# ---- one resolution for every ref consumer (ref.js:137-143): a clean row
# reads the converted value or shadow, an errored key its raw original
# (object.js:125-140), whatever rule takes the ref

_FAILOVER_A = {"a": jr.string().min(2).failover(5)}
_FAILOVER_TBL = {"a": ["xy", "z"]}


def test_valid_ref_reads_blocked_failover():
    # row 1's a is the number 5 (a failover the string column cannot hold)
    res = run(obj({**_FAILOVER_A, "b": jr.number().valid(jr.ref("a"))}),
              pa.table({**_FAILOVER_TBL, "b": [3.0, 5.0]}))
    assert _ok(res) == [False, True]
    assert _codes(res) == [(0, "b", "any.only")]


def test_multiple_ref_reads_blocked_failover():
    # row 0's 'xy' fails multiple's number assert; row 1's 5 divides 10
    res = run(obj({**_FAILOVER_A, "b": jr.number().multiple(jr.ref("a"))}),
              pa.table({**_FAILOVER_TBL, "b": [3.0, 10.0]}))
    assert _ok(res) == [False, True]
    assert _codes(res) == [(0, "b", "any.ref")]


def test_default_ref_reads_blocked_failover():
    res = run(obj({**_FAILOVER_A, "b": jr.number().default(jr.ref("a"))}),
              pa.table({**_FAILOVER_TBL, "b": pa.array([None, None], pa.float64())}))
    assert _ok(res) == [True, True]
    assert res.value.column("b").to_pylist()[1] == 5


def test_valid_ref_reads_failed_sibling_original_of_another_type():
    # a's 'x' fails number.base and keeps the raw string, which b matches
    s = obj({"a": jr.number(), "b": jr.string().valid(jr.ref("a"))})
    res = run(s, pa.table({"a": ["5", "x"], "b": ["5", "x"]}))
    assert _ok(res) == [False, False]
    assert _codes(res) == [(0, "b", "any.only"), (1, "a", "number.base")]


_RAW_A_TBL = {"a": ["5", "6"]}


def test_adjust_applies_to_raw_shadow():
    s = obj({**_RAW_A, "b": jr.number().max(jr.ref("a", adjust=lambda v: v * 2))})
    res = run(s, pa.table({**_RAW_A_TBL, "b": [9.0, 13.0]}))
    assert _ok(res) == [True, False]
    assert _codes(res) == [(1, "b", "number.max")]


def test_map_applies_to_raw_shadow():
    s = obj({**_RAW_A, "b": jr.number().max(jr.ref("a", map=[[5, 1], [6, 100]]))})
    res = run(s, pa.table({**_RAW_A_TBL, "b": [3.0, 7.0]}))
    assert _ok(res) == [False, True]
    assert _codes(res) == [(0, "b", "number.max")]


def test_template_valid_keeps_each_row_type():
    # '{a}' resolves the value itself (template.js:150-159): row 1's number
    # 5 does not equal the string '5'
    s = obj({**_FAILOVER_A, "b": jr.any_().valid(jr.x("{a}"))})
    res = run(s, pa.table({**_FAILOVER_TBL, "b": ["xy", "5"]}))
    assert _ok(res) == [True, False]
    assert _codes(res) == [(1, "b", "any.only")]


def test_assert_root_ref_reads_failed_sibling_original():
    # '/x' on row 0 is the raw 'a' (object.js:125-140), which number()
    # rejects, so the assertion fails there too
    s = obj({"x": jr.number(),
             "o": obj({"k": jr.any_()}).assert_("/x", jr.number().min(3))})
    res = run(s, pa.table({"x": ["a", "5"], "o": pa.array([{"k": 1}, {"k": 2}])}))
    assert _ok(res) == [False, True]
    assert _codes(res) == [(0, "o", "object.assert"), (0, "x", "number.base")]


def test_adjust_skips_rows_a_view_hides():
    # the raw strings under a's numeric shadow are not a's value, so an
    # adjust that only takes numbers never sees them
    s = obj({**_RAW_A, "b": jr.number().max(jr.ref("a", adjust=lambda v: v + 1))})
    res = run(s, pa.table({**_RAW_A_TBL, "b": [6.0, 8.0]}))
    assert _ok(res) == [True, False]
    assert _codes(res) == [(1, "b", "number.max")]


def test_adjust_sees_no_hidden_row_of_a_numeric_piece():
    # a's converted column holds 5 on row 0 only; row 1 is the raw 'x'.
    # The numeric piece never hands its hidden row to the adjust (as NaN)
    adj = lambda v: v if isinstance(v, str) else int(v) * 2  # noqa: E731
    s = obj({"a": jr.number(), "b": jr.number().max(jr.ref("a", adjust=adj))})
    res = run(s, pa.table({"a": ["5", "x"], "b": [10.0, 1.0]}))
    assert _ok(res) == [True, False]
    assert _codes(res) == [(1, "a", "number.base"), (1, "b", "any.ref")]


# ---- a dotted ref over a view walks each row's own value (ref.js:137-143)

_RAW_LIST = {"x": jr.array().items(jr.number()).raw()}
_RAW_LIST_TBL = {"x": pa.array([["1", "2"], ["3"]])}


def test_dotted_ref_walks_raw_shadow():
    s = obj({**_RAW_LIST, "n": jr.number().max(jr.ref("x.length"))})
    res = run(s, pa.table({**_RAW_LIST_TBL, "n": [2.0, 1.0]}))
    assert _ok(res) == [True, True]


def test_root_dotted_ref_walks_raw_shadow():
    s = obj({**_RAW_LIST, "o": obj({"n": jr.number().max(jr.ref("/x.length"))})})
    res = run(s, pa.table({**_RAW_LIST_TBL, "o": pa.array([{"n": 2.0}, {"n": 1.0}])}))
    assert _ok(res) == [True, True]


def test_dotted_ref_walks_failed_sibling_original():
    # a keeps its raw strings, so 'a.length' is their length: 5 > 3 fails
    s = obj({"a": jr.number(), "b": jr.number().max(jr.ref("a.length"))})
    res = run(s, pa.table({"a": ["abc", "abcdef"], "b": [5.0, 5.0]}))
    assert _codes(res) == [(0, "a", "number.base"), (0, "b", "number.max"),
                           (1, "a", "number.base")]


def test_dotted_ref_walks_failed_struct_sibling_original():
    # o errored on row 1, so the parent keeps its raw {x: '5'}: 'o.x' is
    # the string '5' there (any.ref) and the converted 5 on row 0
    s = obj({"o": obj({"x": jr.number(), "y": jr.number()}),
             "b": jr.number().max(jr.ref("o.x"))})
    res = run(s, pa.table({"o": pa.array([{"x": "5", "y": "1"}, {"x": "5", "y": "q"}]),
                           "b": [6.0, 6.0]}))
    assert _codes(res) == [(0, "b", "number.max"), (1, "b", "any.ref"),
                           (1, "o.y", "number.base")]


def test_valid_ref_is_listed_in_the_only_report():
    # joi lists the valids with their refs by display (values.js
    # values({display: true}); a ref renders its toString, 'ref:x'), after
    # the static values.  Not node-verified (no reference checkout here)
    s = obj({"x": jr.number(), "y": jr.string().valid(jr.ref("x"))})
    v = run(s, pa.table({"x": [1.0], "y": ["7"]})).violations.to_pylist()
    assert [(r["code"], r["message"], r["context"]) for r in v] == [
        ("any.only", '"y" must be one of [ref:x]', '{"valids": ["ref:x"]}')]
    s = obj({"x": jr.number(), "y": jr.string().valid("a", jr.ref("x"))})
    v = run(s, pa.table({"x": [1.0], "y": ["7"]})).violations.to_pylist()
    assert [r["message"] for r in v] == ['"y" must be one of [a, ref:x]']
    # a template lists by its source
    s = obj({"x": jr.number(), "y": jr.string().valid(jr.expression("{x}"))})
    v = run(s, pa.table({"x": [1.0], "y": ["7"]})).violations.to_pylist()
    assert [(r["message"], r["context"]) for r in v] == [('"y" must be one of [{x}]', '{"valids": ["{x}"]}')]


def test_invalid_ref_is_listed_in_the_invalid_context():
    s = obj({"x": jr.string(), "y": jr.string().invalid("a", jr.ref("x"))})
    v = run(s, pa.table({"x": ["7"], "y": ["7"]})).violations.to_pylist()
    assert [(r["code"], r["context"]) for r in v] == [("any.invalid", '{"invalids": ["a", "ref:x"]}')]
    s = obj({"x": jr.string(), "y": jr.string().invalid(jr.expression("{x}"))})
    v = run(s, pa.table({"x": ["7"], "y": ["7"]})).violations.to_pylist()
    assert [(r["code"], r["context"]) for r in v] == [("any.invalid", '{"invalids": ["{x}"]}')]
