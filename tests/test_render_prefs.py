"""Error-render preference parity: ``errors.wrapArrays``,
``errors.escapeHtml`` and ``dateFormat`` thread into message rendering the
way the reference does (``lib/errors.js:76`` passes ``prefs.errors`` as the
template-render options; ``lib/template.js:185`` escapes non-raw parts,
``:331`` wraps arrays, ``:16-22,99-102`` formats dates per
``prefs.dateFormat``).  Expected strings are node-verified byte-for-byte
against /root/reference/lib (see the session transcript vectors)."""

from __future__ import annotations

import pyarrow as pa

import joi_ray as jr
from joi_ray.kernels.messages import stringify


def _msgs(schema, tbl, prefs):
    cs = jr.compile_schema(schema, prefs={"abort_early": False, **prefs})
    return cs.validate_table(tbl).violations["message"].to_pylist()


def test_wrap_arrays_false_unwraps_valids():
    s = jr.object({"x": jr.string().valid("a", "b")})
    t = pa.table({"x": ["c"]})
    assert _msgs(s, t, {}) == ['"x" must be one of [a, b]']
    assert _msgs(s, t, {"errors": {"wrapArrays": False}}) == ['"x" must be one of a, b']


def test_escape_html_escapes_label_and_values():
    s = jr.object({"x": jr.string().valid("a", "b").label("L<&>")})
    t = pa.table({"x": ["c"]})
    # node: '"L&lt;&amp;&gt;" must be one of [a, b]'
    assert _msgs(s, t, {"errors": {"escapeHtml": True}}) == [
        '"L&lt;&amp;&gt;" must be one of [a, b]'
    ]
    # default escapeHtml:false leaves the label verbatim
    assert _msgs(s, t, {}) == ['"L<&>" must be one of [a, b]']


def test_escape_html_does_not_touch_raw_value_token():
    # {[.]} is a single-brace RAW part in the reference catalog — never
    # escaped even under escapeHtml:true (string/index.js:760)
    s = jr.object({"x": jr.string().pattern(r"^[a-z]+$")})
    t = pa.table({"x": ["A<B"]})
    (m,) = _msgs(s, t, {"errors": {"escapeHtml": True}})
    assert 'with value "A<B"' in m


def test_date_format_variants_node_verified():
    s = jr.object({"d": jr.date().min("2019-06-01")})
    t = pa.table({"d": ["2019-01-01"]})
    expect = {
        "iso": '"d" must be larger than or equal to "2019-06-01T00:00:00.000Z"',
        "utc": '"d" must be larger than or equal to "Sat, 01 Jun 2019 00:00:00 GMT"',
        "date": '"d" must be larger than or equal to "Sat Jun 01 2019"',
        "string": (
            '"d" must be larger than or equal to '
            '"Sat Jun 01 2019 00:00:00 GMT+0000 (Coordinated Universal Time)"'
        ),
        "time": (
            '"d" must be larger than or equal to '
            '"00:00:00 GMT+0000 (Coordinated Universal Time)"'
        ),
    }
    for fmt, want in expect.items():
        assert _msgs(s, t, {"date_format": fmt}) == [want], fmt


def test_js_date_render_year_padding():
    # node: year 99 -> 'Thu Jan 01 0099' / 'Thu, 01 Jan 0099 00:00:00 GMT';
    # year -1 -> 'Fri Jan 01 -0001'; year 275760 unpadded
    from joi_ray.kernels.messages import _js_date_render

    ms_99 = -59042995200000  # 0099-01-01T00:00:00Z
    assert _js_date_render(ms_99, "date") == "Thu Jan 01 0099"
    assert _js_date_render(ms_99, "utc") == "Thu, 01 Jan 0099 00:00:00 GMT"
    assert _js_date_render(-62198755200000, "date") == "Fri Jan 01 -0001"
    assert _js_date_render(int(8.64e15), "date") == "Sat Sep 13 275760"
    assert _js_date_render(int(8.64e15), "utc") == "Sat, 13 Sep 275760 00:00:00 GMT"


def test_wrap_arrays_nested_propagates():
    # reference stringify recurses with the same options (template.js:327)
    from joi_ray.kernels.messages import _stringify

    assert _stringify([["a", "b"], "c"], True, "iso") == "[[a, b], c]"
    assert _stringify([["a", "b"], "c"], False, "iso") == "a, b, c"


def test_override_double_brace_substitutes():
    # node: 'oops x needs 5 got x' — {{..}} and {..} both substitute;
    # double forms first so the single replace can't eat inner braces
    s = jr.object({"x": jr.string().min(5).message("oops {{#label}} needs {{#limit}} got {#label}")})
    t = pa.table({"x": ["ab"]})
    assert _msgs(s, t, {}) == ["oops x needs 5 got x"]


def test_override_escape_raw_split():
    # node escapeHtml:true -> 'esc a&lt;b raw a<b' ({{..}} escaped, {..} raw)
    s = jr.object({"x": jr.string().label("a<b").min(5).message("esc {{#label}} raw {#label}")})
    t = pa.table({"x": ["ab"]})
    assert _msgs(s, t, {"errors": {"escapeHtml": True}}) == ["esc a&lt;b raw a<b"]
    assert _msgs(s, t, {}) == ["esc a<b raw a<b"]


def test_override_unresolved_refs_drop():
    # node: 'a  b  c x' — undefined refs render '' (errors.js render)
    s = jr.object({"x": jr.string().min(5).message("a {{#nope}} b {#missing} c {{#label}}")})
    t = pa.table({"x": ["ab"]})
    assert _msgs(s, t, {}) == ["a  b  c x"]


def test_override_value_token_any_rule():
    # node: 'val 7.5 end' — {[.]} works on any rule, rendered per row, raw
    s = jr.object({"y": jr.number().max(3).message("val {[.]} end")})
    t = pa.table({"y": [7.5, 9.0]})
    assert _msgs(s, t, {}) == ["val 7.5 end", "val 9 end"]


def test_ruleset_asserts_match_reference():
    import pytest

    # node-verified: message()/warn() raise on empty/closed rulesets;
    # flag-setters CLOSE, rule-adds REOPEN (lib/base.js:517,666,812)
    with pytest.raises(ValueError):
        jr.string().message("a")
    with pytest.raises(ValueError):
        jr.string().min(1).message("a").message("b")
    with pytest.raises(ValueError):
        jr.string().min(1).required().message("a")
    with pytest.raises(ValueError):
        jr.string().warn()
    with pytest.raises(ValueError):
        jr.string().ruleset.message("a")
    # legal chains
    jr.string().min(1).message("a").max(2).message("b")
    jr.string().min(2).allow("x").message("m")  # value pushes do NOT close
    s = jr.object({"x": jr.string().ruleset.min(2).max(3).message("boom")})
    t = pa.table({"x": ["a", "aaaa"]})
    assert _msgs(s, t, {}) == ["boom", "boom"]


def _value_msgs(schema, tbl, prefs=None):
    res = jr.compile_schema(schema, prefs={"abort_early": False, **(prefs or {})}).validate_table(tbl)
    return list(zip(res.violations["item_index"].to_pylist(), res.violations["message"].to_pylist()))


# the per-row reference for a value-embedding message: the base render with
# every {value} replaced by the stringified row value
def _pattern_ref(label, v):
    return f'"{label}" with value "{{value}}" fails to match the required pattern: /^a/'.replace(
        "{value}", stringify(v))


def test_value_messages_match_per_row_stringify():
    vals = ['b"q', "x\\y", "é€\U0001F600", "{value}", "{value}{value}", " ", "a"]
    s = jr.object({"x": jr.string().pattern(r"^a")})
    got = _value_msgs(s, pa.table({"x": vals}))
    assert got == [(-1, _pattern_ref("x", v)) for v in vals if not v.startswith("a")]


def test_value_messages_label_with_value_token():
    # joi inserts the label as text: its {value} stays, only the message's
    # own {[.]} takes the row's value (string and non-string values alike)
    vals = ['q"', "zz"]
    s = jr.object({"x": jr.string().pattern(r"^a").label("L{value}")})
    got = _value_msgs(s, pa.table({"x": vals}))
    assert got == [(-1, f'"L{{value}}" with value "{v}" fails to match the required pattern: /^a/')
                   for v in vals]
    s = jr.object({"x": jr.number().min(10).label("L{value}")})
    got = _value_msgs(s, pa.table({"x": [5.0]}), {"messages": {"number.min": "{#label} {[.]}"}})
    assert got == [(-1, "L{value} 5")]


def test_label_placeholders_stay_as_text():
    # joi inserts the label as text, after the template's own placeholders:
    # a context placeholder in the label keeps its braces (not node-verified)
    s = jr.object({"x": jr.number().min(10).label("L{limit}")})
    t = pa.table({"x": [5.0]})
    assert _msgs(s, t, {}) == ['"L{limit}" must be larger than or equal to 10']
    # a user template drops its unresolved refs, not the label's text
    msgs = {"messages": {"number.min": "{#label} / {{#label}} {#limit} {#nope}"}}
    assert _msgs(s, t, msgs) == ["L{limit} / L{limit} 10 "]
    s = jr.object({"x": jr.number().min(10).label("<L>{#limit}")})
    assert _msgs(s, t, {"errors": {"escapeHtml": True}}) == [
        '"&lt;L&gt;{#limit}" must be larger than or equal to 10']


def test_value_messages_struct_value():
    # joi's template stringify renders a non-array object via toString()
    s = jr.object({"x": jr.object({"a": jr.number()}).length(2).message("bad {[.]}")})
    got = _value_msgs(s, pa.table({"x": [{"a": 1.0}]}))
    assert got == [(-1, "bad [object Object]")]
    assert stringify({"a": 1}) == "[object Object]"
    assert stringify([{"a": 1}, 2]) == "[[object Object], 2]"


def test_value_messages_per_item_label():
    rows = [["b", "a", "c"], ["x"], [], ["a", "a", 'q{value}"', "é"]]
    s = jr.object({"x": jr.array().items(jr.string().pattern(r"^a"))})
    got = _value_msgs(s, pa.table({"x": rows}))
    assert got == [(i, _pattern_ref(f"x[{i}]", v))
                   for row in rows for i, v in enumerate(row) if not v.startswith("a")]


def test_value_messages_non_string_fallback():
    # a prefs-level {[.]} template on a rule that carries no value renders
    # the node's numbers through stringify, row by row
    s = jr.object({"x": jr.number().min(10)})
    prefs = {"messages": {"number.min": "bad {[.]}"}}
    got = _value_msgs(s, pa.table({"x": [5.0, 2.5, 11.0]}), prefs)
    assert got == [(-1, "bad 5"), (-1, "bad 2.5")]
    assert [m for _, m in got] == [f"bad {stringify(v)}" for v in (5.0, 2.5)]


def test_values_are_not_parsed_again():
    # one pass over the template (joi's template.js): a value holding braces
    # or a {value}-like text goes in as text (not node-verified)
    s = jr.object({"x": jr.string().pattern(r"a{b}").message("bad {#regex}")})
    assert _msgs(s, pa.table({"x": ["zz"]}), {}) == ["bad /a{b}/"]
    s = jr.object({"x": jr.string().pattern(r"x{value}")})
    assert _msgs(s, pa.table({"x": ["zz"]}), {}) == [
        '"x" with value "zz" fails to match the required pattern: /x{value}/']
    s = jr.object({"x": jr.string().valid("{limit}", "q")})
    assert _msgs(s, pa.table({"x": ["zz"]}), {"messages": {"any.only": "one of {{#valids}}"}}) == [
        "one of [{limit}, q]"]


def test_text_default_template_stringifies_like_messages():
    # a text template renders its values with joi's template stringify, the
    # one messages use: an array is '[x, y]', not a Python repr
    s = jr.object({"a": jr.array(), "b": jr.string().default(jr.expression("v={a}"))})
    res = jr.compile_schema(s).validate_table(
        pa.table({"a": [["x", "y"]], "b": pa.array([None], pa.string())}))
    assert res.value.column("b").to_pylist() == ["v=[x, y]"]


def test_coerce_reports_carry_their_message_context():
    # a catalog part without a context value would drop: the truncate
    # limit assert and the sort comparator's throw give theirs (joi's
    # string coerce and array sort; not node-verified), and the any.ref
    # report's value is the resolved limit
    s = jr.object({"n": jr.number(), "a": jr.string().max(jr.ref("n")).truncate()})
    t = pa.table({"n": [1.5, 2.0], "a": ["abcd", "abcd"]})
    assert _msgs(s, t, {}) == ['"a" limit references "ref:n" which must be a positive integer']
    s = jr.object({"n": jr.number(), "a": jr.string().max(jr.ref("n")).truncate().error("v={[.]}")})
    assert _msgs(s, t, {}) == ["v=1.5"]
    s = jr.object({"a": jr.array().sort()})
    t = pa.table({"a": pa.array([[True, False]], pa.list_(pa.bool_()))})
    assert _msgs(s, t, {}) == ['"a" cannot be sorted due to unsupported type boolean']


def test_escaped_value_part_escapes_the_value():
    # {{[.]}} is an escaped part: under errors.escapeHtml the value renders
    # escaped, as every {{...}} part does (template.js:185); {[.]} stays raw.
    # Not node-verified (no reference checkout here)
    s = jr.object({"s": jr.string().min(5).message("v={{[.]}}")})
    t = pa.table({"s": ["<a>"]})
    assert _msgs(s, t, {"errors": {"escapeHtml": True}}) == ["v=&lt;a&gt;"]
    assert _msgs(s, t, {}) == ["v=<a>"]
    raw = jr.object({"s": jr.string().min(5).message("v={[.]}")})
    assert _msgs(raw, t, {"errors": {"escapeHtml": True}}) == ["v=<a>"]
    both = jr.object({"s": jr.string().min(5).message("{{[.]}}|{[.]}")})
    assert _msgs(both, t, {"errors": {"escapeHtml": True}}) == ["&lt;a&gt;|<a>"]
    items = jr.object({"a": jr.array().items(jr.number().min(5).message("v={{[.]}}"))})
    assert _msgs(items, pa.table({"a": [[1.5, 7.0, 2.0]]}), {"errors": {"escapeHtml": True}}) == [
        "v=1.5", "v=2"]


def test_global_ref_part_reads_prefs_context():
    # a {$name} part resolves against prefs.context; an unbound name drops.
    # Not node-verified (no reference checkout here)
    s = jr.object({"n": jr.number().min(5).message("lim={$lim}")})
    t = pa.table({"n": [3]})
    assert _msgs(s, t, {"context": {"lim": 3}}) == ["lim=3"]
    assert _msgs(s, t, {}) == ["lim="]
    assert _msgs(s, t, {"context": {"other": 1}}) == ["lim="]
