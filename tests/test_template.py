"""Template expression engine + error() override conformance
(reference: /root/reference/lib/template.js:26-227, test/template.js
patterns; error(): lib/base.js:136-142, lib/validator.js:368-380)."""

import pyarrow as pa
import pytest

import joi_ray as jr
from joi_ray import compile_schema, object as obj
from joi_ray.kernels.template import Template, compile_template
from joi_ray.kernels.messages import render


def _r(src, ctx):
    def resolve(name):
        key = name.lstrip("#$")
        if key in ctx:
            return ctx[key]
        raise KeyError(name)

    return Template(src).render(resolve)


# ---------------------------------------------------------------- parsing
def test_static_template():
    t = Template("hello world")
    assert not t.is_dynamic
    assert t.render(lambda n: None) == "hello world"


def test_single_ref():
    assert _r("x{#a}z", {"a": 5}) == "x5z"
    assert _r("{#a}", {"a": "str"}) == "str"


def test_escaped_braces():
    assert _r(r"\{not a ref\}", {}) == "{not a ref}"
    assert _r(r"{#a} \{#a\}", {"a": 1}) == "1 {#a}"


def test_unknown_ref_drops():
    # joi pushes only the parts that render a defined value (template.js)
    assert _r("{value}", {}) == ""
    assert _r("{#missing + 1}", {}) == ""
    assert _r("a {{#nope}} b", {}) == "a  b"
    assert render("x.y", "p", {}, override="{value} bad") == " bad"


def test_unmatched_brace():
    assert _r("{oops", {}) == "{oops"


# ---------------------------------------------------------------- formula
def test_arithmetic():
    assert _r("{#limit + 1}", {"limit": 3}) == "4"
    assert _r("{#limit * 2 + 1}", {"limit": 3}) == "7"
    assert _r("{(#limit + 1) * 2}", {"limit": 3}) == "8"
    assert _r("{#a % #b}", {"a": 7, "b": 4}) == "3"
    assert _r("{2 ^ #n}", {"n": 10}) == "1024"
    assert _r("{-#a}", {"a": 5}) == "-5"


def test_precedence_right_assoc_pow():
    assert _r("{2 ^ 3 ^ 2}", {}) == "512"  # right-assoc: 2^(3^2)


def test_string_concat_and_literals():
    assert _r("{'a' + #x + 'c'}", {"x": "b"}) == "abc"
    assert _r('{"q" + 1}', {}) == "q1"


def test_comparisons_and_logical():
    assert _r("{#a > 3 && #a < 10}", {"a": 5}) == "true"
    assert _r("{#a == 5 || #a == 6}", {"a": 7}) == "false"
    assert _r("{#a != 5}", {"a": 5}) == "false"
    assert _r("{#miss ?? 'dflt'}", {"miss": None}) == "dflt"


def test_if_and_number_functions():
    assert _r("{if(#n > 1, 'items', 'item')}", {"n": 3}) == "items"
    assert _r("{if(#n > 1, 'items', 'item')}", {"n": 1}) == "item"
    assert _r("{number('12.5') * 2}", {}) == "25"
    assert _r("{number(true) + number(false)}", {}) == "1"


def test_time_constants():
    assert _r("{2 * minute}", {}) == "120000"
    assert _r("{day / hour}", {}) == "24"


def test_html_escape_double_braces():
    assert _r("{{#a}}", {"a": "<b>"}) == "&lt;b&gt;"
    assert _r("{#a}", {"a": "<b>"}) == "<b>"


def test_template_cache():
    assert compile_template("{#a}") is compile_template("{#a}")


# ------------------------------------------------------- message rendering
def test_render_catalog_unchanged():
    # the catalog render is byte-stable (tests/test_message_catalog.py pins all codes)
    assert (
        render("string.min", "name", {"limit": 3, "label": "name"})
        == '"name" length must be at least 3 characters long'
    )


def test_render_expression_override():
    msg = render("number.max", "age", {"limit": 10, "label": "age"},
                 override="max is {#limit}, next is {#limit + 1}")
    assert msg == "max is 10, next is 11"


def test_render_if_pluralization():
    msg = render("array.min", "xs", {"limit": 1, "label": "xs"},
                 override="need {#limit} {if(#limit > 1, 'items', 'item')}")
    assert msg == "need 1 item"


# ------------------------------------------------------------ error() API
def test_error_template_string_overrides_all_codes():
    root = obj({"a": jr.number().min(5).error("bad a: {#limit} needed")})
    t = pa.table({"a": [1.0]})
    res = compile_schema(root, prefs={"abort_early": False}).validate_table(t)
    v = res.violations.to_pylist()
    assert v[0]["message"] == "bad a: 5 needed"


def test_error_template_beats_rule_message():
    root = obj({"a": jr.number().min(5).message("rule msg").error("node err")})
    res = compile_schema(root, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [1.0]}))
    assert res.violations.to_pylist()[0]["message"] == "node err"


def test_error_template_survives_json_roundtrip():
    from joi_ray.spec import from_json

    root = obj({"a": jr.number().min(5).error("E{#limit * 10}")})
    rt = from_json(root.to_json())
    res = compile_schema(rt, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [1.0]}))
    assert res.violations.to_pylist()[0]["message"] == "E50"


def test_error_callable():
    def fn(code, path, ctx):
        return f"custom[{code}@{path}]"

    root = obj({"a": jr.number().min(5).error(fn)})
    res = compile_schema(root, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [1.0]}))
    assert res.violations.to_pylist()[0]["message"] == "custom[number.min@a]"


def test_error_callable_none_keeps_default():
    root = obj({"a": jr.number().min(5).error(lambda c, p, x: None)})
    res = compile_schema(root, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [1.0]}))
    assert "larger than or equal to 5" in res.violations.to_pylist()[0]["message"]


def test_error_rejects_other_types():
    with pytest.raises(TypeError):
        jr.number().error(42)


def _reports(schema: dict, tbl: pa.Table) -> list:
    res = compile_schema(obj(schema), prefs={"abort_early": False}).validate_table(tbl)
    return [(v["row"], v["code"], v["message"]) for v in res.violations.to_pylist()]


def _thrower(*_):
    raise ValueError("boom")


def test_schema_local_messages_reach_wrapper_reports():
    # validator.js:116-118 — a when() wrapper's own reports (its any.only
    # and its thrown post-when default) use the node's merged prefs too
    only = (jr.number().when("y", is_=1, then=jr.number().min(1)).valid(7).only()
            .preferences(messages={"any.only": "ONLY!"}))
    got = _reports({"x": only, "y": jr.any_()},
                   pa.table({"x": pa.array(["a", None]), "y": [1, 1]}))
    assert [m for _, code, m in got if code == "any.only"] == ["ONLY!", "ONLY!"]
    dflt = (jr.number().when("y", is_=1, then=jr.number().min(1)).default(_thrower)
            .preferences(messages={"any.default": "DEF!"}))
    got = _reports({"x": dflt, "y": jr.any_()},
                   pa.table({"x": pa.array([None, 5.0]), "y": [1, 1]}))
    assert got == [(0, "any.default", "DEF!")]


def test_wrapper_error_covers_its_own_reports():
    # validator.js:368-380 — the wrapper's error() replaces its own any.only
    # as the branch's replaces the branch's number.base
    s = jr.number().when("y", is_=1, then=jr.number().min(1)).valid(7).only().error("E!")
    got = _reports({"x": s, "y": jr.any_()},
                   pa.table({"x": pa.array(["a", None]), "y": [1, 1]}))
    assert got == [(0, "any.only", "E!"), (0, "number.base", "E!"), (1, "any.only", "E!")]


def test_object_error_covers_key_reports():
    # an object's error() covers its keys' reports, as an array's covers
    # its items' (finalize overrides every error the node returns)
    s = jr.object({"a": jr.number().min(10)}).error("OBJ!")
    got = _reports({"x": s}, pa.table({"x": pa.array([{"a": 5.0}, {"a": 50.0}])}))
    assert got == [(0, "number.min", "OBJ!")]


def test_root_error_covers_whole_table():
    root = obj({"a": jr.number().min(10), "b": jr.string()}).error("ROOT!")
    res = compile_schema(root, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [5.0, 50.0], "b": ["x", None]}))
    assert [(v["row"], v["message"]) for v in res.violations.to_pylist()] == [(0, "ROOT!")]


def test_array_error_covers_item_reports():
    s = jr.array().items(jr.number().min(10)).error("ARR!")
    got = _reports({"x": s}, pa.table({"x": pa.array([[5.0], [50.0]])}))
    assert got == [(0, "number.min", "ARR!")]


def test_array_error_value_token_on_item_reports():
    # {[.]} in an error() renders the value at the report's own path, on
    # the reports a node takes from its items as on its own: the item, a
    # key below it, and an inner array's item
    s = jr.array().items(jr.number().min(10)).error("bad {[.]}")
    got = _reports({"x": s}, pa.table({"x": pa.array([[5.0], [50.0, 7.0]])}))
    assert got == [(0, "number.min", "bad 5"), (1, "number.min", "bad 7")]
    s = jr.array().items(jr.object({"a": jr.number().min(10)})).error("bad {[.]}")
    got = _reports({"x": s}, pa.table({"x": pa.array([[{"a": 50.0}, {"a": 6.0}]])}))
    assert got == [(0, "number.min", "bad 6")]
    s = jr.array().items(jr.array().items(jr.number().min(10))).error("bad {[.]}")
    got = _reports({"x": s}, pa.table({"x": pa.array([[[50.0, 5.0], [3.0]]])}))
    assert got == [(0, "number.min", "bad 5"), (0, "number.min", "bad 3")]


def test_object_error_value_token_on_key_reports():
    s = jr.object({"a": jr.number().min(10)}).error("bad {[.]}")
    got = _reports({"x": s}, pa.table({"x": pa.array([{"a": 5.0}, {"a": 50.0}])}))
    assert got == [(0, "number.min", "bad 5")]
    # a key's array item, and the root object over the table
    s = jr.object({"l": jr.array().items(jr.number().min(10))}).error("bad {[.]}")
    got = _reports({"x": s}, pa.table({"x": pa.array([{"l": [50.0, 4.0]}])}))
    assert got == [(0, "number.min", "bad 4")]
    root = obj({"a": jr.number().min(10)}).error("bad {[.]}")
    res = compile_schema(root).validate_table(pa.table({"a": [5.0]}))
    assert res.violations["message"].to_pylist() == ["bad 5"]


_KINDS = {
    "plain": lambda: jr.number().min(10),
    "alternatives": lambda: jr.alternatives(jr.number().min(10)),
    "wrapper": lambda: jr.number().when("y", is_=1, then=jr.number().min(10)),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_error_covers_thrown_failover(kind):
    # joi pushes any.failover before the error() override
    # (validator.js:359-364, 368-380)
    s = _KINDS[kind]().failover(_thrower).error("E!")
    got = _reports({"x": s, "y": jr.any_()},
                   pa.table({"x": pa.array([None, 5.0]), "y": [1, 1]}))
    assert (1, "any.failover", "E!") in got
    assert all(m == "E!" for _, _, m in got)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_thrown_default_keeps_its_message(kind):
    # joi pushes the node's own any.default after the error() override
    # (validator.js:368-380, 385)
    s = _KINDS[kind]().default(_thrower).error("E!")
    got = _reports({"x": s, "y": jr.any_()},
                   pa.table({"x": pa.array([None, 5.0]), "y": [1, 1]}))
    assert (0, "any.default", '"x" threw an error when running default method') in got
    assert [m for _, code, m in got if code != "any.default"] == ["E!"]


def test_expression_factory_parity():
    """Joi.expression / Joi.x parity (lib/index.js:123,71): compile a
    template once, cached."""
    import joi_ray as jrx

    t = jrx.x("{#a} and {#b}")
    assert t is jrx.expression("{#a} and {#b}")
    assert t.render(lambda n: {"#a": 1, "#b": "two"}[n]) == "1 and two"


def test_expression_valued_default_node_verified():
    # node: {a:4, b:5} — a single-expression template default resolves the
    # evaluated VALUE (template.js:150-159); text templates render strings;
    # template refs feed the key topo sort (default sees a post-coercion)
    import pyarrow as pa

    import joi_ray as jr

    s = jr.object({"b": jr.number().default(jr.expression("{a + 1}")), "a": jr.number()})
    r = jr.compile_schema(s, prefs={}).validate_table(
        pa.table({"b": pa.array([None, 2.0], pa.float64()), "a": ["4", "9"]}))
    assert r.value.to_pylist() == [{"b": 5.0, "a": 4.0}, {"b": 2.0, "a": 9.0}]

    s2 = jr.object({"a": jr.string(), "b": jr.string().default(jr.expression("hi {a}!"))})
    r2 = jr.compile_schema(s2, prefs={}).validate_table(
        pa.table({"a": ["bob"], "b": pa.array([None], pa.string())}))
    assert r2.value["b"].to_pylist() == ["hi bob!"]
    # joi template describe form round-trips the manifest
    assert jr.build(s2.describe()) == s2
    assert s2.describe()["keys"]["b"]["flags"]["default"] == {"template": "hi {a}!"}


@pytest.mark.parametrize("node", [
    jr.number(),
    jr.alternatives().try_(jr.number(), jr.string()),
    jr.number().when("a", is_=jr.number().min(2), then=jr.number().max(100)),
], ids=["number", "alternatives", "post_when"])
def test_expression_default_fills_on_every_node_type(node):
    # joi's internals.default (validator.js:451-475) resolves a template
    # source the same way whatever the schema type: alternatives and the
    # when() wrapper fill like a plain number
    s = jr.object({"a": jr.number(), "b": node.default(jr.x("{a + 1}"))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [1, 2, 3], "b": pa.array([None, 5, None], pa.int64())}))
    assert r.value["b"].to_pylist() == [2, 5, 4]
    assert r.violations.num_rows == 0


def test_template_rule_args_and_valids_node_verified():
    import pyarrow as pa

    import joi_ray as jr

    # node: min(Joi.x('{a * 2}')) — a=2,b=5 ok; a=3,b=5 fails with the
    # template SOURCE rendered as the limit
    s = jr.object({"a": jr.number(), "b": jr.number().min(jr.expression("{a * 2}"))})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [2.0, 3.0], "b": [5.0, 5.0]}))
    assert list(r.ok) == [True, False]
    assert r.violations["message"].to_pylist() == [
        '"b" must be larger than or equal to {a * 2}'
    ]
    # node: a non-numeric template result fails the arg assert with the
    # SOURCE as the ref display
    s2 = jr.object({"a": jr.string(), "b": jr.number().min(jr.expression("x{a}"))})
    r2 = jr.compile_schema(s2, prefs={"abort_early": False}).validate_table(
        pa.table({"a": ["q"], "b": [5.0]}))
    assert r2.violations["message"].to_pylist() == [
        '"b" limit references "x{a}" which must be a number'
    ]
    # node: valid(Joi.x('v{a}')) resolves per row
    s3 = jr.object({"a": jr.number(), "b": jr.string().valid(jr.expression("v{a}"))})
    r3 = jr.compile_schema(s3, prefs={"abort_early": False}).validate_table(
        pa.table({"a": [1.0, 1.0], "b": ["v1", "v2"]}))
    assert list(r3.ok) == [True, False]


def test_template_arg_js_coercion_and_dual_resolution():
    # fuzz seed 32696 (node-verified): @hapi/formula evaluates with raw JS
    # operators — a clean cast('string') sibling CONCATENATES ('7'+2 ->
    # '72', a string, so the arg assert fires any.ref), while an errored
    # sibling feeds its raw number (0.5+2 -> 2.5, so number.less compares)
    import pyarrow as pa

    import joi_ray as jr

    s = jr.object({"c": jr.number().integer().cast("string"),
                   "d": jr.number().less(jr.expression("{c + 2}"))})
    t = pa.table({"c": [7.0, 0.5, 0.5], "d": [2.0, 8.0, -0.0]})
    r = jr.compile_schema(s, prefs={"abort_early": False}).validate_table(t)
    got = sorted(zip(r.violations["row"].to_pylist(),
                     r.violations["path"].to_pylist(),
                     r.violations["code"].to_pylist()))
    assert got == [(0, "d", "any.ref"),
                   (1, "c", "number.integer"), (1, "d", "number.less"),
                   (2, "c", "number.integer")]


def test_formula_js_operator_semantics():
    from joi_ray.kernels.template import _js_strict_eq, _js_to_number, compile_template

    # JS ToNumber: '' -> 0, '0x1f' -> 31, 'Infinity' -> inf, 'abc' -> NaN
    assert _js_to_number("") == 0.0
    assert _js_to_number("0x1f") == 31.0
    assert _js_to_number("Infinity") == float("inf")
    assert _js_to_number("abc") != _js_to_number("abc")  # NaN
    assert _js_to_number(None) == 0.0  # null
    assert _js_to_number(True) == 1.0
    # strict equality: true !== 1
    assert not _js_strict_eq(True, 1)
    # '%' truncates toward zero like JS
    t = compile_template("{a % b}")
    assert t.resolve_value(lambda n: {"a": -7, "b": 2}[n]) == -1.0
    # '/' by zero -> signed Infinity
    t2 = compile_template("{a / b}")
    assert t2.resolve_value(lambda n: {"a": 1, "b": 0}[n]) == float("inf")
