"""Property-based conformance: random inputs validated by the vectorized
engine must agree with a trivially-correct per-value Python reference
implementation of the same rules (the engine's whole premise is that
vectorization changes execution, not semantics)."""

import re

import pyarrow as pa
from hypothesis import given, settings, strategies as st

import joi_ray as jr
from joi_ray import compile_schema, object as jr_object

texts = st.one_of(st.none(), st.text(max_size=12))
floats = st.one_of(
    st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32), st.integers(-10**6, 10**6).map(float)
)


def run(schema, values, column_type=None, prefs=None):
    tbl = pa.table({"x": pa.array(values, type=column_type)})
    res = compile_schema(jr_object({"x": schema}), prefs={"abort_early": False, **(prefs or {})}).validate_table(tbl)
    return list(res.ok)


@settings(max_examples=60, deadline=None)
@given(st.lists(texts, min_size=1, max_size=40), st.integers(0, 6), st.integers(0, 8))
def test_string_min_max_matches_reference(vals, lo, extra):
    hi = lo + extra
    got = run(jr.string().min(lo).max(hi), vals, pa.string())
    for v, ok in zip(vals, got):
        if v is None:
            expect = True          # optional missing
        elif v == "" and lo > 0:
            expect = False         # string.empty (or min) — always invalid when lo>0
        elif v == "":
            expect = False         # empty string invalid unless allowed
        else:
            expect = lo <= len(v) <= hi
        assert ok == expect, (v, lo, hi, ok)


@settings(max_examples=60, deadline=None)
@given(st.lists(floats, min_size=1, max_size=40), st.integers(-100, 100))
def test_number_min_integer_matches_reference(vals, lo):
    got = run(jr.number().min(lo).integer(), vals, pa.float64())
    for v, ok in zip(vals, got):
        if v is None:
            expect = True
        elif abs(v) > 2**53 - 1:
            expect = False         # number.unsafe
        else:
            expect = v >= lo and float(v).is_integer()
        assert ok == expect, (v, lo, ok)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(alphabet="ab1 _", max_size=8)), min_size=1, max_size=30))
def test_pattern_matches_reference(vals):
    pat = r"^[a-z]+\d$"
    got = run(jr.string().pattern(pat), vals, pa.string())
    rx = re.compile(pat)
    for v, ok in zip(vals, got):
        if v is None:
            expect = True
        elif v == "":
            expect = False
        else:
            expect = bool(rx.search(v))
        assert ok == expect, (v, ok)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=6)),
        min_size=1,
        max_size=25,
    ),
    st.integers(0, 4),
)
def test_array_min_sparse_unique_matches_reference(rows, lo):
    got = run(
        jr.array().min(lo).unique(ignore_undefined=True).sparse(),
        rows,
        pa.list_(pa.int64()),
    )
    for row, ok in zip(rows, got):
        if row is None:
            expect = True
        else:
            non_null = [v for v in row if v is not None]
            expect = len(row) >= lo and len(set(non_null)) == len(non_null)
        assert ok == expect, (row, lo, ok)

    # default semantics: null items participate — two nulls duplicate
    # (array.js:476)
    got2 = run(jr.array().unique().sparse(), rows, pa.list_(pa.int64()))
    for row, ok in zip(rows, got2):
        expect = True if row is None else len(set(row)) == len(row)
        assert ok == expect, (row, ok)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(alphabet="abc", min_size=1, max_size=3)), min_size=1, max_size=30))
def test_valid_set_matches_reference(vals):
    allowed = {"a", "ab", "abc"}
    got = run(jr.string().valid(*sorted(allowed)), vals, pa.string())
    for v, ok in zip(vals, got):
        expect = True if v is None else v in allowed
        assert ok == expect, (v, ok)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.none(), st.sampled_from(["a", "b", "c"])), min_size=1, max_size=30),
       st.lists(st.one_of(st.none(), st.text(max_size=5)), min_size=1, max_size=30))
def test_when_matches_reference(kinds, vs):
    n = min(len(kinds), len(vs))
    kinds, vs = kinds[:n], vs[:n]
    tbl = pa.table({"k": pa.array(kinds, pa.string()), "x": pa.array(vs, pa.string())})
    schema = jr_object(
        {"k": jr.string(), "x": jr.string().when("k", is_="a", then=jr.string().required())}
    )
    res = compile_schema(schema, prefs={"abort_early": False}).validate_table(tbl)
    for k, v, ok in zip(kinds, vs, list(res.ok)):
        if k == "a":
            expect = v is not None and v != ""
        else:
            expect = v != ""  # empty string still fails string base
        assert ok == expect, (k, v, ok)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.one_of(st.none(), st.text(alphabet="abcXYZ 19", max_size=10)), min_size=1, max_size=40),
    st.integers(0, 5),
)
def test_metamorphic_scoped_vs_full_eval(vals, lo):
    """A pure-check rule runs on the active-row subset when the branch
    scope covers some but under 70% of the rows, and on the full column
    otherwise; the two must be indistinguishable.  A one-row slice never
    takes the subset path (1 < int(0.7) is false), so each row of the
    whole table must validate exactly as its one-row slice: same ok, and
    the same (path, code, message) reports.  abort_early=False violations
    are a superset per row of abort_early=True."""
    schema = jr_object(
        {
            "k": jr.string(),
            "x": jr.string().when("k", is_="go", then=jr.string().required().min(lo).alphanum()),
        }
    )
    kinds = ["go" if i % 2 else "stop" for i in range(len(vals))]
    tbl = pa.table({"k": pa.array(kinds, pa.string()), "x": pa.array(vals, pa.string())})
    key = lambda v: (v["path"], v["code"], v["message"])
    results = {}
    for abort in (True, False):
        cs = compile_schema(schema, prefs={"abort_early": abort})
        r = results[abort] = cs.validate_table(tbl)
        whole = r.violations.to_pylist()
        for i in range(len(vals)):
            one = cs.validate_table(tbl.slice(i, 1))
            assert bool(r.ok[i]) == bool(one.ok[0]), (abort, i)
            assert (sorted(key(v) for v in whole if v["row"] == i)
                    == sorted(map(key, one.violations.to_pylist()))), (abort, i)
    # abortEarly True rows-with-errors == abortEarly False rows-with-errors
    ae, af = results[True], results[False]
    assert list(ae.ok) == list(af.ok)
    rows_ae = {v["row"] for v in ae.violations.to_pylist()}
    rows_af = {v["row"] for v in af.violations.to_pylist()}
    assert rows_ae == rows_af
    # and per-row violation count under abort_early=True is <= under False
    from collections import Counter

    ca = Counter(v["row"] for v in ae.violations.to_pylist())
    cf = Counter(v["row"] for v in af.violations.to_pylist())
    assert all(ca[r] <= cf[r] for r in ca)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(st.none(), st.sampled_from(["true", "FALSE", "True", "no", "1", ""])), min_size=1, max_size=30))
def test_boolean_coercion_matches_reference(vals):
    got = run(jr.boolean(), vals, pa.string())
    for v, ok in zip(vals, got):
        expect = True if v is None else v.lower() in ("true", "false")
        assert ok == expect, (v, ok)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(0, 2_000_000_000)), min_size=1, max_size=30))
def test_epoch_date_min_matches_reference(secs):
    # unix-seconds coercion + min bound
    cutoff = 1_000_000_000  # 2001-09-09
    got = run(jr.date().timestamp("unix").min("2001-09-09"), secs, pa.int64())
    for v, ok in zip(secs, got):
        if v is None:
            expect = True
        else:
            expect = v >= cutoff - 25200  # 2001-09-09T00:00 UTC epoch = 999993600
            expect = v * 1000 >= 999993600000
        assert ok == expect, (v, ok)


@st.composite
def _rand_schema(draw):
    kind = draw(st.sampled_from(["string", "number"]))
    if kind == "string":
        s = jr.string()
        if draw(st.booleans()):
            s = s.min(draw(st.integers(0, 5)))
        if draw(st.booleans()):
            s = s.max(draw(st.integers(5, 12)))
        if draw(st.booleans()):
            s = s.pattern(draw(st.sampled_from([r"^[a-z]+$", r"\d", r"^x"])))
        if draw(st.booleans()):
            s = s.valid("abc", "xy", "x1")
        if draw(st.booleans()):
            s = s.lowercase()
    else:
        s = jr.number()
        if draw(st.booleans()):
            s = s.min(draw(st.integers(-5, 0)))
        if draw(st.booleans()):
            s = s.max(draw(st.integers(1, 9)))
        if draw(st.booleans()):
            s = s.integer()
        if draw(st.booleans()):
            s = s.multiple(draw(st.integers(2, 4)))
    # message() must follow a rule (lib/base.js:517 'Cannot apply rules to
    # empty ruleset' — flag-setters like required() CLOSE the ruleset), so
    # draw it before the presence flag and only when a rule exists
    if draw(st.booleans()) and s.rules:
        s = s.message("rule-level override")
    if draw(st.booleans()):
        s = s.required()
    if draw(st.booleans()):
        s = s.error("custom {#limit} msg")
    return kind, s


@given(_rand_schema(), st.data())
@settings(max_examples=60, deadline=None)
def test_json_roundtrip_validates_identically(ks, data):
    """build(from_json(to_json(s))) must validate EXACTLY like s — ok mask,
    codes, messages and normalized values — for randomly composed schemas
    (the manifest-IR faithfulness invariant, test/helper.js:25-27)."""
    from joi_ray.spec import from_json

    kind, s = ks
    root = jr_object({"v": s})
    rt = from_json(root.to_json())
    if kind == "string":
        vals = data.draw(st.lists(st.one_of(st.none(), st.text(
            alphabet="abcxyz019 X", max_size=12)), min_size=1, max_size=20))
        arr = pa.array(vals, type=pa.string())
    else:
        vals = data.draw(st.lists(st.one_of(st.none(), st.integers(-9, 9).map(float),
                                            st.floats(-9, 9, allow_nan=False)),
                                  min_size=1, max_size=20))
        arr = pa.array(vals, type=pa.float64())
    t = pa.table({"v": arr})
    a = compile_schema(root, prefs={"abort_early": False}).validate_table(t)
    b = compile_schema(rt, prefs={"abort_early": False}).validate_table(t)
    assert list(a.ok) == list(b.ok)
    assert a.violations.to_pylist() == b.violations.to_pylist()
    assert a.value["v"].to_pylist() == b.value["v"].to_pylist()


# ---- manifest round-trip over randomly composed schemas including the
# round-3 surfaces (keys-term variants, conditional alternatives, ref
# options, deep defaults) — mirrors test/helper.js:25-27 suite-wide check
_leaf = st.sampled_from([
    jr.string(), jr.string().min(1).max(5), jr.number().integer(),
    jr.boolean(), jr.date().iso(), jr.any_().valid("x", 1),
    jr.string().valid(jr.ref("a", map=[["x", "y"]])),
    jr.number().min(jr.ref("...cap")),
    jr.number().default(jr.ref("a")),
    jr.string().empty("").empty(),
])


def _containers(children):
    return st.one_of(
        st.builds(lambda c: jr.object({"k": c}), children),
        st.builds(lambda c: jr.object({"k": c}).keys(), children),
        st.builds(lambda c: jr.object({}).keys({"k": c}), children),
        st.builds(lambda c: jr.array().items(c), children),
        st.builds(lambda c: jr.alternatives(c, jr.number()), children),
        st.builds(lambda c: jr.alternatives().when("b", is_=5, then=c, otherwise="z"), children),
        st.builds(lambda c: jr.alternatives().when(jr.number().min(0), then=c), children),
        st.builds(lambda c: jr.object({"a": c.required() if c.type != "alternatives" else c}).default(), children),
    )


_schemas = st.recursive(_leaf, _containers, max_leaves=4)


@given(_schemas)
def test_manifest_roundtrip_random_schemas(s):
    d = s.describe()
    rebuilt = jr.build(d)
    assert rebuilt == s, (d, rebuilt.describe())
    # describe output is pure JSON
    import json
    json.dumps(d)
