"""Adversarial engine edge cases: interactions between stages of the
per-column chain (empty x required x default, allow x coerce-failure,
strip inside items, all-null columns, zero-width batches, deep nesting)."""

import numpy as np
import pyarrow as pa
import pytest

import joi_ray as jr
from joi_ray import VIOLATION_SCHEMA, compile_schema, object as obj
from joi_ray.kernels.util import ErrRec


def V(schema_root, tbl, prefs=None):
    return compile_schema(schema_root, prefs={"abort_early": False, **(prefs or {})}).validate_table(tbl)


def test_empty_then_default_then_required_order():
    # empty('') -> missing; default fills; required not violated when default exists?
    # joi: required + empty('') -> '' becomes undefined -> any.required fires
    res = V(obj({"x": jr.string().empty("").required()}), pa.table({"x": ["", "v"]}))
    assert list(res.ok) == [False, True]
    # optional + empty + default: '' -> default
    res = V(obj({"x": jr.string().empty("").default("d")}), pa.table({"x": ["", "v"]}))
    assert res.value["x"].to_pylist() == ["d", "v"]


def test_allow_value_that_fails_coercion():
    # 'N/A' is not a number but is explicitly allowed -> passes, others coerce
    res = V(obj({"x": jr.number().allow("N/A")}), pa.table({"x": ["5", "N/A", "junk"]}))
    assert list(res.ok) == [True, True, False]


def test_strip_inside_struct():
    st = pa.struct([("keep", pa.int64()), ("drop", pa.string())])
    t = pa.table({"o": pa.array([{"keep": 1, "drop": "x"}], type=st)})
    res = V(obj({"o": jr.object({"keep": jr.number(), "drop": jr.string().strip()})}), t)
    assert [f.name for f in res.value["o"].type] == ["keep"]


def test_all_null_and_zero_row_columns():
    res = V(obj({"x": jr.string().min(2)}), pa.table({"x": pa.array([None, None], pa.string())}))
    assert list(res.ok) == [True, True]
    res = V(obj({"x": jr.number().required()}), pa.table({"x": pa.array([], pa.float64())}))
    assert res.n_rows == 0 and res.violations.num_rows == 0


def test_deep_nesting_list_struct_list():
    inner = pa.list_(pa.int64())
    st = pa.struct([("vals", inner)])
    outer = pa.list_(st)
    t = pa.table(
        {
            "x": pa.array(
                [[{"vals": [1, 2]}, {"vals": [-1]}], [{"vals": []}]],
                type=outer,
            )
        }
    )
    schema = jr.array().items(jr.object({"vals": jr.array().items(jr.number().min(0)).min(1)}))
    res = V(obj({"x": schema}), t)
    assert list(res.ok) == [False, False]
    codes = {v["code"] for v in res.violations.to_pylist()}
    assert {"number.min", "array.min"} <= codes


def test_only_with_ref_values():
    t = pa.table({"expected": ["a", "b"], "x": ["a", "c"]})
    res = V(obj({"expected": jr.string(), "x": jr.string().valid(jr.ref("expected"))}), t)
    assert list(res.ok) == [True, False]


def test_failover_after_item_errors():
    # failover on the array column replaces rows whose items failed
    t = pa.table({"x": pa.array([[1, -5], [2]], type=pa.list_(pa.int64()))})
    res = V(obj({"x": jr.array().items(jr.number().min(0))}), t)
    assert list(res.ok) == [False, True]


def test_duplicate_column_chain_and_concat_of_same_rule():
    # concat appending a second min(): both evaluated (multi via concat)
    s = jr.string().min(2).concat(jr.string().min(4))
    res = V(obj({"x": s}), pa.table({"x": ["abc"]}))
    assert list(res.ok) == [False]  # fails the stricter concat-added min


def test_unknown_pref_vs_flag_priority():
    t = pa.table({"x": [1.0], "extra": ["?"]})
    # flag unknown(True) wins over prefs allow_unknown False
    res = V(obj({"x": jr.number()}).unknown(), t)
    assert list(res.ok) == [True]


def test_forbidden_with_default_fills():
    res = V(obj({"x": jr.string().forbidden().default("d")}), pa.table({"x": pa.array([None], pa.string())}))
    # joi's finalize applies the default whenever the value is undefined,
    # regardless of presence (validator.js:383-386) — verified against the
    # reference: Joi.string().forbidden().default('d').validate(undefined)
    # returns {value: 'd'} with no error
    assert res.value["x"].to_pylist() == ["d"]
    assert list(res.ok) == [True]


def test_dictionary_large_string_chunked_inputs():
    d = pa.array(["en", "fr", "en", "xx"]).dictionary_encode()
    res = V(obj({"x": jr.string().valid("en", "fr")}), pa.table({"x": d}))
    assert list(res.ok) == [True, True, True, False]
    ls = pa.array(["abc", "d"], type=pa.large_string())
    assert list(V(obj({"x": jr.string().min(2)}), pa.table({"x": ls})).ok) == [True, False]
    ch = pa.chunked_array([pa.array(["aa"]), pa.array(["b"])])
    assert list(V(obj({"x": jr.string().min(2)}), pa.table({"x": ch})).ok) == [True, False]


def test_wrong_typed_column_clean_base_errors():
    """A schema applied to a column of the wrong physical type must emit
    clean {type}.base violations, never crash a typed kernel (regression:
    string pattern rules used to hit Arrow's regex kernel with int64)."""
    import joi_ray as jr
    from joi_ray import compile_schema

    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "n": pa.array(["x", "y", "z"], pa.string()),  # number schema, no convert
    })
    schema = jr.object({
        "doc_id": jr.string().required().pattern(r"^doc-").min(4),
        "n": jr.number().min(5),
    })
    res = compile_schema(schema, prefs={"abort_early": False, "convert": False}).validate_table(t)
    assert not any(res.ok)
    df = res.violations.to_pandas()
    codes = set(df["code"])
    assert codes == {"string.base", "number.base"}
    assert (df.groupby("row").size() == 2).all()  # one base error per column


def test_nested_cyclic_key_dependency_refused_at_compile():
    # the reference refuses cyclic key refs at schema build (@hapi/topo via
    # object.js:601-606); a nested object is refused at compile like the root

    inner = obj({"a": jr.number().min(jr.ref("b")), "b": jr.number().min(jr.ref("a"))})
    with pytest.raises(ValueError, match="cyclic key dependencies"):
        compile_schema(obj({"x": inner}))


def test_wide_object_compiles_in_under_a_second():
    # sibling keys are ordered by a heap-driven topological sort: 4,000 keys,
    # one referencing the last, compile in near-linear time (quadratic
    # before: ~3 s) and keep @hapi/topo's insertion order
    import time

    keys = {f"k{i}": jr.number().min(0) for i in range(4000)}
    keys["k0"] = jr.number().min(jr.ref("k3999"))
    t0 = time.process_time()
    compiled = compile_schema(obj(keys))
    assert time.process_time() - t0 < 1.0
    assert compiled.root.key_order == [f"k{i}" for i in range(1, 4000)] + ["k0"]


def _depth_chain(levels):
    """A schema ``levels`` deep, objects {x: ...} over a number leaf, and a
    clean row for it."""
    s, v = jr.number().min(1), 5
    for _ in range(levels - 1):
        s, v = obj({"x": s}), {"x": v}
    return s, v


def test_schema_at_the_depth_limit_validates():
    # each object level costs ~5 Python frames at validation: the declared
    # limit keeps a schema of MAX_SCHEMA_DEPTH levels inside the default
    # recursion limit, clean and dirty rows alike
    s, v = _depth_chain(jr.MAX_SCHEMA_DEPTH)
    leaf = {"x": 0}
    for _ in range(jr.MAX_SCHEMA_DEPTH - 3):
        leaf = {"x": leaf}
    res = V(s, pa.table({"x": [v["x"], leaf]}))
    assert res.ok.tolist() == [True, False]
    assert res.violations.column("code").to_pylist() == ["number.min"]
    assert res.violations.column("path").to_pylist() == [".".join(["x"] * (jr.MAX_SCHEMA_DEPTH - 1))]


def test_schema_past_the_depth_limit_is_refused_at_compile():
    # one level more raises the named error at compile, never a
    # RecursionError in validate_table
    s, _ = _depth_chain(jr.MAX_SCHEMA_DEPTH + 1)
    with pytest.raises(jr.SchemaTooDeep, match=f"deeper than {jr.MAX_SCHEMA_DEPTH} levels"):
        compile_schema(s)
    arr = jr.number()
    for _ in range(jr.MAX_SCHEMA_DEPTH):
        arr = jr.array().items(arr)
    with pytest.raises(jr.SchemaTooDeep):
        compile_schema(obj({"a": arr}))


def test_post_when_unmatchable_valids_refused():
    # the when() wrapper's valids stage matches static values only: a None
    # or ref valid()/invalid() added after the when raises at compile
    # instead of being dropped
    import re


    when = jr.number().when("b", is_=1, then=jr.number().min(1))
    for s, shown in ((when.valid(None), "None"), (when.invalid(jr.ref("b")), "Ref('b')")):
        with pytest.raises(NotImplementedError, match=re.escape(shown)):
            compile_schema(obj({"a": s, "b": jr.number()}))
    compile_schema(obj({"a": when.valid(3), "b": jr.number()}))  # static values still compile


def test_post_abort_warn_order_exact_for_large_item_index():
    # the abortEarly cut orders by (emission, fire-time item, position);
    # an item index past 2**21 must not spill into the emission field:
    # the warn at position 0 fired first and stays
    from joi_ray.engine import _abort_early_keep, _keep_fired

    for item in (5, 2**21 + 1):
        warn = ErrRec("string.creditCard", np.array([True]), "a", warn=True,
                      item_index=np.array([item]))
        warn.rows, warn.fire_items = np.array([0]), np.array([item])
        hard = ErrRec("any.invalid", np.array([True]), "a")
        _keep_fired(warn, _abort_early_keep([warn, hard])[0])
        assert warn.rows.tolist() == [0], item


def _item_rec(code, path, item, **kw):
    rec = ErrRec(code, np.zeros(1, dtype=bool), path, **kw)
    rec.rows, rec.item_index = np.array([0]), np.array([item], dtype=np.int32)
    rec.fire_items = rec.item_index.copy()
    return rec


def test_abort_early_cut_soft_error_keeps_its_own_group_only():
    # a soft error (the inclusions-loop converted sparse, array.js:286-292)
    # does not abort its node: a later warning or error of its ordering
    # group is kept (the error aborts); the first error from another group is not kept (the node
    # returned and the parent key loop aborted)
    from joi_ray.engine import _abort_early_keep

    grp = object()
    soft = _item_rec("array.sparse", "a", 0, order=grp, soft=True)
    other = ErrRec("any.invalid", np.array([True]), "b")
    warn = _item_rec("string.creditCard", "a", 1, order=grp, warn=True)
    later = _item_rec("number.base", "a", 2, order=grp)
    keep = _abort_early_keep([soft, warn, later, other])
    assert [k.tolist() for k in keep] == [[True], [True], [True], [False]]
    # the row's first non-soft error comes from another group: not kept
    assert [k.tolist() for k in _abort_early_keep([soft, other])] == [[True], [False]]
    # without the soft flag the first error aborts and is the only one kept
    hard = _item_rec("array.sparse", "a", 0, order=grp)
    keep = _abort_early_keep([hard, warn, later, other])
    assert [k.tolist() for k in keep] == [[True], [False], [False], [False]]


def test_abort_early_cut_finalize_push_rides_on_ancestor_paths():
    # a finalize push joi made after the row's abort point rides along when
    # the aborting error lies in its node's subtree (that node's finalize
    # ran after its rules errored) or at the root; a sibling's push does not
    from joi_ray.engine import _abort_early_keep

    def push(path):
        return ErrRec("any.default", np.array([True]), path, post_abort=True)

    first = ErrRec("number.min", np.array([True]), "a.b")
    pushes = [push("a.b"), push("a"), push(""), push("a.c"), push("a.bc")]
    keep = _abort_early_keep([first] + pushes)
    assert [k.tolist() for k in keep] == [[True], [True], [True], [True], [False], [False]]
    # a push that aborts the row is kept; one after it in another subtree is not
    assert [k.tolist() for k in _abort_early_keep([push("a.c"), push("d")])] == [[True], [False]]


def test_abort_early_cut_scoped_to_local_abort_groups():
    # with abortEarly off, a schema-local abortEarly subtree (validator.js
    # merges prefs per node) cuts its own recs alone; recs outside every
    # subtree keep all their rows
    cs = compile_schema(obj({"a": jr.number()}), prefs={"abort_early": False})
    recs = [
        ErrRec("any.invalid", np.array([True]), "a", local_abort=1),
        ErrRec("any.required", np.array([True]), "a", local_abort=1),
        ErrRec("any.invalid", np.array([True]), "b"),
        ErrRec("any.required", np.array([True]), "b"),
        ErrRec("any.required", np.array([True]), "c", local_abort=2),
        ErrRec("any.invalid", np.array([True]), "c", local_abort=2),
    ]
    v = cs._assemble_violations(recs, {}, 1)
    assert list(zip(v["path"].to_pylist(), v["code"].to_pylist())) == [
        ("a", "any.invalid"), ("b", "any.invalid"), ("b", "any.required"), ("c", "any.required")]
    assert v.column_names == VIOLATION_SCHEMA.names


def test_violation_rows_order_by_row_path_seq_item():
    # rows come out by (row, path, rule seq, item_index); paths compare by
    # code point ("a.B" < "a.b" < "a.z" < "a.é"), and equal keys keep the
    # order the recs were emitted in
    n = 6

    def fired(*rows):
        mask = np.zeros(n, dtype=bool)
        mask[list(rows)] = True
        return mask

    recs = [
        ErrRec("string.min", fired(4, 1), "a.b", {"limit": 3}, seq=1),
        ErrRec("any.invalid", fired(0, 2, 4), "a.z"),
        ErrRec("string.max", fired(1, 2, 5), "a.b", seq=1, warn=True),
        ErrRec("number.min", fired(0, 3), "a.é", {"limit": 0}, rows=np.array([3, 0, 3, 0]),
               item_index=np.array([2, 1, 0, 4], np.int32)),
        ErrRec("any.required", fired(0, 1, 4), "a.B", seq=3),
        ErrRec("string.base", fired(2, 4), "a.b"),
        ErrRec("number.max", fired(4, 0), "a.b", seq=1, rows=np.array([4, 0, 4]),
               item_index=np.array([1, 3, 0], np.int32)),
        ErrRec("any.unknown", fired(3), "a.b", seq=1),
    ]
    cs = compile_schema(obj({"doc_id": jr.string()}), prefs={"abort_early": False}, id_column="doc_id")
    v = cs._assemble_violations(recs, {"doc_id": pa.array([f"d{i}" for i in range(n)])}, n)
    got = list(zip(*(v[c].to_pylist() for c in ("row", "path", "code", "item_index", "severity"))))
    assert got == [
        (0, "a.B", "any.required", -1, "error"),
        (0, "a.b", "number.max", 3, "error"),
        (0, "a.z", "any.invalid", -1, "error"),
        (0, "a.é", "number.min", 1, "error"),
        (0, "a.é", "number.min", 4, "error"),
        (1, "a.B", "any.required", -1, "error"),
        (1, "a.b", "string.min", -1, "error"),
        (1, "a.b", "string.max", -1, "warn"),
        (2, "a.b", "string.base", -1, "error"),
        (2, "a.b", "string.max", -1, "warn"),
        (2, "a.z", "any.invalid", -1, "error"),
        (3, "a.b", "any.unknown", -1, "error"),
        (3, "a.é", "number.min", 0, "error"),
        (3, "a.é", "number.min", 2, "error"),
        (4, "a.B", "any.required", -1, "error"),
        (4, "a.b", "string.base", -1, "error"),
        (4, "a.b", "string.min", -1, "error"),
        (4, "a.b", "number.max", 0, "error"),
        (4, "a.b", "number.max", 1, "error"),
        (4, "a.z", "any.invalid", -1, "error"),
        (5, "a.b", "string.max", -1, "warn"),
    ]
    assert v["doc_id"].to_pylist() == [f"d{row}" for row in v["row"].to_pylist()]
    # a per-rec message broadcasts over its rows; a per-item one follows its row
    assert v["message"].to_pylist()[:5] == [
        '"a.B" is required', '"a.b[3]" must be less than or equal to ', '"a.z" contains an invalid value',
        '"a.é[1]" must be larger than or equal to 0', '"a.é[4]" must be larger than or equal to 0']
    assert v["message"].to_pylist()[12:18] == [
        '"a.é[0]" must be larger than or equal to 0', '"a.é[2]" must be larger than or equal to 0',
        '"a.B" is required', '"a.b" must be a string', '"a.b" length must be at least 3 characters long',
        '"a.b[0]" must be less than or equal to ']
    assert v["context"].to_pylist()[3] == '{"limit": 0}'
    assert v.schema == VIOLATION_SCHEMA


@pytest.mark.parametrize("row, item", [(7, 9), (2**40, 2**31 - 1)], ids=["small", "large"])
def test_violation_order_holds_for_any_row_and_item(row, item):
    # large row numbers and item indices order the same way as small ones
    recs = [
        ErrRec("number.max", np.zeros(1, bool), "a.b", rows=np.array([row, 3, row]),
               item_index=np.array([item, 0, 2], np.int32)),
        ErrRec("number.min", np.zeros(1, bool), "a.a", rows=np.array([row, 3]),
               item_index=np.array([5, item], np.int32)),
    ]
    v = compile_schema(obj({"a": jr.number()}), prefs={"abort_early": False})._assemble_violations(recs, {}, 1)
    got = list(zip(*(v[c].to_pylist() for c in ("row", "path", "item_index"))))
    assert got == sorted([(row, "a.b", item), (3, "a.b", 0), (row, "a.b", 2), (row, "a.a", 5), (3, "a.a", item)])


@pytest.mark.parametrize("node", [
    jr.number(),
    jr.alternatives().try_(jr.number()),
    jr.number().when("c", is_=jr.number().min(0), then=jr.number().max(100)),
], ids=["number", "alternatives", "post_when"])
@pytest.mark.parametrize("source", [2.5, jr.ref("c")], ids=["literal", "ref"])
def test_cross_type_default_lands_on_every_node_type(node, source):
    # a default the int64 column cannot hold still lands in the value, the
    # same way on every node type: joi's object would hold 1 beside 2.5,
    # so the column is rebuilt as float64 (the clean 1 round-trips as 1.0)
    s = obj({"b": node.default(source), "c": jr.number()})
    r = compile_schema(s, prefs={"abort_early": False}).validate_table(pa.table({
        "b": pa.array([1, None], pa.int64()), "c": [0.0, 2.5]}))
    assert r.violations.num_rows == 0
    assert r.value["b"].to_pylist() == [1.0, 2.5]


@pytest.mark.parametrize("spec", [{}, {"a": {"type": "string"}}], ids=["empty", "keys_only"])
def test_dict_schema_without_type_is_refused(spec):
    # a dict description needs its "type"; a bare key map is not an object()
    with pytest.raises(ValueError, match="root must be an object"):
        compile_schema(spec)


def test_number_empty_matches_the_unconverted_value():
    # joi's number coerce leaves '' as it is, and the empty stage then makes
    # it undefined (validator.js:162-165): optional passes, required reports
    t = pa.table({"x": ["", "3", "q"]})
    res = compile_schema(obj({"x": jr.number().empty("")}), prefs={"abort_early": False}).validate_table(t)
    assert res.ok.tolist() == [True, True, False]
    assert res.violations["code"].to_pylist() == ["number.base"]
    assert res.value.column("x").to_pylist() == [None, 3.0, None]
    res = compile_schema(obj({"x": jr.number().empty("").required()}),
                         prefs={"abort_early": False}).validate_table(t)
    assert list(zip(res.violations["row"].to_pylist(), res.violations["code"].to_pylist())) == [
        (0, "any.required"), (2, "number.base")]
