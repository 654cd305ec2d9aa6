"""The table root is validated as an object like any nested one.

joi has no separate code for the root value: its entry point runs the same
per-node validate on the root that it runs on every nested object
(lib/validator.js:101-109).  Each test pins a root behaviour the engine
gets from that shared path, and names the nested-object test or the joi
line it mirrors (the reference itself is not needed to run them).
"""

import pyarrow as pa

import joi_ray as jr
from joi_ray import compile_schema, object as obj


def _violations(schema, tbl, prefs=None, id_column=None):
    prefs = {"abort_early": False, **(prefs or {})}
    return compile_schema(schema, prefs=prefs, id_column=id_column).validate_table(tbl).violations.to_pylist()


def test_root_key_count_rules():
    # mirrors the nested key-count check in
    # test_conformance_nested.py::test_object_assert_and_counts: the count
    # is the number of non-null keys of each row (object.js min/max/length)
    t = pa.table({"a": pa.array([1.0, None, 3.0]), "b": pa.array(["x", None, None])})
    keys = {"a": jr.number(), "b": jr.string()}
    v = _violations(obj(keys).min(2), t)
    assert [(x["row"], x["code"], x["message"]) for x in v] == [
        (1, "object.min", '"value" must have at least 2 keys'),
        (2, "object.min", '"value" must have at least 2 keys'),
    ]
    assert [(x["row"], x["code"]) for x in _violations(obj(keys).max(1), t)] == [(0, "object.max")]
    assert [(x["row"], x["code"]) for x in _violations(obj(keys).length(1), t)] == [
        (0, "object.length"), (1, "object.length")]


def test_root_label_renders_in_root_errors():
    # a label flag replaces the path in the object's own messages
    # (errors.js:87-107), as test_dependency_messages.py::
    # test_and_labels_message shows for key labels
    s = obj({"a": jr.number(), "b": jr.string()}).and_("a", "b").label("Doc")
    t = pa.table({"a": pa.array([1.0]), "b": pa.array([None], pa.string())})
    assert [x["message"] for x in _violations(s, t)] == [
        '"Doc" contains [a] without its required peers [b]']


def test_root_assert_skipped_on_rows_with_child_errors():
    # an object's rules never run after its keys errored, abortEarly or
    # not ("Base error always aborts early", validator.js:236-247); the
    # same schema nested under a key must give the same rows and codes
    inner = (obj({"i": jr.object({"a": jr.number()}), "z": jr.number()})
             .assert_(jr.ref("i.a"), jr.number().min(1)))
    i_type = pa.struct([("a", pa.float64())])
    i = pa.array([{"a": 0.0}, {"a": 0.0}, {"a": 5.0}], i_type)
    z = pa.array(["x", "1", "x"])
    root = _violations(inner, pa.table({"i": i, "z": z}))
    assert [(x["row"], x["path"], x["code"]) for x in root] == [
        (0, "z", "number.base"), (1, "", "object.assert"), (2, "z", "number.base")]
    x = pa.StructArray.from_arrays([i, z], names=["i", "z"])
    nested = _violations(obj({"x": inner}), pa.table({"x": x}))
    assert [(v["row"], v["code"]) for v in nested] == [(v["row"], v["code"]) for v in root]


def test_root_rename_of_id_column_keeps_doc_id():
    # renames rewrite the object before its keys validate (object.js:387-
    # 415, test_conformance_nested.py::test_rename_and_unknown); the id
    # column is read from the input table, so moving it keeps doc_id
    s = obj({"id": jr.string(), "v": jr.number().min(5)}).rename("doc_id", "id")
    t = pa.table({"doc_id": ["d1", "d2"], "v": [1.0, 9.0]})
    res = compile_schema(s, id_column="doc_id").validate_table(t)
    assert [(x["doc_id"], x["code"]) for x in res.violations.to_pylist()] == [("d1", "number.min")]
    assert sorted(res.value.column_names) == ["id", "v"]


def test_absent_key_joins_output_only_when_defaulted():
    # joi writes a key's result onto the object (object.js:125-140): a
    # default fills a key the input lacks, an absent key without one stays
    # absent — for the root table and for a nested struct alike
    s = {"a": jr.number(), "b": jr.number().default(5), "c": jr.string()}
    res = compile_schema(obj(s)).validate_table(pa.table({"a": [1.0, 2.0]}))
    assert res.value.to_pydict() == {"a": [1.0, 2.0], "b": [5, 5]}
    x = pa.array([{"a": 1.0}, {"a": None}], pa.struct([("a", pa.float64())]))
    res = compile_schema(obj({"x": obj(s)})).validate_table(pa.table({"x": x}))
    assert res.value["x"].to_pylist() == [{"a": 1.0, "b": 5}, {"a": None, "b": 5}]


def test_every_key_stripped_gives_empty_objects():
    # joi deletes a stripped key from the object (object.js:117-141): when
    # every key strips, each row's value is {} — the table keeps its row
    # count with no columns, not the input columns
    res = compile_schema(obj({"a": jr.string().strip()})).validate_table(pa.table({"a": ["x", None, "y"]}))
    assert res.value.num_rows == 3
    assert res.value.to_pylist() == [{}, {}, {}]
