"""Hostile inputs for the array items path: empty and all-null columns,
a null-typed column, empty lists, one list of 2^21+5 items and a
large_list nested in a struct, all through one schema with ordered slots,
two inclusions and unique().  Runs in one process and starts no threads."""

import numpy as np
import pyarrow as pa

import joi_ray as jr

L_F64 = pa.list_(pa.float64())


def _schema():
    return jr.array().items(jr.number().integer(), jr.string()).ordered(jr.number()).unique()


def _run(root, tbl):
    return jr.compile_schema(root, prefs={"abort_early": False}).validate_table(tbl)


def _rows(res):
    return res.violations.select(["row", "path", "item_index", "code", "message"]).to_pylist()


def test_empty_table():
    res = _run(jr.object({"x": _schema()}), pa.table({"x": pa.array([], type=L_F64)}))
    assert list(res.ok) == [] and _rows(res) == []
    assert res.value.column("x").type == L_F64


def test_all_null_list_column():
    res = _run(jr.object({"x": _schema()}), pa.table({"x": pa.array([None, None], type=L_F64)}))
    assert list(res.ok) == [True, True] and _rows(res) == []
    assert res.value.to_pylist() == [{"x": None}, {"x": None}]


def test_null_typed_column():
    res = _run(jr.object({"x": _schema()}), pa.table({"x": pa.nulls(3)}))
    assert list(res.ok) == [True] * 3 and _rows(res) == []
    assert res.value.column("x").type == pa.null()


def test_only_empty_lists():
    res = _run(jr.object({"x": _schema()}), pa.table({"x": pa.array([[], []], type=L_F64)}))
    assert list(res.ok) == [True, True] and _rows(res) == []
    assert res.value.to_pylist() == [{"x": []}, {"x": []}]


def test_list_of_2_pow_21_plus_5_items():
    # one row, ~16 MB of float64 items: slot 0 takes the ordered number,
    # the rest match integer(); the second-last repeats item 7 and the
    # last matches neither inclusion
    n = 2**21 + 5
    vals = np.arange(n, dtype=np.float64)
    vals[-2], vals[-1] = 7.0, 0.5
    col = pa.ListArray.from_arrays(pa.array([0, n], pa.int32()), pa.array(vals))
    res = _run(jr.object({"x": _schema()}), pa.table({"x": col}))
    assert list(res.ok) == [False]
    assert _rows(res) == [
        {"row": 0, "path": "x", "item_index": n - 2, "code": "array.unique",
         "message": f'"x[{n - 2}]" contains a duplicate value'},
        {"row": 0, "path": "x", "item_index": n - 1, "code": "array.includes",
         "message": f'"x[{n - 1}]" does not match any of the allowed types'},
    ]
    out = res.value.column("x")
    assert out.type == L_F64 and len(out[0]) == n


def test_large_list_nested_in_struct():
    inner = pa.array([[1.0, 2.5], [3.0, 3.0], None, []], type=pa.large_list(pa.float64()))
    tbl = pa.table({"s": pa.StructArray.from_arrays([inner], names=["x"])})
    res = _run(jr.object({"s": jr.object({"x": _schema()})}), tbl)
    assert list(res.ok) == [False, False, True, True]
    assert _rows(res) == [
        {"row": 0, "path": "s.x", "item_index": 1, "code": "array.includes",
         "message": '"s.x[1]" does not match any of the allowed types'},
        {"row": 1, "path": "s.x", "item_index": 1, "code": "array.unique",
         "message": '"s.x[1]" contains a duplicate value'},
    ]
    assert res.value.column("s").to_pylist() == [
        {"x": [1.0, 2.5]}, {"x": [3.0, 3.0]}, {"x": None}, {"x": []}]
