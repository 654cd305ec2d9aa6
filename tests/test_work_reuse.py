"""The engine skips work whose result it already has: a value that did not
change passes through by identity, settled rows skip the string.empty
check, sibling when()s on one ref share one condition evaluation, Arrow
bool masks unpack from their bitmaps, and a string column is parsed to a
number or a date once per distinct value.  Each shortcut must give what
the full computation gives."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import joi_ray as jr
from joi_ray import engine
from joi_ray.kernels import numbers, scalars, strings
from joi_ray.kernels.util import as_bool_np
from joi_ray.pipelines.docs import document_schema
from joi_ray.sources.interleaved import interleave_batch


def _filled(mask: pa.Array, fill: bool) -> np.ndarray:
    """The conversion as_bool_np replaces: fill the nulls, then to numpy."""
    mask = mask.combine_chunks() if isinstance(mask, pa.ChunkedArray) else mask
    if mask.null_count:
        mask = pc.fill_null(mask, fill)
    return mask.to_numpy(zero_copy_only=False).astype(bool)


@pytest.mark.parametrize("with_nulls", [False, True])
@pytest.mark.parametrize("fill", [False, True])
def test_as_bool_np_matches_fill_null_on_sliced_arrays(with_nulls, fill):
    rng = np.random.default_rng(7)
    for length in (0, 1, 7, 8, 9, 16, 17, 70):
        base = pa.array(rng.random(length) < 0.5,
                        mask=(rng.random(length) < 0.3) if with_nulls else None)
        for offset in range(10):
            if offset > length:
                continue
            for size in {0, 1, 5, length - offset}:
                arr = base.slice(offset, min(size, length - offset))
                got = as_bool_np(arr, len(arr), fill)
                assert got.dtype == bool
                assert np.array_equal(got, _filled(arr, fill)), (length, offset, size)


@pytest.mark.parametrize("fill", [False, True])
def test_as_bool_np_chunked_and_empty(fill):
    chunked = pa.chunked_array([pa.array([True, None, False]),
                                pa.array([None, False, True, None]).slice(1)])
    assert np.array_equal(as_bool_np(chunked, 6, fill), _filled(chunked, fill))
    one = pa.chunked_array([pa.array([None, True, False, None]).slice(1)])
    assert np.array_equal(as_bool_np(one, 3, fill), _filled(one, fill))
    assert as_bool_np(pa.chunked_array([], pa.bool_()), 0, fill).shape == (0,)
    assert as_bool_np(pa.array([], pa.bool_()), 0, fill).shape == (0,)
    assert np.array_equal(as_bool_np(pa.nulls(3, pa.bool_()), 3, fill), [fill] * 3)


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_string_empty_on_sliced_columns(typ):
    cells = ["a", "", None, "", "xy", None, "", "b", ""]
    col = pa.array(cells, typ)
    schema = jr.object({"s": jr.string()})
    for offset in range(len(cells)):
        part = col.slice(offset)
        res = jr.compile_schema(schema).validate_table(pa.table({"s": part}))
        got = res.violations.filter(pc.equal(res.violations["code"], "string.empty"))
        want = [i for i, v in enumerate(cells[offset:]) if v == ""]
        assert got["row"].to_pylist() == want, offset
        assert engine._empty_strings(part).tolist() == [v == "" for v in cells[offset:]]


def _twin_schemas(key_schema):
    """The same two sibling when()s twice: once with equal conditions (they
    share), once with the second condition labelled (equal in effect, not
    in description, so it does not share)."""
    def build(second_is):
        text = jr.string().when("kind", is_=jr.string().valid("text"),
                                then=jr.string().required(), otherwise=jr.string().forbidden())
        media = jr.string().when("kind", is_=second_is,
                                 then=jr.string().forbidden(), otherwise=jr.string().required())
        return jr.object({"kind": key_schema, "text": text, "media": media})
    return (build(jr.string().valid("text")),
            build(jr.string().valid("text").label("kind condition")))


def _result(schema, tbl, prefs):
    res = jr.compile_schema(schema, prefs).validate_table(tbl)
    v = res.violations
    return (sorted(zip(v["row"].to_pylist(), v["path"].to_pylist(), v["code"].to_pylist(),
                       v["message"].to_pylist())),
            res.ok.to_pylist() if hasattr(res.ok, "to_pylist") else list(res.ok),
            res.value.to_pylist())


def _count_eval_nodes(monkeypatch, seen=None) -> list:
    """Count the eval_node calls; ``seen`` collects (node, input, result)."""
    calls = [0]
    real = engine.eval_node

    def counting(node, arr, *args, **kwargs):
        calls[0] += 1
        res = real(node, arr, *args, **kwargs)
        if seen is not None:
            seen.append((node, arr, res))
        return res

    monkeypatch.setattr(engine, "eval_node", counting)
    return calls


_KINDS = pa.table({
    "kind": [" text", "text", "image", "TEXT", None, "image ", "text"],
    "text": ["a", "b", None, "c", "d", None, None],
    "media": [None, None, "m", "n", None, "o", "p"],
})


@pytest.mark.parametrize("abort_early", [True, False])
def test_sibling_whens_share_a_condition_when_the_ref_errored(abort_early):
    # kind trims, then fails min(5) on every present row: the conditions see
    # the raw originals (' text' does not match 'text'), as joi's value[key]
    # keeps them for an errored key
    kind = jr.string().trim().min(5)
    shared, apart = _twin_schemas(kind)
    cs = jr.compile_schema(shared)
    assert cs.root.keys["text"].whens[0]["is"] is cs.root.keys["media"].whens[0]["is"]
    ca = jr.compile_schema(apart)
    assert ca.root.keys["text"].whens[0]["is"] is not ca.root.keys["media"].whens[0]["is"]
    prefs = {"abort_early": abort_early}
    assert _result(shared, _KINDS, prefs) == _result(apart, _KINDS, prefs)
    if not abort_early:
        codes = {(r, p, c) for r, p, c, _ in _result(shared, _KINDS, prefs)[0]}
        assert (0, "media", "any.required") in codes  # ' text' is not 'text'
        assert (1, "media", "any.required") not in codes


def test_sibling_whens_share_one_evaluation(monkeypatch):
    shared, apart = _twin_schemas(jr.string().valid("text", "image", "TEXT", " text", "image "))
    calls = _count_eval_nodes(monkeypatch)
    got = _result(shared, _KINDS, {"abort_early": False})
    n_shared, calls[0] = calls[0], 0
    assert got == _result(apart, _KINDS, {"abort_early": False})
    assert n_shared == calls[0] - 1  # one condition evaluation fewer


@pytest.mark.parametrize("which", ["text", "media"])
def test_a_wrapper_with_local_prefs_does_not_share(which):
    # under convert off the condition number() does not match '1'
    def build(second_is):
        first = jr.string().when("x", is_=jr.number(), then=jr.string().required(),
                                 otherwise=jr.string().forbidden())
        second = jr.string().when("x", is_=second_is, then=jr.string().required(),
                                  otherwise=jr.string().forbidden())
        if which == "text":
            first = first.preferences(convert=False)
        else:
            second = second.preferences(convert=False)
        return jr.object({"x": jr.any_(), "text": first, "media": second})

    tbl = pa.table({"x": ["1", "a", "2"], "text": ["t", None, "u"], "media": ["m", None, None]})
    shared, apart = build(jr.number()), build(jr.number().label("n"))
    keys = jr.compile_schema(shared).root.keys
    assert keys["text"].whens[0]["is"] is keys["media"].whens[0]["is"]
    assert _result(shared, tbl, {"abort_early": False}) == _result(apart, tbl, {"abort_early": False})
    codes = {(r, p, c) for r, p, c, _ in _result(shared, tbl, {"abort_early": False})[0]}
    # '1' and '2' are no numbers without convert, but are with it
    if which == "text":
        assert codes == {(0, "text", "any.unknown"), (2, "text", "any.unknown"),
                         (2, "media", "any.required")}
    else:
        assert codes == {(0, "media", "any.unknown")}


def _flagship_batch() -> pa.Table:
    rng = np.random.default_rng(3)
    n = 1200
    ids = 600_000 * 1000 + np.arange(n, dtype=np.int64)
    words = np.array("batch part spark line column order small sort fast".split())
    text = [" ".join(words[rng.integers(0, len(words), int(k))]) for k in rng.integers(8, 40, n)]
    return interleave_batch(pa.table({"doc_id": ids, "text": pa.array(text, pa.string())})).combine_chunks()


def test_clean_flagship_batch_passes_through(monkeypatch):
    batch = _flagship_batch()
    cs = jr.compile_schema(document_schema(), {"abort_early": False}, "doc_id")
    seen: list = []
    calls = _count_eval_nodes(monkeypatch, seen)
    res = cs.validate_table(batch)
    # root, doc_id, spans, the span object, kind, the two wrappers with two
    # branches each, one shared condition, offset
    assert calls[0] == 13
    assert res.violations.num_rows > 0  # the generator's dirt is there
    # no node rewrote its column: the root returns the struct it was given,
    # so the output table holds the input's buffers
    root_in, root_res = next((arr, r) for node, arr, r in seen if node is cs.root)
    assert root_res.value is root_in
    for name in ("doc_id", "spans"):
        assert res.value[name].equals(batch[name])
        assert _addresses(res.value[name].chunk(0)) == _addresses(root_in.field(name)), name


def _addresses(arr: pa.Array) -> list:
    """Where each buffer of ``arr`` and its children lives."""
    return [b.address if b is not None else None for b in arr.buffers()]


def _spy(monkeypatch, module, name, log: list, arg=lambda a: a[0]):
    """Replace ``module.name`` with a wrapper that appends ``arg(args)``
    to ``log`` on each call."""
    real = getattr(module, name)

    def spy(*args):
        log.append(arg(args))
        return real(*args)

    monkeypatch.setattr(module, name, spy)


_ROWS = 10_000


def _column(cells: list) -> pa.Table:
    return pa.table({"v": pa.array([cells[i % len(cells)] for i in range(_ROWS)] + [None], pa.string())})


def test_number_parses_each_distinct_string_once(monkeypatch):
    cells = ["1.5", "2e3", "x"]
    seen = []
    _spy(monkeypatch, numbers, "parse_number", seen)
    res = jr.compile_schema(jr.object({"v": jr.number()}), {"abort_early": False}).validate_table(
        _column(cells))
    assert sorted(seen) == sorted(cells)
    assert res.value["v"].to_pylist()[:4] == [1.5, 2000.0, None, 1.5]
    assert res.violations["row"].to_pylist() == list(range(2, _ROWS, 3))


@pytest.mark.parametrize("cells, via", [
    (["1551693600000", "-1.5", "0"], "parse_number"),
    (["2019-03-04T10:00:00Z", "March 4, 2019", "4 Mar 2019 10:00:00 +0100"], "pandas_ms"),
])
def test_date_parses_each_distinct_string_once(monkeypatch, cells, via):
    epochs, datetimes = [], []
    _spy(monkeypatch, scalars, "parse_number", epochs)
    for module in (scalars, strings):
        _spy(monkeypatch, module, "pandas_ms", datetimes, arg=lambda a: (a[1], tuple(a[0])))
    res = jr.compile_schema(jr.object({"v": jr.date()}), {"abort_early": False}).validate_table(
        _column(cells))
    datetimes = [(fmt, sorted(s)) for fmt, s in datetimes if s]
    if via == "parse_number":
        assert sorted(epochs) == sorted(cells) and datetimes == []
    else:
        # no string reaches a pandas parser twice; the free-form parse sees
        # each string the ISO parsers reject
        assert epochs == []
        for fmt in ("ISO8601", "mixed"):
            seen = [v for f, strs in datetimes if f == fmt for v in strs]
            assert len(seen) == len(set(seen)), fmt
        assert [strs for f, strs in datetimes if f == "mixed"] == [sorted(cells[1:])]
    assert np.asarray(res.ok, dtype=bool).all()
    days = res.value["v"].cast(pa.int64()).to_pylist()
    assert days[:3] == days[3:6] and days[-1] is None
