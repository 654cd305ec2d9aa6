"""Metamorphic invariants on a fixed slice of the fuzz generator.

- Batch split: each table row is an independent joi ``validate()`` call,
  so validating a whole table must give what validating each one-row
  slice gives, once the slices' rows are re-offset: the same ``ok`` mask
  and the same violations (row, path, item index, code, context, message,
  severity), in the same order.
- Physical layout: the Arrow layout of the input is not part of the
  value, so a table split into two chunks, a table sliced at a non-zero
  offset, and top-level string columns dictionary-encoded or cast to
  ``large_string`` and list columns cast to ``large_list`` must give the
  plain table's ``ok`` mask, violations and output value.
- Row permutation: rows are independent, so a table whose rows are
  permuted (a permutation seeded by the case seed) must give the
  permuted ``ok`` mask, each row's violations with the rows remapped, in
  the same order, and the permuted output value.
- Describe round trip: ``build(s.describe())`` is the same schema as
  ``s``, so it must give the same ``ok`` mask, violations and output
  value.

A hostile pool of strings (free-form dates in mixed formats, UTC offsets
beside naive date-times, 17-digit decimals, overflowing exponents,
non-ASCII digits) is checked for the
batch split too, values included: each string is parsed on its own,
whatever else is in its column.

``tools/fuzz_spec.gen_case`` seeds 0-299 are checked twice: with the
case's own prefs and with ``{"abortEarly": False, **prefs}``, the
convention of ``tools/corpus_digest.py``.  Seeds whose build, compile or
whole-table validation raises are skipped (the digest records them as
raised cases).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import joi_ray as jr
from tools.diffref import build_spec_py, prefs_to_py
from tools.fuzz_spec import gen_case

SEEDS = range(0, 300)
_COLS = ["row", "path", "item_index", "code", "context", "message", "severity"]


def _violations(res, offset: int = 0) -> list:
    v = res.violations.select(_COLS).to_pydict()
    v["row"] = [r + offset for r in v["row"]]
    return list(zip(*(v[c] for c in _COLS)))


def _split_mismatch(spec, tbl: pa.Table, prefs: dict, seed: int):
    """None when the whole-table run equals the one-row runs, else a
    description of the first difference."""
    try:
        cs = jr.compile_schema(build_spec_py(spec), prefs=prefs_to_py(prefs))
        whole = cs.validate_table(tbl)
    except Exception:  # noqa: BLE001 - the case is outside the invariant
        return None
    return _slices_mismatch(cs, tbl, whole)


def _slices_mismatch(cs, tbl: pa.Table, whole, values: bool = False):
    """None when ``whole`` (``cs`` over ``tbl``) equals the one-row runs
    (and, with ``values``, their output values), else a description of the
    first difference."""
    ok, viol, out = [], [], []
    for i in range(tbl.num_rows):
        part = cs.validate_table(tbl.slice(i, 1))
        ok.extend(np.asarray(part.ok, dtype=bool).tolist())
        viol.extend(_violations(part, i))
        if values:
            out.append(part.value)
    if values:
        for i, row in enumerate(out):
            if not whole.value.slice(i, 1).equals(row):
                return f"value of row {i}: whole {whole.value.slice(i, 1)} vs slice {row}"
    if np.asarray(whole.ok, dtype=bool).tolist() != ok:
        return f"ok {np.asarray(whole.ok, dtype=bool).tolist()} != {ok}"
    got = _violations(whole)
    if got != viol:
        i = next(i for i in range(max(len(got), len(viol))) if got[i:i + 1] != viol[i:i + 1])
        return f"violation {i}: whole {got[i:i + 1]} vs slices {viol[i:i + 1]}"
    return None


def _recast(tbl: pa.Table, is_type, cast) -> pa.Table:
    return pa.table({c: cast(tbl[c]) if is_type(tbl[c].type) else tbl[c] for c in tbl.column_names})


def _layouts(tbl: pa.Table):
    """(name, table) for each physical layout of ``tbl``'s rows."""
    yield "two_chunks", pa.concat_tables([tbl.slice(0, tbl.num_rows // 2),
                                          tbl.slice(tbl.num_rows // 2)])
    yield "offset", pa.concat_tables([tbl.slice(0, 1), tbl]).combine_chunks().slice(1)
    if any(pa.types.is_string(t) for t in tbl.schema.types):
        yield "dictionary", _recast(tbl, pa.types.is_string, pc.dictionary_encode)
        yield "large_string", _recast(tbl, pa.types.is_string, lambda c: c.cast(pa.large_string()))
    if any(pa.types.is_list(t) for t in tbl.schema.types):
        yield "large_list", _recast(tbl, pa.types.is_list,
                                    lambda c: c.cast(pa.large_list(c.type.value_type)))


def _layout_mismatch(spec, tbl: pa.Table, prefs: dict, seed: int):
    """None when every layout gives the plain table's result, else the
    first layout that differs and what differs."""
    def result(t):
        res = cs.validate_table(t)
        return np.asarray(res.ok, dtype=bool).tolist(), _violations(res), res.value.to_pylist()

    try:
        cs = jr.compile_schema(build_spec_py(spec), prefs=prefs_to_py(prefs))
        plain = result(tbl)
    except Exception:  # noqa: BLE001 - the case is outside the invariant
        return None
    for name, t in _layouts(tbl):
        got = result(t)
        for what, a, b in zip(("ok", "violations", "value"), got, plain):
            if a != b:
                return f"{name} {what}: {a} vs plain {b}"
    return None


def _by_row(viol: list, rows) -> dict:
    """Each row's violations (without the row), in order, keyed by
    ``rows[row]``."""
    out: dict = {}
    for v in viol:
        out.setdefault(int(rows[v[0]]), []).append(v[1:])
    return out


def _permutation_mismatch(spec, tbl: pa.Table, prefs: dict, seed: int):
    """None when the permuted table gives the permuted result, else what
    differs."""
    perm = np.random.default_rng(seed).permutation(tbl.num_rows)
    try:
        cs = jr.compile_schema(build_spec_py(spec), prefs=prefs_to_py(prefs))
        plain = cs.validate_table(tbl)
    except Exception:  # noqa: BLE001 - the case is outside the invariant
        return None
    got = cs.validate_table(tbl.take(pa.array(perm)))
    ok, want = np.asarray(got.ok, dtype=bool).tolist(), np.asarray(plain.ok, dtype=bool)[perm].tolist()
    if ok != want:
        return f"ok {ok} vs permuted {want}"
    a, b = _by_row(_violations(got), perm), _by_row(_violations(plain), range(tbl.num_rows))
    if a != b:
        r = next(r for r in sorted(set(a) | set(b)) if a.get(r) != b.get(r))
        return f"row {r} violations: permuted {a.get(r)} vs plain {b.get(r)}"
    value, plain_value = got.value.to_pylist(), plain.value.to_pylist()
    want = [plain_value[i] for i in perm]
    if value != want:
        return f"value {value} vs permuted {want}"
    return None


def _describe_mismatch(spec, tbl: pa.Table, prefs: dict, seed: int):
    """None when the schema rebuilt from its description gives the same
    result, else what differs."""
    def result(schema):
        res = jr.compile_schema(schema, prefs=prefs_to_py(prefs)).validate_table(tbl)
        return np.asarray(res.ok, dtype=bool).tolist(), _violations(res), res.value.to_pylist()

    try:
        schema = build_spec_py(spec)
        plain = result(schema)
    except Exception:  # noqa: BLE001 - the case is outside the invariant
        return None
    try:
        got = result(jr.build(schema.describe()))
    except Exception as e:  # noqa: BLE001 - a round trip that raises is a mismatch
        return f"round trip raised {e!r}"
    for what, a, b in zip(("ok", "violations", "value"), got, plain):
        if a != b:
            return f"{what}: {a} vs plain {b}"
    return None


def _sweep(check, abort_early_off: bool, monkeypatch) -> dict:
    # gen_case reads these to pin sweeps; the slice must not depend on them
    for k in ("FUZZ_KINDS", "FUZZ_STRIP_P", "FUZZ_ROWS", "FUZZ_PREFS", "FUZZ_MANIFEST"):
        monkeypatch.delenv(k, raising=False)
    bad = {}
    for seed in SEEDS:
        spec, tbl, prefs = gen_case(seed)
        if abort_early_off:
            prefs = {"abortEarly": False, **prefs}
        why = check(spec, tbl, prefs, seed)
        if why:
            bad[seed] = why
    return bad


_PREFS = pytest.mark.parametrize("abort_early_off", [False, True], ids=["own_prefs", "abort_early_off"])


@_PREFS
def test_batch_split_invariant(abort_early_off, monkeypatch):
    bad = _sweep(_split_mismatch, abort_early_off, monkeypatch)
    assert not bad, bad


@_PREFS
def test_physical_layout_invariant(abort_early_off, monkeypatch):
    bad = _sweep(_layout_mismatch, abort_early_off, monkeypatch)
    assert not bad, bad


@_PREFS
def test_row_permutation_invariant(abort_early_off, monkeypatch):
    bad = _sweep(_permutation_mismatch, abort_early_off, monkeypatch)
    assert not bad, bad


@_PREFS
def test_describe_round_trip_invariant(abort_early_off, monkeypatch):
    bad = _sweep(_describe_mismatch, abort_early_off, monkeypatch)
    assert not bad, bad


HOSTILE_DATES = ["March 4, 2019", "03/04/2019", "2019/03/04 10:00", "4 Mar 2019 10:00:00 +0100",
                 "2019-02-30", "1-1-2013 UTC", "Thu Jan 01 1970 00:00:00 GMT+0130", "Apr 31 2019",
                 "+002013-06-07T14:21:46.295Z", "2013-06-07T24:00", "2019-03-04", "1551693600000",
                 "-1.5", "12.5", "7", "0x1f", "2019-13-45", "", " ", "٢٠١٩-٠٣-٠٤",
                 "2019-01-01T00:00+05:30", "2019-04-20T09:03:01", "2019-04-20 09:03 -05:00",
                 "20190420T090301"]
HOSTILE_NUMBERS = ["0.013040000451301373", "4116305363741328.5", "-3163001563.6915455",
                   "12345678901234567", "9007199254740993", "1e400", "-1e400", "1e-400", "1.50e2",
                   "1E5", "-0", " 12 ", "٣", "１２", "१२", "Infinity"]


@_PREFS
def test_hostile_pool_batch_split_invariant(abort_early_off):
    keys = {"n": jr.number(), "u": jr.number().unsafe(), "d": jr.date(), "i": jr.date().iso(),
            "t": jr.date().timestamp("unix"), "s": jr.string().iso_date()}
    schema = jr.object(keys)
    pool = HOSTILE_DATES + HOSTILE_NUMBERS
    rng = np.random.default_rng(21)
    tbl = pa.table({k: pa.array([pool[j] for j in rng.permutation(len(pool))], pa.string())
                    for k in keys})
    cs = jr.compile_schema(schema, prefs={"abort_early": False} if abort_early_off else {})
    why = _slices_mismatch(cs, tbl, cs.validate_table(tbl), values=True)
    assert why is None, why
