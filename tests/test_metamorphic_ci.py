"""Batch-split invariant on a fixed slice of the fuzz generator.

Each table row is an independent joi ``validate()`` call, so validating a
whole table must give what validating each one-row slice gives, once the
slices' rows are re-offset: the same ``ok`` mask and the same violations
(row, path, item index, code, context, message, severity), in the same
order.  ``tools/fuzz_spec.gen_case`` seeds 0-299 are checked twice: with
the case's own prefs and with ``{"abortEarly": False, **prefs}``, the
convention of ``tools/corpus_digest.py``.  Seeds whose build, compile or
whole-table validation raises are skipped (the digest records them as
raised cases).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
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


def _split_mismatch(spec, tbl: pa.Table, prefs: dict):
    """None when the whole-table run equals the one-row runs, else a
    description of the first difference."""
    try:
        cs = jr.compile_schema(build_spec_py(spec), prefs=prefs_to_py(prefs))
        whole = cs.validate_table(tbl)
    except Exception:  # noqa: BLE001 - the case is outside the invariant
        return None
    ok, viol = [], []
    for i in range(tbl.num_rows):
        part = cs.validate_table(tbl.slice(i, 1))
        ok.extend(np.asarray(part.ok, dtype=bool).tolist())
        viol.extend(_violations(part, i))
    if np.asarray(whole.ok, dtype=bool).tolist() != ok:
        return f"ok {np.asarray(whole.ok, dtype=bool).tolist()} != {ok}"
    got = _violations(whole)
    if got != viol:
        i = next(i for i in range(max(len(got), len(viol))) if got[i:i + 1] != viol[i:i + 1])
        return f"violation {i}: whole {got[i:i + 1]} vs slices {viol[i:i + 1]}"
    return None


@pytest.mark.parametrize("abort_early_off", [False, True], ids=["own_prefs", "abort_early_off"])
def test_batch_split_invariant(abort_early_off, monkeypatch):
    # gen_case reads these to pin sweeps; the slice must not depend on them
    for k in ("FUZZ_KINDS", "FUZZ_STRIP_P", "FUZZ_ROWS", "FUZZ_PREFS", "FUZZ_MANIFEST"):
        monkeypatch.delenv(k, raising=False)
    bad = {}
    for seed in SEEDS:
        spec, tbl, prefs = gen_case(seed)
        if abort_early_off:
            prefs = {"abortEarly": False, **prefs}
        why = _split_mismatch(spec, tbl, prefs)
        if why:
            bad[seed] = why
    assert not bad, bad
