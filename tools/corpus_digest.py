"""Byte-identity check for engine refactors.

Validates a fixed corpus and writes one sha256 digest per output part
(violations, ok mask, output value) of every case, each taken over the
Arrow IPC stream bytes of that part:

- the 4 clean and 4 corrupted 8,192-doc flagship batches of
  ``valbench/inputs.py`` (seed 1), validated against the flagship document
  schema with ``abort_early`` off and ``doc_id`` as the id column;
- the same 8 batches through ``ValidatorStage`` as valbench's flagship
  workloads build it (referential check of ``spans.media_ref`` against
  ``asset_catalog()``, the ``DEFAULT_STATS`` sketches), digesting its
  output without the ``meta`` rows (``stage_clean/{i}``,
  ``stage_dirty/{i}``): the referential rows are checked here only;
- ``tools/fuzz_spec.gen_case`` seeds 0-1999, built, compiled and validated
  with the case's own prefs (``gen_case/{seed}``), and once more with
  ``{"abortEarly": False, **prefs}`` (``gen_case_na/{seed}``), the prefs
  ``diffref.diff_case`` sends to the reference.  Without the second run,
  the engine default ``abort_early: True`` keeps only each row's first
  error on most seeds and hides the rest from the check.

A case that raises records the exception type and message instead.

Usage:
    python3 tools/corpus_digest.py --save digests.json   # on the base commit
    python3 tools/corpus_digest.py --check digests.json  # on the change

``--check`` prints every case whose digests differ and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

# gen_case reads these to pin sweeps; the corpus must not depend on them
for _k in ("FUZZ_KINDS", "FUZZ_STRIP_P", "FUZZ_ROWS", "FUZZ_PREFS", "FUZZ_MANIFEST"):
    os.environ.pop(_k, None)

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402

import joi_ray as jr  # noqa: E402
from diffref import build_spec_py, prefs_to_py  # noqa: E402
from fuzz_spec import gen_case  # noqa: E402
from valbench import inputs  # noqa: E402

FLAGSHIP_SEED = 1
GEN_SEEDS = range(0, 2000)


def _ipc_digest(tbl: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as w:
        w.write_table(tbl.combine_chunks())
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _digest(res) -> dict:
    ok = pa.table({"ok": pa.array(np.asarray(res.ok, dtype=bool))})
    return {"violations": _ipc_digest(res.violations), "ok": _ipc_digest(ok),
            "value": _ipc_digest(res.value)}


def _run(fn) -> dict:
    try:
        return _digest(fn())
    except Exception as e:  # noqa: BLE001 - a raise is part of the case's outcome
        return {"raised": f"{type(e).__name__}: {e}"}


def _stage_digest(stage, batch: pa.Table) -> dict:
    out = stage(batch)
    return {"violations": _ipc_digest(out.filter(pc.not_equal(out["severity"], "meta")))}


def corpus() -> dict:
    from joi_ray.pipelines.docs import DEFAULT_STATS, document_schema
    from joi_ray.pipelines.validate import ValidatorStage
    from joi_ray.sources.interleaved import asset_catalog

    out = {}
    compiled = jr.compile_schema(document_schema(), prefs={"abort_early": False}, id_column="doc_id")
    stage = ValidatorStage(
        document_schema().to_json(), {"abort_early": False}, "doc_id",
        ref_path="spans.media_ref",
        stats_numeric=DEFAULT_STATS["numeric"],
        stats_categorical=DEFAULT_STATS["categorical"],
        stats_id=DEFAULT_STATS["id"],
    )
    # what __init__ does with the broadcast catalog, without starting Ray
    stage.catalog = asset_catalog()["media_ref"].combine_chunks()
    batches, _ = inputs.flagship_batches(FLAGSHIP_SEED)
    for i, b in enumerate(batches):
        out[f"flagship_clean/{i}"] = _run(lambda b=b: compiled.validate_table(b))
        out[f"flagship_dirty/{i}"] = _run(lambda b=b: compiled.validate_table(inputs.corrupt(b)))
        out[f"stage_clean/{i}"] = _stage_digest(stage, b)
        out[f"stage_dirty/{i}"] = _stage_digest(stage, inputs.corrupt(b))
    for s in GEN_SEEDS:
        spec, tbl, prefs = gen_case(s)

        def case(spec=spec, tbl=tbl, prefs=prefs):
            return jr.compile_schema(build_spec_py(spec), prefs=prefs_to_py(prefs)).validate_table(tbl)

        out[f"gen_case/{s}"] = _run(case)
        out[f"gen_case_na/{s}"] = _run(lambda c=case, p={"abortEarly": False, **prefs}: c(prefs=p))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    g = ap.add_mutually_exclusive_group(required=True)
    g.add_argument("--save", metavar="FILE", help="write the corpus digests to FILE")
    g.add_argument("--check", metavar="FILE", help="compare the corpus digests with FILE")
    args = ap.parse_args()
    got = corpus()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(got, f, indent=0, sort_keys=True)
        print(f"saved {len(got)} case digests to {args.save}")
        return 0
    with open(args.check) as f:
        want = json.load(f)
    bad = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    for k in bad:
        parts = sorted(p for p in set(want.get(k) or {}) | set(got.get(k) or {})
                       if (want.get(k) or {}).get(p) != (got.get(k) or {}).get(p))
        print(f"DIFF {k}: {', '.join(parts) or 'missing'}")
    print(f"{len(got) - len(bad)}/{len(set(want) | set(got))} cases identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
