"""The single-process workloads: set-up, one timed call, and its output check.

A workload exposes ``imports()`` (paid once per process), ``setup(seed)``
(repeated to measure set-up time), ``items`` (cycled by the timed loop),
``call(item)``, ``size(item)`` and ``check(item, out)``, which returns an
error message or None.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import inputs

# gen_case reads these to pin sweeps; the zoo must not depend on the caller's environment
_FUZZ_ENV = ("FUZZ_KINDS", "FUZZ_STRIP_P", "FUZZ_ROWS", "FUZZ_PREFS", "FUZZ_MANIFEST")
EXPECTED_REJECTION = "Cannot apply rules to empty ruleset"


def code_counts(violations: pa.Table) -> dict:
    vc = pc.value_counts(violations["code"]).flatten()
    return dict(zip(vc[0].to_pylist(), vc[1].to_pylist()))


class Flagship:
    """``ValidatorStage`` on 8,192-doc batches of the flagship document schema:
    abort_early off, referential check against the asset catalog, and the
    DEFAULT_STATS sketches.  ``dirty`` breaks a rule on every span first."""

    unit = "docs"

    def __init__(self, dirty: bool):
        self.dirty = dirty
        self.items: list = []

    def imports(self):
        import ray  # noqa: F401  ValidatorStage imports it on construction

        from joi_ray.pipelines import docs, validate  # noqa: F401

    def setup(self, seed: int):
        from joi_ray.pipelines.docs import DEFAULT_STATS, document_schema
        from joi_ray.pipelines.validate import ValidatorStage
        from joi_ray.sources.interleaved import asset_catalog

        batches, ids = inputs.flagship_batches(seed)
        if self.dirty:
            batches = [inputs.corrupt(b) for b in batches]
        expect = inputs.expected_dirty if self.dirty else inputs.expected_clean
        self.items = [(b, *expect(i)) for b, i in zip(batches, ids)]
        self.stage = ValidatorStage(
            document_schema().to_json(), {"abort_early": False}, "doc_id",
            ref_path="spans.media_ref",
            stats_numeric=DEFAULT_STATS["numeric"],
            stats_categorical=DEFAULT_STATS["categorical"],
            stats_id=DEFAULT_STATS["id"],
        )
        # what __init__ does with the broadcast catalog, without starting Ray
        self.stage.catalog = asset_catalog()["media_ref"].combine_chunks()
        self.stage(self.items[0][0])  # warm-up

    def call(self, item):
        return self.stage(item[0])

    def size(self, item) -> int:
        return item[0].num_rows

    def check(self, item, out: pa.Table) -> str | None:
        batch, codes, failed = item
        meta = pc.equal(out["severity"], "meta")
        got = code_counts(out.filter(pc.invert(meta)))
        if got != codes:
            diff = {k: (got.get(k, 0), codes.get(k, 0)) for k in set(got) | set(codes)
                    if got.get(k, 0) != codes.get(k, 0)}
            return f"code counts (got, expected): {diff}"
        stats = [json.loads(c) for c in out.filter(pc.equal(out["code"], "__stats__"))["context"].to_pylist()]
        want = {"rows": batch.num_rows, "failed": failed}
        if stats != [want]:
            return f"__stats__ rows {stats} != [{want}]"
        return None


class SchemaZoo:
    """A fixed set of fuzz-generator cases, each built through the public API,
    compiled and validated per call.  The seed sets the order the cases are
    cycled in, so every seed measures the same traffic mix."""

    unit = "rows"
    CASE_SEEDS = range(0, 400)

    def __init__(self):
        self.items: list = []
        self.rejections = 0
        self.setup_errors: list[str] = []

    def imports(self):
        for k in _FUZZ_ENV:
            os.environ.pop(k, None)
        from tools import diffref, fuzz_spec

        import joi_ray

        self.diffref, self.fuzz_spec, self.jr = diffref, fuzz_spec, joi_ray

    def setup(self, seed: int):
        diffref = self.diffref
        cases, self.rejections, self.setup_errors = [], 0, []
        for s in self.CASE_SEEDS:
            spec, tbl, prefs = self.fuzz_spec.gen_case(s)
            case = [s, spec, tbl, diffref.prefs_to_py(prefs), None]
            try:
                diffref.build_spec_py(spec)
            except ValueError as e:
                if EXPECTED_REJECTION in str(e):
                    self.rejections += 1
                    continue
                self.setup_errors.append(f"case {s}: build: {e!r}"[:300])
                continue
            try:
                case[4] = self._fingerprint(self.call(case))
            except Exception as e:  # noqa: BLE001 - recorded, reported as a failed check
                self.setup_errors.append(f"case {s}: {e!r}"[:300])
                continue
            cases.append(case)
        order = np.random.default_rng(seed).permutation(len(cases))
        self.items = [cases[i] for i in order]

    def info(self) -> dict:
        return {"cases": len(self.items), "build_rejections": self.rejections}

    @staticmethod
    def _fingerprint(res) -> tuple:
        v = res.violations
        return (np.asarray(res.ok, dtype=bool).tobytes(),
                sorted(zip(v["path"].to_pylist(), v["code"].to_pylist())))

    def call(self, item):
        schema = self.diffref.build_spec_py(item[1])
        return self.jr.compile_schema(schema, prefs=item[3]).validate_table(item[2])

    def size(self, item) -> int:
        return item[2].num_rows

    def check(self, item, res) -> str | None:
        rows = res.violations["row"].to_numpy()
        if len(rows) and (rows.min() < 0 or rows.max() >= item[2].num_rows):
            return f"case {item[0]}: violation row out of range"
        if self._fingerprint(res) != item[4]:
            return f"case {item[0]}: ok mask or (path, code) list differs from the first call"
        return None
