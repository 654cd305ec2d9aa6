"""Ray Data pipeline tests: streaming validation, uniqueness shuffle,
checkpoint/resume, drift — on sf0.001-derived interleaved docs."""

import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from joi_ray.pipelines.docs import DEFAULT_STATS, document_schema
from joi_ray.sources.interleaved import asset_catalog, expected_dirty_counts, interleave_batch

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def shard_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("shards")
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    n = t.num_rows
    paths = []
    for i in range(2):
        p = str(d / f"part{i}.parquet")
        pq.write_table(t.slice(i * n // 2, n // 2 + (n % 2) * i), p)
        paths.append(p)
    return paths


def _mk(path):
    import ray.data as rd

    return lambda: rd.read_parquet(path).map_batches(interleave_batch, batch_format="pyarrow")


def _uniq(paths):
    import ray.data as rd

    def f():
        return (
            rd.read_parquet(paths)
            .map_batches(interleave_batch, batch_format="pyarrow")
            .select_columns(["doc_id"])
        )

    return f


def test_validate_ds_streaming(ray_session):
    import ray.data as rd

    from joi_ray.pipelines.validate import validate_ds

    ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"]).map_batches(
        interleave_batch, batch_format="pyarrow"
    )
    viol = validate_ds(
        ds,
        document_schema(),
        catalog=asset_catalog(),
        ref_path="spans.media_ref",
        concurrency=2,
        batch_size=256,
    )
    rows = viol.take_all()
    exp = expected_dirty_counts(SF)
    from collections import Counter

    codes = Counter(r["code"] for r in rows)
    assert codes["array.min"] == exp["empty_spans"]
    assert codes["referential.missing"] == exp["dangling_ref"]
    assert codes["array.sort"] == exp["non_monotonic"]


def test_full_run_resume_and_drift(ray_session, shard_files, tmp_path):
    from joi_ray.pipelines.validate import validate_dataset

    out_dir = str(tmp_path / "run")
    kwargs = dict(
        schema=document_schema(),
        out_dir=out_dir,
        catalog=asset_catalog(),
        ref_path="spans.media_ref",
        stats_numeric=DEFAULT_STATS["numeric"],
        stats_categorical=DEFAULT_STATS["categorical"],
        stats_id=DEFAULT_STATS["id"],
        unique_ds_factory=_uniq(shard_files),
        batch_size=512,
        concurrency=2,
    )
    factories = [_mk(p) for p in shard_files]
    rep = validate_dataset(factories, **kwargs)
    exp = expected_dirty_counts(SF)
    assert rep.rows == exp["rows"]
    assert rep.codes["referential.missing"] == exp["dangling_ref"]
    assert rep.duplicates >= 1  # hot key + pair dup
    assert not rep.passed
    assert os.path.exists(f"{out_dir}/shard=0000/violations.parquet")
    assert os.path.exists(f"{out_dir}/snapshot.json")

    # resume: completed run re-invoked is a no-op (fast, same numbers)
    import time

    t0 = time.time()
    rep2 = validate_dataset(factories, **kwargs)
    assert time.time() - t0 < 5.0
    assert rep2.rows == rep.rows and rep2.codes == rep.codes

    # partial resume: drop shard 1 from the manifest, rerun -> only shard 1 recomputed
    man_path = f"{out_dir}/_MANIFEST.json"
    man = json.load(open(man_path))
    del man["shards"]["1"]
    json.dump(man, open(man_path, "w"))
    shutil.rmtree(f"{out_dir}/shard=0001")
    rep3 = validate_dataset(factories, **kwargs)
    assert rep3.rows == rep.rows and rep3.failed == rep.failed

    # fresh rerun into the used out_dir: the old uniqueness output must not
    # be counted again beside the new one
    rep_fresh = validate_dataset(factories, **{**kwargs, "resume": False})
    assert rep_fresh.duplicates == rep.duplicates
    assert rep_fresh.duplicate_rows_excess == rep.duplicate_rows_excess

    # drift: same distribution vs own snapshot -> below thresholds
    snap = json.load(open(f"{out_dir}/snapshot.json"))
    out2 = str(tmp_path / "run2")
    rep4 = validate_dataset(
        [factories[0]],
        **{**kwargs, "out_dir": out2, "unique_ds_factory": None, "baseline_snapshot": snap},
    )
    assert rep4.drift and all(d.get("ks", 0) < 0.1 and d.get("psi", 0) < 0.1 for d in rep4.drift.values())


def test_uniqueness_pass_hashed_matches_exact(ray_session):
    import ray.data as rd

    from joi_ray.pipelines.validate import uniqueness_pass, uniqueness_pass_hashed

    def factory():
        return (
            rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
            .map_batches(interleave_batch, batch_format="pyarrow")
            .select_columns(["doc_id"])
        )

    exact = {(d["doc_id"], d["n"]) for d in uniqueness_pass(factory()).take_all()}
    hashed_res = uniqueness_pass_hashed(factory)
    rows = hashed_res.take_all() if hasattr(hashed_res, "take_all") else hashed_res.to_pylist()
    hashed = {(d["doc_id"], d["n"]) for d in rows}
    assert exact == hashed and len(exact) >= 2

    # semi-join scale path (forced via broadcast_max=0): candidates flow as
    # a Dataset through an inner hash-join instead of a ray.put broadcast —
    # the 10^12-doc shape where a 1% dup rate is an 80 GB candidate array
    semi_res = uniqueness_pass_hashed(factory, broadcast_max=0)
    rows = semi_res.take_all() if hasattr(semi_res, "take_all") else semi_res.to_pylist()
    semi = {(d["doc_id"], d["n"]) for d in rows}
    assert exact == semi


def test_uniqueness_pass_exact(ray_session):
    import ray.data as rd

    from joi_ray.pipelines.validate import uniqueness_pass

    ds = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"]).map_batches(
        interleave_batch, batch_format="pyarrow"
    )
    dups = uniqueness_pass(ds.select_columns(["doc_id"])).take_all()
    exp = expected_dirty_counts(SF)
    by_key = {d["doc_id"]: d["n"] for d in dups}
    from joi_ray.sources.interleaved import HOT_KEY

    assert by_key.get(HOT_KEY) == exp["hot_key_rows"]
    # each m==21 duplicate creates one extra key with count 2
    assert sum(1 for k, v in by_key.items() if v == 2) >= exp["duplicate_doc_id"]


def test_pipeline_warnings_channel(ray_session, shard_files, tmp_path):
    import joi_ray as jr
    from joi_ray.pipelines.validate import validate_dataset
    from joi_ray.sources.interleaved import interleave_batch

    schema = jr.object(
        {
            "doc_id": jr.string(),
            "spans": jr.array().min(3).warn(),  # warn-only rule
        }
    )
    rep = validate_dataset(
        [_mk(shard_files[0])],
        schema=schema,
        out_dir=str(tmp_path / "warnrun"),
        batch_size=512,
    )
    assert rep.warnings.get("array.min", 0) > 0
    assert "array.min" not in rep.codes  # warn-only never counts as failure
    assert rep.failed == 0


@pytest.mark.parametrize("refs, catalog", [
    # the strings json.dumps escapes (quote, backslash, non-ASCII, control
    # characters, DEL, a 4-byte emoji) beside ones it writes through
    (["ok", '"', "\\", "é", "\x01", "\x7f", "\U0001F600", "", "plain ~!#[]", 'a"b\\c'], ["ok"]),
    ([7, -3, 2**40, 0], [7]),
])
def test_referential_context_matches_json_dumps(refs, catalog):
    import pyarrow as pa
    import pyarrow.compute as pc

    import joi_ray as jr
    from joi_ray.pipelines.validate import ValidatorStage

    tbl = pa.table({
        "doc_id": [f"d{i}" for i in range(len(refs))],
        "spans": [[{"media_ref": r}] for r in refs],
    })
    schema = jr.object({"doc_id": jr.string(), "spans": jr.array()})
    stage = ValidatorStage(schema.to_json(), {"abort_early": False}, "doc_id",
                           ref_path="spans.media_ref")
    stage.catalog = pa.array(catalog)
    out = stage(tbl)
    got = out.filter(pc.equal(out["code"], "referential.missing"))
    misses = [r for r in refs if r not in catalog]
    assert got["context"].to_pylist() == [json.dumps({"value": r}) for r in misses]
    assert got["doc_id"].to_pylist() == [f"d{refs.index(r)}" for r in misses]
    assert set(got["severity"].to_pylist()) == {"error"}
    assert set(got["message"].to_pylist()) == {
        '"spans.media_ref" references an asset missing from the catalog'}


def test_shard_partials_merge_exactly(tmp_path):
    # a column split over two shards merges to what one shard gives: the
    # summaries carry the exact binary partials, not the mean/std view
    import numpy as np
    import pyarrow as pa

    import joi_ray as jr
    from joi_ray.pipelines.validate import (ValidationReport, ValidatorStage, _finalize_shard,
                                            _merge_summaries)

    rng = np.random.default_rng(4)
    schema = jr.object({"doc_id": jr.string(), "x": jr.number(), "spans": jr.array()})
    stage = ValidatorStage(schema.to_json(), {"abort_early": False}, "doc_id",
                           stats_numeric=["x", "spans.offset"], stats_id=["doc_id"])
    batches = []
    for b in range(4):
        # multiples of 1/16 under 2^14: every sum and sum of squares is exact
        x = rng.integers(-2**18, 2**18, 3000) / 16
        batches.append(pa.table({
            "doc_id": [f"d{b}-{i}" for i in range(3000)],
            "x": pa.array(x),
            "spans": [[{"offset": int(i % 7)}] * (i % 3) for i in range(3000)],
        }))

    def shard(name, part):
        stream = tmp_path / f"stream-{name}"
        stream.mkdir()
        for i, b in enumerate(part):
            pq.write_table(stage(b), stream / f"{i}.parquet")
        return _finalize_shard(str(stream), str(tmp_path / f"shard-{name}"))

    two, _ = _merge_summaries([shard("a", batches[:2]), shard("b", batches[2:])], ValidationReport(""))
    one, _ = _merge_summaries([shard("all", batches)], ValidationReport(""))
    assert set(two) == set(one) == {"x", "spans.offset", "doc_id"}
    for p in one:
        for f in ("count", "nulls", "sum", "sumsq", "min", "max"):
            assert np.float64(getattr(two[p], f)).tobytes() == np.float64(getattr(one[p], f)).tobytes(), (p, f)
        d2, d1 = two[p].to_dict(), one[p].to_dict()
        if d1["numeric"]:
            assert abs(d2["mean"] - d1["mean"]) <= 1e-12 * abs(d1["mean"])
            assert abs(d2["std"] - d1["std"]) <= 1e-12 * d1["std"]
    xs = np.concatenate([b["x"].to_numpy() for b in batches])
    assert one["x"].sum == xs.sum() and one["x"].count == len(xs)
