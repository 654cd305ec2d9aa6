"""Tiny-size tests of the benchmark's own code: the oracles, the tail rule,
the tracer and the timed loop.  Run with ``python3 -m pytest valbench -q``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _stage():
    from joi_ray.pipelines.docs import DEFAULT_STATS, document_schema
    from joi_ray.pipelines.validate import ValidatorStage
    from joi_ray.sources.interleaved import asset_catalog

    stage = ValidatorStage(document_schema().to_json(), {"abort_early": False}, "doc_id",
                           ref_path="spans.media_ref", stats_numeric=DEFAULT_STATS["numeric"])
    stage.catalog = asset_catalog()["media_ref"].combine_chunks()
    return stage


def test_flat_docs_is_seeded():
    a, b, c = inputs.flat_docs(3, 50), inputs.flat_docs(3, 50), inputs.flat_docs(4, 50)
    assert a.equals(b) and not a.equals(c)
    assert a["doc_id"][0].as_py() % 1000 == 0


def test_oracles_match_the_engine_on_a_small_batch():
    from joi_ray.sources.interleaved import interleave_batch

    flat = inputs.flat_docs(5, 2000)
    batch = interleave_batch(flat)
    ids = flat["doc_id"].to_numpy()
    stage = _stage()
    flagship = workloads.Flagship(dirty=False)
    for tbl, expect in ((batch, inputs.expected_clean), (inputs.corrupt(batch), inputs.expected_dirty)):
        codes, failed = expect(ids)
        assert flagship.check((tbl, codes, failed), stage(tbl)) is None
        # a wrong expectation is caught
        assert flagship.check((tbl, {**codes, "array.min": codes.get("array.min", 0) + 1}, failed),
                              stage(tbl)) is not None


def test_corrupt_breaks_every_span():
    from joi_ray.sources.interleaved import interleave_batch

    spans = inputs.corrupt(interleave_batch(inputs.flat_docs(2, 300)))["spans"].combine_chunks().values
    kind = spans.field("kind")
    text = spans.field("text").filter(pc.equal(kind, "text"))
    refs = spans.field("media_ref").filter(pc.is_in(kind, value_set=pa.array(["image", "audio", "video"])))
    assert pc.all(pc.equal(text, "")).as_py()
    assert pc.all(pc.starts_with(refs, "asset://z")).as_py()


def test_tail_needs_ten_samples_beyond():
    assert run.tail([0.01] * 19) is None
    assert run.tail(list(np.linspace(0, 1, 20)))[0] == 50
    p, value, beyond = run.tail(list(np.linspace(0, 1, 150)))
    assert p == 90 and beyond >= 10
    assert run.tail(list(np.linspace(0, 1, 1000)))[0] == 99


def test_tracer_self_time_absent_and_restore(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    monkeypatch.setattr(tracing, "TARGETS", [
        ("fake_layers", "outer", "o", "span", None),
        ("fake_layers", "inner", "i", "span", None),
        ("fake_layers", "gone", "g", "span", None),
        ("not_loaded_module", "f", "n", "span", None),
    ])
    t = tracing.Tracer()
    t.install()
    t.phase = "timed"
    assert mod.outer() == 2
    t.uninstall()
    assert mod.outer is outer and mod.inner is inner
    assert t.absent == ["fake_layers.gone"]
    names = [s[0] for s in t.spans]
    assert names == ["o", "i", "i"] and t.spans[1][3] == 0 and t.spans[2][3] == 0
    selfs = t.self_times()
    o_dur = t.spans[0][2] - t.spans[0][1]
    assert abs(sum(selfs) - o_dur) < 1e-9


def test_run_calls_counts_raises_and_bad_outputs():
    class Fake:
        items = [0, 1, 2]

        def call(self, item):
            if item == 1:
                raise RuntimeError("boom")
            return item

        def size(self, item):
            return 10

        def check(self, item, out):
            return "bad" if out == 2 else None

    calls = run.Calls()
    run.run_calls(Fake(), 0.05, 0, calls)
    n = len(calls.times)
    assert n >= 3 and calls.units == 10 * n
    assert len(calls.failures) == sum(1 for i in range(n) if i % 3 in (1, 2))


def test_peak_rss_reset_forgets_a_freed_buffer():
    buf = np.ones(8_000_000)  # 64 MB
    before = run.peak_rss_mb()
    del buf
    if not run.reset_peak_rss():
        return  # no /proc/self/clear_refs here: the whole-process peak is used
    assert run.peak_rss_mb() < before - 32


def test_one_short_run_prints_the_result_line():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "flagship_clean",
                           "--seed", "3", "--seconds", "2", "--trace", "0"],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {"docs_per_s", "call_p50_ms", "setup_s", "peak_rss_mb"} <= set(res["metrics"])


def test_benchmark_json_matches_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert bench["command"][1:] == ["valbench/run.py"]
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        m: unit for m, (_, _, unit) in tracing.LAYER_METRICS.items()}
    assert {m["name"] for m in bench["end_to_end"]} == {
        "docs_per_s", "call_p50_ms", "call_tail_ms", "setup_s", "peak_rss_mb"}
