"""Sketch accuracy, merge associativity, serialization, drift measures."""

import numpy as np

from joi_ray.sketches import HLL, ColumnStats, TDigest, categorical_psi, hash64, ks_statistic, psi


def test_hll_accuracy_and_merge():
    h = HLL()
    h.add_hashes(hash64([f"v{i}" for i in range(50_000)]))
    assert abs(h.estimate() - 50_000) / 50_000 < 0.05
    parts = [HLL() for _ in range(4)]
    for i, p in enumerate(parts):
        p.add_hashes(hash64([f"v{j}" for j in range(i * 10_000, (i + 1) * 10_000 + 5000)]))
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert abs(merged.estimate() - 45_000) / 45_000 < 0.05
    rt = HLL.from_bytes(merged.to_bytes())
    assert rt.estimate() == merged.estimate()


def test_tdigest_quantiles_and_merge_associativity():
    rng = np.random.default_rng(42)
    data = rng.normal(10, 2, 40_000)
    td_all = TDigest().add(data)
    chunks = np.array_split(data, 8)
    td_merged = TDigest()
    for c in chunks:
        td_merged.merge(TDigest().add(c))
    for q in (0.1, 0.5, 0.9):
        true_q = np.quantile(data, q)
        assert abs(td_all.quantile(q) - true_q) < 0.1
        assert abs(td_merged.quantile(q) - true_q) < 0.1
    rt = TDigest.from_bytes(td_merged.to_bytes())
    assert rt.quantile(0.5) == td_merged.quantile(0.5)


def test_drift_measures():
    rng = np.random.default_rng(1)
    a = TDigest().add(rng.normal(0, 1, 30_000))
    b = TDigest().add(rng.normal(0.5, 1, 30_000))
    c = TDigest().add(rng.normal(0, 1, 30_000))
    assert ks_statistic(a, b) > 0.15
    assert ks_statistic(a, c) < 0.03
    assert psi(a, b) > 0.2
    assert psi(a, c) < 0.02
    assert categorical_psi({"x": 90, "y": 10}, {"x": 50, "y": 50}) > 0.5
    assert categorical_psi({"x": 90, "y": 10}, {"x": 89, "y": 11}) < 0.01


def test_column_stats_roundtrip_and_merge():
    a = ColumnStats().update(["a", "b", None, "c"], numeric_values=np.array([1.0, 2.0, np.nan, 3.0]))
    b = ColumnStats().update(["c", "d"], numeric_values=np.array([4.0, 5.0]))
    merged = ColumnStats.from_bytes(a.to_bytes()).merge(ColumnStats.from_bytes(b.to_bytes()))
    d = merged.to_dict()
    assert d["count"] == 6 and d["nulls"] == 1
    assert d["min"] == 1.0 and d["max"] == 5.0
    assert abs(d["mean"] - 3.0) < 1e-9


# --------------------------------------------------------------------------
# hash64 from Arrow buffers, binary partials, unit-weight compression

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402

_M64 = (1 << 64) - 1


def _ref_splitmix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _ref_hash(v) -> int:
    """Value-at-a-time reference of hash64 in plain Python integers."""
    if isinstance(v, float):
        return _ref_splitmix(int(np.array([v + 0.0]).view(np.uint64)[0]))
    if isinstance(v, int):
        return _ref_splitmix(v & _M64)
    b = v.encode() if isinstance(v, str) else v
    s = sum(byte * (_ref_splitmix(p) | 1) for p, byte in enumerate(b)) & _M64
    return _ref_splitmix((s + len(b) * 0x9E3779B97F4A7C15) & _M64)


def test_hash64_matches_the_python_reference():
    rng = np.random.default_rng(5)
    words = ["", "a", "\x00", "a\x00", "héllo", "doc-0000abcd", "x" * 300] + [
        "".join(chr(c) for c in rng.integers(32, 0x3000, rng.integers(0, 40))) for _ in range(200)]
    assert [int(h) for h in hash64(words)] == [_ref_hash(w) for w in words]
    ints = [0, 1, -1, -7, 2**62, -(2**63), 2**63 - 1]
    assert [int(h) for h in hash64(pa.array(ints, pa.int64()))] == [_ref_hash(i) for i in ints]
    floats = [0.0, -0.0, 1.5, -2.25, float("inf"), 1e300]
    assert [int(h) for h in hash64(floats)] == [_ref_hash(f) for f in floats]
    raw = [b"\x00\xff", b"ab", b""]
    assert [int(h) for h in hash64(pa.array(raw, pa.binary()))] == [_ref_hash(b) for b in raw]


def test_hash64_pinned_values():
    # a numpy or pyarrow upgrade must not move these: merged sketches and
    # the uniqueness pass compare hashes made by different processes
    assert [int(h) for h in hash64(["doc-0000abcd", "", "héllo"])] == [
        15675190539642917502, 16294208416658607535, 15213425548012142586]
    assert [int(h) for h in hash64(pa.array([0, -7, 2**62], pa.int64()))] == [
        16294208416658607535, 7790691224305936752, 47939714376772075]
    assert [int(h) for h in hash64([1.5, -0.0, float("inf")])] == [
        15481881892811333770, 16294208416658607535, 2638638862653029785]
    assert [int(h) for h in hash64(pa.array([b"\x00\xff", b"ab"], pa.binary()))] == [
        13899623004619789060, 14973799527686606356]


def test_hash64_layout_invariance():
    vals = ["b", None, "", "héllo", "doc-0000abcd", None, "b", "zz" * 40]
    want = hash64(pa.array([v for v in vals if v is not None]))
    assert len(want) == 6
    layouts = {
        "plain": pa.array(vals),
        "chunked": pa.chunked_array([vals[:3], [], vals[3:]]),
        "sliced": pa.array(["pad", None, "x"] + vals).slice(3),
        "large_string": pa.array(vals, pa.large_string()),
        "dictionary": pa.array(vals).dictionary_encode(),
        "sliced dictionary": pa.array(["q"] + vals).dictionary_encode().slice(1),
    }
    for name, arr in layouts.items():
        assert np.array_equal(hash64(arr), want), name
    nums = [3, None, -5, 0, 2**31 - 1]
    want = hash64(pa.array([3, -5, 0, 2**31 - 1], pa.int64()))
    for t in (pa.int32(), pa.int64()):
        assert np.array_equal(hash64(pa.array(nums, t)), want), t
    assert np.array_equal(hash64(pa.chunked_array([pa.array(nums[:2], pa.int32()), pa.array(nums[2:], pa.int32())])),
                          want)
    assert len(hash64(pa.array([None, None], pa.string()))) == 0
    assert len(hash64(pa.array([], pa.int64()))) == 0


def _assert_same_stats(a: ColumnStats, b: ColumnStats):
    for f in ("count", "nulls", "numeric"):
        assert getattr(a, f) == getattr(b, f), f
    for f in ("sum", "sumsq", "min", "max"):
        assert np.float64(getattr(a, f)).tobytes() == np.float64(getattr(b, f)).tobytes(), f
    assert a.hll.reg.tobytes() == b.hll.reg.tobytes()
    assert a.tdigest.means.tobytes() == b.tdigest.means.tobytes()
    assert a.tdigest.weights.tobytes() == b.tdigest.weights.tobytes()


def test_column_stats_binary_round_trip_is_bit_exact():
    rng = np.random.default_rng(9)
    x = rng.normal(0.1, 3.7, 5000)
    x[::97] = np.nan
    cs = ColumnStats().update(pa.array(x), numeric_values=pa.array(x))
    cs.merge(ColumnStats().update(pa.array(x[:700] * 1.1), numeric_values=x[:700] * 1.1))
    b = cs.to_bytes()
    rt = ColumnStats.from_bytes(b)
    _assert_same_stats(cs, rt)
    assert rt.to_bytes() == b
    assert rt.to_dict() == cs.to_dict()
    assert cs.nulls == np.isnan(x).sum() + np.isnan(x[:700]).sum()  # a NaN counts as a null


def test_column_stats_empty_and_all_null():
    for arr in (pa.array([], pa.string()), pa.array([], pa.float64()),
                pa.array([None, None], pa.string()), pa.array([None, None, None], pa.float64()),
                pa.array([None, None], pa.null())):
        numeric = arr if pa.types.is_floating(arr.type) else None
        cs = ColumnStats().update(arr, numeric_values=numeric)
        assert (cs.count, cs.nulls, cs.numeric) == (len(arr), len(arr), False)
        d = ColumnStats.from_bytes(cs.to_bytes()).to_dict()
        assert d["count"] == len(arr) and d["nulls"] == len(arr)
        assert d["cardinality"] == 0.0
        assert d["mean"] is d["std"] is d["quantiles"] is d["min"] is None
        assert d["null_rate"] == (1.0 if len(arr) else 0.0)
        _assert_same_stats(cs, ColumnStats.from_bytes(cs.to_bytes()))


def _compress_stable(means: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The general (weighted) compression path, as TDigest ran it for every
    digest before the unit-weight sort."""
    order = np.argsort(means, kind="stable")
    m, w = means[order], weights[order]
    cum = np.cumsum(w)
    q_mid = (cum - w / 2) / w.sum()
    k = TDigest.DELTA / (2 * np.pi) * np.arcsin(np.clip(2 * q_mid - 1, -1, 1))
    cid = np.floor(k).astype(np.int64)
    starts = np.r_[0, np.nonzero(np.diff(cid))[0] + 1]
    new_w = np.add.reduceat(w, starts)
    return np.add.reduceat(m * w, starts) / new_w, new_w


def test_tdigest_unit_weight_sort_matches_stable_argsort():
    rng = np.random.default_rng(11)
    for data in (rng.integers(0, 92, 32_711).astype(np.float64),  # heavy ties, like spans.offset
                 np.round(rng.normal(5, 2, 20_000), 1),
                 rng.normal(0, 1, 3_000)):
        td = TDigest().add(data)
        m, w = _compress_stable(td.means.copy(), td.weights.copy())
        td._compress()
        assert td.means.tobytes() == m.tobytes() and td.weights.tobytes() == w.tobytes()


def test_hll_on_flagship_doc_ids_within_two_percent():
    from valbench import inputs

    batches, _ = inputs.flagship_batches(1)
    assert len(batches) == 4
    for b in batches:
        ids = b["doc_id"]
        exact = len(pc.unique(ids.drop_null()))
        est = ColumnStats().update(ids).to_dict()["cardinality"]
        assert abs(est - exact) / exact < 0.02, (est, exact)


def test_hll_registers_match_the_bit_length_reference():
    rng = np.random.default_rng(13)
    low_bits = (1 << (64 - HLL.P)) - 1
    h = np.concatenate([
        rng.integers(0, 2**63, 5000, dtype=np.uint64) * np.uint64(2) + rng.integers(0, 2, 5000, dtype=np.uint64),
        np.array([0, 1, low_bits, low_bits + 1, 2**63, 2**64 - 1, 2**52 - 2**40, 3 << 60], dtype=np.uint64)])
    want = np.zeros(HLL.M, np.uint8)
    for x in (int(v) for v in h):
        idx, rank = x >> (64 - HLL.P), 64 - HLL.P + 1 - (x & low_bits).bit_length()
        want[idx] = max(want[idx], rank)
    assert np.array_equal(HLL().add_hashes(h).reg, want)
