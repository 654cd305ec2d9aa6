"""Mergeable column-stat sketches: HyperLogLog, t-digest, moments.

These power the north rule's column stats (count, null-rate, cardinality,
quantiles) and distribution-drift tests (KS from t-digest CDFs, PSI over
baseline-decile bins).  The reference has no analog (SURVEY.md §2.6) — the
design requirement is Ray-Data-shaped: one partial sketch per batch emitted
from ``map_batches``, merged associatively (driver or a tiny second stage),
never shipping raw values.  All sketches serialize to bytes and are
deterministic (no RNG, no wall clock).

A batch's partial is cheap by construction.  ``hash64`` hashes an Arrow
array from its buffers with numpy, and ``ColumnStats.update`` hashes each
distinct value once.  ``ColumnStats.to_bytes`` writes the exact state as a
versioned binary partial: count, nulls, sum, sum of squares, min, max, the
raw HLL registers and the compressed t-digest centroids.  Nothing is
estimated per batch: ``ColumnStats.to_dict`` (cardinality, quantiles, mean
and std) runs once, on the merged partial.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# --------------------------------------------------------------------------
# hashing from Arrow buffers: deterministic, unsalted, layout-independent

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function over a uint64 array (a new array)."""
    x = x + _GOLDEN
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _hash_bytes(arr: pa.Array) -> np.ndarray:
    """Hash each value of a string or binary array from its offsets and data
    buffers.  Byte b at position p of a value adds b * key(p), where key(p)
    is an odd splitmix64 constant; ``np.add.reduceat`` over the offsets sums
    each value's bytes, and the sum is finalized together with the length."""
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    width = 8 if large else 4
    _, obuf, dbuf = arr.buffers()
    offs = np.frombuffer(obuf, np.int64 if large else np.int32, len(arr) + 1, arr.offset * width)
    base = int(offs[0])
    offs = offs.astype(np.int64) - base
    lens = np.diff(offs)
    nbytes = int(offs[-1])
    sums = np.zeros(len(arr), np.uint64)
    if nbytes:
        terms = np.frombuffer(dbuf, np.uint8, nbytes, base).astype(np.uint64)
        keys = _splitmix64(np.arange(int(lens.max()), dtype=np.uint64)) | np.uint64(1)
        terms *= keys[np.arange(nbytes, dtype=np.int64) - np.repeat(offs[:-1], lens)]
        full = lens > 0  # an empty value has no bytes, so no segment
        sums[full] = np.add.reduceat(terms, offs[:-1][full])
    return _splitmix64(sums + lens.astype(np.uint64) * _GOLDEN)


def _hash_plain(arr: pa.Array) -> np.ndarray:
    """One hash per slot of a non-dictionary array, null slots included."""
    t = arr.type
    if pa.types.is_floating(t):
        # + 0.0 folds -0.0 into 0.0, so equal values hash equally
        v = pc.fill_null(arr, 0).to_numpy(zero_copy_only=False).astype(np.float64) + 0.0
        return _splitmix64(v.view(np.uint64))
    if pa.types.is_integer(t):
        v = pc.fill_null(arr, 0).to_numpy(zero_copy_only=False).astype(np.int64)
        return _splitmix64(v.view(np.uint64))
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        arr = pc.cast(arr, pa.large_string())  # dates, booleans, decimals: their text
    return _hash_bytes(arr)


def hash64(values) -> np.ndarray:
    """Deterministic 64-bit hashes of the non-null values of an array-like,
    in order (nulls are left out).

    Numerics hash their int64 or float64 bits through splitmix64, strings
    and binaries their bytes (``_hash_bytes``), other types the bytes of
    their text.  The result does not
    depend on layout: chunked, sliced, ``large_string``, dictionary-encoded,
    int32 and int64 inputs of the same values hash the same."""
    arr = values if isinstance(values, (pa.Array, pa.ChunkedArray)) else pa.array(values)
    if isinstance(arr, pa.ChunkedArray):
        parts = [hash64(c) for c in arr.chunks]
        return np.concatenate(parts) if parts else np.empty(0, np.uint64)
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    if len(arr) == arr.null_count:
        return np.empty(0, np.uint64)
    h = _hash_plain(arr)
    if arr.null_count:
        h = h[pc.is_valid(arr).to_numpy(zero_copy_only=False)]
    return h


# --------------------------------------------------------------------------
# HyperLogLog (dense, p=12 -> 4096 registers, ~0.8% relative error)


class HLL:
    P = 12
    M = 1 << P

    def __init__(self, registers: np.ndarray | None = None):
        self.reg = registers if registers is not None else np.zeros(self.M, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> "HLL":
        if len(h) == 0:
            return self
        idx = (h >> np.uint64(64 - self.P)).astype(np.int64)
        # rank = 1 + leading zeros of the low 64-P bits (64-P+1 when all
        # are zero).  They fit a float64 mantissa, so frexp's exponent is
        # their exact bit length.
        low = (h & np.uint64((1 << (64 - self.P)) - 1)).astype(np.float64)
        rank = (64 - self.P + 1 - np.frexp(low)[1]).astype(np.uint8)
        np.maximum.at(self.reg, idx, rank)
        return self

    def merge(self, other: "HLL") -> "HLL":
        np.maximum(self.reg, other.reg, out=self.reg)
        return self

    def estimate(self) -> float:
        m = float(self.M)
        alpha = 0.7213 / (1 + 1.079 / m)
        est = alpha * m * m / np.sum(np.exp2(-self.reg.astype(np.float64)))
        zeros = int((self.reg == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # small-range correction
        return float(est)

    def to_bytes(self) -> bytes:
        return self.reg.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HLL":
        return cls(np.frombuffer(b, dtype=np.uint8).copy())


# --------------------------------------------------------------------------
# t-digest (merging variant, scale function k1; delta=100)


class TDigest:
    DELTA = 100
    BUFFER = 65536

    def __init__(self, means: np.ndarray | None = None, weights: np.ndarray | None = None):
        self.means = means if means is not None else np.empty(0, dtype=np.float64)
        self.weights = weights if weights is not None else np.empty(0, dtype=np.float64)

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def add(self, values: np.ndarray) -> "TDigest":
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return self
        self.means = np.concatenate([self.means, v])
        self.weights = np.concatenate([self.weights, np.ones(len(v))])
        if len(self.means) > self.BUFFER:
            self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        self.means = np.concatenate([self.means, other.means])
        self.weights = np.concatenate([self.weights, other.weights])
        self._compress()
        return self

    def _compress(self):
        """Vectorized k1-scale compression: sort, map each point's quantile
        through k(q) = δ/(2π)·asin(2q−1), bucket by floor(k), and reduce each
        bucket to one centroid with reduceat — no Python loop."""
        if len(self.means) <= 1:
            return
        if (self.weights == 1).all():
            # unit points (a fresh per-batch digest): tied means are
            # interchangeable, so a plain sort gives the stable order's
            # centroids, and the cumulative weights are 1..n
            m, w = np.sort(self.means), self.weights
            q_mid = (np.arange(1, len(m) + 1, dtype=np.float64) - 0.5) / len(m)
        else:
            order = np.argsort(self.means, kind="stable")
            m, w = self.means[order], self.weights[order]
            cum = np.cumsum(w)
            q_mid = (cum - w / 2) / w.sum()
        k = self.DELTA / (2 * np.pi) * np.arcsin(np.clip(2 * q_mid - 1, -1, 1))
        cid = np.floor(k).astype(np.int64)
        starts = np.r_[0, np.nonzero(np.diff(cid))[0] + 1]
        new_w = np.add.reduceat(w, starts)
        new_m = np.add.reduceat(m * w, starts) / new_w
        self.means = new_m
        self.weights = new_w

    def cdf(self, x: float) -> float:
        self._compress()
        if len(self.means) == 0:
            return float("nan")
        total = self.total
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        mids = cum[:-1] + self.weights / 2
        return float(np.interp(x, self.means, mids / total, left=0.0, right=1.0))

    def quantile(self, q: float) -> float:
        self._compress()
        if len(self.means) == 0:
            return float("nan")
        total = self.total
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        mids = (cum[:-1] + self.weights / 2) / total
        return float(np.interp(q, mids, self.means))

    def to_bytes(self) -> bytes:
        self._compress()
        n = len(self.means)
        return struct.pack("<I", n) + self.means.tobytes() + self.weights.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        (n,) = struct.unpack_from("<I", b, 0)
        means = np.frombuffer(b, dtype=np.float64, count=n, offset=4).copy()
        weights = np.frombuffer(b, dtype=np.float64, count=n, offset=4 + 8 * n).copy()
        return cls(means, weights)


# --------------------------------------------------------------------------
# per-column stats partial (count / nulls / moments / min / max / HLL / tdigest)

# binary partial: magic, version, numeric flag, count, nulls, sum, sumsq,
# min, max; then the HLL registers and the t-digest's own bytes
_PARTIAL = struct.Struct("<4sBB2xqqdddd")
_MAGIC, _VERSION = b"JRCS", 1


@dataclass
class ColumnStats:
    count: int = 0
    nulls: int = 0
    sum: float = 0.0
    sumsq: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    hll: HLL = field(default_factory=HLL)
    tdigest: TDigest = field(default_factory=TDigest)
    numeric: bool = False

    def update(self, values, numeric_values=None) -> "ColumnStats":
        """Add one batch: ``values`` (an Arrow array or anything
        ``pa.array`` takes) feed the counts and the HLL, ``numeric_values``
        (Arrow or numpy) the moments and the t-digest.  A null, or a NaN in
        a floating column, counts as a null.  The HLL takes a max per
        register, so only the distinct values are hashed."""
        arr = values if isinstance(values, (pa.Array, pa.ChunkedArray)) else pa.array(values)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        valid = arr.drop_null()
        if pa.types.is_floating(valid.type):
            valid = valid.filter(pc.invert(pc.is_nan(valid)))
        self.count += len(arr)
        self.nulls += len(arr) - len(valid)
        self.hll.add_hashes(hash64(pc.unique(valid)))
        if numeric_values is not None:
            if isinstance(numeric_values, (pa.Array, pa.ChunkedArray)):
                numeric_values = pc.drop_null(numeric_values).to_numpy(zero_copy_only=False)
            v = np.asarray(numeric_values, dtype=np.float64)
            v = v[~np.isnan(v)]
            if len(v):
                self.numeric = True
                self.sum += float(v.sum())
                self.sumsq += float((v * v).sum())
                self.min = min(self.min, float(v.min()))
                self.max = max(self.max, float(v.max()))
                self.tdigest.add(v)
        return self

    def merge(self, other: "ColumnStats") -> "ColumnStats":
        self.count += other.count
        self.nulls += other.nulls
        self.sum += other.sum
        self.sumsq += other.sumsq
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.hll.merge(other.hll)
        self.tdigest.merge(other.tdigest)
        self.numeric = self.numeric or other.numeric
        return self

    def to_dict(self) -> dict:
        """The estimates: run on a merged partial, not per batch."""
        import base64

        nonnull = self.count - self.nulls
        mean = self.sum / nonnull if nonnull else None
        var = self.sumsq / nonnull - mean * mean if nonnull and self.numeric else None
        return {
            "count": self.count,
            "nulls": self.nulls,
            "null_rate": self.nulls / self.count if self.count else 0.0,
            "cardinality": round(self.hll.estimate(), 1),
            "numeric": self.numeric,
            "min": self.min if self.numeric else None,
            "max": self.max if self.numeric else None,
            "mean": mean if self.numeric else None,
            "std": (max(var, 0.0) ** 0.5) if var is not None else None,
            "quantiles": {str(q): self.tdigest.quantile(q) for q in (0.01, 0.25, 0.5, 0.75, 0.99)}
            if self.numeric and self.tdigest.total
            else None,
            "hll_b64": base64.b64encode(self.hll.to_bytes()).decode(),
            "tdigest_b64": base64.b64encode(self.tdigest.to_bytes()).decode(),
        }

    def to_bytes(self) -> bytes:
        """The exact binary partial; ``from_bytes`` is its inverse."""
        head = _PARTIAL.pack(_MAGIC, _VERSION, self.numeric, self.count, self.nulls,
                             self.sum, self.sumsq, self.min, self.max)
        return head + self.hll.to_bytes() + self.tdigest.to_bytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "ColumnStats":
        magic, version, numeric, count, nulls, s, sq, lo, hi = _PARTIAL.unpack_from(b, 0)
        if magic != _MAGIC or version != _VERSION:
            raise ValueError(f"not a version-{_VERSION} ColumnStats partial: {magic!r} v{version}")
        end = _PARTIAL.size + HLL.M
        return cls(count=count, nulls=nulls, sum=s, sumsq=sq, min=lo, max=hi, numeric=bool(numeric),
                   hll=HLL.from_bytes(b[_PARTIAL.size:end]), tdigest=TDigest.from_bytes(b[end:]))


# --------------------------------------------------------------------------
# drift measures


def ks_statistic(a: TDigest, b: TDigest, grid_points: int = 101) -> float:
    """Two-sample KS statistic approximated on a merged quantile grid."""
    if not a.total or not b.total:
        return float("nan")
    qs = np.linspace(0.005, 0.995, grid_points)
    xs = np.unique(np.concatenate([[a.quantile(q) for q in qs], [b.quantile(q) for q in qs]]))
    d = max(abs(a.cdf(float(x)) - b.cdf(float(x))) for x in xs)
    return float(d)


def psi(baseline: TDigest, current: TDigest, bins: int = 10, eps: float = 1e-4) -> float:
    """Population Stability Index over baseline-decile bins."""
    if not baseline.total or not current.total:
        return float("nan")
    edges = [baseline.quantile(i / bins) for i in range(bins + 1)]
    edges[0], edges[-1] = -np.inf, np.inf
    out = 0.0
    for i in range(bins):
        lo, hi = edges[i], edges[i + 1]
        pb = max((baseline.cdf(hi) if np.isfinite(hi) else 1.0) - (baseline.cdf(lo) if np.isfinite(lo) else 0.0), eps)
        pcur = max((current.cdf(hi) if np.isfinite(hi) else 1.0) - (current.cdf(lo) if np.isfinite(lo) else 0.0), eps)
        out += (pcur - pb) * np.log(pcur / pb)
    return float(out)


def categorical_psi(base_counts: dict, cur_counts: dict, eps: float = 1e-4) -> float:
    cats = set(base_counts) | set(cur_counts)
    tb = sum(base_counts.values()) or 1
    tc = sum(cur_counts.values()) or 1
    out = 0.0
    for c in cats:
        pb = max(base_counts.get(c, 0) / tb, eps)
        pc_ = max(cur_counts.get(c, 0) / tc, eps)
        out += (pc_ - pb) * np.log(pc_ / pb)
    return float(out)
