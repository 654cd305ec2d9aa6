"""Full validation pipeline over a Ray Dataset of documents.

Design (SURVEY.md §3.4, §7) — Ray-Data-first, one expensive pass:

    read (column-pruned) ──► ValidatorStage actor pool (map_batches, Arrow)
        │   each batch -> violation rows
        │              + one __stats__ row   (rows/failed counts)
        │              + __sketch__ rows     (ColumnStats binary partials,
        │                                     base64 text in ``context``)
        │              + __catcounts__ rows  (categorical value counts)
        ▼
    write shard parquet (streaming) ──► driver finalize: split violations /
    merge sketches, write summary.json, atomic rename, manifest mark

    separate cheap passes:
      uniqueness: id-column-only read -> per-batch partial counts
                  -> groupby(key).sum -> filter >1        [the only shuffle]
      referential: broadcast asset catalog (ray.put once, read per actor)
                  checked inside the SAME main pass — no shuffle join

A ``__sketch__`` partial is exact and holds no estimate: counts, moments,
min/max, the raw HLL registers and the t-digest centroids
(``ColumnStats.to_bytes``).  Each shard's summary.json keeps its merged
partial under ``partials`` beside the readable ``sketches`` view
(``ColumnStats.to_dict``); the run merges shards from the partials, so a
split over shards loses no precision, and estimates only the merged result.

Everything streams with backpressure; nothing materializes the input.  The
per-batch partial count before the uniqueness groupby is the salting
equivalent for hot keys: each batch contributes at most one row per key, so
group sizes are bounded by the number of batches, not row counts.
"""

from __future__ import annotations

import base64
import glob
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .._env import REMOTE_KWARGS
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..engine import VIOLATION_SCHEMA, CompiledSchema
from ..kernels.lists import field_values, flatten_with_parents, list_positions
from ..kernels.util import as_bool_np
from ..sketches import ColumnStats, TDigest, categorical_psi, hash64, ks_statistic, psi
from ..spec import Schema, build
from ..state.checkpoint import RunManifest

META_SCHEMA = VIOLATION_SCHEMA  # meta rows reuse the violation layout


def _column(tbl: pa.Table, name: str) -> pa.Array:
    """A column as one Array: ``combine_chunks`` copies even a single chunk
    of a nested column, so that chunk is taken as it is."""
    col = tbl[name]
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _extract_stat_values(tbl: pa.Table, path: str, flat: dict) -> pa.Array:
    """Resolve a stats path: 'col', 'col.len' (list length), or
    'listcol.field' (flattened struct field).  ``flat`` holds each list
    column flattened once, shared by every path of the batch."""
    if path.endswith(".len"):
        return pc.list_value_length(_column(tbl, path[:-4]))
    if "." not in path:
        return _column(tbl, path)
    col_name, fld = path.split(".", 1)
    out = flat.get(col_name)
    if out is None:
        out = _column(tbl, col_name)
        if pa.types.is_list(out.type) or pa.types.is_large_list(out.type):
            out = pc.list_flatten(out)
        flat[col_name] = out
    for part in fld.split("."):
        out = pc.struct_field(out, part)
    return out


def _b64(b: bytes) -> str:
    return base64.b64encode(b).decode("ascii")


def _merge_partial(acc: dict, path: str, b64: str):
    """Merge one base64 ``ColumnStats`` binary partial into ``acc[path]``."""
    cs = ColumnStats.from_bytes(base64.b64decode(b64))
    acc[path] = acc[path].merge(cs) if path in acc else cs


def _meta_row(path: str, code: str, context: str) -> dict:
    return {
        "doc_id": None,
        "row": -1,
        "path": path,
        "item_index": -1,
        "code": code,
        "message": "",
        "context": context,
        "severity": "meta",
    }


# the strings json.dumps writes through unchanged: printable ASCII without
# a quote or a backslash (its ESCAPE_ASCII pattern is [\\"]|[^\ -~])
_JSON_PLAIN = r"^[ !#-\[\]-~]*$"


def _value_contexts(vals: pa.Array) -> pa.Array:
    """``json.dumps({"value": v})`` of every non-null value: one string
    kernel over the values json.dumps leaves as they are, json.dumps for
    the rest and for a non-string column."""
    if not pa.types.is_string(vals.type):
        return pa.array([json.dumps({"value": v}) for v in vals.to_pylist()], pa.string())
    ctx = pc.binary_join_element_wise('{"value": "', vals, '"}', "")
    odd = pc.invert(pc.match_substring_regex(vals, _JSON_PLAIN))
    if not pc.any(odd).as_py():
        return ctx
    slow = [json.dumps({"value": v}) for v in vals.filter(odd).to_pylist()]
    return pc.replace_with_mask(ctx, odd, pa.array(slow, pa.string()))


class ValidatorStage:
    """Actor-pool stage: compiled schema + broadcast catalog held per actor
    (setup once in ``__init__`` — the analog of joi precompiling regexes at
    schema build, ``/root/reference/lib/types/string/index.js:298-300``).

    Output per batch: violation rows + meta rows (stats / sketches)."""

    def __init__(
        self,
        spec_json: str,
        prefs: dict,
        id_column: str,
        catalog_ref=None,
        ref_path: str | None = None,
        stats_numeric: list[str] | None = None,
        stats_categorical: list[str] | None = None,
        stats_id: list[str] | None = None,
    ):
        import ray

        # one Arrow thread per worker: each Ray worker is already one core of
        # the pool; Arrow's own cpu_count-sized pool in every worker thrashes
        # at high parallelism (32 workers x 32 threads)
        try:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)
        except Exception:
            pass

        self.compiled = CompiledSchema(json.loads(spec_json), prefs, id_column)
        self.id_column = id_column
        self.ref_path = ref_path
        self.catalog = None
        if catalog_ref is not None:
            cat = ray.get(catalog_ref)
            self.catalog = cat.combine_chunks() if isinstance(cat, pa.ChunkedArray) else cat
        self.stats_numeric = stats_numeric or []
        self.stats_categorical = stats_categorical or []
        self.stats_id = stats_id or []

    def _referential(self, tbl: pa.Table, failed: np.ndarray) -> pa.Table | None:
        """Broadcast semi-anti-join: flatten the ref path, ``pc.is_in``
        against the catalog array — no shuffle."""
        if self.catalog is None or self.ref_path is None:
            return None
        col_name, fld = self.ref_path.split(".", 1)
        items, parents = flatten_with_parents(_column(tbl, col_name))
        flat = field_values(items, fld)
        present = pc.is_valid(flat)
        known = pc.is_in(flat, value_set=self.catalog)
        missing = as_bool_np(pc.and_(present, pc.invert(known)), len(flat))
        if not missing.any():
            return None
        rows = parents[missing]
        failed[rows] = True
        if self.id_column is None:
            return None  # caller only needs the failed mask (filter_valid)
        positions = list_positions(parents)
        ids = _column(tbl, self.id_column)
        if not pa.types.is_string(ids.type):
            ids = pc.cast(ids, pa.string())
        k = int(missing.sum())

        def const(s: str) -> pa.Array:
            return pa.repeat(pa.scalar(s, pa.string()), k)

        return pa.table(
            {
                "doc_id": ids.take(pa.array(rows)),
                "row": pa.array(rows.astype(np.int64)),
                "path": const(self.ref_path),
                "item_index": pa.array(positions[missing].astype(np.int32)),
                "code": const("referential.missing"),
                "message": const(f'"{self.ref_path}" references an asset missing from the catalog'),
                "context": _value_contexts(flat.filter(pa.array(missing))),
                "severity": const("error"),
            },
            schema=VIOLATION_SCHEMA,
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        res = self.compiled.validate_table(batch)
        failed = ~res.ok
        parts = [res.violations] if res.violations.num_rows else []
        ref_viol = self._referential(batch, failed)
        if ref_viol is not None:
            parts.append(ref_viol)

        meta: list[dict] = []
        meta.append(
            _meta_row(
                "__stats__",
                "__stats__",
                json.dumps({"rows": batch.num_rows, "failed": int(failed.sum())}),
            )
        )
        flat: dict = {}
        for path in self.stats_numeric:
            vals = _extract_stat_values(batch, path, flat)
            cs = ColumnStats().update(vals, numeric_values=vals)
            meta.append(_meta_row(path, "__sketch__", _b64(cs.to_bytes())))
        for path in self.stats_id:
            cs = ColumnStats().update(_extract_stat_values(batch, path, flat))
            meta.append(_meta_row(path, "__sketch__", _b64(cs.to_bytes())))
        for path in self.stats_categorical:
            counts = pc.value_counts(_extract_stat_values(batch, path, flat))
            d = {
                str(v): int(c)
                for v, c in zip(counts.field("values").to_pylist(), counts.field("counts").to_pylist())
            }
            meta.append(_meta_row(path, "__catcounts__", json.dumps(d, sort_keys=True)))
        parts.append(pa.Table.from_pylist(meta, schema=META_SCHEMA))
        return pa.concat_tables(parts)


# Stateless-task variant: same per-batch work, but compiled state lives in a
# per-worker-process cache instead of an actor, so Ray can schedule batches
# on any idle worker (no fixed pool to size, no actor-startup serialization).
# The cache is warmed once per worker process — equivalent amortization to an
# actor __init__ at steady state.
_STAGE_CACHE: dict = {}


def _stage_key(kwargs: dict, tag: str = "") -> tuple:
    """Full configuration key: long-lived worker processes serve many runs,
    so every ValidatorStage parameter must participate or a later run that
    shares schema/prefs but differs in stats columns / id column / catalog
    would silently reuse a stale stage."""
    cat = kwargs.get("catalog_ref")
    return (
        kwargs["spec_json"],
        json.dumps(kwargs["prefs"], sort_keys=True),
        kwargs.get("id_column"),
        kwargs.get("ref_path"),
        cat.hex() if cat is not None else None,
        json.dumps(
            {
                k: kwargs.get(k)
                for k in ("stats_numeric", "stats_categorical", "stats_id")
            },
            sort_keys=True,
        ),
        tag,
    )


def validator_fn(batch: pa.Table, **kwargs) -> pa.Table:
    from .._env import quiet_ray_data_logs

    quiet_ray_data_logs()
    key = _stage_key(kwargs)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = ValidatorStage(**kwargs)
        _STAGE_CACHE[key] = stage
    return stage(batch)


def filter_valid(ds, schema, *, prefs: dict | None = None, catalog=None, ref_path: str | None = None,
                 normalize: bool = True, batch_size: int | None = 8192):
    """Data-cleaning mode: keep only rows that pass the schema (and the
    referential check when a catalog is given); optionally emit the
    normalized values (coercions/defaults applied) instead of the originals.
    Streaming map_batches — no shuffle, no materialization."""
    import ray

    spec_json = schema.to_json() if isinstance(schema, Schema) else json.dumps(schema)
    catalog_ref = None
    if catalog is not None:
        col = catalog if isinstance(catalog, (pa.Array, pa.ChunkedArray)) else catalog["media_ref"].combine_chunks()
        catalog_ref = ray.put(col)
    eff_prefs = {"abort_early": True, **(prefs or {})}  # first failure is enough to drop a row

    def keep_valid(batch: pa.Table, **kwargs) -> pa.Table:
        key = _stage_key(kwargs, tag="fv")
        stage = _STAGE_CACHE.get(key)
        if stage is None:
            stage = ValidatorStage(
                spec_json=kwargs["spec_json"], prefs=kwargs["prefs"], id_column=kwargs["id_column"],
                catalog_ref=kwargs.get("catalog_ref"), ref_path=kwargs.get("ref_path"),
            )
            _STAGE_CACHE[key] = stage
        res = stage.compiled.validate_table(batch)
        failed = ~res.ok
        if stage.catalog is not None and stage.ref_path:
            stage._referential(batch, failed)
        keep = pa.array(~failed)
        src = res.value if normalize else batch
        return src.filter(keep)

    return ds.map_batches(
        keep_valid,
        fn_kwargs=dict(spec_json=spec_json, prefs=eff_prefs, id_column=None,
                       catalog_ref=catalog_ref, ref_path=ref_path),
        batch_format="pyarrow",
        batch_size=batch_size,
        **REMOTE_KWARGS)


# ==========================================================================
# uniqueness: the one legitimate shuffle


def uniqueness_pass(ds, key: str = "doc_id"):
    """Dataset-level duplicate detection: per-batch partial counts (the
    hot-key salting equivalent — each batch emits ≤1 row per key) followed by
    a small groupby-sum shuffle; returns a Dataset of (key, n) with n>1.

    SURVEY.md §7.3: shuffle key = hash(doc_id); two-phase aggregation."""
    from ray.data.aggregate import Sum

    def partial_counts(batch: pa.Table) -> pa.Table:
        col = batch[key].combine_chunks()
        col = col.filter(pc.is_valid(col))  # null ids are presence errors, not duplicates
        vc = pc.value_counts(col)
        return pa.table(
            {
                key: vc.field("values"),
                "partial_n": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    partials = ds.map_batches(partial_counts, batch_format="pyarrow", **REMOTE_KWARGS)
    totals = partials.groupby(key).aggregate(Sum("partial_n", alias_name="n"))
    dups = totals.map_batches(
        lambda t: t.filter(pc.greater(t["n"], 1)), batch_format="pyarrow", **REMOTE_KWARGS)
    return dups


def uniqueness_pass_hashed(ds_factory, key: str = "doc_id", *, broadcast_max: int | None = None):
    """Scale-path duplicate detection: shuffle 64-bit key hashes instead of
    strings (phase 1), then verify only candidate hashes exactly (phase 2 —
    a second column-pruned scan filtered to the tiny candidate set).  The
    candidate set is proportional to the duplicate rate, not the corpus.

    Phase 2 has two shapes, picked by candidate count vs ``broadcast_max``
    (default env ``JOI_RAY_UNIQ_BCAST_MAX``, 8M hashes = 64 MB):

    - broadcast (small candidate sets): ``ray.put`` the sorted hash array
      once, each batch filters via ``np.isin`` before the tiny groupby —
      zero extra shuffle.
    - semi-join (large candidate sets — e.g. a 1% dup rate at 10^12 docs is
      an ~80 GB hash array that must NOT be broadcast): the candidate
      hashes stay a Dataset end-to-end; the per-batch ``(h, key,
      partial_n)`` partials relation inner-hash-joins against it, then the
      surviving candidate keys groupby-sum exactly.  Driver state is
      bounded by 2 block-edge rows per phase-1 block, never the candidate
      set.

    ``ds_factory`` is called twice (lazy datasets re-execute per
    consumption); at scale both passes are column-pruned reads."""
    import ray
    from ray.data.aggregate import Sum

    def hash_partials(batch: pa.Table) -> pa.Table:
        col = batch[key].combine_chunks()
        col = col.filter(pc.is_valid(col))
        hv, counts = np.unique(hash64(col), return_counts=True)
        return pa.table(
            {"h": pa.array(hv.astype(np.int64)), "partial_n": pa.array(counts.astype(np.int64))}
        )

    # phase-1 candidate discovery is SORT-based, not a groupby: the hash
    # key space is corpus-sized (~all distinct), and Ray's sort-aggregate
    # pays ~30us per group — a global sort of the skinny (h, partial_n)
    # relation plus vectorized adjacent-equality per block is 2.5x faster
    # at 600k keys (measured).  Block-boundary duplicates are recovered
    # driver-side from two edge values per block; the recovery may
    # over-approximate (a single-row block flags its hash), which is
    # harmless — phase 2 exactly verifies every candidate anyway.
    phase1 = ds_factory().map_batches(hash_partials, batch_format="pyarrow", **REMOTE_KWARGS)
    s = phase1.sort("h").materialize()

    def cand_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"h": pa.array([], pa.int64()), "kind": pa.array([], pa.int8())})
        h = t["h"].combine_chunks().to_numpy(zero_copy_only=False)
        pn = t["partial_n"].combine_chunks().to_numpy(zero_copy_only=False)
        dup = pn > 1
        adj = h[1:] == h[:-1]
        dup[:-1] |= adj
        dup[1:] |= adj
        cands = np.unique(h[dup])
        out = pa.table({"h": pa.array(cands),
                        "kind": pa.array(np.zeros(len(cands), np.int8))})
        edge = pa.table({"h": pa.array([int(h[0]), int(h[-1])]),
                        "kind": pa.array(np.array([1, 2], np.int8))})
        return pa.concat_tables([out, edge])

    cands_ds = s.map_batches(
        cand_block, batch_format="pyarrow", batch_size=None, **REMOTE_KWARGS
    ).materialize()

    # driver pulls ONLY the block-edge rows (exactly 2 per non-empty phase-1
    # block — state proportional to block count, not candidates) to recover
    # hashes that straddle block boundaries
    from collections import Counter

    from .._env import collect_tables, join_num_partitions

    edge_tbl = collect_tables(
        cands_ds.map_batches(
            lambda t: t.filter(pc.not_equal(t["kind"], 0)),
            batch_format="pyarrow", **REMOTE_KWARGS),
        schema=pa.schema([("h", pa.int64()), ("kind", pa.int8())]))
    firsts = edge_tbl.filter(pc.equal(edge_tbl["kind"], 1))["h"].to_pylist()
    lasts = edge_tbl.filter(pc.equal(edge_tbl["kind"], 2))["h"].to_pylist()
    cf, cl = Counter(firsts), Counter(lasts)
    edge_cands: set = set(firsts) & set(lasts)
    edge_cands |= {k for k, v in cf.items() if v > 1}
    edge_cands |= {k for k, v in cl.items() if v > 1}

    n_interior = cands_ds.count() - edge_tbl.num_rows
    if broadcast_max is None:
        broadcast_max = int(os.environ.get("JOI_RAY_UNIQ_BCAST_MAX", str(8_000_000)))

    if n_interior == 0 and not edge_cands:
        return pa.table({key: pa.array([], pa.string()), "n": pa.array([], pa.int64())})

    if n_interior + len(edge_cands) <= broadcast_max:
        # broadcast path: collect the (threshold-bounded) interior hashes
        interior = collect_tables(
            cands_ds.map_batches(
                lambda t: t.filter(pc.equal(t["kind"], 0)).select(["h"]),
                batch_format="pyarrow", **REMOTE_KWARGS),
            schema=pa.schema([("h", pa.int64())]))
        cand_hashes = set(interior["h"].to_pylist()) | edge_cands
        cref = ray.put(np.array(sorted(cand_hashes), dtype=np.int64))

        def exact_counts(batch: pa.Table) -> pa.Table:
            cands = ray.get(cref)
            col = batch[key].combine_chunks()
            col = col.filter(pc.is_valid(col))
            keep = np.isin(hash64(col).view(np.int64), cands)
            sub = col.filter(pa.array(keep))
            vc = pc.value_counts(sub)
            return pa.table({key: vc.field("values"), "partial_n": pc.cast(vc.field("counts"), pa.int64())})

        phase2 = ds_factory().map_batches(exact_counts, batch_format="pyarrow", **REMOTE_KWARGS)
        exact = phase2.groupby(key).aggregate(Sum("partial_n", alias_name="n"))
        dups = exact.map_batches(lambda t: t.filter(pc.greater(t["n"], 1)), batch_format="pyarrow", **REMOTE_KWARGS)
        return dups

    # semi-join path: candidates never land on the driver or in a broadcast.
    # Distinct-ify first (the same hash can be flagged interior in two
    # adjacent blocks, and edge_cands may overlap interior) — a duplicate
    # candidate row would double partial counts through the inner join.
    import ray.data as rd
    from ray.data.aggregate import Count

    cand_h = cands_ds.map_batches(
        lambda t: t.filter(pc.equal(t["kind"], 0)).select(["h"]),
        batch_format="pyarrow", **REMOTE_KWARGS)
    if edge_cands:
        cand_h = cand_h.union(rd.from_arrow(pa.table(
            {"h": pa.array(sorted(edge_cands), pa.int64())})))
    from .._env import normalize_empty_blocks

    cand_distinct = normalize_empty_blocks(
        cand_h.groupby("h").aggregate(Count(alias_name="_c")),
        pa.schema([("h", pa.int64())]))

    def keyed_partials(batch: pa.Table) -> pa.Table:
        col = batch[key].combine_chunks()
        col = col.filter(pc.is_valid(col))
        vc = pc.value_counts(col)
        keys = vc.field("values")
        return pa.table({
            "h": pa.array(hash64(keys).view(np.int64)),
            key: keys,
            "partial_n": pc.cast(vc.field("counts"), pa.int64()),
        })

    rel = ds_factory().map_batches(keyed_partials, batch_format="pyarrow", **REMOTE_KWARGS)

    # pad BOTH sides so every join partition sees at least one row per side
    # (Ray 2.49 joins crash on a partition with a zero-row side — see
    # _env.join_pad_hashes).  Left pads carry a null key and partial_n=0:
    # they only survive the inner join on a ~2^-64 hash collision, and then
    # the n>1 filter drops them.
    from .._env import join_pad_hashes

    njoin = join_num_partitions()
    _sch = rel.schema()  # ray Schema: parallel .names / .types (pyarrow types)
    ktype = _sch.types[_sch.names.index(key)]
    lpads = join_pad_hashes(njoin, base=-(2**62) + 7919)
    rpads = join_pad_hashes(njoin, base=-(2**62) + 104729)
    rel = rel.union(rd.from_arrow(pa.table({
        "h": pa.array(lpads, pa.int64()),
        key: pa.nulls(njoin, ktype),
        "partial_n": pa.array([0] * njoin, pa.int64()),
    })))
    cand_distinct = cand_distinct.union(rd.from_arrow(pa.table(
        {"h": pa.array(rpads, pa.int64())})))
    joined = rel.join(
        cand_distinct, join_type="inner",
        num_partitions=njoin, on=("h",))
    exact = joined.groupby(key).aggregate(Sum("partial_n", alias_name="n"))
    dups = exact.map_batches(lambda t: t.filter(pc.greater(t["n"], 1)), batch_format="pyarrow", **REMOTE_KWARGS)
    return dups


# ==========================================================================
# driver-side orchestration


@dataclass
class ValidationReport:
    out_dir: str
    rows: int = 0
    failed: int = 0
    codes: dict = field(default_factory=dict)
    warnings: dict = field(default_factory=dict)
    shards: int = 0
    duplicates: int = 0
    duplicate_rows_excess: int = 0
    snapshot: dict = field(default_factory=dict)
    drift: dict = field(default_factory=dict)
    passed: bool = True
    wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "failed": self.failed,
            "codes": self.codes,
            "warnings": self.warnings,
            "shards": self.shards,
            "duplicates": self.duplicates,
            "duplicate_rows_excess": self.duplicate_rows_excess,
            "drift": self.drift,
            "passed": self.passed,
            "wall_s": round(self.wall_s, 3),
        }


def _finalize_shard(tmp_out: str, shard_dir_tmp: str):
    """Split the mixed (violations + meta) parquet written by the streaming
    pass into violations.parquet (deterministically sorted) + summary.json."""
    import duckdb

    os.makedirs(shard_dir_tmp, exist_ok=True)
    con = duckdb.connect()
    files = os.path.join(tmp_out, "*.parquet")
    con.sql(
        f"""
        COPY (
          SELECT * FROM read_parquet('{files}')
          WHERE severity != 'meta'
          ORDER BY doc_id NULLS FIRST, path, code, item_index, row
        ) TO '{shard_dir_tmp}/violations.parquet' (FORMAT PARQUET)
        """
    )
    stats_rows = con.sql(
        f"SELECT path, code, context FROM read_parquet('{files}') WHERE severity = 'meta'"
    ).fetchall()
    rows = failed = 0
    sketches: dict[str, ColumnStats] = {}
    catcounts: dict[str, dict] = {}
    for path, code, context in stats_rows:
        if code == "__stats__":
            d = json.loads(context)
            rows += d["rows"]
            failed += d["failed"]
        elif code == "__sketch__":
            _merge_partial(sketches, path, context)
        elif code == "__catcounts__":
            d = json.loads(context)
            agg = catcounts.setdefault(path, {})
            for k, v in d.items():
                agg[k] = agg.get(k, 0) + v
    code_counts = {
        c: int(n)
        for c, n in con.sql(
            f"SELECT code, count(*) FROM read_parquet('{files}') WHERE severity = 'error' GROUP BY code ORDER BY code"
        ).fetchall()
    }
    warn_counts = {
        c: int(n)
        for c, n in con.sql(
            f"SELECT code, count(*) FROM read_parquet('{files}') WHERE severity = 'warn' GROUP BY code ORDER BY code"
        ).fetchall()
    }
    con.close()
    summary = {
        "rows": rows,
        "failed": failed,
        "codes": code_counts,
        "warnings": warn_counts,
        # the exact partials feed the cross-shard merge; the views are
        # for reading
        "partials": {p: _b64(s.to_bytes()) for p, s in sketches.items()},
        "sketches": {p: s.to_dict() for p, s in sketches.items()},
        "catcounts": catcounts,
    }
    with open(os.path.join(shard_dir_tmp, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return summary


def _merge_summaries(summaries: list[dict], report: ValidationReport) -> tuple[dict, dict]:
    """Add the shard summaries' counts into ``report``; return the column
    sketches merged from the shards' exact binary partials, and the merged
    categorical counts."""
    sketches: dict[str, ColumnStats] = {}
    cats: dict[str, dict] = {}
    for s in summaries:
        report.rows += s["rows"]
        report.failed += s["failed"]
        for c, n in s["codes"].items():
            report.codes[c] = report.codes.get(c, 0) + n
        for c, n in s.get("warnings", {}).items():
            report.warnings[c] = report.warnings.get(c, 0) + n
        for p, b64 in s["partials"].items():
            _merge_partial(sketches, p, b64)
        for p, d in s.get("catcounts", {}).items():
            agg = cats.setdefault(p, {})
            for k, v in d.items():
                agg[k] = agg.get(k, 0) + v
    return sketches, cats


def validate_dataset(
    shard_factories: list[Callable[[], "ray.data.Dataset"]] | None = None,
    *,
    schema: Schema | dict,
    out_dir: str,
    id_column: str = "doc_id",
    prefs: dict | None = None,
    catalog: pa.Table | None = None,
    catalog_key: str = "media_ref",
    ref_path: str | None = None,
    stats_numeric: list[str] | None = None,
    stats_categorical: list[str] | None = None,
    stats_id: list[str] | None = None,
    unique_key: str | None = "doc_id",
    unique_ds_factory: Optional[Callable[[], "ray.data.Dataset"]] = None,
    baseline_snapshot: dict | None = None,
    drift_thresholds: dict | None = None,
    resume: bool = True,
    concurrency: int | tuple | None = None,
    batch_size: int = 8192,
    num_cpus: float = 1.0,
) -> ValidationReport:
    """Run the full pass (schema + referential + stats sketches) shard by
    shard with checkpoint/resume, then uniqueness, then drift; write
    violations + summaries + snapshot + report under ``out_dir``."""
    import ray

    t0 = time.time()
    if isinstance(schema, Schema):
        spec_json = schema.to_json()
    else:
        spec_json = json.dumps(schema)
    eff_prefs = {"abort_early": False, **(prefs or {})}
    manifest = RunManifest(out_dir)
    if not resume:
        manifest.reset()

    catalog_ref = None
    if catalog is not None:
        cat_col = catalog[catalog_key].combine_chunks() if isinstance(catalog, pa.Table) else catalog
        catalog_ref = ray.put(cat_col)  # broadcast once; actors ray.get in __init__

    if concurrency is None:
        total_cpus = int(ray.cluster_resources().get("CPU", 8))
        concurrency = max(2, int(total_cpus - 2))

    report = ValidationReport(out_dir=out_dir)
    fn_kwargs = dict(
        spec_json=spec_json,
        prefs=eff_prefs,
        id_column=id_column,
        catalog_ref=catalog_ref,
        ref_path=ref_path,
        stats_numeric=stats_numeric,
        stats_categorical=stats_categorical,
        stats_id=stats_id,
    )

    for shard_id, factory in enumerate(shard_factories):
        if manifest.shard_done(shard_id):
            continue
        ds = factory()
        # stateless tasks + per-worker compile cache: no per-shard actor
        # pool startup, elastic scheduling across shards
        out = ds.map_batches(
            validator_fn,
            fn_kwargs=fn_kwargs,
            batch_format="pyarrow",
            batch_size=batch_size,
            num_cpus=num_cpus,  # >1 caps concurrent tasks on bandwidth-limited hosts
            **REMOTE_KWARGS)
        tmp_stream = os.path.join(out_dir, f".stream-{shard_id:04d}")
        if os.path.exists(tmp_stream):
            shutil.rmtree(tmp_stream)
        out.write_parquet(tmp_stream)
        shard_tmp = manifest.shard_dir(shard_id) + ".tmp"
        summary = _finalize_shard(tmp_stream, shard_tmp)
        manifest.finalize_shard_dir(shard_id, shard_tmp)
        shutil.rmtree(tmp_stream, ignore_errors=True)
        manifest.mark_shard(
            shard_id,
            inputs=getattr(factory, "inputs", None) or [getattr(factory, "__name__", f"shard-{shard_id}")],
            metrics={"rows": summary["rows"], "failed": summary["failed"]},
        )

    summaries = []
    for shard_id in manifest.completed_shards():
        with open(os.path.join(manifest.shard_dir(shard_id), "summary.json")) as f:
            summaries.append(json.load(f))
    merged_sketches, merged_cats = _merge_summaries(summaries, report)
    report.shards = len(manifest.completed_shards())

    # uniqueness shuffle: hashed two-phase (int64-hash candidates + exact
    # string verify of only the candidate subset — same result as the plain
    # string groupby, tested equal; ~3x faster at scale)
    if unique_key and unique_ds_factory is not None:
        dup_dir = os.path.join(out_dir, "uniqueness")
        if not manifest.stage_done("uniqueness"):
            dups = uniqueness_pass_hashed(unique_ds_factory, unique_key)
            # a fresh pass owns the directory: parquet files left by an
            # earlier run (resume=False) or a crashed pass would be read
            # back beside the new ones and double-count duplicates
            shutil.rmtree(dup_dir, ignore_errors=True)
            os.makedirs(dup_dir)
            if isinstance(dups, pa.Table):  # zero-candidate fast path
                import pyarrow.parquet as _pq

                _pq.write_table(dups, os.path.join(dup_dir, "part-0.parquet"))
            else:
                dups.write_parquet(dup_dir)
            manifest.mark_stage("uniqueness", {})
        import duckdb

        con = duckdb.connect()
        dup_files = os.path.join(dup_dir, "*.parquet")
        try:
            k, excess = con.sql(
                f"SELECT count(*), coalesce(sum(n-1),0) FROM read_parquet('{dup_files}')"
            ).fetchone()
        except duckdb.IOException:
            k, excess = 0, 0
        con.close()
        report.duplicates = int(k)
        report.duplicate_rows_excess = int(excess)
        if k:
            report.codes["unique.duplicate"] = int(excess)

    # snapshot + drift
    snapshot = {
        "columns": {p: s.to_dict() for p, s in merged_sketches.items()},
        "categorical": merged_cats,
        "rows": report.rows,
    }
    with open(os.path.join(out_dir, "snapshot.json"), "w") as f:
        json.dump(snapshot, f, indent=1, sort_keys=True)
    report.snapshot = snapshot

    thresholds = {"ks": 0.15, "psi": 0.2, **(drift_thresholds or {})}
    if baseline_snapshot:
        drift = {}
        base_cols = baseline_snapshot.get("columns", {})
        for p, s in merged_sketches.items():
            if p in base_cols and base_cols[p].get("tdigest_b64") and s.numeric:
                base_td = TDigest.from_bytes(base64.b64decode(base_cols[p]["tdigest_b64"]))
                drift[p] = {
                    "ks": round(ks_statistic(base_td, s.tdigest), 5),
                    "psi": round(psi(base_td, s.tdigest), 5),
                }
        for p, counts in merged_cats.items():
            base = baseline_snapshot.get("categorical", {}).get(p)
            if base:
                drift[p] = {"psi": round(categorical_psi(base, counts), 5)}
        report.drift = drift
        for p, d in drift.items():
            if d.get("ks", 0) > thresholds["ks"] or d.get("psi", 0) > thresholds["psi"]:
                report.codes[f"drift.{p}"] = report.codes.get(f"drift.{p}", 0) + 1

    report.passed = report.failed == 0 and report.duplicates == 0 and not any(
        k.startswith("drift.") for k in report.codes
    )
    report.wall_s = time.time() - t0
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report.to_dict(), f, indent=1, sort_keys=True)
    return report


def validate_ds(ds, schema, *, id_column="doc_id", prefs=None, catalog=None, ref_path=None,
                concurrency=4, batch_size=8192):
    """Streaming one-shot convenience: returns the violations Dataset
    (meta rows filtered out) without writing anything — for tests and
    ``queries()`` entries."""
    import ray

    spec_json = schema.to_json() if isinstance(schema, Schema) else json.dumps(schema)
    catalog_ref = None
    if catalog is not None:
        col = catalog if isinstance(catalog, (pa.Array, pa.ChunkedArray)) else catalog["media_ref"].combine_chunks()
        catalog_ref = ray.put(col)
    out = ds.map_batches(
        ValidatorStage,
        fn_constructor_kwargs=dict(
            spec_json=spec_json,
            prefs={"abort_early": False, **(prefs or {})},
            id_column=id_column,
            catalog_ref=catalog_ref,
            ref_path=ref_path,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency, **REMOTE_KWARGS)
    return out.map_batches(
        lambda t: t.filter(pc.not_equal(t["severity"], "meta")), batch_format="pyarrow", **REMOTE_KWARGS)


def rebalance_if_skewed(ds, *, factor: float = 4.0):
    """Skew-aware repartitioning (SURVEY.md §7.3): inspect per-block row
    counts from block METADATA (no data touched) and, when the largest
    block exceeds ``factor`` x the median, rebalance rows evenly across the
    same number of blocks so stragglers stop gating map stages.

    Key co-location is deliberately NOT this helper's job — every keyed
    stage in the engine (uniqueness, dedup joins, grouped aggregates)
    hash-partitions internally through groupby/join; what skewed inputs
    hurt is task granularity, which an order-preserving repartition fixes.
    Returns a MaterializedDataset either way (callers reuse it for
    multiple passes)."""
    mat = ds if hasattr(ds, "iter_internal_ref_bundles") and type(ds).__name__ == "MaterializedDataset" else ds.materialize()
    rows = []
    for bundle in mat.iter_internal_ref_bundles():
        for _, meta in bundle.blocks:
            if meta.num_rows is not None:
                rows.append(meta.num_rows)
    if len(rows) < 2:
        return mat
    med = max(sorted(rows)[(len(rows) - 1) // 2], 1)
    if max(rows) / med > factor:
        return mat.repartition(len(rows)).materialize()
    return mat
