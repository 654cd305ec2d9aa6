"""Seeded inputs and exact output oracles for the validation benchmark.

Every input is a pure function of the workload seed, and every expected
output is derived from the generated ids alone (the dirt rules of
``joi_ray.sources.interleaved``), never from the engine under test.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from joi_ray.sources.interleaved import interleave_batch

BATCH_DOCS = 8192
FLAT_DOCS = 5000  # the sf0.1 documents table has 5,000 rows
REPEAT = 7  # 5,000 x 7 = 35,000 docs -> four full 8,192-doc batches
_WORDS = np.array(
    "batch part spark line column order small sort fast value scan hash slow group "
    "agg filter stream window join key row table data query vector merge big a the".split()
)
# clean-workload dirt rules, keyed by id % 1000 (sources/interleaved.py)
_NULL_ID, _BAD_ID, _NO_SPANS, _BOGUS, _EMPTY_TEXT, _DANGLING, _UNSORTED = 7, 13, 29, 35, 41, 47, 53


def flat_docs(seed: int, n: int = FLAT_DOCS) -> pa.Table:
    """A flat (doc_id:int64, text:string) table shaped like sf0.1's documents.

    The id range starts at a seeded multiple of 1000, so every dirt residue
    keeps its rate, and stays small enough that ``id * REPEAT`` renders as
    eight hex digits."""
    rng = np.random.default_rng(seed)
    base = int(rng.integers(0, 600_000)) * 1000
    ids = base + np.arange(n, dtype=np.int64)
    lens = rng.integers(8, 97, n)
    words = _WORDS[rng.integers(0, len(_WORDS), int(lens.sum()))]
    cuts = np.cumsum(lens)[:-1]
    text = [" ".join(w) for w in np.split(words, cuts)]
    return pa.table({"doc_id": pa.array(ids), "text": pa.array(text, pa.string())})


def flagship_batches(seed: int) -> tuple[list[pa.Table], list[np.ndarray]]:
    """The four full 8,192-doc interleaved batches and the integer id behind each doc."""
    flat = flat_docs(seed)
    docs = interleave_batch(flat, repeat=REPEAT)
    ids = (flat["doc_id"].to_numpy()[:, None] * REPEAT + np.arange(REPEAT, dtype=np.int64)).reshape(-1)
    n = docs.num_rows // BATCH_DOCS
    batches = [docs.slice(i * BATCH_DOCS, BATCH_DOCS).combine_chunks() for i in range(n)]
    return batches, [ids[i * BATCH_DOCS:(i + 1) * BATCH_DOCS] for i in range(n)]


def corrupt(batch: pa.Table) -> pa.Table:
    """Break a rule on every span: text spans get empty text; media spans get
    a ref that is both off-pattern and off-catalog (``asset://z`` + the old
    16 hex digits, so distinct refs stay distinct)."""
    spans = batch["spans"].combine_chunks()
    flat = spans.values
    kind = flat.field("kind")
    is_text = pc.fill_null(pc.equal(kind, "text"), False)
    is_media = pc.fill_null(pc.is_in(kind, value_set=pa.array(["image", "audio", "video"])), False)
    text = pc.if_else(is_text, pa.scalar(""), flat.field("text"))
    ref = pc.if_else(is_media, pc.replace_substring(flat.field("media_ref"), "asset://", "asset://z"),
                     flat.field("media_ref"))
    new_flat = pa.StructArray.from_arrays(
        [kind, text, ref, flat.field("offset")], fields=list(flat.type))
    new_spans = pa.ListArray.from_arrays(spans.offsets, new_flat)
    return batch.set_column(batch.schema.get_field_index("spans"), "spans", new_spans)


def _span_counts(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per doc: (text spans, media spans) as the generator lays them
    out: 2 + id % 5 spans, even positions text, 0 spans for the no-spans
    rule, and a bogus kind on span 0 of the bogus rule."""
    m = ids % 1000
    n = np.where(m == _NO_SPANS, 0, 2 + ids % 5)
    return (n + 1) // 2 - (m == _BOGUS), n // 2


def expected_clean(ids: np.ndarray) -> tuple[dict, int]:
    """Per-code violation counts and failed-doc count for an undamaged batch
    validated with the referential check on."""
    m = ids % 1000
    c = {r: int((m == r).sum()) for r in (_NULL_ID, _BAD_ID, _NO_SPANS, _BOGUS, _EMPTY_TEXT, _DANGLING, _UNSORTED)}
    codes = {
        # null id, plus the missing media_ref of the bogus-kind span
        "any.required": c[_NULL_ID] + c[_BOGUS],
        "string.pattern.base": c[_BAD_ID],
        "array.min": c[_NO_SPANS],
        "any.only": c[_BOGUS],
        "any.unknown": c[_BOGUS],  # text on the bogus-kind span is forbidden
        "string.empty": c[_EMPTY_TEXT],
        "array.sort": c[_UNSORTED],
        "referential.missing": c[_DANGLING],
    }
    return {k: v for k, v in codes.items() if v}, sum(c.values())


def expected_dirty(ids: np.ndarray) -> tuple[dict, int]:
    """Counts after ``corrupt``: one string.empty per text span, one
    string.pattern.base and one referential.missing per media span, on top
    of the id-level and array-level rules; every doc fails."""
    m = ids % 1000
    text, media = _span_counts(ids)
    bogus = int((m == _BOGUS).sum())
    codes = {
        "any.required": int((m == _NULL_ID).sum()) + bogus,
        "string.pattern.base": int((m == _BAD_ID).sum()) + int(media.sum()),
        "array.min": int((m == _NO_SPANS).sum()),
        "any.only": bogus,
        "any.unknown": bogus,
        "string.empty": int(text.sum()),
        "array.sort": int((m == _UNSORTED).sum()),
        "referential.missing": int(media.sum()),
    }
    return {k: v for k, v in codes.items() if v}, len(ids)
