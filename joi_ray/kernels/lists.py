"""List (array-type) leaf kernels over Arrow list columns.

Reference: ``/root/reference/lib/types/array.js`` (813 LoC).  Per-item
schemas are handled by the engine via flatten + recursive evaluation
(SURVEY.md §2.3 array mapping); the kernels here are the row-level list
rules: length bounds (``array.js:354-389``), within-row ``unique``
(``:468-558``), ``sparse`` (``:454-466``) and ``sort`` order checking
(``:420-452,740-787``).  Dataset-level uniqueness is a pipeline shuffle
stage, not a schema rule.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import json

from .util import Env, RuleOut, as_bool_np, cmp_mask


def list_lengths(arr: pa.Array) -> pa.Array:
    return pc.list_value_length(arr)


def flatten_with_parents(arr: pa.Array):
    """(flat_values, parent_row_indices) — nulls at the outer level
    contribute no items."""
    return pc.list_flatten(arr), pc.list_parent_indices(arr).to_numpy(zero_copy_only=False)


def list_positions(parents: np.ndarray) -> np.ndarray:
    """Each flat item's position within its list: a running index reset
    where the parent changes."""
    if not len(parents):
        return parents.copy()
    change = np.r_[True, parents[1:] != parents[:-1]]
    grp_start = np.maximum.accumulate(np.where(change, np.arange(len(parents)), 0))
    return np.arange(len(parents)) - grp_start


def make_list_compare(op: str):
    def factory(args):
        limit = args["limit"]

        def kernel(arr, env: Env) -> RuleOut:
            ok, ctx = cmp_mask(list_lengths(arr), op, limit, env, arg="limit")
            return RuleOut(ok=ok, context=ctx)

        return kernel

    return factory


def field_values(flat: pa.Array, by: str | None) -> pa.Array:
    """The dotted ``by`` field of each flat item, or the items when ``by``
    is empty."""
    if by:
        for part in by.split("."):
            flat = pc.struct_field(flat, part)
    return flat


def _item_values(arr: pa.Array, by: str | None):
    flat, parents = flatten_with_parents(arr)
    return field_values(flat, by), parents


def make_unique(args):
    by = args.get("by")
    comparator = args.get("comparator")
    ignore_undefined = args.get("ignoreUndefined", False)

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        flat, parents = _item_values(arr, by)
        ok = np.ones(n, dtype=bool)
        if not len(parents):
            return RuleOut(ok=ok, context={"path": by})
        positions = list_positions(parents)
        if comparator is not None:
            # custom comparator (array.js:470): per-row pairwise — the
            # reference is per-pair too; rows are short lists
            from collections import defaultdict

            groups: dict[int, list] = defaultdict(list)
            for v, p, pos in zip(flat.to_pylist(), parents, positions):
                if ignore_undefined and v is None:
                    continue
                groups[int(p)].append((v, int(pos)))
            bad_rows, bad_pos = [], []
            for p, items in sorted(groups.items()):
                hit = None
                for j in range(1, len(items)):
                    if any(comparator(items[i][0], items[j][0]) for i in range(j)):
                        hit = items[j][1]
                        break
                if hit is not None:
                    ok[p] = False
                    bad_rows.append(p)
                    bad_pos.append(hit)
            return RuleOut(
                ok=ok,
                context={"path": by},
                item_rows=np.asarray(bad_rows, dtype=np.int64),
                item_index=np.asarray(bad_pos, dtype=np.int32),
            ) if bad_rows else RuleOut(ok=ok, context={"path": by})
        s = flat.to_pandas()
        if pa.types.is_nested(flat.type):
            # deep-equal fallback (array.js:497): canonical JSON as the
            # equality key for struct/list items
            s = s.map(
                lambda v: None if v is None else json.dumps(v, sort_keys=True, default=str)
            )
        df = pd.DataFrame({"p": parents, "v": s, "pos": positions})
        # joi's unique is typeof-SENSITIVE (array.js:490-497 `found[typeof
        # item]`): when a type promotion rewrote the column, the engine
        # tags adopted-converted vs kept-original items — a kept number 1
        # never dups an adopted cast "1" (fuzz seed 5300531)
        tags = env.item_type_tags
        if tags is not None and len(tags) == len(df) and comparator is None:
            t = np.asarray(tags, dtype=np.int8)
            t = np.where(s.isna().to_numpy(), 0, t)  # undefined: one type
            df["t"] = t
        if ignore_undefined:
            df = df[df["v"].notna()]
        # nulls participate by default: two null items are duplicates
        # (array.js:476 — ignoreUndefined turns that off)
        dup = df.duplicated(subset=(["p", "v", "t"] if "t" in df else ["p", "v"]),
                            keep="first")
        # joi stops at the FIRST duplicate per row and reports it at the
        # later occurrence's position (array.js:461-495: "[2]" for
        # [1,2,1,2]) — one error per row, item-indexed
        firsts = df.loc[dup, ["p", "pos"]].groupby("p", sort=True)["pos"].min()
        bad_parents = firsts.index.to_numpy()
        ok[bad_parents] = False
        return RuleOut(
            ok=ok,
            context={"path": by},
            item_rows=bad_parents.astype(np.int64),
            item_index=firsts.to_numpy().astype(np.int32),
        )

    return kernel


def sort_lists(arr, order: str, by):
    """Rewrite each row's list in sorted order — joi's internals.sort
    (array.js:740-788) with undefined-always-last (Arrow null ≙
    undefined); vectorized lexsort within parents.  Returns the rebuilt
    list column."""
    n = len(arr)
    flat_all, parents_all = flatten_with_parents(arr)
    kv = field_values(flat_all, by).to_numpy(zero_copy_only=False)
    # dense ranks (type-agnostic, null-safe): missing items sort
    # last regardless of order (array.js:796-801 — undefined/null
    # always last, see the 1757-1793 convert vectors)
    mask_null = pd.isna(kv)
    notnull = ~mask_null
    uniq, inv = np.unique(kv[notnull], return_inverse=True)
    rank = np.full(len(kv), len(uniq), dtype=np.int64)
    rank[notnull] = inv if order != "descending" else (len(uniq) - 1 - inv)
    # joi's compare is TWO-level (array.js:747-760 + :790-801): an
    # UNDEFINED ITEM sorts last before the by-ref even resolves, then an
    # undefined BY-value sorts last among defined items (fuzz seed
    # 11100076: [undef, {y:''}, {y:undef}] by y -> [{y:''}, {y:undef},
    # undef])
    item_null = (as_bool_np(pc.is_null(flat_all), len(kv))
                 if by else mask_null)
    order_idx = np.lexsort((rank, item_null, parents_all))
    new_flat = flat_all.take(pa.array(order_idx))
    lengths = pc.list_value_length(arr).fill_null(0).to_numpy(zero_copy_only=False)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # carry the list validity mask: a null row must stay null, not
    # collapse to [] (offsets alone can't express it)
    validity = None
    if arr.null_count:
        validity = pc.is_valid(arr).combine_chunks() if isinstance(arr, pa.ChunkedArray) else pc.is_valid(arr)
    return pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int64()).cast(pa.int32()), new_flat,
        mask=pc.invert(validity) if validity is not None else None)


def coerce_sort(arr, args: dict):
    """joi's COERCE-stage sort (array.js coerce:44-48): sorts before the
    items loop.  Non-number/string item types reproduce the comparator's
    thrown errors per row — ``array.sort.unsupported`` when two non-equal
    non-null items of an unsupported typeof meet (a === b short-circuits
    identical primitives; distinct OBJECT items are never ===, so any two
    non-null nested items throw).  Returns (new_arr, coerce_errs), each
    error a (code, mask, context)."""
    order = args.get("order", "ascending")
    by = args.get("by")
    n = len(arr)
    keys, parents = _item_values(arr, by)
    t = keys.type
    supported = (pa.types.is_integer(t) or pa.types.is_floating(t)
                 or pa.types.is_string(t) or pa.types.is_large_string(t)
                 or pa.types.is_null(t))
    if not supported:
        bad = np.zeros(n, dtype=bool)
        if len(parents):
            if pa.types.is_nested(t):
                # object identity: two non-null items never compare equal
                nn = ~np.asarray(pd.isna(keys.to_pandas()))
                cnt = np.bincount(parents[nn], minlength=n)
                bad = cnt >= 2
            else:
                # primitives (boolean): only rows holding two DISTINCT
                # non-null values reach the typeof gate
                kv = keys.to_pandas()
                df = pd.DataFrame({"p": parents, "v": kv})
                df = df[df["v"].notna()]
                nun = df.groupby("p")["v"].nunique()
                bad[nun.index.to_numpy()[nun.to_numpy() >= 2]] = True
        if bad.any():
            # the comparator's thrown report names the items' typeof
            ctx = {"type": "boolean" if pa.types.is_boolean(t) else "object"}
            return arr, [("array.sort.unsupported", bad, ctx)]
        return arr, []
    return sort_lists(arr, order, by), []


def make_sort(args):
    order = args.get("order", "ascending")
    by = args.get("by")
    conv = args.get("convert")

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        ctx = {"order": order, "by": by or "value"}
        if (conv is None and env.convert) or conv is True:
            # already applied in the coerce stage (engine hoists joi's
            # coerce-time sort before the items loop); nothing to check
            return RuleOut(ok=np.ones(n, dtype=bool), context=ctx)
        items, parents = flatten_with_parents(arr)
        ok = np.ones(n, dtype=bool)
        if len(parents) > 1:
            v = field_values(items, by).to_numpy(zero_copy_only=False)
            same = parents[1:] == parents[:-1]
            nn = pd.notna(v)
            # joi's TWO-level undefined order (array.js:747-760,:790-801):
            # an undefined ITEM is last before the by-ref resolves, an
            # undefined BY-value last among defined items — both
            # regardless of order (fuzz seed 11100981: [{x:1}, undef,
            # {x:undef}] by x is OUT of order)
            item_nn = (~as_bool_np(pc.is_null(items), len(v))
                       if by else nn)
            lvl = np.where(item_nn, ~nn, 2)
            viol = same & (lvl[1:] < lvl[:-1])
            # two defined neighbours of one list compare directly
            i = np.flatnonzero(same & (lvl[1:] == 0) & (lvl[:-1] == 0))
            later, earlier = v[i + 1], v[i]
            viol[i[later < earlier if order == "ascending" else later > earlier]] = True
            # mixed typeofs among COMPARED items throw array.sort.
            # MISMATCHING in joi's comparator (array.js:763-766) — visible
            # through a type promotion's adopted/kept tags (cast('string')
            # items vs kept raw numbers under convert:false; fuzz seed
            # 13003105, node-verified); it REPLACES array.sort for the row
            mism = np.zeros(n, dtype=bool)
            tags = env.item_type_tags
            # joi resolves settings.by BEFORE the typeof check (array.js:
            # 753-766), so mismatching is about the BY-VALUE types — the
            # promotion tags only apply when the by-field is one the
            # promotion retyped, or to plain value sorts (fuzz seed
            # 26000610, node-verified: struct items with a cast x field
            # sorted by y error array.sort, not .mismatching; seed
            # 13003105: sorted by the cast x itself, .mismatching)
            _tf = env.item_type_tag_fields
            _tags_apply = (by in _tf) if (by and _tf is not None) else not by
            if tags is not None and len(tags) == len(v) and _tags_apply:
                t0 = np.asarray(tags, dtype=np.int8)
                sel = lvl == 0
                if sel.any():
                    df_t = pd.DataFrame({"p": parents[sel], "t": t0[sel]})
                    nun = df_t.groupby("p")["t"].nunique()
                    mism[nun.index.to_numpy()[nun.to_numpy() >= 2]] = True
                    if mism.any():
                        ctx["__alt_err__"] = (mism.copy(), "array.sort.mismatching", {})
            bad = np.zeros(n, dtype=bool)
            bad[parents[1:][viol]] = True
            ok = ~(bad & ~mism)  # mismatching rows fail via __alt_err__
        return RuleOut(ok=ok, context=ctx)

    return kernel


FACTORIES = {
    "min": make_list_compare("ge"),
    "max": make_list_compare("le"),
    "length": make_list_compare("eq"),
    "unique": make_unique,
    "sort": make_sort,
}
