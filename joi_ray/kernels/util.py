"""Shared kernel plumbing: masks, rule outcomes, evaluation environment.

Conventions
-----------
- All row masks are dense ``numpy.bool_`` arrays of batch length.
- A rule kernel has signature ``fn(arr, args, env) -> RuleOut``.  Per row
  it runs pyarrow.compute / numpy only — never a Python loop over rows.
  Work that Arrow cannot express (a JS-faithful parse, a Python-only
  regex) runs in Python once per distinct value (``distinct_strings``)
  and is broadcast to the rows by index.
- Kernels return ``ok=True`` for cells they don't apply to (nulls are skipped
  by the engine's active mask anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..spec import Ref


def as_bool_np(mask, n: int, fill: bool = False) -> np.ndarray:
    """Arrow boolean array (possibly with nulls) -> dense numpy bool, a
    null row reading ``fill``.  Unpacks the data and validity bitmaps
    directly: no filled copy of the array is built."""
    if isinstance(mask, np.ndarray):
        return mask.astype(bool, copy=False)
    if isinstance(mask, pa.ChunkedArray):
        mask = mask.chunk(0) if mask.num_chunks == 1 else mask.combine_chunks()
    if not pa.types.is_boolean(mask.type):
        if mask.null_count:
            mask = mask.fill_null(fill)
        return mask.to_numpy(zero_copy_only=False).astype(bool, copy=False)
    m, offset = len(mask), mask.offset
    if m == 0:
        return np.zeros(0, dtype=bool)
    validity, data = mask.buffers()
    out = _unpack_bits(data, offset, m)
    if mask.null_count:
        valid = _unpack_bits(validity, offset, m)
        out = out | ~valid if fill else out & valid
    return out


def _unpack_bits(buf: pa.Buffer, offset: int, m: int) -> np.ndarray:
    """Bits ``offset .. offset + m`` of an Arrow bitmap (LSB first) as bool."""
    skip = offset % 8
    raw = np.frombuffer(buf, dtype=np.uint8, count=(skip + m + 7) // 8, offset=offset // 8)
    return np.unpackbits(raw, count=skip + m, bitorder="little")[skip:].view(bool)


def null_mask(arr: pa.Array) -> np.ndarray:
    return as_bool_np(pc.is_null(arr), len(arr), fill=False)


def combine(arr) -> pa.Array:
    if isinstance(arr, pa.ChunkedArray):
        return arr.combine_chunks()
    return arr


def distinct_strings(arr) -> tuple[np.ndarray, list]:
    """A string column as ``(codes, values)``: ``values`` its distinct
    non-null strings, ``codes`` each row's index into them, -1 for a null
    row.  A kernel decides each value once and broadcasts the answers with
    ``np.array(answers + [null_answer])[codes]`` (-1 picks the last slot)."""
    enc = pc.dictionary_encode(combine(arr))
    codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False)
    # (to_numpy builds the Python strings several times faster than to_pylist)
    return codes, enc.dictionary.to_numpy(zero_copy_only=False).tolist()


@dataclass
class RuleOut:
    ok: np.ndarray                    # True = pass (or not applicable)
    context: dict = field(default_factory=dict)
    new_value: Optional[pa.Array] = None   # convert rules rewrite the column
    # span-level failures: parallel arrays of (row, item position) so the
    # error renders at the offending list element ("b[2]", errors.js:87-107)
    item_rows: Optional[np.ndarray] = None
    item_index: Optional[np.ndarray] = None


@dataclass
class ErrRec:
    """One error family over a batch: a code plus the row mask where it fired.

    Maps to joi's ``Report`` / ``details[]`` entries
    (``/root/reference/lib/errors.js:171-215``): ``code`` is the joi error
    type (e.g. ``string.min``), ``path`` the column path, ``context`` the
    static rule context (limit, name, ...).  ``item_index`` carries the
    offending list position for span-level errors (int32 per fired row, -1 =
    row-level).
    """

    code: str
    mask: np.ndarray
    path: str
    context: dict = field(default_factory=dict)
    seq: int = 0                      # rule registration order, for abortEarly parity
    warn: bool = False
    message: Optional[str] = None     # custom message override
    item_index: Optional[np.ndarray] = None  # aligned with mask.nonzero()
    #: per-fired-row values, aligned with rows/mask.nonzero() order, for the
    #: few messages that embed the offending value ({[.]} in joi templates,
    #: e.g. string.pattern.* — string/index.js:760-763): an Arrow array of
    #: the node's values or, for ref cells (any.ref), a list
    values: Optional[Union[pa.Array, list]] = None
    #: abortEarly ordering group (opaque identity): recs sharing a group
    #: take the group's FIRST emission index and interleave by item index —
    #: joi's item-outer array loop
    order: Optional[object] = None
    #: non-aborting error: joi records it WITHOUT returning under abortEarly
    #: (the inclusions-loop converted-to-undefined sparse, array.js:286-292)
    soft: bool = False
    #: character offset in ``path`` where the item index renders: joi builds
    #: the label from the FULL state path with the index AT the array
    #: boundary ('a[0].x', errors.js:87-107), not appended — set by the
    #: array items lift for sub-errors below the array level; None = append
    #: (plain item errors, where path IS the array path)
    ipos: Optional[int] = None
    #: fired rows of a span-level error, aligned with ``item_index``; None =
    #: row-level (the rows are ``mask.nonzero()``)
    rows: Optional[np.ndarray] = None
    #: item index at FIRE time: abortEarly ordering follows joi's walk even
    #: after strip-splice bookkeeping re-points ``item_index`` for display
    fire_items: Optional[np.ndarray] = None
    #: pushed by finalize after joi's abort point (any.default /
    #: any.failover): kept beside the row's first error under abortEarly
    post_abort: bool = False
    #: group id of a schema-local abortEarly subtree (0 = none): the
    #: abortEarly cut (``_abort_early_keep``) applies within the group
    local_abort: int = 0


class AltView:
    """Per-row TYPED view of a column that cannot hold every value joi
    would see (value.b === true next to value.b === 5): alternatives
    branches or when() branches converting to different types, a blocked
    default/failover adoption, a cross-type shadow, item promotion or a
    failed sibling's raw original.  ``base`` is the column as stored;
    ``pairs`` are (row-mask, typed array), later pairs winning where masks
    overlap.  Consumers read it through ``ref_parts`` and ``ref_cell``."""

    def __init__(self, base, pairs):
        self.base = base
        self.pairs = pairs

    def take(self, idx):
        return AltView(
            combine(self.base).take(idx),
            [(m[np.asarray(idx)], combine(a).take(idx)) for m, a in self.pairs],
        )


def ref_parts(v, n: int) -> list:
    """Disjoint (rows, column) pieces of a resolved ref column or AltView,
    covering every row: each pair on the rows no later pair took, the base
    on the rest.  A consumer runs its kernel once per piece, each with its
    own type."""
    if not isinstance(v, AltView):
        return [(np.ones(n, dtype=bool), combine(v))]
    rest = np.ones(n, dtype=bool)
    out = []
    for m, a in reversed(v.pairs):
        rows = m & rest
        if rows.any():
            out.append((rows, combine(a)))
            rest &= ~rows
    if rest.any():
        out.append((rest, combine(v.base)))
    return out


def ref_cell(v, i: int):
    """Row ``i`` of a resolved ref: a column, an AltView (the last pair
    covering the row wins) or a scalar."""
    if isinstance(v, AltView):
        for m, a in reversed(v.pairs):
            if m[i]:
                return combine(a)[i].as_py()
        v = v.base
    return combine(v)[i].as_py() if isinstance(v, (pa.Array, pa.ChunkedArray)) else v


class Env:
    """Per-batch evaluation environment.

    ``resolve_ref`` gives rule kernels access to sibling columns (same-row
    cross-field references, ``/root/reference/lib/ref.js:111-161``) with
    shadow semantics: siblings are resolved against *post-coercion* values,
    which the engine guarantees by evaluating columns in topological order
    (the analog of ``/root/reference/lib/types/object.js:598-609``).
    """

    def __init__(
        self,
        prefs: dict,
        resolve_sibling: Callable[[str], Any] | None = None,
        ancestors: list | None = None,
    ):
        self.prefs = prefs
        self._resolve_sibling = resolve_sibling
        self.ancestors = ancestors or []
        # optional per-row PARENT dict accessor (the containing object's
        # value), used by arg-taking function defaults/failovers
        # (validator.js:465 passes Hoek.clone(state.ancestors[0]), prefs);
        # set by the object/root eval that owns the sibling columns
        self.row_getter = None
        # typeof side-channel an array node leaves for its own unique()/
        # sort() rules: per flat item, did it ADOPT a converted value when
        # a type promotion rewrote the column (None: no promotion), and
        # which struct fields the promotion retyped (None: the whole value)
        self.item_type_tags = None
        self.item_type_tag_fields = None
        # an object scope's evaluated when-conditions shared by its keys
        # (the engine's ``_when_condition``); None outside one
        self.cond_memo = None

    @property
    def convert(self) -> bool:
        return self.prefs.get("convert", True)

    @property
    def abort_early(self) -> bool:
        return self.prefs.get("abort_early", True)

    def resolve_ref(self, r: Ref, n: int):
        """Resolve a Ref to an Arrow array (length n), an AltView or a
        Python scalar.

        Dotted paths traverse struct fields; the virtual ``length`` segment
        resolves list/string lengths (lib/ref.js resolve walks JS
        properties, so ``a.length`` reaches the array length — ref.js
        test:618-673).  ``map``/``adjust`` options post-process the
        resolved value (lib/ref.js:145-151).  A sibling resolves to the
        value joi's ref reads per row (the engine's ``_failed_overlay``):
        the shadow, else the converted value, else — for an errored key —
        the raw original (object.js:125-140); rows whose value cannot live
        in the column come as AltView pairs."""
        parts = r.parts
        if r.kind == "local":
            # local bindings exist only during error rendering; in rule-arg
            # position joi resolves undefined -> the arg assert fires
            # per-row any.ref (ref.js:74-78)
            return self._ref_post(r, pa.nulls(n))
        if r.kind == "context":
            try:
                return self._ref_post(r, context_value(self.prefs, parts))
            except KeyError:
                # joi resolves an unbound global ref to undefined; the
                # rule's ARG ASSERT then fires per-row any.ref
                # ('limit references "ref:global:lim" which must be a
                # number') instead of refusing the batch
                return self._ref_post(r, pa.nulls(n))
        if r.kind == "root":
            # /path: outermost (table-level) scope (lib/ref.js root prefix)
            if self.ancestors:
                base = self.ancestors[0](parts[0])
            elif self._resolve_sibling is not None:
                base = self._resolve_sibling(parts[0])
            else:
                raise KeyError(f"root ref /{r.path} outside any scope")
            return self._ref_post(r, _walk_ref_path(base, parts[1:], n))
        # ancestor level: 1 = sibling scope, k>=2 climbs k-1 object levels
        # (joi: 'a' == '..a'; '...a' = grandparent — lib/ref.js:40-66);
        # level 0 (own child, '.a') is resolved by the caller that holds the
        # node's own value (eval_node when-conditions)
        level = r.level if r.level is not None else 1
        if level == 0:
            raise KeyError(
                f"self ref .{r.path} requires the node's own value "
                "(supported in when() conditions)")
        if level == 1:
            if self._resolve_sibling is None:
                raise KeyError(f"sibling ref {r.path} outside an object scope")
            base = self._resolve_sibling(parts[0])
        else:
            idx = level - 1
            if idx > len(self.ancestors):
                raise KeyError(f"ancestor ref {r.path} reaches beyond the schema root")
            base = self.ancestors[-idx](parts[0])
        return self._ref_post(r, _walk_ref_path(base, parts[1:], n))

    def _ref_post(self, r: Ref, value):
        """Apply a Ref's map/adjust options to the resolved value.  On an
        AltView they see each row's own value only: every piece on its own
        rows, spread back null elsewhere (a hidden raw '5' never reaches
        ``v + 1``)."""
        if isinstance(value, AltView) and (r.map or r.adjust is not None):
            n = len(value.base)
            pairs = []
            for rows, col in ref_parts(value, n):
                out = combine(self._ref_post(r, col.filter(pa.array(rows))))
                pairs.append((rows, out.take(pa.array(np.cumsum(rows) - 1, mask=~rows))))
            return AltView(pa.nulls(n), pairs)
        if r.map:
            if isinstance(value, (pa.Array, pa.ChunkedArray)):
                if isinstance(value, pa.ChunkedArray):
                    value = value.combine_chunks()
                # map targets may differ in type from the source column
                # (e.g. 'x' -> 1): index_in + take builds the target-typed
                # column; unmatched rows keep the original value
                try:
                    idx = pc.index_in(value, value_set=pa.array([p[0] for p in r.map]))
                    tgt = pa.array([p[1] for p in r.map]).take(idx)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    return value
                if idx.null_count == 0:
                    return tgt
                try:
                    return pc.if_else(pc.is_valid(idx), tgt, value.cast(tgt.type))
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    # unmatched originals of an incompatible type resolve
                    # undefined for those rows (documented deviation)
                    return tgt
            m = {tuple(p)[0]: tuple(p)[1] for p in r.map}
            return m.get(value, value)
        if r.adjust is not None:
            if isinstance(value, (pa.Array, pa.ChunkedArray)):
                # scalar callable applied per distinct-efficient pandas map —
                # adjust refs are rare and not on the hot path
                import pandas as pd

                s = value.to_pandas()
                return pa.array(s.map(lambda v: r.adjust(v) if v is not None else None))
            return r.adjust(value)
        return value

    def child(self, resolve_sibling) -> "Env":
        e = Env(self.prefs, resolve_sibling, self.ancestors + ([self._resolve_sibling] if self._resolve_sibling else []))
        return e

    def match_env(self) -> "Env":
        """$_match prefs override (base.js:719-726): shallow-cloned prefs
        with abortEarly FORCED true and externals disabled.  Probe sub-evals
        (assert / has / array exclusions) must run under this env so warn
        reports are never created on rows a hard error already aborted —
        a failover in the probed schema later CLEARS those hard errors,
        erasing the evidence the warn-leak filters rely on (fuzz seed
        15500173: valids-failure abort precedes hex().warn(), failover
        then matches the row)."""
        e = Env({**self.prefs, "abort_early": True, "externals": False},
                self._resolve_sibling, self.ancestors)
        e.row_getter = self.row_getter  # same scope, same parent rows
        return e


def context_value(prefs: dict | None, parts: list[str]):
    """The value a global (``$``) ref names in ``prefs.context``, walked
    key by key; KeyError when a key is unbound."""
    cur: Any = (prefs or {}).get("context") or {}
    for p in parts:
        if not (isinstance(cur, dict) and p in cur):
            raise KeyError(p)
        cur = cur[p]
    return cur


def _walk_ref_path(base, parts: list[str], n: int):
    """Walk remaining ref path segments into struct fields.  ``length`` is a
    virtual segment on list/string values (JS property access semantics,
    ref.js test:618-673); unknown segments resolve undefined (all-null).
    An AltView walks every piece, so each row reads its own value's path
    (ref.js:137-143)."""
    if parts and isinstance(base, AltView):
        return AltView(_walk_ref_path(base.base, parts, n),
                       [(m, _walk_ref_path(a, parts, n)) for m, a in base.pairs])
    cur = base
    for p in parts:
        if isinstance(cur, pa.ChunkedArray):
            cur = cur.combine_chunks()
        if isinstance(cur, (pa.Array, pa.ChunkedArray)):
            t = cur.type
            if pa.types.is_struct(t) and t.get_field_index(p) >= 0:
                cur = pc.struct_field(cur, p)
                continue
            if p == "length":
                if pa.types.is_list(t) or pa.types.is_large_list(t):
                    cur = pc.list_value_length(cur).cast(pa.int64())
                    continue
                if pa.types.is_string(t) or pa.types.is_large_string(t):
                    cur = pc.utf8_length(cur).cast(pa.int64())
                    continue
            return pa.nulls(n)
        if isinstance(cur, dict) and p in cur:
            cur = cur[p]
            continue
        if p == "length" and isinstance(cur, (str, list, tuple)):
            cur = len(cur)
            continue
        return pa.nulls(n)
    return cur


def resolve_limit(limit, env: Env, n: int):
    """A rule limit may be a literal, a Ref, or a Template (Joi.x) ->
    (value_or_array, ctx_repr).  Template limits resolve per row (joi's
    Common.isResolvable rule args — validator.js:281-293); the context
    limit renders the template SOURCE like joi's any.ref display."""
    if isinstance(limit, Ref):
        return env.resolve_ref(limit, n), {"limit": limit.display}
    if hasattr(limit, "resolve_value"):  # kernels.template.Template
        return resolve_template_column(limit, env, n), {"limit": limit.display}
    return limit, {"limit": limit}


def resolve_template_column(tmpl, env: Env, n: int):
    """Per-row evaluation of a template against sibling refs — inherently
    row-wise (rare feature; bounded by the batch).

    Refs resolve like every other consumer's (errored siblings keep their
    raw original — a cast('string') key that failed its rules feeds the
    raw number into '{b * 2}', node-verified via fuzz seed 34467); a
    missing sibling is JS undefined inside the formula (NaN under
    arithmetic).  Each row keeps joi's value (template.js:150-159): a NaN
    stays NaN, so arg asserts fire any.ref and its report renders the
    RESOLVED value ('v=NaN on c' — fuzz seed 10004430); per-row results of
    different types come as an AltView."""
    from .template import _UNDEFINED

    cache: dict = {}

    def resolve(name, i):
        if name not in cache:
            cache[name] = env.resolve_ref(Ref(name), n)
        x = ref_cell(cache[name], i)
        return _UNDEFINED if x is None else x

    vals = []
    for i in range(n):
        try:
            x = tmpl.resolve_value(lambda name: resolve(name, i))
        except Exception:
            x = None
        vals.append(None if x is _UNDEFINED else x)  # undefined fails joi's arg asserts
    try:
        return pa.array(vals)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        pass
    # per-row heterogeneous results (a clean cast('string') sibling
    # concatenates, an errored one feeds its raw number): keep each row's
    # own TYPE through the AltView so consumers judge per row — strings
    # fail Common.isNumber, numbers compare (fuzz seed 32696,
    # node-verified)
    import datetime as _dt

    base = pa.array([x if isinstance(x, str) else None for x in vals], pa.string())
    pairs = []
    for is_t, conv, ty in ((lambda x: isinstance(x, (int, float)) and not isinstance(x, bool), float, pa.float64()),
                           (lambda x: isinstance(x, bool), bool, pa.bool_()),
                           (lambda x: isinstance(x, _dt.datetime), None, pa.timestamp("ms"))):
        m = np.array([is_t(x) for x in vals])
        if m.any():
            pairs.append((m, pa.array([(conv(x) if conv else x) if k else None for x, k in zip(vals, m)], ty)))
    return AltView(base, pairs)


#: per-arg-kind (assert, reason) mirroring the reference rule definitions:
#: number compare Common.isNumber (number.js:116), length limits
#: Common.limit (common.js:134, string/array/binary), date compare
#: normalize+assert (date.js:71-77)
_ARG_REASONS = {
    "number": "must be a number",
    "limit": "must be a positive integer",
    "date": "must have a valid date format",
}


def _ref_arg_check(lim, arg: str, n: int) -> tuple[pa.Array, np.ndarray]:
    """Validate a ref-resolved limit column against the rule's arg assert
    (lib/validator.js:281-293) -> (normalized_lim, bad_mask)."""
    t = lim.type
    is_num = pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t)
    if arg == "date":
        if pa.types.is_timestamp(t) or pa.types.is_date(t):
            return lim, as_bool_np(pc.is_null(lim), n)
        if is_num or pa.types.is_boolean(t):
            # epoch ms -> Date (date.js:172-226 internals.parse falls
            # through to new Date(value), and JS coerces booleans to 0/1 —
            # new Date(true) === epoch-1ms, a VALID date)
            lim = pc.cast(pc.cast(lim, pa.int64(), safe=False), pa.timestamp("ms"), safe=False)
            return lim, as_bool_np(pc.is_null(lim), n)
        if pa.types.is_string(t) or pa.types.is_large_string(t):
            # date.js normalize goes through internals.parse == the full
            # JS Date(string) model: numeric strings are ms-epoch, ISO
            # rolls the day over, then the legacy grammar
            from .scalars import js_parse_date_strings

            lim = js_parse_date_strings(lim)
            return lim, as_bool_np(pc.is_null(lim), n)
        if pa.types.is_list(t) or pa.types.is_large_list(t):
            # joi's gate runs isNaN(value) FIRST for non-strings
            # (date.js:178-182): Number([5]) === 5 passes, Number([1,2])
            # is NaN -> null -> any.ref.  Survivors go through new
            # Date(array) == the legacy STRING grammar of the ','-join
            # ([5] -> '5' -> May 2001; [] -> '' -> Invalid).
            import re as _re

            from .numbers import js_number_to_string
            from .scalars import js_parse_date_strings

            def el(x):
                if x is None:
                    return ""
                if isinstance(x, bool):
                    return "true" if x else "false"
                if isinstance(x, (int, float)):
                    return js_number_to_string(float(x))
                return str(x)

            num_gate = _re.compile(r"\s*[+-]?(\d+(\.\d+)?|\.\d+)?([eE][+-]?\d+)?\s*")
            joined = []
            for v in lim.to_pylist():
                j = None if v is None else ",".join(el(x) for x in v)
                joined.append(j if j is not None and num_gate.fullmatch(j) else None)
            lim = js_parse_date_strings(pa.array(joined, pa.string()), numeric="legacy")
            return lim, as_bool_np(pc.is_null(lim), n)
        if pa.types.is_binary(t) or pa.types.is_large_binary(t):
            # a Buffer skips joi's typeof-string numeric shortcut: isNaN
            # coerces it via toString (Number(Buffer('123')) === 123 so the
            # gate passes), then new Date(buffer) ALSO stringifies — V8's
            # legacy grammar, where '123' is the YEAR 123
            from .scalars import js_parse_date_strings

            # Buffer.toString() is a UTF-8 decode WITH replacement chars
            # (b'm\\xa7' -> 'm\\ufffd') — never an invalid-utf8 crash
            # (fuzz seed 133443: lenient base64 decodes feed date refs)
            txt = [None if b is None else b.decode("utf-8", "replace") for b in lim.to_pylist()]
            lim = js_parse_date_strings(pa.array(txt, pa.string()), numeric="legacy")
            return lim, as_bool_np(pc.is_null(lim), n)
        return pa.nulls(n), np.ones(n, dtype=bool)
    if not is_num or pa.types.is_boolean(t):
        # family mismatch: every row fails the assert; null the column so
        # the compare cast below can't crash on (e.g.) string -> float
        return pa.nulls(n), np.ones(n, dtype=bool)
    bad = as_bool_np(pc.is_null(lim), n)
    if pa.types.is_floating(t):
        fl = lim.to_numpy(zero_copy_only=False)
        with np.errstate(invalid="ignore"):
            bad |= np.isnan(fl)
            if arg == "limit":
                bad |= ~((np.floor(fl) == fl) & (fl >= 0) & (fl <= 2**53 - 1))
    elif arg == "limit":
        iv = lim.to_numpy(zero_copy_only=False)
        bad |= ~((iv >= 0) & (iv <= 2**53 - 1))
    return lim, bad


def _scalar_ref_arg_ok(v, arg: str) -> bool:
    import datetime as _dt
    import math as _math

    if v is None:
        return False
    if arg == "date":
        if isinstance(v, (_dt.datetime, _dt.date)):
            return True
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return not (isinstance(v, float) and _math.isnan(v))
        if isinstance(v, str):
            import pandas as pd

            return not pd.isna(pd.to_datetime(v, errors="coerce", utc=True))
        return False
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    if isinstance(v, float) and (_math.isnan(v) or _math.isinf(v)):
        return False
    if arg == "limit":
        return float(v).is_integer() and 0 <= v <= 2**53 - 1
    return True


def _align_compare_types(arr, lim):
    """Bring a value column and a ref-resolved limit column to a common
    comparable type.  Numeric pairs widen to float64 — joi compares JS
    numbers, and downcasting a 1e10 limit into an int32 length column
    would wrap and flip the comparison."""
    if lim.type == arr.type:
        return arr, lim

    def _num(t):
        return pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t)

    if _num(arr.type) and _num(lim.type):
        f64 = pa.float64()
        return (
            arr if arr.type == f64 else pc.cast(arr, f64, safe=False),
            lim if lim.type == f64 else pc.cast(lim, f64, safe=False),
        )
    try:
        return arr, pc.cast(lim, arr.type)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        return arr, pc.cast(lim, arr.type, safe=False)


def cmp_mask(arr, op: str, limit, env: Env, arg: str = "number") -> tuple[np.ndarray, dict]:
    """Shared compare kernel (the analog of ``lib/types/number.js:102-120``
    and ``lib/types/date.js:56-79``): vectorized column-vs-scalar or
    column-vs-column comparison; Ref limits become sibling columns.

    When the limit is a Ref, joi validates the per-row resolved value
    against the rule's arg assert and raises ``any.ref`` instead of the
    rule error (lib/validator.js:281-293); the offending mask travels back
    in ``ctx["__ref_err__"]`` for the rules loop to emit."""
    n = len(arr)
    lim, ctx = resolve_limit(limit, env, n)
    fn = {"ge": pc.greater_equal, "le": pc.less_equal, "gt": pc.greater, "lt": pc.less, "eq": pc.equal}[op]
    err_ctx = {"arg": "date" if arg == "date" else "limit", "ref": getattr(limit, "display", None),
               "reason": _ARG_REASONS[arg]}
    if isinstance(lim, (pa.Array, pa.ChunkedArray, AltView)):
        # joi validates each row's resolved value (converted or shadow for
        # clean siblings, the RAW original for errored ones —
        # object.js:125-140) against the arg assert, and the TYPE of each
        # piece picks its own semantics (a cast('string') key fails
        # Common.limit on clean rows while its raw float passes on failed
        # rows; a Buffer '123' legacy-parses to year 123 while the string
        # '123' is epoch 123)
        ok = np.ones(n, dtype=bool)
        refbad = np.zeros(n, dtype=bool)
        for rows, col in ref_parts(lim, n):
            lim_i, bad_i = _ref_arg_check(col, arg, n)
            arr_i, lim_i = _align_compare_types(arr, lim_i)
            ok = np.where(rows, as_bool_np(fn(arr_i, lim_i), n, fill=True), ok)
            refbad |= rows & bad_i
        if refbad.any():
            # joi's any.ref report VALUE is the RESOLVED (pre-normalize)
            # arg (validator.js:289 $_createError('any.ref', resolved,
            # ...)) — custom {[.]} messages render it per row
            cells = []
            for i in np.nonzero(refbad)[0]:
                try:
                    cells.append(ref_cell(lim, int(i)))
                except Exception:
                    cells.append(None)
            ctx["__ref_err__"] = (refbad, err_ctx, cells)
        return ok, ctx
    if isinstance(limit, Ref) and not _scalar_ref_arg_ok(lim, arg):
        # scalar resolution (context refs): same assert, whole batch
        ctx["__ref_err__"] = (np.ones(n, dtype=bool), err_ctx, [lim] * int(n))
        lim = None
    ok = as_bool_np(fn(arr, lim), n, fill=True)  # null limit/val -> pass (skipped by active)
    return ok, ctx
