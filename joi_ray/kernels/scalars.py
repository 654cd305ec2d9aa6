"""Boolean, date, and binary kernels.

References: boolean ``/root/reference/lib/types/boolean.js`` (146 LoC),
date ``lib/types/date.js`` (226 LoC), binary ``lib/types/binary.js`` (108
LoC).  Date comparisons support ``'now'`` bound once at compile time
(prefs["now_ms"]) for determinism across workers, per SURVEY.md §2.3.
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .numbers import parse_number
from .strings import _NAT, _days_from_civil, _js_iso_parse_ms, iso_dates_ms, iso_ms, pandas_ms
from .template import _js_to_number
from .util import Env, RuleOut, as_bool_np, cmp_mask, distinct_strings

# --------------------------------------------------------------------------
# boolean


def coerce_boolean(arr: pa.Array, env: Env, terms: dict, flags: dict):
    """'true'/'false' (+ user truthy/falsy sets, case-insensitive when the
    insensitive flag is set) -> bool (``boolean.js:34-51,65-97``)."""
    n = len(arr)
    if pa.types.is_boolean(arr.type):
        return arr, np.zeros(n, dtype=bool)
    if not env.convert:
        return arr, ~as_bool_np(pc.is_null(arr), n)
    truthy = list(terms.get("truthy", []))
    falsy = list(terms.get("falsy", []))
    insensitive = flags.get("insensitive", True)

    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        cmp = pc.utf8_lower(arr) if insensitive else arr
        t_set = [str(v).lower() if insensitive else str(v) for v in truthy + ["true"]]
        f_set = [str(v).lower() if insensitive else str(v) for v in falsy + ["false"]]
        is_t = as_bool_np(pc.is_in(cmp, value_set=pa.array(t_set)), n)
        is_f = as_bool_np(pc.is_in(cmp, value_set=pa.array(f_set)), n)
    elif pa.types.is_integer(arr.type) or pa.types.is_floating(arr.type):
        t_num = [v for v in truthy if isinstance(v, (int, float))]
        f_num = [v for v in falsy if isinstance(v, (int, float))]
        is_t = as_bool_np(pc.is_in(arr, value_set=pa.array(t_num, type=arr.type)), n) if t_num else np.zeros(n, bool)
        is_f = as_bool_np(pc.is_in(arr, value_set=pa.array(f_num, type=arr.type)), n) if f_num else np.zeros(n, bool)
    else:
        return arr, ~as_bool_np(pc.is_null(arr), n)

    was_null = as_bool_np(pc.is_null(arr), n)
    fail = ~(is_t | is_f) & ~was_null
    vals = np.where(is_t, True, False)
    out = pa.array(vals, type=pa.bool_(), mask=(was_null | fail))
    return out, fail


# --------------------------------------------------------------------------
# date


def coerce_date(arr: pa.Array, env: Env, flags: dict):
    """number/string -> timestamp[ms] honoring the format flag
    (iso / 'ms' javascript epoch / 's' unix epoch — ``date.js:172-215``).
    Each distinct string is parsed once."""
    n = len(arr)
    ts = pa.timestamp("ms")
    if pa.types.is_timestamp(arr.type):
        return pc.cast(arr, ts, safe=False), np.zeros(n, dtype=bool)
    if pa.types.is_date(arr.type):
        return pc.cast(arr, ts), np.zeros(n, dtype=bool)
    if not env.convert:
        return arr, ~as_bool_np(pc.is_null(arr), n)
    fmt = flags.get("format")
    was_null = as_bool_np(pc.is_null(arr), n)
    if pa.types.is_integer(arr.type) or pa.types.is_floating(arr.type):
        if fmt == "iso":
            # date().iso() requires ISO strings; numeric input is a format
            # error (date.js:81-88)
            return arr, ~was_null
        unit_mult = 1000 if fmt == "s" else 1
        ms = pc.multiply(pc.cast(arr, pa.int64(), safe=False), unit_mult)
        out = pc.cast(ms, ts)
        return out, np.zeros(n, dtype=bool)
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        codes, values = distinct_strings(arr)
        null_ms = _NAT
        if fmt == "iso":
            # date().iso() mirrors the string.isoDate convert model
            # (date.js:81-88: Common.isIsoDate regex AND new Date())
            ms, null_ms = iso_dates_ms(values), 0
        elif fmt in ("ms", "s"):
            # timestamp formats multiply the JS ToNumber of the string
            # (date.js:195-208: `value * mult` — scientific notation and
            # radix literals included, Number('0x1f') = 31; whitespace-only
            # is null).  ISO parses never apply.
            mult = 1000 if fmt == "s" else 1
            ms = [_time_clip(_js_to_number(v) * mult) if v.strip() else None for v in values]
        else:
            ms = _js_dates_ms(values)
        out = _timestamps(ms, codes, null_ms)
        return out, as_bool_np(pc.is_null(out), n) & ~was_null
    return arr, ~was_null


def _timestamps(ms: list, codes: np.ndarray, null_ms: int = _NAT) -> pa.Array:
    """Per-distinct epoch ms (None: Invalid Date) broadcast to the rows as
    timestamp[ms]; a null slot holds ``null_ms`` (NaT, as Arrow's
    from_pandas conversion leaves it, unless the caller says otherwise)."""
    vals = np.array([null_ms if v is None else v for v in ms] + [null_ms], dtype=np.int64)[codes]
    valid = np.array([v is not None for v in ms] + [False])[codes]
    return pa.Array.from_buffers(pa.timestamp("ms"), len(codes), [
        pa.py_buffer(np.packbits(valid, bitorder="little").tobytes()), pa.py_buffer(vals.tobytes())])


def _time_clip(v: float):
    """ECMA-262 TimeClip: NaN or beyond ±8.64e15 ms is Invalid Date (None),
    anything else truncates toward zero."""
    if not abs(v) <= 8.64e15:
        return None
    return int(v)


_JS_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]

#: JS Date output forms: 'Thu Jan 01 1970[ 00:00:00 GMT+0000[ (zone)]]',
#: 'Thu, 01 Jan 1970 00:00:00 GMT', '[weekday ]Mon DD YYYY' / 'DD Mon YYYY'
_JS_DATE_OUT_RX = re.compile(
    r"(?:(?:Sun|Mon|Tue|Wed|Thu|Fri|Sat),?\s+)?"
    r"(?:(?P<mon>Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+(?P<day>\d{1,2})"
    r"|(?P<day2>\d{1,2})\s+(?P<mon2>Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec))"
    r"\s+(?P<year>-?\d{1,6})"  # negative years match and REJECT (V8 Invalid)
    r"(?:\s+(?P<hh>\d{2}):(?P<mm>\d{2}):(?P<ss>\d{2})"
    r"(?:\s+(?:GMT|UTC)(?P<off>[+-]\d{4})?)?)?"
    r"(?:\s+\([^)]*\))?"
)
#: joi's typeof-string epoch shortcut (date.js:195-200); JS \d is ASCII
_NUMERIC_EPOCH = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+)?")
#: signed or decimal digits, which the bare new Date(string) path never reads as ISO
_SIGNED_OR_DECIMAL = re.compile(r"[+-]\d+(\.\d+)?|\d+\.\d+")
_ZONE_NAME = re.compile(r"\s+(UTC|GMT)\s*$", re.IGNORECASE)
_V8_DIGITS = re.compile(r"[+-]?([0-9]+)(?:\.([0-9]+))?")


def js_parse_date_strings(arr, numeric: str = "epoch") -> pa.Array:
    """JS date model over a string column -> timestamp[ms], one parse per
    distinct string.

    numeric="epoch" is joi's internals.parse for typeof string: a numeric
    string (/^[+-]?\\d+(\\.\\d+)?$/, NO exponent) is parseFloat -> epoch ms
    (date.js:195-200), everything else `new Date(string)`.

    numeric="legacy" is the bare `new Date(string)` constructor — the path
    a ref-resolved BUFFER takes (typeof object skips the numeric shortcut,
    new Date coerces via toString into V8's legacy grammar where '123' is
    the YEAR 123).  3-6 pure digits -> year; V8's month-only ('12') and
    decimal ('12.5') forms stay Invalid here (documented corner)."""
    codes, values = distinct_strings(arr)
    return _timestamps(_js_dates_ms(values, numeric_epoch=(numeric == "epoch")), codes)


def _js_dates_ms(values: list, numeric_epoch: bool = True) -> list:
    """The JS Date of each distinct string as epoch ms, None for Invalid
    Date: numeric epoch strings when joi's typeof-string shortcut applies,
    the ISO parsers (``iso_ms``), then for the rest the legacy grammar
    (``_js_legacy_ms``)."""
    out = [None] * len(values)
    dated = []
    for i, v in enumerate(values):
        if numeric_epoch and _NUMERIC_EPOCH.fullmatch(v):
            # JS Date range is ±8.64e15 ms; beyond it (or inf) -> Invalid
            out[i] = _time_clip(parse_number(v))
        else:
            dated.append(i)
    # the bare new Date(string) path (ref-resolved Buffers) has no epoch
    # shortcut: digits fall to V8's month/year grammar; signed/decimal
    # forms skip the ISO parse (documented corner)
    iso = [i for i in dated if numeric_epoch or not _SIGNED_OR_DECIMAL.fullmatch(values[i])]
    for i, ms in zip(iso, iso_ms([values[i] for i in iso])):
        out[i] = ms
    residual = [i for i in dated if out[i] is None]
    texts = [values[i] for i in residual]
    free = pandas_ms(texts, "mixed")
    # a trailing UTC/GMT zone name trips dateutil on digit-dash forms
    # ('1-1-2013 UTC'); strip and re-parse
    retry = [k for k, t in enumerate(texts) if free[k] is None and _ZONE_NAME.search(t)]
    for k, ms in zip(retry, pandas_ms([_ZONE_NAME.sub("", texts[k]) for k in retry], "mixed")):
        free[k] = ms
    for i, t, ms in zip(residual, texts, free):
        out[i] = _js_legacy_ms(t.strip(), ms)
    return out


def _js_legacy_ms(raw: str, free):
    """One string through V8's legacy Date grammar, given what pandas'
    free-form parser made of it (``free``, epoch ms or None; documented:
    V8 and pandas disagree on exotic forms)."""
    # JS Date OUTPUT forms (toString / toDateString / toUTCString — incl.
    # the parenthesized zone comment, years beyond pandas' ns range, and
    # day rollover 'Apr 31' -> May 1): a cast('string') date ref must
    # round-trip to the same instant (fuzz seed 86726).  dateutil mis-reads
    # 'GMT+0130' POSIX-inverted and accepts the negative years V8 rejects,
    # so OVERRIDE whatever pandas made of a string of this shape (all
    # node-verified).
    mjs = _JS_DATE_OUT_RX.fullmatch(raw)
    if mjs is not None:
        free = _js_date_out_ms(mjs.groupdict())
    if free is not None:
        return free
    # V8 parses ISO-shaped strings itself before the legacy grammar,
    # rolling an out-of-range day forward ('2019-02-30' -> Mar 2); pandas
    # rejects those, so re-parse with the JS model (expanded years / 24:00
    # / day rollover).  Bare digit strings that reach the legacy grammar
    # are a MONTH ('7' -> July 2001, '0' -> Jan 2000) or a YEAR ('123' ->
    # 0123-01-01) — V8 dateparser semantics, verified under node.
    r = _js_iso_parse_ms(raw)
    mnum = _V8_DIGITS.fullmatch(raw) if r is None else None
    if mnum is None:
        return r
    a, b = int(mnum.group(1)), mnum.group(2)
    if b is None:
        # bare number (sign ignored): 0 -> Jan 2000, 1-12 -> that month
        # of 2001, 3-6 digits -> year
        if a == 0:
            return _days_from_civil(2000, 1, 1) * 86400000
        if a <= 12:
            return _days_from_civil(2001, a, 1) * 86400000
        if 100 <= a <= 999999:
            return _days_from_civil(a, 1, 1) * 86400000
        return None
    # A.B decimal grammar: month.day of 2001 with day rollover ('2.29' ->
    # Mar 1); '0.B' -> month B of 2000; B==0 -> Invalid — all verified
    # under node
    b = int(b)
    if b == 0:
        return None
    if a == 0 and 1 <= b <= 12:
        return _days_from_civil(2000, b, 1) * 86400000
    if 1 <= a <= 12 and 1 <= b <= 31:
        return _days_from_civil(2001, a, b) * 86400000
    return None


def _js_date_out_ms(g: dict):
    """Epoch ms of a JS Date output form (``_JS_DATE_OUT_RX`` groups), None
    for what V8 rejects."""
    mon = _JS_MONTHS.index(g["mon"] or g["mon2"]) + 1
    day = int(g["day"] or g["day2"])
    yraw = g["year"]
    if yraw.startswith("-") or not 1 <= day <= 31:
        return None
    y = int(yraw)
    if y < 100:
        # V8 windows SMALL years by VALUE, leading zeros included ('0099'
        # -> 1999): 0-49 -> 2000s, 50-99 -> 1900s — so even V8 cannot
        # round-trip a year-99 toUTCString (node-verified)
        y += 2000 if y < 50 else 1900
    rv = _days_from_civil(y, mon, day) * 86400000
    if g["hh"]:
        rv += (int(g["hh"]) * 3600 + int(g["mm"]) * 60 + int(g["ss"])) * 1000
    if g["off"]:
        sign = -1 if g["off"][0] == "+" else 1
        rv += sign * (int(g["off"][1:3]) * 3600 + int(g["off"][3:5]) * 60) * 1000
    return None if abs(rv) > 8.64e15 else rv


def _date_limit(limit, env: Env):
    if limit == "now":
        return env.prefs.get("now_ms", 0), {"limit": "now"}
    if hasattr(limit, "kind"):  # Ref
        return limit, {"limit": limit.display}
    if isinstance(limit, str):
        # joi normalizes date limits to Date objects at rule creation
        # (date.js compare args), so the error context renders the ISO
        # form ("2019-06-01T00:00:00.000Z"), not the source string
        ms = _date_limit_ms(limit)
        return ms, {"limit": _ms_to_dt(ms)}
    return int(limit), {"limit": _ms_to_dt(int(limit))}


@functools.lru_cache(maxsize=256)
def _date_limit_ms(limit: str) -> int:
    """A literal date limit as epoch ms, parsed once per string."""
    ms = pandas_ms([limit], "mixed")[0]
    if ms is None:
        # outside pandas' ns range (years <1677 / >2262) but a valid JS
        # Date — parse through the ISO grammar directly
        ms = _js_iso_parse_ms(limit)
        if ms is None:
            raise ValueError(f"invalid date limit {limit!r}")
    return ms


def _ms_to_dt(ms: int):
    from datetime import datetime, timezone

    try:
        return datetime.fromtimestamp(ms / 1000, tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        # epoch-ms inside the JS Date range (±8.64e15) but outside Python's
        # datetime years 1-9999 (e.g. date().max(3e14) = year 11479): fall
        # back to the JS toISOString text so the schema still compiles and
        # the error context renders exactly what joi would
        from .strings import _js_iso_format

        return _js_iso_format(int(ms))


def make_date_compare(op: str):
    def factory(args):
        limit = args["limit"]

        def kernel(arr, env: Env) -> RuleOut:
            lim, ctx = _date_limit(limit, env)
            ints = pc.cast(arr, pa.int64())
            if hasattr(lim, "kind"):
                ok, ctx2 = cmp_mask(arr, op, lim, env, arg="date")
            else:
                ok, ctx2 = cmp_mask(ints, op, lim, env, arg="date")
            # the ref-arg assert failure mask must survive into the rules
            # loop (any.ref, validator.js:281-293) — ctx is otherwise ours
            if "__ref_err__" in ctx2:
                ctx = {**ctx, "__ref_err__": ctx2["__ref_err__"]}
            return RuleOut(ok=ok, context=ctx)

        return kernel

    return factory


DATE_FACTORIES = {
    "min": make_date_compare("ge"),
    "max": make_date_compare("le"),
    "greater": make_date_compare("gt"),
    "less": make_date_compare("lt"),
}


# --------------------------------------------------------------------------
# binary


_B64_VALUES = {c: i for i, c in enumerate(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/")}
_B64_VALUES["-"] = 62  # Node accepts the urlsafe alphabet interchangeably
_B64_VALUES["_"] = 63


def coerce_binary(arr: pa.Array, env: Env, flags: dict):
    """string -> bytes with the encoding flag (utf-8 zero-ish-copy cast;
    base64 / hex decoded per cell — ``binary.js:18-27,41-48``)."""
    n = len(arr)
    if pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type) or pa.types.is_fixed_size_binary(arr.type):
        return arr, np.zeros(n, dtype=bool)
    if not env.convert:
        return arr, ~as_bool_np(pc.is_null(arr), n)
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        enc = flags.get("encoding", "utf-8")
        if enc in ("utf-8", "utf8"):
            return pc.cast(arr, pa.binary()), np.zeros(n, dtype=bool)
        # Node Buffer.from(str, enc) semantics — LENIENT, never throws
        # (node-verified): base64 ignores invalid chars, accepts the
        # urlsafe alphabet, stops at the first '=', truncates incomplete
        # sextet groups; hex decodes pairs until the first invalid char;
        # ascii/latin1 mask codepoints & 0xFF.  joi therefore never emits
        # binary.base for a string input under an encoding flag (fuzz
        # seeds 6200002-6200007 family).
        def _node_b64(s: str) -> bytes:
            eq = s.find("=")
            if eq != -1:
                s = s[:eq]
            out = bytearray()
            acc = bits = 0
            for ch in s:
                v = _B64_VALUES.get(ch)
                if v is None:
                    continue
                acc = (acc << 6) | v
                bits += 6
                if bits >= 8:
                    bits -= 8
                    out.append((acc >> bits) & 0xFF)
            return bytes(out)

        def _node_hex(s: str) -> bytes:
            out = bytearray()
            i = 0
            while i + 1 < len(s):
                try:
                    out.append(int(s[i:i + 2], 16))
                except ValueError:
                    break
                i += 2
            return bytes(out)

        codecs = {
            "base64": _node_b64,
            "hex": _node_hex,
            "ascii": lambda s: bytes(ord(c) & 0xFF for c in s),
            "latin1": lambda s: bytes(ord(c) & 0xFF for c in s),
            "binary": lambda s: bytes(ord(c) & 0xFF for c in s),
            "utf16le": lambda s: s.encode("utf-16-le"),
            "ucs2": lambda s: s.encode("utf-16-le"),
            "ucs-2": lambda s: s.encode("utf-16-le"),
        }
        decode = codecs.get(enc, _node_hex)
        vals, fail = [], np.zeros(n, dtype=bool)
        py = arr.to_pylist()
        for i, s in enumerate(py):
            if s is None:
                vals.append(None)
                continue
            try:
                vals.append(decode(s))
            except Exception:
                vals.append(None)
                fail[i] = True
        return pa.array(vals, type=pa.binary()), fail
    return arr, ~as_bool_np(pc.is_null(arr), n)


def make_binary_compare(op: str, eq: bool = False):
    def factory(args):
        limit = args["limit"]

        def kernel(arr, env: Env) -> RuleOut:
            ok, ctx = cmp_mask(pc.binary_length(arr), "eq" if eq else op, limit, env, arg="limit")
            return RuleOut(ok=ok, context=ctx)

        return kernel

    return factory


BINARY_FACTORIES = {
    "min": make_binary_compare("ge"),
    "max": make_binary_compare("le"),
    "length": make_binary_compare("eq", eq=True),
}
