"""Vectorized number rule kernels (reference: ``/root/reference/lib/types/
number.js``, 330 LoC).  The shared compare kernel (``number.js:102-120``)
is ``util.cmp_mask`` — it powers min/max/greater/less with literal or
Ref-valued limits (column-vs-column compare)."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .util import AltView, Env, RuleOut, as_bool_np, cmp_mask, distinct_strings, ref_parts

MAX_SAFE = 2**53 - 1

# joi's string->number gate (number.js:10): anything else — 'Infinity',
# 'NaN', hex, empty/blank — is NOT coerced and fails the base type check.
# JS \d is ASCII, so the digits are [0-9] (Python's \d takes '٣')
NUMBER_RX = r"^\s*[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?)|(?:\.[0-9]+))(?:[eE][+-]?[0-9]+)?\s*$"
_NUMBER = re.compile(NUMBER_RX)


def js_number_to_string(v: float) -> str:
    """ECMA-262 Number::toString(10): shortest round-trip digits, fixed
    notation for 1e-6 <= |v| < 1e21, exponent notation outside."""
    import math

    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    if v == 0:
        return "0"
    sign = "-" if v < 0 else ""
    # repr gives the same shortest round-trip digits, as whole.frac[e±exp]
    mant, _, exp = repr(abs(v)).partition("e")
    whole, _, frac = mant.partition(".")
    digits = (whole + frac).lstrip("0")
    s = digits.rstrip("0")
    # value = 0.s * 10^npos  (npos = decimal point position)
    npos = len(digits) + (int(exp) if exp else 0) - len(frac)
    k = len(s)
    if k <= npos <= 21:
        body = s + "0" * (npos - k)
    elif 0 < npos <= 21:
        body = s[:npos] + "." + s[npos:]
    elif -6 < npos <= 0:
        body = "0." + "0" * (-npos) + s
    elif k == 1:
        body = s + "e" + ("+" if npos - 1 >= 0 else "-") + str(abs(npos - 1))
    else:
        body = s[0] + "." + s[1:] + "e" + ("+" if npos - 1 >= 0 else "-") + str(abs(npos - 1))
    return sign + body


def _substitute(s: str, rules) -> str:
    for rx, repl in rules:
        s = rx.sub(repl, s, count=1)
    return s


_EXPONENT_RULES = tuple((re.compile(p), r) for p, r in (
    (r"\.(\d*[1-9])?0+e", r".\1e"), (r"\.e", "e"), (r"e\+", "e"), (r"^\+", ""),
    (r"^(-?)0+([1-9])", r"\1\2")))
_DECIMAL_RULES = tuple((re.compile(p), r) for p, r in (
    (r"^\+", ""), (r"\.0+$", ""), (r"^(-?)\.([^\.]*)$", r"\g<1>0.\2"),
    (r"^(-?)0+([1-9])", r"\1\2")))
_TRAILING_ZEROS = re.compile(r"0+$")
_EXPONENT = re.compile(r"[eE]([+-]?\d+)")


def _normalize_exponent(s: str) -> str:
    """number.js:302-310."""
    return _substitute(s, _EXPONENT_RULES)


def _normalize_decimal(s: str) -> str:
    """number.js:313-329."""
    s = _substitute(s, _DECIMAL_RULES)
    if "." in s and s.endswith("0"):
        s = _TRAILING_ZEROS.sub("", s, count=1)
    return s


def parse_number(s: str):
    """joi's string -> number parse of one string (number.js:28-38): None
    when the numberRx gate rejects it, else parseFloat of the trimmed text.
    ``float`` rounds correctly and overflows to ±inf like parseFloat; -0
    reads 0 (number.js: ``if (result.value === 0) result.value = 0``)."""
    if _NUMBER.match(s) is None:
        return None
    return float(s) or 0.0


def parse_strings(arr: pa.Array) -> np.ndarray:
    """float64 per row of a string column: ``parse_number`` of each
    distinct value, NaN where it is null or the gate rejects it."""
    codes, values = distinct_strings(arr)
    parsed = [parse_number(v) for v in values]
    return np.array([np.nan if v is None else v for v in parsed] + [np.nan])[codes]


def coerce(arr: pa.Array, env: Env, flags: dict):
    """string -> number parse mirroring joi's coerce (number.js:28-63):
    the numberRx gate, parseFloat, and — unless the unsafe flag — the
    round-trip fidelity check that flags silent precision loss as
    number.unsafe AT COERCE TIME (which aborts before rules).  Each
    distinct string is decided once.
    Returns (new_arr, base_fail_mask, coerce_errs)."""
    n = len(arr)
    if pa.types.is_floating(arr.type) or pa.types.is_integer(arr.type) or pa.types.is_decimal(arr.type):
        return arr, np.zeros(n, dtype=bool), []
    if not env.convert or not (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)):
        return arr, ~as_bool_np(pc.is_null(arr), n), []
    codes, values = distinct_strings(arr)
    parsed = [parse_number(v) for v in values]
    # a null slot holds NaN, as Arrow's from_pandas conversion leaves it
    out = pa.array(np.array([np.nan if v is None else v for v in parsed] + [np.nan])[codes],
                   type=pa.float64(), from_pandas=True)
    fail = np.array([v is None for v in parsed] + [False])[codes]
    coerce_errs = []
    if not flags.get("unsafe"):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            unsafe = [v is not None and _roundtrip_unsafe(s.strip(), v) for s, v in zip(values, parsed)]
        unsafe = np.array(unsafe + [False])[codes]
        if unsafe.any():
            coerce_errs.append(("number.unsafe", unsafe))
    return out, fail, coerce_errs


def _roundtrip_unsafe(text: str, v: float) -> bool:
    """number.js:40-58: a numeric string is unsafe when its parsed double
    does not reproduce the written digits (normalized)."""
    m = _EXPONENT.search(text)
    if m is not None:
        # exponent form: rebuild `${value / 10^exp}e${exp}` and compare
        # (|exp| past 1000 gives the same inf or 0 power as the exponent)
        ex = m.group(1)
        p = np.power(np.float64(10.0), np.float64(min(max(int(ex), -1000), 1000)))
        rebuilt = f"{js_number_to_string(float(np.float64(v) / p))}e{ex}"
        return _normalize_exponent(rebuilt) != _normalize_exponent(text)
    # toString in exponent form (>=1e21 / <1e-6) skips the check
    # (number.js:49-51); toString's own form is already normalized
    js = js_number_to_string(v)
    return "e" not in js and js != text and js != _normalize_decimal(text)


def base_check(arr: pa.Array, env: Env, flags: dict):
    """Reject NaN / ±Infinity, unsafe magnitude (``number.js:67-96``),
    and apply precision rounding in convert mode."""
    n = len(arr)
    errs = []
    if pa.types.is_floating(arr.type):
        nan = as_bool_np(pc.is_nan(arr), n)
        inf = as_bool_np(pc.is_inf(arr), n)
        if nan.any():
            errs.append(("number.base", nan, {}))
        if inf.any():
            errs.append(("number.infinity", inf, {}))
        if not flags.get("unsafe"):
            finite = ~(nan | inf)
            absv = pc.abs(arr)
            unsafe = as_bool_np(pc.greater(absv, MAX_SAFE), n) & finite
            if unsafe.any():
                errs.append(("number.unsafe", unsafe, {}))
    return arr, errs


def make_compare(op: str):
    def factory(args):
        limit = args["limit"]

        def kernel(arr, env: Env) -> RuleOut:
            ok, ctx = cmp_mask(arr, op, limit, env)
            return RuleOut(ok=ok, context=ctx)

        return kernel

    return factory


def make_integer(args):
    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        if pa.types.is_integer(arr.type):
            return RuleOut(ok=np.ones(n, dtype=bool))
        ok = as_bool_np(pc.equal(arr, pc.floor(arr)), n, fill=True)
        return RuleOut(ok=ok)

    return kernel


def make_multiple(args):
    base = args["base"]

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        b, ctx = (env.resolve_ref(base, n), {"multiple": base.display}) if hasattr(base, "kind") else (base, {"multiple": base})
        v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
        if isinstance(b, (pa.Array, pa.ChunkedArray, AltView)):
            # the base per row, each piece through its own type: numbers
            # keep their value, anything else (a string, a Buffer, null)
            # fails the ref arg assert like undefined
            bv = np.full(n, np.nan)
            for rows, ba in ref_parts(b, n):
                t = ba.type
                if pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t):
                    bv = np.where(rows, ba.cast(pa.float64(), safe=False).to_numpy(zero_copy_only=False), bv)
            b = bv
            with np.errstate(invalid="ignore"):
                refbad = ~(np.isfinite(b) & (b > 0))
            if refbad.any():
                # ref arg assert (number.js:178-184): finite positive number,
                # else any.ref fires instead (validator.js:281-293)
                ctx["__ref_err__"] = (
                    refbad,
                    {"arg": "base", "ref": base.display, "reason": "must be a positive number"},
                )
        elif hasattr(base, "kind"):  # scalar resolution (context refs)
            okb = isinstance(b, (int, float)) and not isinstance(b, bool) and np.isfinite(b) and b > 0
            if not okb:
                ctx["__ref_err__"] = (
                    np.ones(n, dtype=bool),
                    {"arg": "base", "ref": base.display, "reason": "must be a positive number"},
                )
                b = np.nan
        with np.errstate(invalid="ignore", divide="ignore"):
            rem = np.mod(v, b)
            ok = np.isclose(rem, 0) | np.isclose(rem, b) | np.isnan(v)
        return RuleOut(ok=ok, context=ctx)

    return kernel


def make_port(args):
    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        ge = as_bool_np(pc.greater_equal(arr, 0), n, fill=True)
        le = as_bool_np(pc.less_equal(arr, 65535), n, fill=True)
        if pa.types.is_integer(arr.type):
            integral = np.ones(n, dtype=bool)
        else:
            integral = as_bool_np(pc.equal(arr, pc.floor(arr)), n, fill=True)
        return RuleOut(ok=ge & le & integral)

    return kernel


def make_sign(args):
    sign = args["sign"]

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        if sign == "positive":
            ok = as_bool_np(pc.greater(arr, 0), n, fill=True)
        else:
            ok = as_bool_np(pc.less(arr, 0), n, fill=True)
        return RuleOut(ok=ok)

    return kernel


def sign_code(args) -> str:
    return "number.positive" if args["sign"] == "positive" else "number.negative"


def make_precision(args):
    limit = int(args["limit"])

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        if pa.types.is_integer(arr.type):
            return RuleOut(ok=np.ones(n, dtype=bool), context={"limit": limit})
        # bit-exact with the reference's Math.round(v * 10^p) / 10^p
        # (number.js:84-85): float64 scaling first (0.12345 * 1e4 ->
        # 1234.5000000000002 -> 1235), JS half-up via floor(x + 0.5)
        v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
        scale = float(10 ** limit)
        with np.errstate(invalid="ignore"):
            rounded_np = np.floor(v * scale + 0.5) / scale
        rounded = pa.array(rounded_np, type=pa.float64(), from_pandas=True)
        if env.convert:
            # convert mode rewrites (number.js:78-85)
            return RuleOut(ok=np.ones(n, dtype=bool), new_value=rounded, context={"limit": limit})
        ok = as_bool_np(pc.equal(arr, rounded), n, fill=True)
        return RuleOut(ok=ok, context={"limit": limit})

    return kernel


FACTORIES = {
    "min": make_compare("ge"),
    "max": make_compare("le"),
    "greater": make_compare("gt"),
    "less": make_compare("lt"),
    "integer": make_integer,
    "multiple": make_multiple,
    "port": make_port,
    "sign": make_sign,
    "precision": make_precision,
}

CODES = {"sign": sign_code}
