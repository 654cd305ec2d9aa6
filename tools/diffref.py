"""Differential harness: run the REFERENCE joi (via node + tools/refshim)
and joi_ray over the same (schema manifest, rows, prefs) and diff results.

The reference process is long-lived (one node spawn per harness), speaking
line-delimited JSON over stdio (see tools/refshim/refrunner.js for the
marker conventions that carry undefined/NaN/Date/Buffer through JSON).

Usage:
    ref = RefJoi()
    devs = diff_case(ref, schema, rows, col_types, prefs={...})
    # devs == []  <=>  parity on ok-mask, error (path, code) sets,
    #                  messages, warnings, and converted values.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
from datetime import datetime, timezone

import pyarrow as pa

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(REPO, "tools", "refshim", "refrunner.js")
SHIM_PATH = os.path.join(REPO, "tools", "refshim", "node_modules")

#: sentinel for "key absent from this row" (joi: undefined)
MISSING = object()


def node_available() -> bool:
    try:
        subprocess.run(["node", "--version"], capture_output=True, timeout=10)
        return True
    except Exception:
        return False


class RefJoi:
    """Long-lived reference-joi subprocess."""

    def __init__(self):
        env = dict(os.environ, NODE_PATH=SHIM_PATH)
        self.proc = subprocess.Popen(
            ["node", RUNNER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        self._id = 0

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)

    def validate(
        self,
        manifest: dict | None,
        rows: list,
        prefs: dict | None = None,
        spec: dict | None = None,
    ) -> list[dict]:
        """rows: list of dicts of python values (MISSING drops the key).
        Returns per-row {'value','errors','warnings'} with markers decoded.
        Pass either a describe() `manifest` (consumed by Joi.build) or a
        builder-call `spec` (replayed through the public Joi API)."""
        self._id += 1
        req = {
            "id": self._id,
            "manifest": manifest,
            "prefs": _to_marker(prefs or {}),
            "rows": [_row_to_marker(r) for r in rows],
        }
        if spec is not None:
            req["spec"] = spec
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            err = self.proc.stderr.read()
            raise RuntimeError(f"refrunner died: {err}")
        resp = json.loads(line)
        if not resp.get("ok"):
            raise RefJoiError(resp.get("error", "unknown"))
        out = []
        for r in resp["results"]:
            out.append(
                {
                    "value": _from_marker(r["value"]),
                    "errors": r["errors"],
                    "warnings": r["warnings"],
                }
            )
        return out


class RefJoiError(RuntimeError):
    pass


# -- marker (de)serialization ------------------------------------------------

def _row_to_marker(row: dict) -> dict:
    return {k: _to_marker(v) for k, v in row.items() if v is not MISSING}


def _to_marker(v):
    if v is MISSING:
        return {"$undef": True}
    if isinstance(v, float):
        if math.isnan(v):
            return {"$nan": True}
        if math.isinf(v):
            return {"$inf": 1 if v > 0 else -1}
        if v == 0 and math.copysign(1, v) < 0:
            return {"$negz": True}
        return v
    if isinstance(v, (bytes, bytearray)):
        import base64

        return {"$bin": base64.b64encode(bytes(v)).decode()}
    if isinstance(v, datetime):
        return {"$date": int(v.timestamp() * 1000)}
    if isinstance(v, dict):
        return {k: _to_marker(x) for k, x in v.items() if x is not MISSING}
    if isinstance(v, (list, tuple)):
        return [_to_marker(x) for x in v]
    return v


def _from_marker(v):
    if isinstance(v, dict):
        if v.get("$undef"):
            return MISSING
        if v.get("$nan"):
            return float("nan")
        if "$inf" in v:
            return math.inf if v["$inf"] > 0 else -math.inf
        if v.get("$negz"):
            return -0.0
        if "$date" in v:
            return datetime.fromtimestamp(v["$date"] / 1000, tz=timezone.utc)
        if "$bin" in v:
            import base64

            return base64.b64decode(v["$bin"])
        if "$js" in v:
            return v
        return {k: _from_marker(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_from_marker(x) for x in v]
    return v


# -- builder-call specs (python interpretation) -------------------------------

_RESERVED = {
    "is", "and", "or", "not", "with", "assert", "try", "break", "from",
    "in", "if", "else", "raise", "return", "import", "lambda", "id",
}


def _py_name(name: str) -> str:
    s = re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
    if s in _RESERVED:
        s += "_"
    return s


def _conv_arg(v):
    import joi_ray as jr

    if isinstance(v, dict):
        if "$s" in v:
            return build_spec_py(v["$s"])
        if "$ref" in v:
            opts = {_py_name(k): _conv_arg(x) for k, x in (v.get("$o") or {}).items()}
            return jr.ref(v["$ref"], **opts)
        if "$x" in v:
            from joi_ray import expression

            return expression(v["$x"])
        if "$re" in v:
            # a RegExp on the node side: pass the compiled form so APIs
            # that branch on RegExp-vs-string (rename) see the same thing
            return re.compile(v["$re"])
        if "$adj" in v:
            return _ADJUSTERS[v["$adj"]]
        if "$dflt" in v:
            return _DFLT_FNS[v["$dflt"]]
        if any(k in v for k in ("$undef", "$nan", "$inf", "$negz", "$date", "$bin")):
            x = _from_marker(v)
            return None if x is MISSING else x
        return {k: _conv_arg(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_conv_arg(x) for x in v]
    return v


# named fork/alter adjusters — mirror of tools/refshim/refrunner.js
# ADJUSTERS (functions cannot cross the JSON pipe)
_ADJUSTERS = {
    "required": lambda s: s.required(),
    "optional": lambda s: s.optional(),
    "forbidden": lambda s: s.forbidden(),
    "strip": lambda s: s.strip(),
    "raw": lambda s: s.raw(),
    "min2": lambda s: s.min(2),
}


def _dflt_thrower(parent, prefs):
    raise RuntimeError("fuzz boom")


# function default/failover catalog ({"$dflt": name}) — mirror of
# refrunner.js DFLT_FNS; deterministic per row so converted values diff
_DFLT_FNS = {
    "const7": lambda: 7,
    "strq": lambda: "q7",
    "parent_a2": lambda parent, prefs: (
        parent["a"] * 2 if isinstance(parent, dict)
        and isinstance(parent.get("a"), (int, float))
        and not isinstance(parent.get("a"), bool) else 0),
    "thrower": _dflt_thrower,
}

# Joi.extend fuzz catalog: the node side registers these custom types
# through the reference's public extension machinery (refrunner.js ExtJoi);
# this side registers the same rules + messages through joi_ray's extension
# protocol.  NOTE the reference renders extension messages with an
# UNQUOTED label — built-in catalog quotes are literal template text
# (lib/messages.js), not renderer behavior — so these templates carry none.
_EXT_BASES = {"xnum": "number", "xstr": "string"}
_EXT_RULE_ARGS = {"even": (), "vowelstart": (), "maxwords": ("limit",)}


def _register_fuzz_extensions():
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from joi_ray.extend import register_rule
    from joi_ray.kernels.messages import MESSAGES
    from joi_ray.kernels.util import RuleOut

    def make_even(args):
        def kernel(arr, env):
            v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
            with np.errstate(invalid="ignore"):
                ok = np.fmod(v, 2.0) == 0  # JS % semantics for negatives
            return RuleOut(ok=ok)
        return kernel

    def make_vowelstart(args):
        def kernel(arr, env):
            n = len(arr)
            m = pc.match_substring_regex(pc.cast(arr, pa.string()), "(?i)^[aeiou]")
            ok = pc.fill_null(m, False).to_numpy(zero_copy_only=False).astype(bool)
            return RuleOut(ok=ok)
        return kernel

    def make_maxwords(args):
        limit = int(args["limit"])

        def kernel(arr, env):
            cnt = pc.count_substring_regex(pc.cast(arr, pa.string()), r"\S+")
            ok = pc.fill_null(pc.less_equal(cnt, limit), True).to_numpy(
                zero_copy_only=False).astype(bool)
            return RuleOut(ok=ok, context={"limit": limit})
        return kernel

    register_rule("number", "even", make_even, "xnum.even")
    register_rule("string", "vowelstart", make_vowelstart, "xstr.vowelstart")
    register_rule("string", "maxwords", make_maxwords, "xstr.maxwords")
    MESSAGES["xnum.even"] = "{{#label}} must be an even number"
    MESSAGES["xstr.vowelstart"] = "{{#label}} must start with a vowel"
    MESSAGES["xstr.maxwords"] = "{{#label}} must have at most {{#limit}} words"


_register_fuzz_extensions()


def build_spec_py(spec):
    """Interpret a builder-call spec against the joi_ray public API (the
    node side replays the same spec through the real Joi — see
    tools/refshim/refrunner.js)."""
    import joi_ray as jr

    if not isinstance(spec, dict):
        return spec  # literal sugar
    t = _EXT_BASES.get(spec["t"], spec["t"])
    ctor = getattr(jr, _py_name(t), None) or getattr(jr, t + "_")
    s = ctor(*[_conv_arg(a) for a in spec.get("a", [])])
    for call in spec.get("c", []):
        name, *args = call
        kwargs = {}
        if args and isinstance(args[-1], dict) and "$kw" in args[-1]:
            kwargs = {_py_name(k): _conv_arg(x) for k, x in args[-1]["$kw"].items()}
            args = args[:-1]
        if name == "prefs":
            # joi's schema-local prefs(dict) -> joi_ray preferences(**snake)
            s = s.preferences(**prefs_to_py(_conv_arg(args[0])))
            continue
        meth = getattr(s, _py_name(name), None)
        if meth is None and name in _EXT_RULE_ARGS:
            names = _EXT_RULE_ARGS[name]
            s = s.rule_(name, **dict(zip(names, (_conv_arg(a) for a in args))), **kwargs)
            continue
        s = meth(*[_conv_arg(a) for a in args], **kwargs)
    return s


def rows_from_table(tbl: pa.Table) -> list[dict]:
    """tbl.to_pylist() with Arrow nulls mapped to MISSING (undefined):
    the engine's convention is that a null cell/field/item is an ABSENT
    value (JS undefined), since Arrow cannot carry a null-vs-missing
    distinction."""

    def conv(v):
        if v is None:
            return MISSING
        if isinstance(v, dict):
            return {k: conv(x) for k, x in v.items()}
        if isinstance(v, list):
            return [conv(x) for x in v]
        return v

    return [{k: conv(v) for k, v in row.items()} for row in tbl.to_pylist()]


# -- joi_ray side ------------------------------------------------------------

_SEG_RX = re.compile(r"\.|\[(\d+)\]")


def _array_paths(manifest) -> set:
    """Key-name tuples of array-typed nodes in a describe() manifest —
    the index-insertion points for joi path reconstruction."""
    out: set = set()

    def walk(m, pfx):
        if not isinstance(m, dict):
            return
        if m.get("type") == "array":
            out.add(pfx)
            for sub in (m.get("items") or []) + (m.get("ordered") or []):
                walk(sub, pfx)  # item FIELDS live below the same dotted path
        for k, v in (m.get("keys") or {}).items():
            walk(v, pfx + (k,))
        for br in m.get("matches") or []:
            for kk in ("schema", "then", "otherwise", "peek"):
                if kk in br:
                    walk(br[kk], pfx)
        for w in m.get("whens") or []:
            for kk in ("then", "otherwise"):
                if kk in w:
                    walk(w[kk], pfx)
            for sw in w.get("switch") or []:
                if "then" in sw:
                    walk(sw["then"], pfx)

    walk(manifest, ())
    return out


def _path_to_joi(path: str, item_index: int, array_paths: set | None = None) -> tuple:
    """violations.path ('a.b[2].c') + item_index -> joi d.path tuple.

    joi interleaves the item index AT the array boundary (['a', 0, 'x'] for
    a field of an object item — errors.js state paths), so when
    ``array_paths`` (from :func:`_array_paths`) marks a proper prefix of the
    path as an array, the index is spliced after that prefix; otherwise it
    appends (plain item errors, where path IS the array path)."""
    segs: list = []
    buf = ""
    i = 0
    while i < len(path):
        c = path[i]
        if c == ".":
            if buf:
                segs.append(buf)
                buf = ""
            i += 1
        elif c == "[":
            j = path.index("]", i)
            if buf:
                segs.append(buf)
                buf = ""
            segs.append(int(path[i + 1 : j]))
            i = j + 1
        else:
            buf += c
            i += 1
    if buf:
        segs.append(buf)
    if item_index is not None and item_index >= 0:
        at = len(segs)
        if array_paths:
            names = tuple(s for s in segs if isinstance(s, str))
            for k in range(len(names) - 1, 0, -1):  # longest PROPER prefix
                if names[:k] in array_paths:
                    at = k
                    break
        segs.insert(at, item_index)
    return tuple(segs)


def run_joi_ray(schema, tbl: pa.Table, prefs: dict | None = None):
    from joi_ray import compile_schema

    # FUZZ_MANIFEST=1 round-trips the schema through describe() -> build()
    # before compiling, so the manifest round-trip itself is differentially
    # fuzzed: the node side already consumes describe() via Joi.build, and
    # this knob makes the joi_ray side consume it too — any manifest field
    # build() drops or misreads shows up as a deviation.
    if os.environ.get("FUZZ_MANIFEST", "").strip():
        from joi_ray import build as _build

        schema = _build(schema.describe())
    cs = compile_schema(schema, prefs=prefs)
    return cs.validate_table(tbl)


_PY_PREF_MAP = {
    "abortEarly": "abort_early",
    "allowUnknown": "allow_unknown",
    "stripUnknown": "strip_unknown",
    "noDefaults": "no_defaults",
    "convert": "convert",
    "presence": "presence",
    "context": "context",
    "errors": "errors",
    "externals": "externals",
    "messages": "messages",
    "dateFormat": "date_format",
}


def prefs_to_py(js_prefs: dict) -> dict:
    out = {}
    for k, v in (js_prefs or {}).items():
        out[_PY_PREF_MAP.get(k, k)] = v
    return out


# -- comparison --------------------------------------------------------------

def _values_close(a, b, *, depth=0) -> bool:
    """ref value vs joi_ray value; undefined/absent ~ None (Arrow can't
    distinguish), numbers by float equality (NaN==NaN), dates by epoch."""
    if a is MISSING:
        a = None
    if b is MISSING:
        b = None
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b if isinstance(a, bool) and isinstance(b, bool) else False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return math.isnan(fa) and math.isnan(fb)
        return fa == fb
    if isinstance(a, datetime) or isinstance(b, datetime):
        ta = a.timestamp() if isinstance(a, datetime) else None
        tb = b.timestamp() if isinstance(b, datetime) else None
        if ta is None or tb is None:
            return False
        # sub-microsecond tolerance: a NAIVE pre-epoch datetime's
        # timestamp() carries float error (-0.003 vs -0.0030000000000000027)
        return abs(ta - tb) < 1e-6
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            _values_close(x, y, depth=depth + 1) for x, y in zip(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set()
        for d in (a, b):
            keys |= {k for k, v in d.items() if v is not MISSING and v is not None}
        return all(
            _values_close(a.get(k, None), b.get(k, None), depth=depth + 1) for k in keys
        )
    return a == b


#: joi v16-rc2 renders the internal shadow Map as the {[.]} value
#: ('[c -> abc]'; bare 'c -> abc' under errors.wrapArrays:false —
#: template.js:314-320 Map render + :331 wrap)
_SHADOW_RX = re.compile(r'with value "\[?[^"]* -> [^"]*\]?"')


def _ref_targets_have_raw_items(ref_errs: list, spec: dict) -> bool:
    """True when every any.ref error's referenced sibling is an array
    column whose items/ordered subtree carries a RESULT flag — raw() or
    strip(), both plant per-item shadows (validator.js:414-417) — the
    v16-rc2 shadow-Map ref leak precondition (see diff_case;
    strip-variant node-verified on fuzz seed 120169: items(...strip())
    flips date.max to any.ref, plain items resolve the true array)."""
    cols = {}
    for group in spec.get("a", []) or []:
        if isinstance(group, dict):
            cols.update(group)
    for e in ref_errs:
        m = re.search(r'references "ref:([^":]+)"', e["message"] or "")
        if not m:
            return False
        sub = cols.get(m.group(1))
        blob = json.dumps(sub) if sub is not None else ""
        # raw/strip may be direct chain calls OR fork/alter adjusters
        # ({"$adj": "raw"}) — both plant the per-item shadow
        has_result = any(t in blob for t in (
            '["raw"]', '["strip"]', '{"$adj": "raw"}', '{"$adj": "strip"}'))
        if not has_result or ('"items"' not in blob and '"ordered"' not in blob):
            return False
    return True


def _val_cat(x) -> str:
    if x is None:
        return "none"
    if isinstance(x, bool):
        return "bool"
    if isinstance(x, (int, float)):
        return "num"
    if isinstance(x, str):
        return "str"
    if isinstance(x, (dict, list)):
        return "container"
    return "other"


def _cross_type_default_repr(ref_v, ray_v, spec) -> bool:
    """Tracked one-type-per-column ceiling via a function default/failover
    ({"$dflt"} catalog): the reference replaces the failed/missing value
    with the fn's SCALAR return, which an Arrow column of a DIFFERENT type
    holding other clean rows cannot represent — the engine keeps the
    original/converted value (errors cleared; refs see the typed value via
    the AltView).  Gated on the differing key's spec carrying a $dflt
    chain entry, the ref side being the fn's scalar, and the two sides
    landing in different value categories (num vs str vs container vs
    None — seed 17100064: 7 into a struct column; seed 18000175: 'q7'
    into a float64 column with clean rows).  SCALAR-valued default/
    failover chain entries hit the same ceiling (seeds 20000211/20000965:
    failover('') on an object column, failover('ab') on a date column) —
    gated STRICTLY on the ref side EQUALLING the chain entry's scalar."""
    if not (isinstance(ref_v, dict) and isinstance(ray_v, dict)):
        return False
    cols = {}
    for group in (spec or {}).get("a", []) or []:
        if isinstance(group, dict):
            cols.update(group)

    def _chain_fill_scalars(sub) -> list:
        out = []
        s = (sub or {}).get("$s", sub) or {}
        for e in s.get("c", []) or []:
            if (isinstance(e, (list, tuple)) and len(e) == 2
                    and e[0] in ("default", "failover")
                    and isinstance(e[1], (str, int, float, bool))):
                out.append(e[1])
        return out

    any_gated = False
    for k in set(ref_v) | set(ray_v):
        a, b = ref_v.get(k), ray_v.get(k)
        if a == b or _values_close(a, b):
            continue
        if _values_repr_equiv(a, b):
            # this key's difference is itself the numeric-string repr
            # ceiling (e.g. an ordered-slot cast inside a list) — it
            # doesn't disqualify the cross-type fill on ANOTHER key
            continue
        if _val_cat(a) in ("container", "other") or _val_cat(a) == _val_cat(b):
            return False
        sub = cols.get(k)
        blob = json.dumps(sub, default=str) if sub is not None else ""
        if '"$dflt"' not in blob and not any(
                a == v or _values_close(a, v) for v in _chain_fill_scalars(sub)):
            return False
        any_gated = True
    return any_gated


def _shadow_null_render(ref_msg: str, ray_msg: str, spec) -> bool:
    """v16-rc2 shadow-Map null render (node-verified, fuzz seed 15520211):
    once ANY result-flagged (strip/raw) schema has planted a shadow — an
    object.assert's probed schema does, validator.js:413-417 shadows even
    $_match results — template '[.]' resolves EVERY error's value through
    the shadow Map at lazy render time; paths absent from the Map resolve
    undefined and render 'with value "null"' (e.g. a SIBLING key's
    string.pattern.base).  The value output itself is NOT corrupted, only
    the message render.  We render the real value — tracked, not a
    failure."""
    if ref_msg == ray_msg or "null" not in ref_msg:
        return False
    blob = json.dumps(spec) if spec is not None else ""
    if not any(t in blob for t in (
            '["strip"]', '["raw"]', '{"$adj": "strip"}', '{"$adj": "raw"}')):
        return False
    if 'with value "null"' in ref_msg:
        return ref_msg.replace('with value "null"', "with value <X>") == re.sub(
            r'with value "[^"]*"', "with value <X>", ray_msg)
    # custom {[.]} templates put the value anywhere (seed 16200551:
    # 'too long: null' vs 'too long: Hello World') — accept when the two
    # messages agree except one 'null' occurrence in ref standing where
    # ray rendered the real value
    for m in re.finditer("null", ref_msg):
        pre, suf = ref_msg[:m.start()], ref_msg[m.end():]
        if (ray_msg.startswith(pre) and ray_msg.endswith(suf)
                and len(ray_msg) >= len(pre) + len(suf)
                and ray_msg[len(pre):len(ray_msg) - len(suf) or None] != "null"):
            return True
    return False


def _shadow_map_render(ref_msg: str, ray_msg: str) -> bool:
    """True when the two messages differ only by joi's shadow-Map value
    render ('with value "[c -> abc]"' vs the actual value) — v16-rc2's
    template.js:313-320 renders the internal shadow Map for {[.]}."""
    if _SHADOW_RX.search(ref_msg):
        return _SHADOW_RX.sub("with value <X>", ref_msg) == re.sub(
            r'with value "[^"]*"', "with value <X>", ray_msg
        )
    # custom {[.]} templates put the value anywhere: classify by the
    # differing middle — joi's Map toString marker is 'k -> v'
    if " -> " not in ref_msg or ref_msg == ray_msg:
        return False
    i = 0
    while i < min(len(ref_msg), len(ray_msg)) and ref_msg[i] == ray_msg[i]:
        i += 1
    j = 0
    while (j < min(len(ref_msg), len(ray_msg)) - i
           and ref_msg[len(ref_msg) - 1 - j] == ray_msg[len(ray_msg) - 1 - j]):
        j += 1
    ref_mid = ref_msg[i:len(ref_msg) - j]
    ray_mid = ray_msg[i:len(ray_msg) - j]
    # the common-prefix scan may consume the space before '->' ('v=a ' is
    # shared, leaving '-> [object Map]'); match the arrow bare
    return "->" in ref_mid and "->" not in ray_mid


def _values_repr_equiv(ref_v, ray_v) -> bool:
    """True when the two values differ only by numeric-string
    representation (ray 'n' vs ref n, or vice versa), recursively."""
    if isinstance(ref_v, bool) and isinstance(ray_v, str):
        return ray_v.lower() in ("true", "false") and (ray_v.lower() == "true") is ref_v
    if isinstance(ray_v, bool) and isinstance(ref_v, str):
        return ref_v.lower() in ("true", "false") and (ref_v.lower() == "true") is ray_v
    if isinstance(ref_v, (int, float)) and not isinstance(ref_v, bool) and isinstance(ray_v, str):
        try:
            return float(ray_v) == float(ref_v)
        except ValueError:
            return False
    if isinstance(ray_v, (int, float)) and not isinstance(ray_v, bool) and isinstance(ref_v, str):
        try:
            return float(ref_v) == float(ray_v)
        except ValueError:
            return False
    if isinstance(ref_v, (list, tuple)) and isinstance(ray_v, (list, tuple)):
        # heterogeneous item conversions (ordered slots converting some
        # positions to numbers) can't share one Arrow list column either
        return len(ref_v) == len(ray_v) and all(
            _values_close(x, y) or _values_repr_equiv(x, y)
            for x, y in zip(ref_v, ray_v)
        )
    if isinstance(ref_v, dict) and isinstance(ray_v, dict):
        # row-varying STRUCT SHAPE: a stripping alternatives branch drops
        # keys per row; the Arrow struct column keeps all fields, so the
        # ray side may be a SUPERSET with equal shared values
        ref_keys = {k for k, v in ref_v.items() if v is not None and v is not MISSING}
        return ref_keys <= set(ray_v) and all(
            _values_close(ref_v[k], ray_v.get(k)) or _values_repr_equiv(ref_v[k], ray_v.get(k))
            for k in ref_keys
        )
    return False


def diff_case(
    ref: RefJoi,
    schema,
    tbl: pa.Table,
    js_prefs: dict | None = None,
    *,
    compare_messages: bool = True,
    compare_values: bool = True,
    rows_override: list | None = None,
    spec: dict | None = None,
) -> list[dict]:
    """Validate `tbl` under `schema` on both engines; return deviations.

    rows_override: explicit per-row dicts to send to the reference (use
    MISSING for absent keys) when tbl's pylist form is not faithful
    (e.g. absent-vs-null distinctions).
    """
    js_prefs = {"abortEarly": False, **(js_prefs or {})}
    manifest = schema.describe() if spec is None else None
    arr_paths = _array_paths(manifest if manifest is not None else schema.describe())
    rows = rows_override if rows_override is not None else rows_from_table(tbl)
    ref_out = ref.validate(manifest, rows, js_prefs, spec=spec)
    res = run_joi_ray(schema, tbl, prefs=prefs_to_py(js_prefs))

    devs: list[dict] = []
    viol = res.violations.to_pylist()
    by_row: dict[int, list[dict]] = {}
    for v in viol:
        by_row.setdefault(v["row"], []).append(v)

    for i, rr in enumerate(ref_out):
        ref_errs = rr["errors"] or []
        ray_errs = [v for v in by_row.get(i, []) if v["severity"] == "error"]
        ref_ok = not ref_errs
        ray_ok = bool(res.ok[i])
        ctx = {"row": i, "input": rows[i] if i < len(rows) else None}
        if ref_ok != ray_ok:
            kind = "ok_mask"
            if (ray_ok and not ref_ok and spec is not None
                    and ref_errs and all(e["type"] == "any.ref" for e in ref_errs)
                    and _ref_targets_have_raw_items(ref_errs, spec)):
                # KNOWN v16-rc2 BUG (semantic twin of message_shadow_bug):
                # a ref to a sibling ARRAY whose ITEMS are raw()-flagged
                # resolves joi's internal shadow Map instead of the array
                # (ref.js _resolve shadow.get returns the intermediate Map
                # node), so the arg assert fires any.ref — node-verified:
                # items(number().raw()) errs, plain items ok.  We resolve
                # the actual value.  Tracked, not a deviation.
                kind = "ref_shadow_map_ref"
            devs.append(
                {
                    **ctx,
                    "kind": kind,
                    "ref": [(tuple(e["path"]), e["type"], e["message"]) for e in ref_errs],
                    "ray": [
                        (v["path"], v["item_index"], v["code"], v["message"]) for v in ray_errs
                    ],
                }
            )
            continue
        # error sets: (path, code)
        ref_set = sorted(((tuple(e["path"]), e["type"]) for e in ref_errs), key=repr)
        ray_set = sorted(
            ((_path_to_joi(v["path"], v["item_index"], arr_paths), v["code"]) for v in ray_errs),
            key=repr,
        )
        if ref_set != ray_set:
            kind = "codes"
            # v16-rc2 shadow-Map ref leak INSIDE an otherwise-failing row:
            # ref-side extras are any.ref on paths where the ray side has a
            # rule code instead (or nothing), and every such ref targets an
            # array with raw() items (see the ok_mask branch above)
            extra_ref = [e for e in ref_errs
                         if (tuple(e["path"]), e["type"]) not in set(ray_set)]
            extra_ray_paths = {p for p, c in ray_set if (p, c) not in set(ref_set)}
            if (spec is not None and extra_ref
                    and all(e["type"] == "any.ref" for e in extra_ref)
                    and extra_ray_paths <= {tuple(e["path"]) for e in extra_ref}
                    and _ref_targets_have_raw_items(extra_ref, spec)):
                kind = "ref_shadow_map_ref"
            devs.append({**ctx, "kind": kind, "ref": ref_set, "ray": ray_set})
        elif compare_messages:
            ref_msgs = sorted(
                ((tuple(e["path"]), e["type"], e["message"]) for e in ref_errs),
                key=repr,
            )
            ray_msgs = sorted(
                ((_path_to_joi(v["path"], v["item_index"], arr_paths), v["code"], v["message"])
                 for v in ray_errs),
                key=repr,
            )
            if ref_msgs != ray_msgs:
                kind = "messages"
                if all(
                    a == b or _shadow_map_render(a[2], b[2])
                    or _shadow_null_render(a[2], b[2], spec)
                    for a, b in zip(ref_msgs, ray_msgs)
                ) and len(ref_msgs) == len(ray_msgs):
                    # KNOWN v16-rc2 BUG: '{[.]}' renders the internal
                    # shadow Map ('with value "[c -> abc]"') instead of
                    # the actual value when a sibling was shadowed
                    # (ref.js:_resolve shadow.get([]) returns the Map;
                    # template.js:313-320 renders Maps as [k -> v]).
                    # We render the real value — tracked, not a failure.
                    # The null-render variant (seed 15520211) is the same
                    # Map poisoning paths it doesn't contain.
                    kind = "message_shadow_bug"
                    if any(_shadow_null_render(a[2], b[2], spec)
                           for a, b in zip(ref_msgs, ray_msgs)):
                        kind = "message_shadow_null"
                devs.append({**ctx, "kind": kind, "ref": ref_msgs, "ray": ray_msgs})
        # warnings
        ref_warn = sorted(((tuple(e["path"]), e["type"]) for e in (rr["warnings"] or [])), key=repr)
        ray_warn = sorted(
            ((_path_to_joi(v["path"], v["item_index"], arr_paths), v["code"])
             for v in by_row.get(i, [])
             if v["severity"] == "warn"),
            key=repr,
        )
        if ref_warn != ray_warn:
            devs.append({**ctx, "kind": "warnings", "ref": ref_warn, "ray": ray_warn})
        # converted values (ok rows only: failed-row partial values are
        # compared by the dedicated vector tests, not the fuzzer)
        if compare_values and ref_ok:
            ray_val = res.value.slice(i, 1).to_pylist()[0]
            if not _values_close(rr["value"], ray_val):
                kind = "value"
                if _values_repr_equiv(rr["value"], ray_val):
                    # KNOWN representational limit: an alternatives column
                    # whose rows match branches with DIFFERENT converted
                    # types (number vs string) cannot be one Arrow column —
                    # the minority rows keep a value-equivalent string.
                    # Tracked separately so real value bugs stay visible.
                    kind = "value_repr"
                elif _cross_type_default_repr(rr["value"], ray_val, spec):
                    # the SAME one-type-per-column ceiling through a
                    # cross-type function default/failover on a CONTAINER
                    # column: joi replaces the whole failed object/array
                    # with the fn's scalar, but a struct/list column with
                    # other clean rows cannot hold it — the engine clears
                    # the errors and keeps the original (seed 17100064)
                    kind = "value_repr"
                devs.append(
                    {**ctx, "kind": kind, "ref": rr["value"], "ray": ray_val}
                )
    return devs
