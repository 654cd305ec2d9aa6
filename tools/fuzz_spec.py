"""Differential fuzzer: random (schema, table, prefs) cases replayed through
BOTH the reference joi (node, via tools/refshim) and joi_ray, diffing ok
masks, error (path, code) sets, messages, warnings and converted values.

Schemas are generated as builder-call SPECS (see tools/diffref.py
build_spec_py / tools/refshim/refrunner.js buildSpec) so each side
constructs its schema through its own public API — no manifest translation
that could mask semantic differences.

Usage:
    python tools/fuzz_spec.py [N_CASES] [START_SEED]
Deviations are appended to /tmp/fuzz_devs.jsonl with full repro info.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pyarrow as pa

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from diffref import MISSING, RefJoi, RefJoiError, diff_case, build_spec_py  # noqa: E402

# ---------------------------------------------------------------- value pools

STRINGS = [
    "", "a", "ab", "abc", "ABC", "x1", " pad ", "hello", "Hello World",
    "abc123", "αβ", "123", "12.5", "true", "-7", "0", "1e3", "xyzzy", "x",
    "yy", "aaa", "zzzz", "A1", "  ", "3",
]
NUMBERS = [0.0, 1.0, -1.0, 2.0, 3.0, 5.0, 10.0, 0.5, -2.5, 100.0, 7.0, 42.0,
           1e10, 3.5, -0.0, 6.0, 8.0, 1024.0, 65536.0, 123456.0]
NUMSTRINGS = ["1", "2.5", "-3", "0", "1e3", "abc", "", " 7 ", "10", "0x1f",
              "12", "5", "Infinity", "NaN", "3.0"]
BOOLSTRINGS = ["true", "false", "TRUE", "False", "yes", "no", "Y", "N", "1",
               "0", "", "maybe"]
ISODATES = ["2019-02-03", "2019-02-03T10:30:00Z", "2020-13-01", "not a date",
            "2021-06-15T08:00:00.123Z", "1970-01-01", "2019-02-30",
            "2019-W06-6", "2019-034"]
PATTERNS = ["^[a-z]+$", "\\d", "^x", "[A-Z]{2}", "^[a-z0-9]+$"]
#: multi-word pool for the xstr extension rules (vowel starts, word counts,
#: leading/trailing/multiple spaces interact with trim/maxwords)
WORDSTRINGS = ["", "one", "a b", "x y z", " spaced out ", "hello world foo",
               "aeiou start", "Egg plant", "under dog", "e pluribus unum",
               "two  gaps", "I", "über alles", "ab", "no"]

#: valid + near-miss inputs per string FORMAT rule, blended into a format
#: column's value pool so pass paths get exercised, not just rejections
FORMAT_VALUES = {
    "email": ["a@b.com", "user.name+tag@example.co.uk", "bad@", "@bad.com",
              "x@y", "a@b..com", "A@B.COM"],
    "uri": ["http://example.com", "https://a.b/c?d=e#f", "ftp://x.org/file",
            "not a uri", "mailto:a@b.com", "//relative"],
    "guid": ["123e4567-e89b-12d3-a456-426614174000",
             "{123e4567-e89b-12d3-a456-426614174000}",
             "123E4567-E89B-12D3-A456-426614174000", "not-a-guid"],
    "hex": ["deadBEEF", "abc123", "0x1f", "xyz"],
    "base64": ["aGVsbG8=", "YWJj", "YWJjZA==", "bad!", "YQ"],
    "isoDate": ["2019-02-03", "2019-02-03T10:30:00Z", "2019-02-30",
                "20190203", "2019-02-03T10:30:00+02:00"],
    "isoDuration": ["P3Y6M4DT12H30M5S", "PT15M", "P1D", "3 days", "P"],
    "dataUri": ["data:image/png;base64,aGVsbG8=", "data:,Hello", "nope"],
    "domain": ["example.com", "sub.domain.co.uk", "localhost",
               "-bad-.com", "a.b"],
    "hostname": ["example.com", "my-host", "bad_host!", "127.0.0.1"],
    "ip": ["127.0.0.1", "192.168.1.300", "::1", "2001:db8::1",
           "1.2.3.4/24", "nope"],
    "creditCard": ["4111111111111111", "4111111111111112",
                   "378282246310005", "123"],
    "normalize": ["é", "é", "ﬁ", "abc", "Å"],
}
# custom rule messages with joi brace semantics: {{x}} escapes under
# errors.escapeHtml, {x} is raw, unresolved refs drop, {[.]} is the
# per-row offending value (works on any rule)
MSG_TEMPLATES = [
    "bad {{#label}}!",
    "raw {#label} needs {{#limit}}",
    "v={[.]} on {{#label}}",
    "drop {{#nope}} here {{#label}}",
    "<b>{{#label}}</b> & {#label}",
]


class Gen:
    def __init__(self, rng: random.Random):
        self.r = rng
        # targeted sweeps: FUZZ_KINDS=structarray,ordered restricts the
        # column-kind pool (comma-separated); unset = full weighted pool
        import os

        _k = os.environ.get("FUZZ_KINDS", "").strip()
        self.kinds_filter = [s for s in _k.split(",") if s] if _k else None
        # FUZZ_STRIP_P=0.3 boosts the strip() condition probability for
        # targeted strip-semantics sweeps (default keeps the 0.04 pool rate)
        self.strip_p = float(os.environ.get("FUZZ_STRIP_P", "0.04"))

    def maybe(self, p=0.5):
        return self.r.random() < p

    def pick(self, xs):
        return self.r.choice(xs)

    # ---------------------------------------------------------- leaf schemas

    def leaf_spec(self, family: str, sibling_nums: list[str]) -> dict:
        r = self.r
        c: list = []
        if family == "number":
            for rule in ("min", "max", "greater", "less"):
                if self.maybe(0.22):
                    if self.maybe(0.08):
                        # global ref — unbound under most PREFS entries
                        # (per-row any.ref), bound under the context ones
                        lim: object = {"$ref": "$lim"}
                    elif sibling_nums and self.maybe(0.1):
                        # template limit (Joi.x): per-row expression arg
                        lim = {"$x": "{%s %s 2}" % (self.pick(sibling_nums),
                                                    self.pick(["*", "+", "-"]))}
                    elif sibling_nums and self.maybe(0.25):
                        lim = {"$ref": self.pick(sibling_nums)}
                    else:
                        lim = r.randint(-5, 50)
                    c.append([rule, lim])
            if self.maybe(0.25):
                c.append(["integer"])
            if self.maybe(0.15):
                c.append(["multiple", r.randint(2, 5)])
            if self.maybe(0.08):
                c.append(["port"])
            if self.maybe(0.12):
                c.append([self.pick(["positive", "negative"])])
            if self.maybe(0.08):
                # precision is a CONVERT-phase rule (rounds) under convert,
                # an error otherwise
                c.append(["precision", r.randint(1, 3)])
            spec = {"t": "number", "c": c}
        elif family == "string":
            if self.maybe(0.3):
                c.append(["min", r.randint(0, 4)])
            if self.maybe(0.3):
                c.append(["max", r.randint(3, 10)])
            if self.maybe(0.12):
                c.append(["length", r.randint(1, 5)])
            if self.maybe(0.2):
                c.append(["pattern", {"$re": self.pick(PATTERNS)}])
            if self.maybe(0.15):
                c.append([self.pick(["alphanum", "token"])])
            if self.maybe(0.15):
                c.append([self.pick(["lowercase", "uppercase"])])
            if self.maybe(0.12):
                c.append(["trim"])
            if self.maybe(0.1):
                c.append(["insensitive"])
            if self.maybe(0.12):
                # one FORMAT rule; the string column blends matching valid
                # inputs from FORMAT_VALUES so pass paths run too
                fmt = self.pick(list(FORMAT_VALUES))
                if fmt == "normalize":
                    c.append(["normalize", self.pick(["NFC", "NFD", "NFKC", "NFKD"])])
                elif fmt == "guid" and self.maybe(0.4):
                    c.append(["guid", {"$kw": {"version": [
                        self.pick(["uuidv1", "uuidv4", "uuidv5"])]}}])
                elif fmt == "ip" and self.maybe(0.5):
                    c.append(["ip", {"$kw": {
                        "version": [self.pick(["ipv4", "ipv6"])],
                        "cidr": self.pick(["optional", "required", "forbidden"])}}])
                elif fmt == "base64" and self.maybe(0.5):
                    c.append(["base64", {"$kw": {
                        "paddingRequired": self.pick([True, False]),
                        "urlSafe": self.pick([True, False])}}])
                elif fmt in ("email", "domain") and self.maybe(0.4):
                    c.append([fmt, {"$kw": {"minDomainSegments": self.r.randint(1, 3)}}])
                else:
                    c.append([fmt])
            elif self.maybe(0.05):
                c.append(["replace", {"$re": self.pick(PATTERNS)}, self.pick(["_", "Z", ""])])
            elif self.maybe(0.05):
                # truncate clamps to the max() limit instead of erroring
                if not any(x[0] == "max" for x in c):
                    c.append(["max", r.randint(3, 6)])
                c.append(["truncate"])
            spec = {"t": "string", "c": c}
        elif family == "boolean":
            if self.maybe(0.4):
                c.append(["truthy", "yes", "Y"])
            if self.maybe(0.4):
                c.append(["falsy", "no", "N"])
            spec = {"t": "boolean", "c": c}
        elif family == "date":
            if self.maybe(0.4):
                c.append(["iso"])
            elif self.maybe(0.15):
                # timestamp format: numeric epoch input (unix seconds or
                # JS milliseconds — date.js timestamp rule)
                c.append(["timestamp", self.pick(["unix", "javascript"])])
            for rule in ("min", "max", "greater", "less"):
                if self.maybe(0.15):
                    c.append([rule, "2019-06-01"])
            spec = {"t": "date", "c": c}
        else:
            raise ValueError(family)
        if c and self.maybe(0.1):
            # message() applies to the LAST rule (or raises on flag-closed /
            # empty rulesets — both engines assert identically)
            c.append(["message", self.pick(MSG_TEMPLATES)])
        elif c and self.maybe(0.06):
            # warn() = rule({warn:true}): route the last rule's failures to
            # the warnings channel (validator.js:303-306)
            c.append(["warn"])
        self.any_mods(spec, family)
        return spec

    def any_mods(self, spec: dict, family: str):
        """valid/invalid/default/presence/empty/label on any leaf."""
        c = spec["c"]
        pool = {
            "number": NUMBERS[:8],
            "string": STRINGS[:8],
            "boolean": [True, False],
            "date": [],
        }[family]
        if pool and self.maybe(0.12):
            c.append(["valid"] + self.r.sample(pool, self.r.randint(1, min(3, len(pool)))))
        elif pool and self.maybe(0.1):
            c.append(["invalid"] + self.r.sample(pool, self.r.randint(1, min(2, len(pool)))))
        if pool and self.maybe(0.12):
            c.append(["default", self.pick(pool)])
        elif pool and self.maybe(0.05):
            # failover replaces the value when validation FAILS
            # (validator.js internals.finalize failover branch)
            c.append(["failover", self.pick(pool)])
        if self.maybe(0.25):
            c.append([self.pick(["required", "optional", "forbidden"])])
        if family == "string" and self.maybe(0.15):
            if self.maybe(0.25):
                # empty(SCHEMA): values matching it become undefined
                c.append(["empty", {"$s": {"t": "string", "c": [["valid", "N/A", ""]]}}])
            else:
                c.append(["empty", ""])
        if self.maybe(0.08):
            c.append(["label", "L" + str(self.r.randint(1, 9))])
        if self.maybe(0.05):
            c.append(["raw"])
        elif self.maybe(self.strip_p):
            # strip: key dropped from the output object / matched array
            # item spliced (array.js:195-200, :278-283)
            c.append(["strip"])
        if family == "number" and self.maybe(0.05):
            c.append(["cast", "string"])
        elif family == "date" and self.maybe(0.05):
            c.append(["cast", self.pick(["number", "string"])])

    # ------------------------------------------------------------- columns

    def column(self, name: str, sibling_nums: list[str], col_names: list[str]):
        """-> (spec, arrow_type, value_fn)"""
        r = self.r
        kind = self.pick(
            self.kinds_filter
            or ["number", "number", "string", "string", "boolean", "date",
                "numstr", "boolstr", "array", "struct", "alts", "whencol",
                "concat", "binary", "strref", "dateref", "ordered", "mixedalts",
                "switchcol", "peekcol", "patstruct", "renstruct", "deepstruct",
                "altobj", "structarray", "hascol",
                "extnum", "extstr", "forkfield", "extractfield", "concatalts",
                "altercol", "assertcol", "whenstruct", "whenarray", "altwhen"]
        )
        if kind == "number":
            return (self.leaf_spec("number", sibling_nums), pa.float64(),
                    lambda: self.pick(NUMBERS))
        if kind == "numstr":  # number schema over a string column (coercion)
            return (self.leaf_spec("number", sibling_nums), pa.string(),
                    lambda: self.pick(NUMSTRINGS))
        if kind == "string":
            return (self.leaf_spec("string", []), pa.string(),
                    lambda: self.pick(STRINGS))
        if kind == "boolean":
            return (self.leaf_spec("boolean", []), pa.bool_(),
                    lambda: self.pick([True, False]))
        if kind == "boolstr":
            return (self.leaf_spec("boolean", []), pa.string(),
                    lambda: self.pick(BOOLSTRINGS))
        if kind == "date":
            spec = self.leaf_spec("date", [])
            if any(x[0] == "timestamp" for x in spec["c"]):
                # epoch inputs for the timestamp format (plus a couple of
                # non-numeric rejects)
                return (spec, pa.string(),
                        lambda: self.pick(NUMSTRINGS[:10] + ["1546300800", "86400"]))
            return (spec, pa.string(), lambda: self.pick(ISODATES))
        if kind == "array":
            elem_family = self.pick(["number", "string"])
            item = self.leaf_spec(elem_family, [])
            c: list = [["items", {"$s": item}]]
            if self.maybe(0.3):
                lim = ({"$ref": self.pick(sibling_nums)}
                       if sibling_nums and self.maybe(0.2) else r.randint(0, 2))
                c.append(["min", lim])
            if self.maybe(0.3):
                c.append(["max", r.randint(2, 5)])
            if self.maybe(0.3):
                c.append(["unique"])  # options require a comparator in joi
            elif self.maybe(0.15):
                # sort: convert-mode sorts, else array.sort error
                # (array.js sort rule)
                kw = {"order": self.pick(["ascending", "descending"])}
                c.append(["sort", {"$kw": kw}])
            if self.maybe(0.3):
                c.append(["sparse"])
            if self.maybe(0.1):
                c.append(["single"])  # scalar coerces to 1-elem array
            pool = NUMBERS[:8] if elem_family == "number" else STRINGS[:10]
            at = pa.list_(pa.float64() if elem_family == "number" else pa.string())

            def gen_list():
                n = r.randint(0, 4)
                return [
                    None if self.maybe(0.12) else self.pick(pool) for _ in range(n)
                ]

            return ({"t": "array", "c": c}, at, gen_list)
        if kind == "struct":
            f1 = self.leaf_spec("number", [])
            f2 = self.leaf_spec("string", [])
            c = []
            dep = self.pick(["and", "or", "xor", "oxor", "with", "without", "nand", None])
            if dep in ("and", "or", "xor", "oxor", "nand"):
                c.append([dep, "p", "q"])
            elif dep in ("with", "without"):
                c.append([dep, "p", ["q"]])
            if self.maybe(0.2):
                c.append(["unknown"])
            if self.maybe(0.15):
                # object key-count structural rules
                c.append([self.pick(["min", "max", "length"]), r.randint(0, 3)])
            spec = {"t": "object", "a": [{"p": {"$s": f1}, "q": {"$s": f2}}], "c": c}
            at = pa.struct([("p", pa.float64()), ("q", pa.string())])

            def gen_struct():
                return {
                    "p": None if self.maybe(0.3) else self.pick(NUMBERS[:6]),
                    "q": None if self.maybe(0.3) else self.pick(STRINGS[:8]),
                }

            return (spec, at, gen_struct)
        if kind == "alts":
            b1 = self.leaf_spec("string", [])
            b2 = self.leaf_spec("string", [])
            # reference v16-rc2 quirk: alternatives(A, B) / try(A, B) keep
            # only the first schema; the ARRAY form keeps all — use it
            spec = {"t": "alternatives", "a": [[{"$s": b1}, {"$s": b2}]]}
            return (spec, pa.string(), lambda: self.pick(STRINGS))
        if kind == "whencol":
            base_family = self.pick(["number", "string", "date"])
            base = self.leaf_spec(base_family, [])
            others = [n for n in col_names if n != name]
            cond = self.pick(others) if others else name
            then_delta = self.leaf_spec(base_family, [])
            kw: dict = {"then": {"$s": then_delta}}
            # joi requires "is" (or switch) for ref conditions
            # (alternatives.js when assert)
            kw["is"] = self.pick(NUMBERS[:5] + STRINGS[:5])
            if self.maybe(0.4):
                kw["otherwise"] = {"$s": self.leaf_spec(base_family, [])}
            base.setdefault("c", []).append(["when", cond, {"$kw": kw}])
            if base_family == "date":
                # date branches coerce per row: the wrapper merge stitches
                # timestamp columns whose branches may disagree on iso()
                return (base, pa.string(), lambda: self.pick(ISODATES))
            pool = NUMBERS if base_family == "number" else STRINGS
            at = pa.float64() if base_family == "number" else pa.string()
            return (base, at, lambda: self.pick(pool))
        if kind == "altwhen":
            # when() on a RAW alternatives: entries push MATCH entries
            # (alternatives.js:165-218) — a then-only condition that does
            # not match falls through to the NEXT entry (no base.js
            # wrapping, no auto-filled otherwise), so 1-3 sequential
            # conditions are legal until one carries both branches
            fam = self.pick(["number", "string"])
            others = [n for n in col_names if n != name]
            pool_is = NUMBERS[:5] + STRINGS[:5]
            n_conds = r.randint(1, 3)
            chain: list = []
            for i in range(n_conds):
                cond = self.pick(others) if others else name
                kw: dict = {"is": self.pick(pool_is),
                            "then": {"$s": self.leaf_spec(fam, [])}}
                if i == n_conds - 1 and self.maybe(0.4):
                    kw["otherwise"] = {"$s": self.leaf_spec(fam, [])}
                chain.append(["when", cond, {"$kw": kw}])
            if self.maybe(0.3):
                chain.append(["default", self.pick(
                    NUMBERS[:5] if fam == "number" else STRINGS[:5])])
            spec = {"t": "alternatives", "c": chain}
            at = pa.float64() if fam == "number" else pa.string()
            pool = NUMBERS if fam == "number" else STRINGS
            return (spec, at, lambda: self.pick(pool))
        if kind == "whenarray":
            # when() on an ARRAY column: branches are array deltas joi
            # concats with the base — min/max/sparse/unique/required flips
            # and EXTRA items schemas (items is a multi term: concat
            # accumulates them, widening the accepted union)
            elem_family = self.pick(["number", "string"])
            item = self.leaf_spec(elem_family, [])
            base = {"t": "array", "c": [["items", {"$s": item}]]}
            others = [n for n in col_names if n != name]
            cond = self.pick(others) if others else name

            def arr_delta() -> dict:
                mod = self.pick([
                    ["min", r.randint(1, 3)], ["max", r.randint(1, 4)],
                    ["sparse"], ["unique"], ["required"],
                    ["items", {"$s": self.leaf_spec(elem_family, [])}],
                ])
                return {"t": "array", "c": [mod]}

            kw = {"is": self.pick(NUMBERS[:5] + STRINGS[:5]),
                  "then": {"$s": arr_delta()}}
            if self.maybe(0.5):
                kw["otherwise"] = {"$s": arr_delta()}
            base["c"].append(["when", cond, {"$kw": kw}])
            at = pa.list_(pa.float64() if elem_family == "number" else pa.string())
            pool = NUMBERS[:6] if elem_family == "number" else STRINGS[:8]

            def gen_wa():
                k = r.randint(0, 4)
                return [None if self.maybe(0.1) else self.pick(pool) for _ in range(k)]

            return (base, at, gen_wa)
        if kind == "whenstruct":
            # when() on an OBJECT column (unexplored until round 5 s3):
            # branches are object DELTAS joi concats with the base —
            # per-key presence flips, strips, defaults — so the wrapper
            # merge must stitch per-row STRUCT results (strip deletes,
            # deep defaults) across conditions
            f1 = self.leaf_spec("number", [])
            f2 = self.leaf_spec("string", [])
            base = {"t": "object", "a": [{"p": {"$s": f1}, "q": {"$s": f2}}]}
            others = [n for n in col_names if n != name]
            cond = self.pick(others) if others else name

            def obj_delta() -> dict:
                if self.maybe(0.2):
                    # DEPENDENCY delta: joi concat appends dependencies
                    # (multi term), so the branch adds an and/or/xor/oxor
                    # over the base keys per matched row
                    dep = self.pick(["and", "or", "xor", "oxor", "with", "without"])
                    if dep in ("with", "without"):
                        return {"t": "object", "a": [{}],
                                "c": [[dep, "p", ["q"]]]}
                    return {"t": "object", "a": [{}], "c": [[dep, "p", "q"]]}
                k = self.pick(["p", "q"])
                fam = "number" if k == "p" else "string"
                mod = self.pick([
                    ["required"], ["strip"], ["forbidden"], ["raw"],
                    ["default", 3.0 if fam == "number" else "x1"],
                ])
                return {"t": "object",
                        "a": [{k: {"$s": {"t": fam, "c": [mod]}}}]}

            kw = {"is": self.pick(NUMBERS[:5] + STRINGS[:5]),
                  "then": {"$s": obj_delta()}}
            if self.maybe(0.5):
                kw["otherwise"] = {"$s": obj_delta()}
            # object-specific methods don't exist on joi's post-when
            # alternatives wrapper (object().when(...).unknown() is a
            # TypeError) — unknown() must precede the when
            base["c"] = ([["unknown"]] if self.maybe(0.2) else [])
            base["c"].append(["when", cond, {"$kw": kw}])
            at = pa.struct([("p", pa.float64()), ("q", pa.string())])

            def gen_ws():
                return {"p": None if self.maybe(0.3) else self.pick(NUMBERS[:6]),
                        "q": None if self.maybe(0.3) else self.pick(STRINGS[:8])}

            return (base, at, gen_ws)
        if kind == "concat":
            fam = self.pick(["number", "string"])
            s1 = self.leaf_spec(fam, [])
            s2 = self.leaf_spec(fam, [])
            s1.setdefault("c", []).append(["concat", {"$s": s2}])
            pool = NUMBERS if fam == "number" else STRINGS
            at = pa.float64() if fam == "number" else pa.string()
            return (s1, at, lambda: self.pick(pool))
        if kind == "extnum":
            # Joi.extend custom type (refrunner.js ExtJoi xnum): the even
            # rule runs through the reference's extension rule dispatch
            c: list = [["even"]]
            if self.maybe(0.4):
                c.append([self.pick(["min", "max"]), r.randint(0, 6)])
            if self.maybe(0.3):
                c.append([self.pick(["required", "optional"])])
            if self.maybe(0.15):
                c.append(["valid"] + r.sample(NUMBERS[:8], 2))
            if self.maybe(0.3):  # coercion path: xnum over a string column
                return ({"t": "xnum", "c": c}, pa.string(),
                        lambda: self.pick(NUMSTRINGS))
            return ({"t": "xnum", "c": c}, pa.float64(),
                    lambda: self.pick(NUMBERS))
        if kind == "extstr":
            c = []
            if self.maybe(0.5):
                c.append(["vowelstart"])
            else:
                c.append(["maxwords", r.randint(0, 3)])
            if self.maybe(0.3):
                c.append([self.pick(["min", "max"]), r.randint(0, 5)])
            if self.maybe(0.25):
                c.append([self.pick(["required", "optional"])])
            if self.maybe(0.15):
                c.append(["lowercase"] if self.maybe() else ["trim"])
            return ({"t": "xstr", "c": c}, pa.string(),
                    lambda: self.pick(WORDSTRINGS))
        if kind == "forkfield":
            # fork() rewrites a (possibly nested) field through a named
            # adjuster — strip/raw/presence interplay with the clone
            if self.maybe(0.25):
                # array-item / alternatives-branch fork by explicit id()
                # (modify.js Ids.Store: non-key children need explicit ids)
                if self.maybe():
                    item = self.leaf_spec("number", [])
                    item.setdefault("c", []).insert(0, ["id", "n1"])
                    adj = self.pick(["optional", "min2", "raw", "strip"])
                    spec = {"t": "array",
                            "c": [["items", {"$s": item}],
                                  ["fork", "n1", {"$adj": adj}]]}
                    return (spec, pa.list_(pa.float64()),
                            lambda: [None if self.maybe(0.15) else self.pick(NUMBERS[:6])
                                     for _ in range(r.randint(0, 3))])
                b1 = self.leaf_spec("string", [])
                b1.setdefault("c", []).insert(0, ["id", "s1"])
                b2 = self.leaf_spec("number", [])
                adj = self.pick(["required", "optional", "min2"])
                spec = {"t": "alternatives", "a": [[{"$s": b1}, {"$s": b2}]],
                        "c": [["fork", "s1", {"$adj": adj}]]}
                return (spec, pa.string(), lambda: self.pick(STRINGS))
            f1 = self.leaf_spec("number", [])
            f2 = self.leaf_spec("string", [])
            deep = self.maybe(0.4)
            if deep:
                inner = {"t": "object", "a": [{"r": {"$s": f2}}]}
                spec = {"t": "object", "a": [{"p": {"$s": f1}, "q": {"$s": inner}}], "c": []}
                path = self.pick(["p", "q.r", "q"])
                at = pa.struct([("p", pa.float64()),
                                ("q", pa.struct([("r", pa.string())]))])

                def gen_forked():
                    return {
                        "p": None if self.maybe(0.3) else self.pick(NUMBERS[:6]),
                        "q": None if self.maybe(0.25) else {
                            "r": None if self.maybe(0.3) else self.pick(STRINGS[:8])},
                    }
            else:
                spec = {"t": "object", "a": [{"p": {"$s": f1}, "q": {"$s": f2}}], "c": []}
                path = self.pick(["p", "q", ["p", "q"]])
                at = pa.struct([("p", pa.float64()), ("q", pa.string())])

                def gen_forked():
                    return {
                        "p": None if self.maybe(0.3) else self.pick(NUMBERS[:6]),
                        "q": None if self.maybe(0.3) else self.pick(STRINGS[:8]),
                    }
            adj = self.pick(["required", "optional", "forbidden", "strip", "raw", "min2"])
            spec["c"].append(["fork", path, {"$adj": adj}])
            if self.maybe(0.3):
                spec["c"].append(["unknown"])
            return (spec, at, gen_forked)
        if kind == "extractfield":
            # extract() pulls a nested subschema out by id path and uses it
            # standalone (ids default to object key names)
            fam = self.pick(["number", "string"])
            leaf = self.leaf_spec(fam, [])
            levels = r.randint(1, 2)
            inner = leaf
            path_parts = []
            for d in range(levels):
                keyname = f"k{d}"
                inner = {"t": "object", "a": [{keyname: {"$s": inner}}]}
                path_parts.insert(0, keyname)
            spec = {"t": "object", "a": inner["a"],
                    "c": [["extract", ".".join(path_parts)]]}
            pool = NUMBERS if fam == "number" else STRINGS
            at = pa.float64() if fam == "number" else pa.string()
            return (spec, at, lambda: self.pick(pool))
        if kind == "assertcol":
            # object.assert (object.js:205-231): a nested-path ref must
            # $_match the asserted schema — match-mode, sub-errors never
            # leak, failure is object.assert rendering the dotted ref path
            # and the default or custom message; multi:true allows stacked
            # assertions
            fam = self.pick(["number", "string"])
            asserted = self.leaf_spec(fam, [])
            # global ($context) subjects are legal per object.js:209 but the
            # REFERENCE CRASHES resolving them (assert_context_crash class);
            # joi_ray resolves prefs.context, so these cases only verify
            # that the crash fires — keep the rate low
            subj = {"$ref": "$lim"} if self.maybe(0.12) else {"$ref": "n.x"}
            first = ["assert", subj, {"$s": asserted}]
            if self.maybe(0.3):
                first.append("pass the custom words")
            chain = [first]
            if self.maybe(0.3):
                chain.append(["assert", {"$ref": "n.x"},
                              {"$s": self.leaf_spec(fam, [])}])
            inner_t = pa.float64() if fam == "number" else pa.string()
            spec = {"t": "object",
                    "a": [{"n": {"$s": {"t": "object",
                                        "a": [{"x": {"$s": {"t": fam}}}]}},
                           "y": {"$s": {"t": "number"}}}],
                    "c": chain}
            at = pa.struct([("n", pa.struct([("x", inner_t)])),
                            ("y", pa.float64())])
            pool = NUMBERS if fam == "number" else STRINGS

            def gen_assert_struct():
                if self.maybe(0.12):
                    return None
                nx = None if self.maybe(0.2) else self.pick(pool)
                nv = None if self.maybe(0.15) else {"x": nx}
                return {"n": nv, "y": None if self.maybe(0.2) else self.pick(NUMBERS)}

            return (spec, at, gen_assert_struct)
        if kind == "altercol":
            # alter() registers named adjuster variants; tailor() applies
            # one recursively (base.js:88-103, :551-571) — adjusters come
            # from the shared $adj catalog.  Round-5 variants exercise the
            # node-verified parity surfaces: duplicate targets applying in
            # registration order across separate alter() calls, tailor with
            # a LIST of targets (base.js:559 [].concat), and alternatives
            # branches recursed by the alternatives tailor override
            # (alternatives.js:145-163)
            fam = self.pick(["number", "string"])
            leaf = self.leaf_spec(fam, [])
            t1 = self.pick(["required", "optional", "forbidden", "min2", "strip"])
            t2 = self.pick(["required", "min2"])
            targets = {"t1": {"$adj": t1}}
            if self.maybe(0.4):
                targets["t2"] = {"$adj": t2}
            # applied: single name, unmatched no-op, or a list of targets
            applied = self.pick(["t1", "t2", "zz", ["t1", "t2"], ["t2", "zz"]])
            pool = NUMBERS if fam == "number" else STRINGS
            at = pa.float64() if fam == "number" else pa.string()
            shape = self.pick(["plain", "plain", "dup", "object", "alts"])
            if shape == "dup":
                # same target registered twice via two alter() calls: tailor
                # applies BOTH adjusters in registration order
                leaf.setdefault("c", []).append(["alter", {"t1": {"$adj": t1}}])
                leaf["c"].append(["alter", {"t1": {"$adj": t2}}])
                leaf["c"].append(["tailor", self.pick(["t1", ["t1"], "zz"])])
                return (leaf, at, lambda: self.pick(pool))
            if shape == "plain":
                leaf.setdefault("c", []).append(["alter", targets])
                leaf["c"].append(["tailor", applied])
                return (leaf, at, lambda: self.pick(pool))
            if shape == "alts":
                # tailor at the alternatives level recurses into matches
                other = self.leaf_spec(fam, [])
                leaf.setdefault("c", []).append(["alter", targets])
                spec = {"t": "alternatives", "a": [[{"$s": leaf}, {"$s": other}]],
                        "c": [["tailor", applied]]}
                return (spec, at, lambda: self.pick(pool))
            # nested: tailor on the object recurses into keys
            leaf.setdefault("c", []).append(["alter", targets])
            spec = {"t": "object", "a": [{"p": {"$s": leaf}}],
                    "c": [["tailor", applied]]}
            at = pa.struct([("p", pa.float64() if fam == "number" else pa.string())])
            pool = NUMBERS[:6] if fam == "number" else STRINGS[:8]

            def gen_alt_struct():
                return {"p": None if self.maybe(0.3) else self.pick(pool)}

            return (spec, at, gen_alt_struct)
        if kind == "concatalts":
            if self.maybe(0.5):
                # alternatives(array) concat alternatives(array): matches
                # lists accumulate (base.js concat terms merge)
                b1 = self.leaf_spec("string", [])
                b2 = self.leaf_spec("string", [])
                b3 = self.leaf_spec("string", [])
                spec = {"t": "alternatives", "a": [[{"$s": b1}, {"$s": b2}]],
                        "c": [["concat", {"$s": {"t": "alternatives",
                                                 "a": [[{"$s": b3}]]}}]]}
                if self.maybe(0.3):
                    spec["c"].append(["required"])
                return (spec, pa.string(), lambda: self.pick(STRINGS))
            # leaf-with-when concat leaf-with-when: whens accumulate and
            # both conditions apply in registration order
            fam = self.pick(["number", "string"])
            base = self.leaf_spec(fam, [])
            others = [n for n in col_names if n != name]
            cond = self.pick(others) if others else name
            kw1 = {"is": self.pick(NUMBERS[:5] + STRINGS[:5]),
                   "then": {"$s": self.leaf_spec(fam, [])}}
            base.setdefault("c", []).append(["when", cond, {"$kw": kw1}])
            other = self.leaf_spec(fam, [])
            kw2 = {"is": self.pick(NUMBERS[:5] + STRINGS[:5]),
                   "then": {"$s": self.leaf_spec(fam, [])}}
            if self.maybe(0.4):
                kw2["otherwise"] = {"$s": self.leaf_spec(fam, [])}
            other.setdefault("c", []).append(["when", cond, {"$kw": kw2}])
            base["c"].append(["concat", {"$s": other}])
            pool = NUMBERS if fam == "number" else STRINGS
            at = pa.float64() if fam == "number" else pa.string()
            return (base, at, lambda: self.pick(pool))
        if kind == "binary":
            c = []
            if self.maybe(0.4):
                c.append(["min", r.randint(0, 3)])
            if self.maybe(0.4):
                c.append(["max", r.randint(3, 10)])
            if self.maybe(0.25):
                c.append(["length", r.randint(1, 6)])
            if self.maybe(0.25):
                c.append([self.pick(["required", "optional"])])
            if self.maybe(0.2):
                # base64 decode path (binary.js encoding flag)
                c.append(["encoding", "base64"])
                return ({"t": "binary", "c": c}, pa.string(),
                        lambda: self.pick(["aGVsbG8=", "YWJj", "YQ==", "bad!", ""]))
            # binary over a string column: utf-8 coercion path
            return ({"t": "binary", "c": c}, pa.string(),
                    lambda: self.pick(STRINGS))
        if kind == "strref":
            # string length limits by sibling ref -> Common.limit arg assert
            c = []
            rule = self.pick(["min", "max", "length"])
            lim = {"$ref": self.pick(sibling_nums)} if sibling_nums else r.randint(0, 5)
            c.append([rule, lim])
            if self.maybe(0.3):
                c.append(["required"])
            return ({"t": "string", "c": c}, pa.string(),
                    lambda: self.pick(STRINGS))
        if kind == "dateref":
            # date compares by sibling ref -> 'must have a valid date format'
            c = []
            rule = self.pick(["min", "max", "greater", "less"])
            others = [n for n in col_names if n != name]
            lim = {"$ref": self.pick(others)} if others and self.maybe(0.7) else "2019-06-01"
            c.append([rule, lim])
            return ({"t": "date", "c": c}, pa.string(),
                    lambda: self.pick(ISODATES))
        if kind == "ordered":
            o1 = self.leaf_spec(self.pick(["number", "string"]), [])
            o2 = self.leaf_spec(self.pick(["number", "string"]), [])
            c: list = [["ordered", {"$s": o1}, {"$s": o2}]]
            if self.maybe(0.3):
                c.append(["min", r.randint(0, 2)])
            at = pa.list_(pa.string())
            pool = [str(v) for v in NUMBERS[:5]] + STRINGS[:6]

            def gen_olist():
                k = r.randint(0, 4)
                return [None if self.maybe(0.1) else self.pick(pool) for _ in range(k)]

            return ({"t": "array", "c": c}, at, gen_olist)
        if kind == "switchcol":
            # when(ref, switch=[{is, then}, ...], otherwise) — base.js
            # switch form; cases are literal is-values
            base_family = self.pick(["number", "string"])
            base = self.leaf_spec(base_family, [])
            others = [n for n in col_names if n != name]
            cond = self.pick(others) if others else name
            pool_is = NUMBERS[:5] + STRINGS[:5] + [True, False]
            cases = [
                {"is": self.pick(pool_is), "then": {"$s": self.leaf_spec(base_family, [])}}
                for _ in range(r.randint(1, 3))
            ]
            kw: dict = {"switch": cases}
            if self.maybe(0.5):
                kw["otherwise"] = {"$s": self.leaf_spec(base_family, [])}
            base.setdefault("c", []).append(["when", cond, {"$kw": kw}])
            pool = NUMBERS if base_family == "number" else STRINGS
            at = pa.float64() if base_family == "number" else pa.string()
            return (base, at, lambda: self.pick(pool))
        if kind == "peekcol":
            # when(schema, {then, otherwise}) — the peek form evaluated
            # against the node's OWN value (alternatives.js:192)
            base = self.leaf_spec("string", [])
            peek = {"$s": {"t": "string", "c": [["min", r.randint(1, 4)]]}}
            kw = {"then": {"$s": self.leaf_spec("string", [])},
                  "otherwise": {"$s": self.leaf_spec("string", [])}}
            base.setdefault("c", []).append(["when", peek, {"$kw": kw}])
            return (base, pa.string(), lambda: self.pick(STRINGS))
        if kind == "patstruct":
            # object patterns: unknown keys matching a regex validate with
            # the pattern schema (object.js:340-369)
            f1 = self.leaf_spec("number", [])
            pat_schema = self.leaf_spec(self.pick(["number", "string"]), [])
            c = [["pattern", {"$re": self.pick(["^q", "^[xy]", "z$"])}, {"$s": pat_schema}]]
            if self.maybe(0.3):
                c.append(["unknown"])
            spec = {"t": "object", "a": [{"p": {"$s": f1}}], "c": c}
            pat_type = pa.float64() if pat_schema["t"] == "number" else pa.string()
            fields = [("p", pa.float64()), ("q1", pat_type), ("xx", pa.string())]
            at = pa.struct(fields)

            def gen_pat():
                pool_p = NUMBERS[:6]
                pool_q = NUMBERS[:6] if pat_schema["t"] == "number" else STRINGS[:8]
                return {
                    "p": None if self.maybe(0.3) else self.pick(pool_p),
                    "q1": None if self.maybe(0.3) else self.pick(pool_q),
                    "xx": None if self.maybe(0.5) else self.pick(STRINGS[:6]),
                }

            return (spec, at, gen_pat)
        if kind == "renstruct":
            # renames: plain and regex sources (object.js:387-415)
            f1 = self.leaf_spec("number", [])
            f2 = self.leaf_spec("string", [])
            c = []
            if self.maybe(0.5):
                c.append(["rename", "src", "p", {"$kw": {}}])
            else:
                kw = {}
                if self.maybe(0.4):
                    kw["multiple"] = True
                c.append(["rename", {"$re": "^s"}, "p", {"$kw": kw}])
            if self.maybe(0.3):
                c.append(["unknown"])
            spec = {"t": "object", "a": [{"p": {"$s": f1}, "q": {"$s": f2}}], "c": c}
            at = pa.struct([("src", pa.float64()), ("q", pa.string())])

            def gen_ren():
                return {
                    "src": None if self.maybe(0.3) else self.pick(NUMBERS[:6]),
                    "q": None if self.maybe(0.3) else self.pick(STRINGS[:8]),
                }

            return (spec, at, gen_ren)
        if kind == "deepstruct":
            # object-in-object with an inner dependency and a cross-level
            # ref (inner rule referencing the OUTER sibling via '...')
            inner_leaf = self.leaf_spec("number", [])
            inner = {"t": "object", "a": [{"x": {"$s": inner_leaf},
                                           "y": {"$s": self.leaf_spec("string", [])}}]}
            if self.maybe(0.4):
                dep = self.pick(["and", "xor", "with"])
                # joi: and/xor take FLAT peers; with takes (key, [peers])
                inner["c"] = [[dep, "x", ["y"] if dep == "with" else "y"]]
            c = []
            if self.maybe(0.3):
                c.append(["unknown"])
            spec = {"t": "object", "a": [{"inner": {"$s": inner},
                                          "top": {"$s": self.leaf_spec("number", [])}}], "c": c}
            at = pa.struct([("inner", pa.struct([("x", pa.float64()), ("y", pa.string())])),
                            ("top", pa.float64())])

            def gen_deep():
                return {
                    "inner": None if self.maybe(0.2) else {
                        "x": None if self.maybe(0.3) else self.pick(NUMBERS[:6]),
                        "y": None if self.maybe(0.3) else self.pick(STRINGS[:8]),
                    },
                    "top": None if self.maybe(0.3) else self.pick(NUMBERS[:6]),
                }

            return (spec, at, gen_deep)
        if kind == "altobj":
            # alternatives over STRUCT values: object branches with
            # different key requirements
            b1 = {"t": "object", "a": [{"p": {"$s": {"t": "number", "c": [["required"]]}}}]}
            b2 = {"t": "object", "a": [{"q": {"$s": {"t": "string", "c": [["required"]]}}}]}
            spec = {"t": "alternatives", "a": [[{"$s": b1}, {"$s": b2}]]}
            at = pa.struct([("p", pa.float64()), ("q", pa.string())])

            def gen_altobj():
                return {
                    "p": None if self.maybe(0.5) else self.pick(NUMBERS[:5]),
                    "q": None if self.maybe(0.5) else self.pick(STRINGS[:6]),
                }

            return (spec, at, gen_altobj)
        if kind == "hascol":
            # array().has(schema): ordered short-circuit probe with real
            # validate semantics (warn leaks, array.hasUnknown)
            inner = self.leaf_spec(self.pick(["number", "string"]), [])
            c: list = [["items", {"$s": {"t": "any", "c": []}}], ["has", {"$s": inner}]]
            if self.maybe(0.3):
                c.append(["min", r.randint(0, 2)])
            at = pa.list_(pa.string())
            pool = [str(v) for v in NUMBERS[:4]] + STRINGS[:6]

            def gen_has():
                k = r.randint(0, 4)
                return [None if self.maybe(0.1) else self.pick(pool) for _ in range(k)]

            return ({"t": "array", "c": c}, at, gen_has)
        if kind == "structarray":
            # array whose items are an OBJECT schema (list<struct> column):
            # per-item key validation, item-level dependencies, required
            # item fields, unique() deep-equal over struct items
            # (lib/types/array.js items loop over object values)
            fx = self.leaf_spec("number", [])
            fy = self.leaf_spec("string", [])
            item: dict = {"t": "object", "a": [{"x": {"$s": fx}, "y": {"$s": fy}}]}
            if self.maybe(0.35):
                dep = self.pick(["and", "xor", "with", "or"])
                item["c"] = [[dep, "x", ["y"] if dep == "with" else "y"]]
            c: list = [["items", {"$s": item}]]
            if self.maybe(0.3):
                c.append(["min", r.randint(0, 2)])
            if self.maybe(0.3):
                c.append(["max", r.randint(2, 5)])
            if self.maybe(0.25):
                c.append(["unique"])  # deep-equal over struct items
            elif self.maybe(0.2):
                # sort by an item FIELD (Compile.ref ancestor 0 resolution
                # per item, array.js sort:751-756)
                c.append(["sort", {"$kw": {"by": self.pick(["x", "y"]),
                                           "order": self.pick(["ascending", "descending"])}}])
            if self.maybe(0.25):
                c.append(["sparse"])
            at = pa.list_(pa.struct([("x", pa.float64()), ("y", pa.string())]))

            def gen_salist():
                n = r.randint(0, 3)
                out = []
                for _ in range(n):
                    if self.maybe(0.1):
                        out.append(None)
                    else:
                        out.append({
                            "x": None if self.maybe(0.3) else self.pick(NUMBERS[:5]),
                            "y": None if self.maybe(0.3) else self.pick(STRINGS[:6]),
                        })
                return out

            return ({"t": "array", "c": c}, at, gen_salist)
        if kind == "mixedalts":
            # branches from different families: exercises alternatives.types
            # vs alternatives.match unions
            b1 = self.leaf_spec("number", [])
            b2 = self.leaf_spec(self.pick(["string", "boolean"]), [])
            spec = {"t": "alternatives", "a": [[{"$s": b1}, {"$s": b2}]]}
            return (spec, pa.string(), lambda: self.pick(STRINGS + NUMSTRINGS))
        raise ValueError(kind)


PREFS_POOL = [
    {},
    {},
    {"convert": False},
    {"stripUnknown": True},
    {"allowUnknown": True},
    {"presence": "required"},
    {"abortEarly": True},
    {"noDefaults": True},
    {"abortEarly": True, "presence": "required"},
    {"convert": False, "abortEarly": True},
    {"presence": "optional", "stripUnknown": True, "abortEarly": True},
    # presence:'forbidden' default — every key without an explicit presence
    # flag rejects provided values (validator.js:168-190 any.unknown)
    {"presence": "forbidden"},
    # error-render options (errors.js:76 / common.js:27-32 defaults)
    {"errors": {"wrapArrays": False}},
    {"errors": {"escapeHtml": True}},
    {"dateFormat": "utc"},
    {"dateFormat": "date"},
    {"dateFormat": "string"},
    {"dateFormat": "time", "abortEarly": True},
    # global ($context) refs: bound number, bound WRONG type (arg assert
    # any.ref), and the unbound case rides the entries above
    {"context": {"lim": 4}},
    {"context": {"lim": "abc"}, "abortEarly": True},
    {"context": {"lim": 4}, "convert": False},
    # stripUnknown OBJECT form: arrays strips unmatched items, objects
    # strips unknown keys (array.js:266, object.js unknown handling)
    {"stripUnknown": {"arrays": True, "objects": True}},
    {"stripUnknown": {"objects": True}},
    # prefs-level message maps: root-level code entries and
    # errors.language-keyed sub-maps (lib/errors.js messages preference)
    {"messages": {"number.min": "custom-min {{#limit}} {{#label}}",
                  "string.max": "too long: {[.]}"}},
    {"messages": {"english": {"number.max": "EN max {{#limit}}"},
                  "number.max": "root max {{#limit}}"},
     "errors": {"language": "english"}},
]


def gen_case(seed: int):
    r = random.Random(seed)
    g = Gen(r)
    ncols = r.randint(1, 4)
    names = ["a", "b", "c", "d"][:ncols]
    # decide which columns are numbers first so refs have targets
    cols = {}
    sibling_nums: list[str] = []
    for n in names:
        spec, at, fn = g.column(n, [s for s in sibling_nums if s != n], names)
        if r.random() < 0.06:
            # schema-LOCAL prefs override the validate-call prefs for this
            # node's subtree (base.js prefs(), merged at eval — node side
            # replays s.prefs({...}) verbatim)
            spec = dict(spec)
            spec["c"] = list(spec.get("c", [])) + [["prefs", g.pick([
                {"convert": False}, {"abortEarly": True},
                {"presence": "required"}, {"presence": "forbidden"},
                {"noDefaults": True},
            ])]]
        cols[n] = (spec, at, fn)
        if at == pa.float64():
            sibling_nums.append(n)
    # occasional empty/single-row tables: Ray partitions hand the engine
    # 0-row blocks at scale — every kernel must survive them.
    # FUZZ_ROWS=120 stresses the large-batch paths (active-row subset
    # thresholds, chunked columns) at the cost of slower node replays
    _fr = os.environ.get("FUZZ_ROWS", "").strip()
    if _fr:
        nrows = int(_fr)
    else:
        nrows = r.choice([0, 1]) if r.random() < 0.03 else r.randint(6, 16)
    arrays = {}
    for n, (spec, at, fn) in cols.items():
        vals = [None if r.random() < 0.15 else fn() for _ in range(nrows)]
        arrays[n] = pa.array(vals, type=at)
    tbl = pa.table(arrays)
    if r.random() < 0.08:
        # FUNCTION defaults/failovers via the shared $dflt catalog
        # (refrunner.js DFLT_FNS ↔ diffref._DFLT_FNS): zero-arg consts,
        # a thrower (any.default/any.failover), and an arg-taking
        # parent-reader — the last gated on column 'a' being a plain
        # float64 so both engines see the same parent.a (a coercing
        # column would give joi the converted value mid-iteration)
        tgt = r.choice(names)
        pool_d = ["const7", "strq", "thrower"]
        if "a" in sibling_nums and tgt != "a":
            pool_d.append("parent_a2")
        kind_d = r.choice(["default", "failover"])
        spec_t, at_t, fn_t = cols[tgt]
        spec_t = dict(spec_t)
        spec_t["c"] = list(spec_t.get("c", [])) + [[kind_d, {"$dflt": r.choice(pool_d)}]]
        cols[tgt] = (spec_t, at_t, fn_t)
    if r.random() < 0.07:
        # POST-WHEN chain flags: joi's when() wraps the base in a fresh
        # unlabeled alternatives (base.js:364), so default/failover/label
        # set AFTER a when land on the WRAPPER and apply in its finalize
        # over the merged branch result (engine._finish_whens) — a
        # distinct layer from the pre-when snapshot the branches carry.
        # Target a when-carrying column when one exists to hit that path.
        when_tgts = [n for n in names
                     if any(e and e[0] == "when" for e in cols[n][0].get("c", []))]
        tgt = r.choice(when_tgts) if when_tgts else r.choice(names)
        spec_t, at_t, fn_t = cols[tgt]
        spec_t = dict(spec_t)
        chain = list(spec_t.get("c", []))
        scalar_pool = (NUMBERS[:6] if at_t == pa.float64() else STRINGS[:8])
        for kind_p in r.sample(["default", "failover", "label", "valid", "invalid"],
                               1 if r.random() < 0.6 else 2):
            if kind_p == "label":
                chain.append(["label", "W" + str(r.randint(1, 5))])
            elif kind_p in ("valid", "invalid"):
                # post-when valid/invalid live on joi's WRAPPER — its own
                # valids stage runs BEFORE branch dispatch, so a raw match
                # returns verbatim without the branch's coercion
                chain.append([kind_p] + r.sample(scalar_pool, r.randint(1, 2)))
            elif r.random() < 0.4:
                chain.append([kind_p, {"$dflt": r.choice(["const7", "strq", "thrower"])}])
            else:
                chain.append([kind_p, r.choice(scalar_pool)])
        spec_t["c"] = chain
        cols[tgt] = (spec_t, at_t, fn_t)
    root_spec = {"t": "object", "a": [{n: {"$s": cols[n][0]} for n in names}]}
    if r.random() < 0.04:
        # ROOT-level schema-local prefs (the root presence stage, root
        # convert-off, etc. — validator.js merges before the root eval)
        root_spec["c"] = [["prefs", g.pick([
            {"convert": False}, {"abortEarly": True},
            {"presence": "forbidden"}, {"noDefaults": True},
        ])]]
    # targeted sweeps: FUZZ_PREFS='{"stripUnknown":{"arrays":true,...}}'
    # pins the prefs for every case (like FUZZ_KINDS pins column kinds)
    _p = os.environ.get("FUZZ_PREFS", "").strip()
    prefs = json.loads(_p) if _p else dict(r.choice(PREFS_POOL))
    return root_spec, tbl, prefs


def run_fuzz(n_cases: int, start_seed: int = 0, out_path="/tmp/fuzz_devs.jsonl"):
    ref = RefJoi()
    total_devs = 0
    bad_cases = 0
    build_errors = 0
    kinds: dict[str, int] = {}
    try:
        with open(out_path, "a") as out:
            for seed in range(start_seed, start_seed + n_cases):
                root_spec, tbl, prefs = gen_case(seed)
                try:
                    schema = build_spec_py(root_spec)
                except Exception as e:  # spec invalid for joi_ray
                    try:
                        ref.validate(None, [], prefs, spec=root_spec)
                        kinds["build_py_only"] = kinds.get("build_py_only", 0) + 1
                        out.write(json.dumps({"seed": seed, "kind": "build_py_only",
                                              "err": str(e), "spec": root_spec}) + "\n")
                    except RefJoiError:
                        pass  # both reject: fine
                    build_errors += 1
                    continue
                try:
                    devs = diff_case(ref, schema, tbl, prefs, spec=root_spec)
                except RefJoiError as e:
                    msg = str(e)
                    if "reading 'toString'" in msg and "template.js" in msg:
                        # joi v16-rc2 crashes rendering a template whose
                        # value is undefined (errors.js -> template.js:316)
                        # — a reference bug, tracked but not a deviation
                        kinds["ref_template_crash"] = kinds.get("ref_template_crash", 0) + 1
                        out.write(json.dumps({"seed": seed, "kind": "ref_template_crash",
                                              "err": msg[:300], "spec": root_spec}) + "\n")
                        continue
                    if "reading 'context'" in msg and "ref.js" in msg:
                        # joi v16-rc2 crashes on ANY object.assert whose
                        # subject is a $context ref: object.js:223 calls
                        # ref.resolve with NO prefs, so ref.js:114 reads
                        # undefined.context — a reference bug (node-
                        # verified); joi_ray resolves the context value
                        kinds["assert_context_crash"] = kinds.get("assert_context_crash", 0) + 1
                        out.write(json.dumps({"seed": seed, "kind": "assert_context_crash",
                                              "err": msg[:300], "spec": root_spec}) + "\n")
                        continue
                    # parity probe: joi may legitimately REFUSE the schema
                    # at build/validate time (e.g. cyclic rule-arg refs via
                    # @hapi/topo) — if joi_ray refuses too, both sides
                    # agree and there is no deviation
                    from diffref import prefs_to_py, run_joi_ray

                    try:
                        run_joi_ray(schema, tbl, prefs=prefs_to_py(prefs))
                    except Exception:
                        kinds["both_reject"] = kinds.get("both_reject", 0) + 1
                        continue
                    if "build_ref_only" not in kinds:
                        kinds["build_ref_only"] = 0
                    kinds["build_ref_only"] += 1
                    out.write(json.dumps({"seed": seed, "kind": "build_ref_only",
                                          "err": msg[:500], "spec": root_spec}) + "\n")
                    bad_cases += 1
                    continue
                # value_repr = documented Arrow single-type-column limit
                # (heterogeneous alternatives conversions); message_shadow_bug
                # = joi v16-rc2 rendering the internal shadow Map as the
                # value.  Tracked in the kinds tally and the jsonl, but not
                # failing cases.
                hard = [d for d in devs if d["kind"] not in
                        ("value_repr", "message_shadow_bug",
                         "message_shadow_null", "ref_shadow_map_ref")]
                if devs:
                    bad_cases += 1 if hard else 0
                    total_devs += len(devs)
                    for d in devs:
                        kinds[d["kind"]] = kinds.get(d["kind"], 0) + 1
                    out.write(
                        json.dumps(
                            {
                                "seed": seed,
                                "prefs": prefs,
                                "spec": root_spec,
                                "devs": devs[:6],
                            },
                            default=str,
                        )
                        + "\n"
                    )
                if (seed - start_seed + 1) % 50 == 0:
                    print(
                        f"[{seed + 1 - start_seed}/{n_cases}] cases-with-devs={bad_cases} "
                        f"devs={total_devs} kinds={kinds}",
                        flush=True,
                    )
    finally:
        ref.close()
    print(f"DONE: {n_cases} cases, {bad_cases} with deviations, {total_devs} total; kinds={kinds}")
    return bad_cases


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    s = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(1 if run_fuzz(n, s) else 0)
