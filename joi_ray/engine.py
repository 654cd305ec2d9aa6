"""The batch validation engine: Schema -> CompiledSchema -> per-batch eval.

This is the Ray-Data-native replacement for the reference's per-value
recursive-descent interpreter (``/root/reference/lib/validator.js:112-257``).
The same stage order is preserved per column, but every stage is a
vectorized mask/kernel over an Arrow column instead of a per-value branch.
Each stage is a module-level function of one ``_Node`` (the node, its env,
scope, current value and masks).  Compilation gives every node its
``plan``, the stages it runs in joi's order (``_plan``), and
``_eval_node_impl`` runs it: ``_coerce_stage`` → ``_empty_stage`` →
``_presence_stage`` → ``_valids_stage`` → ``_base_stage`` (base checks,
then ``_eval_object`` / ``_eval_array``) → ``_rules_stage`` →
``_finalize_stage``.  Alternatives run the same presence and valids stages,
then ``_match_stage``; when() wrappers their own valids stage, then
``_when_stage``.  ``_Node.add`` and ``_Node.adopt`` are the only report
paths.

``_eval_array`` is joi's one items loop (array.js:140-350), split the same
way into stage functions of one ``_Items`` context (flat items, parents,
positions, the live/matched/strip/undef masks, the child env):
``_items_sparse`` → ``_items_ordered`` → ``_items_exclusions`` →
``_items_requireds`` → ``_items_inclusions`` → ``_items_missed`` →
``_items_splice`` → ``_items_finish``.  ``_Items.report`` is the loop's
one item-report path and ``_Items.adopt`` its one adoption path.

Compilation happens once (driver, or per validator actor in ``__init__``);
``validate_table`` then runs per batch with no Python-per-row work.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .extend import lookup_rule
from .spec import Ref, Schema, _value_key, build, compile_literal
from .kernels import lists as k_lists
from .kernels import numbers as k_numbers
from .kernels import scalars as k_scalars
from .kernels import strings as k_strings
from .kernels import structs as k_structs
from .kernels import messages as k_messages
from .kernels.messages import render
from .kernels.template import Template
from .kernels.util import (AltView, Env, ErrRec, as_bool_np, combine, null_mask, ref_cell, ref_parts,
                           resolve_template_column)

DEFAULT_PREFS = {
    "convert": True,          # lib/common.js:25
    "abort_early": True,      # joi default abortEarly=true
    "allow_unknown": False,
    "strip_unknown": False,
    "context": {},
    "now_ms": 1_700_000_000_000,  # 'now' bound at compile time for determinism
}

def _item_label_path(p: str, it: int, ipos: "Optional[int]") -> str:
    """joi label path for an item error: index at the array boundary
    ('a[0].x') when the error is below the array level (errors.js:87-107);
    appended ('a[0]') when the path IS the array path."""
    if it < 0:
        return p
    if ipos is None or ipos >= len(p):
        return f"{p}[{it}]"
    return f"{p[:ipos]}[{it}]{p[ipos:]}"


VIOLATION_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("row", pa.int64()),
        ("path", pa.string()),
        ("item_index", pa.int32()),
        ("code", pa.string()),
        ("message", pa.string()),
        ("context", pa.string()),
        ("severity", pa.string()),
    ]
)


@dataclass
class CompiledRule:
    name: str
    fn: Any                   # kernel(arr, env) -> RuleOut
    code: str
    seq: int
    warn: bool = False
    message: Optional[str] = None
    convert_phase: bool = False


@dataclass
class NodeResult:
    value: pa.Array
    errors: list[ErrRec] = field(default_factory=list)
    missing: Optional[np.ndarray] = None
    failed: Optional[np.ndarray] = None
    strip: bool = False
    #: per-ROW strip (a strip flag set by a MATCHED when/switch branch
    #: applies only where the branch matched — joi resolves the schema per
    #: value, so object.js's strip delete is row-dependent; fuzz seed 98)
    strip_rows: Optional[np.ndarray] = None
    raw_value: Optional[pa.Array] = None
    #: joi's shadow map (validator.js:414-417): the CONVERTED values of
    #: raw()/strip() nodes, set in finalize even for rows that ERRORED, so
    #: sibling refs resolve them although the output keeps the original.
    #: Ordered (row-mask, column) pairs, later pairs winning; a pair's
    #: column may have any type (``_failed_overlay`` reads them)
    shadow: list = field(default_factory=list)
    #: rows whose value was SET by this node's finalize (default/failover
    #: adoption) — joi's `value !== undefined` afterwards, so a whens
    #: WRAPPER default must not re-fill them (validator.js:383; the
    #: missing mask intentionally stays true for required+default rows)
    fin_filled: Optional[np.ndarray] = None
    #: per-row TYPED view for ref consumers where the column could not hold
    #: a converted or adopted value (see ``AltView``)
    alt_view: Optional[AltView] = None


_RULE_FACTORIES = {
    "string": k_strings.FACTORIES,
    "number": k_numbers.FACTORIES,
    "date": k_scalars.DATE_FACTORIES,
    "binary": k_scalars.BINARY_FACTORIES,
    "array": k_lists.FACTORIES,
}
_RULE_CODES = {
    "string": k_strings.CODES,
    "number": k_numbers.CODES,
}
# array rules handled structurally by the engine, not leaf kernels
_STRUCTURAL_RULES = {
    "array": {"has"},
    "object": {"assert", "min", "max", "length"},
    "any": set(),
}
#: rules applied in the coerce stage and skipped in the rules loop under
#: convert; isoDate joins normalize/case/trim (its coerce conversion +
#: error live in eval_node's string pipeline)
_STRING_CONVERT_RULES = set(k_strings.CONVERT_ORDER) | {"isoDate"}

# rules that never rewrite the column: safe to evaluate on the active-row
# subset only (branch scopes from when() often cover ~half the rows; regex
# and compare kernels then touch half the bytes)
_PURE_CHECK_RULES = {
    "min", "max", "length", "greater", "less", "pattern", "alphanum", "token",
    "hex", "base64", "dataUri", "email", "domain", "hostname", "guid", "ip",
    "uri", "isoDuration", "creditCard", "integer", "multiple",
    "port", "sign", "unique", "sort",
}  # isoDate excluded: it rewrites to canonical ISO in convert mode


# physical-type families whose rule kernels can run on the column; a
# mismatch (string rules on int64, etc.) means every present row already
# failed the base type check and the loop is skipped
_RULE_TYPE_GUARDS = {
    "string": lambda t: pa.types.is_string(t) or pa.types.is_large_string(t),
    "number": lambda t: (pa.types.is_floating(t) or pa.types.is_integer(t)
                         or pa.types.is_decimal(t)),
    "boolean": pa.types.is_boolean,
    "date": lambda t: pa.types.is_timestamp(t) or pa.types.is_date(t),
    "binary": lambda t: pa.types.is_binary(t) or pa.types.is_large_binary(t),
    "array": lambda t: pa.types.is_list(t) or pa.types.is_large_list(t),
    "object": pa.types.is_struct,
}


def _rule_type_ok(node_type: str, arrow_type: pa.DataType) -> bool:
    guard = _RULE_TYPE_GUARDS.get(node_type)
    return guard is None or bool(guard(arrow_type))


#: the deepest schema nesting compile accepts.  Each level costs about five
#: Python frames at validation (``eval_node`` -> ``_eval_node_impl`` ->
#: ``_base_stage`` -> ``_eval_object`` -> ``run_child`` for an object), so
#: 128 levels take 640 of Python's default 1,000, leaving room for the
#: caller's own frames (a test runner, a Ray worker)
MAX_SCHEMA_DEPTH = 128


class SchemaTooDeep(ValueError):
    """The schema nests deeper than ``MAX_SCHEMA_DEPTH`` levels: refused at
    compile, since validating it would exhaust Python's recursion limit."""


def _resolvable(v) -> bool:
    """joi's Common.isResolvable: Refs AND Templates (Joi.x) resolve per
    row inside the valids/invalids sets."""
    return isinstance(v, Ref) or hasattr(v, "resolve_value")


class CNode:
    """One compiled schema node: kernels constructed, children compiled,
    value sets prebuilt, conditionals desugared via concat, and ``plan``:
    the stage functions the node runs per batch, in order (``_plan``).
    ``depth`` counts the schema levels down to this node (the root is 1)."""

    def __init__(self, schema: Schema, depth: int = 1):
        if depth > MAX_SCHEMA_DEPTH:
            raise SchemaTooDeep(f"schema nests deeper than {MAX_SCHEMA_DEPTH} levels")
        depth += 1  # the children's level
        self.schema = schema
        self.type = schema.type
        self.flags = dict(schema.flags)
        self.terms = t = schema.terms
        self.rules, self.convert_rules = _compile_rules(schema, depth)
        self.keys, self.key_order, self.patterns = _compile_keys(t, depth)
        # term PRESENCE is semantic: object() (no term) allows any key,
        # object({}) / keys({}) (empty term) forbids all (object.js:258-270,
        # unknown-key gate :1043-1046)
        self.keys_term: bool = "keys" in t
        self.items, self.inclusions, self.exclusions, self.ordered = _compile_items(t, depth)
        self.matches, ended = _compile_matches(t, depth)
        self.empty_schemas, self.empty_values = _compile_empty(self.flags, depth)
        self.dependencies = list(t.get("dependencies", []))
        self.renames = list(t.get("renames", []))
        self.replacements = list(t.get("replacements", []))
        self.whens, self.wrapper_fins, wrapper_sets = _compile_whens(schema, depth)
        if self.whens:
            # the wrapper's own valids stage matches only the values added
            # after the when(); the branches hold the earlier ones
            allow, invalid = wrapper_sets or ([], [])
            only = bool(allow)
        else:
            allow, invalid, only = schema.allow_vals, schema.invalid_vals, bool(self.flags.get("only"))
        (self.allow_static, self.allow_refs, self.invalid_static, self.invalid_refs,
         self.allow_missing) = _compile_valids(allow, invalid)
        self.only = only
        # prefs.presence supplies the default presence, except on an
        # ended-switch alternatives: a match entry carrying BOTH then and
        # otherwise makes it 'ignore' (validator.js:170 `_endedSwitch ?
        # 'ignore' : prefs.presence`), so an undefined value flows INTO the
        # matched branch and its own presence/defaults govern (fuzz seed
        # 35000022, node-verified)
        self.presence = self.flags.get("presence") or ("ignore" if ended else None)
        # joi's when() on a non-alternatives base returns a FRESH unlabeled
        # alternatives (base.js:364): a label set before the when() lives in
        # the branches, so the wrapper's own reports drop it
        pre_when = self.whens and schema.metas.get("_label_pre_when")
        self.label = None if pre_when else self.flags.get("label")
        self.plan = _plan(self)


def _compile_valids(allow: list, invalid: list) -> tuple:
    """(allow_static, allow_refs, invalid_static, invalid_refs,
    allow_missing): static values, per-row resolvable ones, and whether
    allow(None) lets a missing value through."""
    allow_static = [v for v in allow if not _resolvable(v)]
    invalid_static = [v for v in invalid if not _resolvable(v) and v is not None]
    return ([v for v in allow_static if v is not None], [v for v in allow if _resolvable(v)],
            invalid_static, [v for v in invalid if _resolvable(v)],
            any(v is None for v in allow_static))


def _compile_rules(schema: Schema, depth: int) -> tuple[list, list]:
    """(rules, convert_rules): the leaf rule kernels in registration order,
    and the string convert-phase rules as a normalize -> case -> trim
    ordered VIEW for the coerce-time pass.  The main list keeps
    registration order: under convert:false those rules validate in the
    rules loop, and abortEarly's first error depends on that order."""
    typ = schema.type
    rules: list[CompiledRule] = []
    structural = _STRUCTURAL_RULES.get(typ, set())
    factories = _RULE_FACTORIES.get(typ, {})
    for seq, r in enumerate(schema.rules):
        name, args = r["name"], r.get("args", {})
        warn, message = r.get("warn", False), r.get("message")
        if name == "warning":
            rules.append(CompiledRule(name, None, args.get("code", "any.warning"), seq, warn=True,
                                      message=message))
        elif name in structural:
            # has() and assert() validate against a schema, compiled here
            sub = args.get("schema")
            sub = None if sub is None else CNode(sub if isinstance(sub, Schema) else build(sub), depth)
            rules.append(CompiledRule(name, ("structural", args, sub), f"{typ}.{name}", seq, warn=warn,
                                      message=message))
        elif name not in factories:
            hit = lookup_rule(typ, name)
            if hit is None:
                raise ValueError(f"unknown rule {typ}.{name}")
            custom_factory, code = hit
            rules.append(CompiledRule(name, custom_factory(args), code, seq, warn=warn, message=message))
        else:
            code_fn = _RULE_CODES.get(typ, {}).get(name)
            rules.append(CompiledRule(
                name, factories[name](args), code_fn(args) if code_fn else f"{typ}.{name}", seq,
                warn=warn, message=message,
                convert_phase=(typ == "string" and name in _STRING_CONVERT_RULES)))
    convert_rules: list = []
    if typ == "string":
        order = {n: i for i, n in enumerate(k_strings.CONVERT_ORDER)}
        convert_rules = sorted((r for r in rules if r.convert_phase and r.name in order),
                               key=lambda r: order[r.name])
    return rules, convert_rules


def _compile_keys(t: dict, depth: int) -> tuple:
    """(keys, key_order, patterns) of an object.  The key order is the
    evaluation order; a cyclic dependency is refused here, at compile, as
    the reference refuses it at schema build."""
    keys: dict[str, CNode] = {k: CNode(v, depth) for k, v in t.get("keys", {}).items()}
    _share_conditions(keys)
    patterns = [
        {
            "rx": re.compile(p["regex"]),
            "node": CNode(p["schema"], depth),
            "exclusive": bool(p.get("exclusive")),
            "matches": CNode(p["matches"], depth) if p.get("matches") is not None else None,
        }
        for p in t.get("patterns", [])
    ]
    return keys, _topo_keys(keys), patterns


def _share_conditions(keys: dict[str, CNode]) -> None:
    """Sibling when()s on one ref whose ``is`` schemas are equal and
    ref-free share one ``is`` CNode, marked ``shared`` on each entry, so
    ``_when_condition`` evaluates it once per object scope.  The schemas
    are compared only when the refs are equal."""
    seen: list[dict] = []
    for cn in keys.values():
        for w in cn.whens:
            if "is" not in w:
                continue
            for first in seen:
                if first["ref"] == w["ref"] and _same_condition(first["is"].schema, w["is"].schema):
                    w["is"] = first["is"]
                    w["shared"] = first["shared"] = True
                    break
            else:
                seen.append(w)


def _same_condition(a: Schema, b: Schema) -> bool:
    """Whether two ``is`` schemas are equal and their outcome depends on the
    value alone: no ref, template or function in their description."""
    def ref_free(o) -> bool:
        if isinstance(o, dict):
            return "ref" not in o and "template" not in o and all(map(ref_free, o.values()))
        if isinstance(o, (list, tuple)):
            return all(map(ref_free, o))
        return not callable(o)

    try:
        desc = a.describe()
        return bool(desc == b.describe()) and ref_free(desc)  # Schema.__eq__ compares describe()
    except Exception:  # noqa: BLE001 — exotic value __eq__
        return False


def _compile_items(t: dict, depth: int) -> tuple:
    """(items, inclusions, exclusions, ordered) of an array: forbidden item
    schemas are EXCLUSIONS, matched without the flag (array.js:145-153)."""
    items = [CNode(v, depth) for v in t.get("items", [])]
    inclusions = [ic for ic in items if ic.flags.get("presence") != "forbidden"]
    exclusions = [CNode(ic.schema.optional(), depth) for ic in items if ic not in inclusions]
    return items, inclusions, exclusions, [CNode(v, depth) for v in t.get("ordered", [])]


def _compile_matches(t: dict, depth: int) -> tuple[list, bool]:
    """(matches, ended) of an alternatives: plain try-branches ({"schema":
    CNode}) or conditional entries from alternatives.when (lib/types/
    alternatives.js:36-57); ``ended`` when an entry carries both then and
    otherwise (joi's ``_endedSwitch``)."""
    matches: list[dict] = []
    for v in t.get("matches", []):
        if isinstance(v, Schema) or (isinstance(v, dict) and "type" in v):
            matches.append({"schema": CNode(v if isinstance(v, Schema) else build(v), depth)})
            continue
        e = {
            "then": CNode(v["then"], depth) if v.get("then") is not None else None,
            "otherwise": CNode(v["otherwise"], depth) if v.get("otherwise") is not None else None,
        }
        if v.get("peek") is not None:
            pk = v["peek"]
            e["peek"] = CNode(pk if isinstance(pk, Schema) else build(pk), depth)
        else:
            r = v["ref"]
            e["ref"] = r if isinstance(r, Ref) else Ref(r)
            e["is"] = _compile_is(v.get("is"), depth)
        matches.append(e)
    ended = any("schema" not in m and m["then"] is not None and m["otherwise"] is not None
                for m in matches)
    return matches, ended


def _compile_empty(flags: dict, depth: int) -> tuple[list, list]:
    """(empty_schemas, empty_values) of empty(): schema-valued entries
    precompiled; string matchers implicitly allow "" (an empty string
    should be matchable as "empty" — the base string.empty check must not
    veto it)."""
    raw_empty = flags.get("empty") or []
    schemas = [CNode(v.allow("") if v.type == "string" and "" not in v.allow_vals else v, depth)
               for v in raw_empty if isinstance(v, Schema)]
    return schemas, [v for v in raw_empty if not isinstance(v, Schema)]


def _compile_whens(schema: Schema, depth: int) -> tuple:
    """(whens, wrapper_fins, wrapper_sets): the first when() desugared at
    compile via concat (lib/base.js:364 lifts a when() into alternatives;
    we keep base+branch merged chains), the post-when default/failover and
    the post-when (allow, invalid) values of the wrapper.  Multiple when()s
    apply successively: each branch keeps the remaining whens, which
    recurse at CNode construction (2^K combos worst case, K is small in
    practice)."""
    all_whens = schema.terms.get("whens", [])
    if not all_whens:
        return [], None, None
    w, rest = all_whens[0], all_whens[1:]
    base = schema._clone()
    base.terms = {k: v for k, v in base.terms.items() if k != "whens"}
    if rest:
        base.terms["whens"] = rest
    fins = sets = None
    bf = w.get("base_flags")
    if bf is not None:
        # the BRANCHES carry the PRE-when default/failover/only snapshot
        # (joi: branch = base-at-when-time concat then/otherwise, base.js:
        # 330-343); flags (re)set after the when belong to the wrapper and
        # apply over the merged result instead (fuzz seeds 957 / 1028,
        # node-verified)
        base.flags = {k: v for k, v in base.flags.items() if k not in ("default", "failover", "only")}
        base.flags.update(bf)
        fins = {}
        for k in ("default", "failover"):
            if k not in schema.flags:
                continue
            if k in bf and schema.flags[k] is bf[k]:
                continue  # unchanged since the when: branch-level only
            try:
                if k in bf and bool(schema.flags[k] == bf[k]):
                    continue  # manifest round-trip broke identity
            except Exception:  # noqa: BLE001 — exotic __eq__
                pass
            fins[k] = schema.flags[k]
    ba = w.get("base_allow")
    if ba is not None:
        bi = w.get("base_invalid") or []
        # branches get the PRE-when sets; values added after the when live
        # on the fresh WRAPPER (base.js:364), whose own valids stage runs
        # BEFORE branch dispatch (fuzz seed 54000083, node-verified: wrapper
        # any.only precedes the branch's; a wrapper-valid match returns
        # VERBATIM)
        base.allow_vals = list(ba)
        base.invalid_vals = list(bi)
        sets = (_values_delta(schema.allow_vals, ba), _values_delta(schema.invalid_vals, bi))
        for v in sets[0] + sets[1]:
            if v is None or _resolvable(v):
                # the wrapper valids stage matches static values only
                raise NotImplementedError(
                    f"valid()/invalid() value {v!r} after a when() is not "
                    "supported: add it before the when()")

    def branch(extra):
        return CNode(base.concat(extra) if extra else base, depth)

    if "peek" in w:
        # schema condition (the reference's peek form, lib/types/
        # alternatives.js:192): evaluated against the node's OWN value, not
        # a ref
        pk = w["peek"]
        entry = {"peek": CNode(pk if isinstance(pk, Schema) else build(pk), depth),
                 "then": branch(w.get("then")), "otherwise": branch(w.get("otherwise"))}
    elif "switch" in w:
        entry = {"ref": w["ref"], "switch": []}
        for sw in w["switch"]:
            entry["switch"].append((_compile_is(sw["is"], depth), branch(sw.get("then"))))
            if "otherwise" in sw:
                entry["otherwise"] = CNode(base.concat(sw["otherwise"]), depth)
        # a top-level otherwise (when(ref, switch=[...], otherwise=X)) is
        # joi's alt.otherwise (base.js:345-353); the last case's otherwise
        # wins only when no top-level one exists
        if w.get("otherwise") is not None:
            entry["otherwise"] = CNode(base.concat(w["otherwise"]), depth)
        entry.setdefault("otherwise", branch(None))
    else:
        entry = {"ref": w["ref"], "is": _compile_is(w.get("is"), depth),
                 "then": branch(w.get("then")), "otherwise": branch(w.get("otherwise"))}
    return [entry], fins, sets


def _values_delta(cur: list, snap: list) -> list:
    """The values of ``cur`` not in the snapshot ``snap``."""
    keys = set()
    for v in snap:
        try:
            keys.add(_value_key(v))
        except TypeError:
            pass
    out = []
    for v in cur:
        try:
            if _value_key(v) in keys:
                continue
        except TypeError:
            pass
        out.append(v)
    return out


def _compile_is(is_val, depth: int) -> CNode:
    if is_val is None:
        # reference asserts 'Missing "is" or "switch" option' for a ref
        # condition without is (lib/types/alternatives.js:181)
        raise ValueError(
            'when() with a ref condition requires the "is_" option '
            "(or use switch=); reference lib/types/alternatives.js:181"
        )
    s = compile_literal(is_val) if not isinstance(is_val, Schema) else is_val
    if "presence" not in s.flags:
        s = s.required()  # joi: `is` defaults to required
    return CNode(s, depth)


# ==========================================================================
# evaluation


class _TakeEnv(Env):
    """Env view over a row subset: sibling/ancestor refs are taken with the
    same index array so column-vs-column compares stay aligned."""

    def __init__(self, base: Env, idx_arr):
        super().__init__(base.prefs, base._resolve_sibling, base.ancestors)
        self._idx = idx_arr

    def resolve_ref(self, r, n):
        v = super().resolve_ref(r, len(self._idx))
        if getattr(r, "kind", None) in ("context", "local"):
            # global/local refs are row-independent: bound -> python
            # scalar, unbound -> nulls already sized to THIS scope —
            # re-taking self._idx would double-scope (parent-sized indices)
            return v
        if isinstance(v, AltView):
            return v.take(self._idx)
        if isinstance(v, (pa.Array, pa.ChunkedArray)):
            return combine(v).take(self._idx)
        return v


def _type_family(t: pa.DataType) -> str:
    if pa.types.is_boolean(t):
        return "bool"
    if pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t):
        return "num"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "str"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "bin"
    if pa.types.is_timestamp(t) or pa.types.is_date(t):
        return "ts"
    return str(t)


def _value_family(v) -> str:
    import datetime as _dt

    if isinstance(v, bool):  # before int — bool is an int subclass
        return "bool"
    if isinstance(v, (int, float)):
        return "num"
    if isinstance(v, str):
        return "str"
    if isinstance(v, (bytes, bytearray)):
        return "bin"
    if isinstance(v, (_dt.datetime, _dt.date)):
        return "ts"
    return type(v).__name__


def _set_membership(arr: pa.Array, values: list, refs: list[Ref], insensitive: bool, env: Env) -> np.ndarray:
    n = len(arr)
    m = np.zeros(n, dtype=bool)
    if values:
        probe = arr
        # joi's valids compare with DEEP-STRICT equality (values.js via
        # hoek deepEqual): 0 !== false, "1" !== 1 — so a cross-family cast
        # (float 0.0 -> bool false) must never create a match.  Keep only
        # same-family values (None always compares — valid(null)).
        fam = _type_family(arr.type)
        values = [v for v in values if v is None or isinstance(v, Ref) or _value_family(v) == fam]
        if not values:
            return _set_membership_refs(arr, refs, env, m, n)
        vals = values
        if pa.types.is_floating(arr.type):
            # JS ===: -0 equals 0, but Arrow's is_in hashes the bit pattern
            # and treats them as distinct — normalize both sides (+0.0)
            probe = pc.add(probe, pa.scalar(0.0, type=arr.type))
            vals = [v + 0.0 if isinstance(v, float) and v == 0 else v for v in values]
        if insensitive and pa.types.is_string(arr.type):
            probe = pc.utf8_lower(arr)
            vals = [v.lower() if isinstance(v, str) else v for v in values]
        try:
            vs = pa.array(vals).cast(probe.type) if not pa.types.is_null(probe.type) else pa.array(vals)
            m |= as_bool_np(pc.is_in(probe, value_set=vs), n)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            for v in vals:
                try:
                    m |= as_bool_np(pc.equal(probe, pa.scalar(v, type=probe.type)), n)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    continue
    return _set_membership_refs(arr, refs, env, m, n)


def _set_membership_refs(arr: pa.Array, refs: list[Ref], env: Env, m: np.ndarray, n: int) -> np.ndarray:
    for r in refs:
        if isinstance(r, Template):  # Joi.x in the value set
            col = resolve_template_column(r, env, n)
        else:
            col = env.resolve_ref(r, n)
        if isinstance(col, (pa.Array, pa.ChunkedArray, AltView)):
            # each row against its own resolved value: a piece of another
            # type than the column matches nothing (joi's ===)
            for rows, c in ref_parts(col, n):
                try:
                    m |= rows & as_bool_np(pc.equal(arr, c), n)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    continue
            continue
        try:
            if isinstance(col, (list, tuple, set, frozenset)):
                # ref resolved to an array -> membership over its items
                # (lib/values.js:127-136: Array.isArray(item) -> findIndex)
                vs = pa.array(list(col))
                if not pa.types.is_null(vs.type):
                    m |= as_bool_np(pc.is_in(arr, value_set=vs.cast(arr.type)), n)
            else:
                m |= as_bool_np(pc.equal(arr, pa.scalar(col)), n)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            continue
    return m


def _fn_default_values(fn, fired, env):
    """Run a FUNCTION default/failover per missing/failed row exactly like
    ``internals.default`` (validator.js:451-475): an arg-taking fn receives
    ``(parent row dict, prefs)`` (joi passes ``Hoek.clone(state.ancestors
    [0]), prefs`` when ``fn.length > 0``), a zero-arg fn calls bare —
    FRESH per row, so generator defaults differ row to row.  A throw maps
    to ``any.default`` / ``any.failover`` at the caller.  Returns
    ``(values, threw mask over fired, first exception)``."""
    import inspect

    try:
        sig = inspect.signature(fn)
        nreq = sum(
            1 for p in sig.parameters.values()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            and p.default is p.empty
        )
    except (TypeError, ValueError):
        nreq = 0
    getter = env.row_getter
    vals: list = []
    threw = np.zeros(len(fired), dtype=bool)
    first_err: Exception | None = None
    for j, i in enumerate(fired):
        try:
            if nreq:
                parent = getter(int(i)) if getter is not None else None
                vals.append(fn(parent, env.prefs))
            else:
                vals.append(fn())
        except Exception as e:  # noqa: BLE001 — joi catches everything too
            vals.append(None)
            threw[j] = True
            if first_err is None:
                first_err = e
    return vals, threw, first_err


def _rt_eq(v, got) -> bool:
    """True when an adopted cell round-trips the intended python value —
    the guard against pyarrow's silent cross-type conversions (int 7 into
    a timestamp column becomes epoch+7 units, 1 into bool becomes True);
    joi adopts default/failover values VERBATIM, so a lossy conversion
    must count as blocked, not adopted (fuzz seed 18001374)."""
    if v is None or got is None:
        return v is None and got is None
    if isinstance(v, bool) or isinstance(got, bool):
        return isinstance(v, bool) and isinstance(got, bool) and v == got
    if isinstance(v, (int, float)) and isinstance(got, (int, float)):
        return v == got or (v != v and got != got)  # NaN round-trips
    if isinstance(v, str) and isinstance(got, str):
        return v == got
    if type(v) is type(got):
        try:
            return bool(v == got)
        except Exception:  # noqa: BLE001 — exotic __eq__
            return False
    import datetime as _dt

    if isinstance(v, (_dt.datetime, _dt.date)) and isinstance(got, (_dt.datetime, _dt.date)):
        return v == got
    return False


def _adopt_fn_values(arr, fired, vals, n: int):
    """Adopt per-row function default/failover results into the column,
    verifying every adopted cell round-trips (see ``_rt_eq``).  Tries the
    column's own type first (type-stable), then a whole-column rebuild in
    the values' type (joi's heterogeneous object — only when the CLEAN
    rows round-trip too).  Returns the new array, or ``None`` when the
    values cannot be represented — the one-type-per-column ceiling; the
    caller exposes an AltView so sibling refs still see the typed values
    joi would (fuzz seed 18001890: an object failover 7 feeding a sibling
    date ref)."""
    lst = arr.to_pylist() if not pa.types.is_null(arr.type) else [None] * n
    for i, v in zip(fired, vals):
        lst[int(i)] = v
    tries = (None,) if pa.types.is_null(arr.type) else (arr.type, None)
    for ty in tries:
        try:
            cand = pa.array(lst) if ty is None else pa.array(lst, type=ty)
        except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
            continue
        if all(_rt_eq(v, cand[int(i)].as_py()) for i, v in zip(fired, vals)) and (
            ty is not None
            or pa.types.is_null(arr.type)
            or all(_rt_eq(v, cand[i].as_py()) for i, v in enumerate(lst))
        ):
            return cand
    return None


def _dflt_pair(n: int, fired, vals):
    """(mask, full-length typed array) AltView pair for a BLOCKED
    default/failover adoption, or ``None`` when even a values-only array
    cannot be built (mixed-type fn results — stays a tracked ceiling)."""
    mask = np.zeros(n, dtype=bool)
    mask[fired] = True
    lst = [None] * n
    for i, v in zip(fired, vals):
        lst[int(i)] = v
    try:
        return (mask, pa.array(lst))
    except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
        return None


def _scalar_for(value, arr_type):
    try:
        return pa.scalar(value, type=arr_type)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        return None


def _fill_source(arr, mask, src, clean, env: Env, record, code: str):
    """Put a default/failover source on the ``mask`` rows of ``arr`` the way
    joi's ``internals.default`` (validator.js:451-475) resolves it for
    every schema type:

    - a function runs per row (see ``_fn_default_values``); a throw
      records ``code`` (any.default / any.failover) and leaves the row;
    - a Ref or a template (Joi.x: '{a + 1}' yields the value) resolves
      to a column or an AltView, taken piece by piece (``ref_parts``:
      later pairs first, the stored base last, so a view's typed values
      claim the column before its base does);
    - a literal is one value for every row.

    One adoption rule for every source and every piece: a column of the
    column's own type, or a literal that round-trips in it (``_rt_eq``),
    fills with one vectorized ``if_else``; any other values go through
    ``_adopt_fn_values`` (the column's type, then a whole-column rebuild
    in the values' type).  When that fails, a literal that no ``clean``
    row competes with rebuilds the column from the filled rows alone;
    anything else goes into an AltView pair (the one-type-per-column
    ceiling) so sibling refs still see it.
    Returns (arr, rows whose value is now defined, thrown rows,
    blocked-adoption pairs)."""
    n = len(arr)
    thrown = np.zeros(n, dtype=bool)
    defined = np.zeros(n, dtype=bool)
    pairs: list = []
    rows = np.nonzero(mask)[0]
    rebuild = False
    if isinstance(src, Ref):
        src = env.resolve_ref(src, n)
        if src is None:
            return arr, defined, thrown, pairs
    elif isinstance(src, Template):
        src = resolve_template_column(src, env, n)
    # (rows to fill, values): an Arrow column over every row, or a list
    # with one value per row to fill
    groups: list = []
    if isinstance(src, (pa.Array, pa.ChunkedArray, AltView)):
        groups = [(mask & prows, rv) for prows, rv in ref_parts(src, n)]
    elif callable(src):
        vals, threw, ferr = _fn_default_values(src, rows, env)
        if threw.any():
            thrown[rows[threw]] = True
            rec = record(code, thrown, {"error": repr(ferr)})
            if rec is not None:
                # finalize pushes AFTER the abort point (validator.js:
                # 359-364, 385) — rides along under abortEarly
                rec.post_abort = True
        groups.append((mask & ~thrown, _keep_values(vals, ~threw)))
    else:
        s = _scalar_for(src, arr.type)
        if s is not None and _rt_eq(src, s.as_py()):
            return pc.if_else(pa.array(mask), s, arr), mask, thrown, pairs
        groups.append((mask, [src] * len(rows)))
        # the literal's type cannot live in the column: when no clean row
        # needs the old type, the column is rebuilt from the filled rows
        # alone so the literal still lands (fuzz seed 5000296: a number
        # over an all-failing string column under convert:false)
        rebuild = not clean.any()
    for pm, vals in groups:
        if not pm.any():
            continue
        if isinstance(vals, pa.Array):
            if pa.types.is_null(arr.type) or vals.type == arr.type:
                base = pa.nulls(n, vals.type) if pa.types.is_null(arr.type) else arr
                arr = pc.if_else(pa.array(pm), vals, base)
                # a ref resolving undefined leaves the row undefined
                defined |= pm & ~null_mask(vals)
                continue
            vals = vals.filter(pa.array(pm)).to_pylist()
        rows = np.nonzero(pm)[0]
        # a source yielding undefined leaves the row undefined
        defined[rows[[v is not None for v in vals]]] = True
        adopted = _adopt_fn_values(arr, rows, vals, n)
        if adopted is None and rebuild:
            adopted = _adopt_fn_values(pa.nulls(n), rows, vals, n)
        if adopted is not None:
            arr = adopted
        else:
            pair = _dflt_pair(n, rows, vals)
            if pair is not None:
                pairs.append(pair)
    return arr, defined, thrown, pairs


def _finalize(nr: NodeResult, flags: dict, undef: np.ndarray, c: "_Node") -> None:
    """joi's ``internals.finalize`` (validator.js:351-430), one stage for
    every node type — scalar, array, object, alternatives and when()
    wrappers:

    - FAILOVER first, on errored rows: adopts the value and clears the
      row's errors (warns emitted before joi's abort point persist; fuzz
      seed 17100100: an alternatives no-match is replaced and cleared);
    - DEFAULT next, on rows still undefined, and the errors stay — so a
      required-missing row carries any.required AND the default, and an
      alternatives no-match keeps alternatives.match beside a thrower's
      any.default (fuzz seed 18001299);
    - CAST last, gated by its ``from`` predicate (``_apply_cast``).

    ``noDefaults`` skips the first two (test/base.js:1104-1155).  The
    caller passes what differs between node types: ``flags`` holding the
    default/failover/cast, ``undef`` (rows whose value is undefined at
    finalize) and the node context ``c``, whose scope, env and recorder
    serve every node type alike.  A thrown function's any.failover and
    any.default are recorded through ``c.add``: the node's error() covers
    the failover's report but not the default's, since joi pushes
    any.failover before its error() override and any.default after it
    (validator.js:359-364, 368-380, 385); a label set before a when()
    stays off both (the wrapper that finalizes is unlabeled).  Applies the
    outcome to ``nr``: value, failed, errors, ``fin_filled``,
    ``strip_rows`` and the AltView pairs of blocked adoptions."""
    n = len(undef)
    scope, env = c.scope, c.env
    pre_when = bool(c.node.schema.metas.get("_label_pre_when"))

    def record(code, mask, ctx):
        return c.add(code, mask, ctx, seq=10_001, no_label=pre_when, override=code != "any.default")

    value = combine(nr.value)
    pairs: list = []
    filled = np.zeros(n, dtype=bool)
    if not env.prefs.get("no_defaults", False):
        if "failover" in flags:
            fm = nr.failed & scope
            if fm.any():
                value, defined, thrown, got = _fill_source(
                    value, fm, flags["failover"], scope & ~undef & ~nr.failed, env, record,
                    "any.failover")
                pairs += got
                filled |= defined
                # joi adopts only a failover that is not undefined
                # (validator.js:357-364): thrown rows and undefined
                # results keep their errors
                fm &= defined
            if fm.any():
                # failover clears ERRORS only (validator.js:359-364
                # `errors = []`); warns persist (fuzz seed 44) — except,
                # under abortEarly, the warns past the row's abort point:
                # joi had already RETURNED there, and the clear must not
                # resurrect them (fuzz seeds 29003478 / 49000734 /
                # 30500135, node-verified)
                cut = _abort_early_keep(nr.errors) if env.abort_early else None
                for i, rec in enumerate(nr.errors):
                    drop = fm[_fired_rows(rec)]
                    if rec.warn:
                        if cut is None:
                            continue
                        drop &= ~cut[i]
                    if drop.any():
                        _keep_fired(rec, ~drop)
                nr.errors[:] = [r for r in nr.errors if r.warn or (
                    len(r.rows) if r.rows is not None else r.mask.any())]
                nr.failed = nr.failed & ~fm
        if "default" in flags and flags["default"] != Schema._DEEP_DEFAULT:
            # a required-missing row the failover just filled is defined
            # now (failover(-1)+default(10) yields -1; fuzz seed 19000479)
            dm = undef & scope & ~filled
            if dm.any():
                value, defined, thrown, got = _fill_source(
                    value, dm, flags["default"], scope & ~undef & ~nr.failed, env, record,
                    "any.default")
                pairs += got
                filled |= defined
                nr.failed = nr.failed | thrown
    if flags.get("cast"):
        value = _apply_cast(value, flags["cast"], env.prefs)
        # a blocked cross-type adoption may FIT the cast output type:
        # joi's cast is gated by a `from` predicate (validator.js:390-394),
        # so the adopted raw value passes through uncast — number
        # cast('string') with failover 'q7' outputs 'q7' (fuzz seed
        # 20004648, node-verified)
        still = []
        for m, col in pairs:
            try:
                if col.type == value.type:
                    value = pc.if_else(pa.array(m), col, value)
                    continue
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                pass
            still.append((m, col))
        pairs = still
    nr.value = value
    if filled.any():
        # joi's `value !== undefined` now: an enclosing wrapper's default
        # must not re-fill these rows (validator.js:383)
        nr.fin_filled = filled if nr.fin_filled is None else nr.fin_filled | filled
    if nr.strip_rows is not None:
        # a strip-deleted row that adopted a value keeps it: the parent
        # writes the adopted value (object.js:126-139)
        keep = nr.strip_rows & ~filled
        nr.strip_rows = keep if keep.any() else None
    if pairs or nr.alt_view is not None:
        # blocked cross-type adoptions: ref consumers see the per-row typed
        # value joi's assignment implies (later pairs win)
        nr.alt_view = AltView(value, (nr.alt_view.pairs if nr.alt_view is not None else []) + pairs)


def _coerce3(node: CNode, arr: pa.Array, env: Env):
    """-> (new_arr, base_fail_mask, coerce_errs) where coerce_errs is a
    list of (code, mask[, context[, values]]) that joi reports INSTEAD of
    continuing — a coerce error always aborts early (validator.js:150-156)."""
    if node.type == "number":
        return k_numbers.coerce(arr, env, node.flags)
    arr2, fail = _coerce2(node, arr, env)
    return arr2, fail, []


def _coerce2(node: CNode, arr: pa.Array, env: Env):
    n = len(arr)
    t = node.type
    zeros = np.zeros(n, dtype=bool)
    if t == "boolean":
        return k_scalars.coerce_boolean(arr, env, node.terms, node.flags)
    if t == "date":
        return k_scalars.coerce_date(arr, env, node.flags)
    if t == "binary":
        return k_scalars.coerce_binary(arr, env, node.flags)
    if t == "string":
        if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type) or pa.types.is_null(arr.type):
            # replace/truncate moved to eval_node's string coerce pipeline
            # (joi's fixed stage order puts them AFTER normalize/case/trim)
            return arr, zeros
        return arr, ~null_mask(arr)
    if t == "array":
        if pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type) or pa.types.is_null(arr.type):
            return arr, zeros
        if (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)) and env.convert:
            if not node.flags.get("single"):
                return _json_parse_column(arr, want="array")
            # single: a string that fails the JSON-array parse is not an
            # error — base validate wraps any non-array as [value]
            # (array.js:36-49 coerce returns early, :67-74 single wrap)
            parsed, fail = _json_parse_column(arr, want="array")
            if not fail.any():
                return parsed, fail
            if pa.types.is_list(parsed.type) or pa.types.is_large_list(parsed.type):
                wrapped = _wrap_single(arr, n)
                try:
                    out = pc.if_else(pa.array(fail), wrapped.cast(parsed.type), parsed)
                    return out, zeros
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    pass
            return _wrap_single(arr, n), zeros
        if node.flags.get("single") and not pa.types.is_list(arr.type):
            return _wrap_single(arr, n), zeros
        return arr, ~null_mask(arr)
    if t == "object":
        if pa.types.is_struct(arr.type) or pa.types.is_null(arr.type):
            return arr, zeros
        if (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)) and env.convert:
            return _json_parse_column(arr, want="object")
        return arr, ~null_mask(arr)
    return arr, zeros


def _wrap_single(arr: pa.Array, n: int) -> pa.ListArray:
    """Wrap scalars into 1-item lists, preserving null rows as null lists
    (array.js:66-74 ``single`` base-validate wrap)."""
    nulls = null_mask(arr)
    lengths = np.where(nulls, 0, 1).astype(np.int32)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    values = arr.filter(pc.is_valid(arr))
    off_list = offsets[:-1].tolist()
    off_py = [None if nulls[i] else int(off_list[i]) for i in range(n)] + [int(offsets[-1])]
    return pa.ListArray.from_arrays(pa.array(off_py, type=pa.int32()), values)


def _json_parse_column(arr: pa.Array, want: str):
    """JSON-string coercion for object/array columns (the reference's
    @hapi/bourne parse, ``lib/types/object.js:49-64`` / ``array.js:31-61``).
    Per-cell Python by necessity (Arrow has no try-parse-JSON kernel) — the
    documented [A] fallback in SURVEY.md §2.1; keep such columns rare/small
    or pre-parse upstream."""
    n = len(arr)
    fail = np.zeros(n, dtype=bool)
    vals = []
    opener = "{" if want == "object" else "["
    for i, s in enumerate(arr.to_pylist()):
        if s is None:
            vals.append(None)
            continue
        st = s.lstrip()
        if not st.startswith(opener):
            vals.append(None)
            fail[i] = True
            continue
        try:
            vals.append(json.loads(st))
        except (ValueError, TypeError):
            vals.append(None)
            fail[i] = True
    try:
        out = pa.array(vals)
    except (pa.ArrowInvalid, pa.ArrowTypeError):
        return arr, ~null_mask(arr)
    return out, fail


_LOCAL_ABORT_GID = [0]


class _Node:
    """One node evaluation, shared by its stage functions: the node, the
    env with the schema-local prefs merged, the ``scope`` rows, the current
    value ``arr`` (a stage writes it as soon as the value changes), the
    ``original`` input and the masks the stages hand on.

    ``add`` and ``adopt`` are the node's only report paths, so every
    report follows joi's one rule: ``$_createError`` reads the node's
    merged prefs (validator.js:116-118), and finalize applies the node's
    ``error()`` to every report the node returns (validator.js:368-380)."""

    __slots__ = ("node", "env", "path", "scope", "arr", "original", "errors", "failed",
                 "resolved", "missing", "base_fail", "coerce_bad", "presence", "label",
                 "alt_pair")

    def __init__(self, node: CNode, arr: pa.Array, env: Env, path: str,
                 scope: Optional[np.ndarray]):
        n = len(arr)
        self.node, self.env, self.path = node, env, path
        self.scope = np.ones(n, dtype=bool) if scope is None else scope
        self.arr = self.original = arr
        self.errors: list[ErrRec] = []
        self.failed = np.zeros(n, dtype=bool)
        self.resolved = np.zeros(n, dtype=bool)
        self.base_fail = np.zeros(n, dtype=bool)
        self.coerce_bad = np.zeros(n, dtype=bool)
        self.missing = self.presence = None
        self.label = node.label
        #: blocked cross-type item promotion of an array: (rows, typed column)
        self.alt_pair = None

    def _override(self, code: str, path: str, ctx) -> Optional[str]:
        """The node's error() message for one report (lib/base.js:136-142;
        it beats a rule's message()); a callable is asked once per error
        family.  None when the node sets neither."""
        node_err = self.node.flags.get("error")
        if node_err is not None:
            return node_err
        fn = self.node.schema.metas.get("error_fn")
        if fn is not None:
            m = fn(code, path, dict(ctx or {}))
            if isinstance(m, str):
                return m
        return None

    def add(self, code, mask, ctx=None, seq=10_000, warn=False, message=None, item_rows=None,
            item_index=None, path_override=None, values=None, group=None, soft=False,
            path_ipos=None, no_label=False, override=True):
        """Record one report over the ``mask`` rows (item reports: over
        ``item_rows``/``item_index``), in scope only, and mark its rows
        failed unless it is a warning.  ``override=False`` keeps the node's
        error() off the report.  Returns the ErrRec, or None when no row is
        in scope."""
        scope = self.scope
        mask = mask & scope
        if item_rows is not None:
            keep = scope[item_rows]
            item_rows, item_index = item_rows[keep], item_index[keep]
            if len(item_rows) == 0:
                return None
        elif not mask.any():
            return None
        p = path_override if path_override is not None else self.path
        if self.label is not None and path_override is None and not no_label:
            ctx = {**(ctx or {}), "label": self.label}
        node_msg = self._override(code, p, ctx) if override else None
        if node_msg is not None:
            message = node_msg
        if message is None:
            # prefs-level messages map incl. errors.language sub-maps
            message = k_messages.lookup_override(code, self.env.prefs)
        if item_rows is not None:
            rec = ErrRec(code, mask, p, ctx or {}, seq, warn, message)
            rec.rows = item_rows
            rec.item_index = item_index
            # FIRE-time item order: strip-splice bookkeeping re-points
            # item_index post-hoc for display, but abortEarly ordering must
            # follow joi's walk at emission time (fuzz seed 16300451: a
            # stripped slot-0 warn precedes the slot-1 sparse even though
            # both DISPLAY as index 0 post-splice)
            rec.fire_items = np.asarray(item_index).copy()
            rec.ipos = path_ipos
            rec.values = _keep_values(values, keep)
            rec.order, rec.soft = group, soft
            self.errors.append(rec)
            if not warn:
                self.failed[item_rows] = True
            return rec
        if values is None and k_messages.template(code, message).has_value:
            # the message renders the offending value ({[.]}; joi's {[.]}
            # works on any rule, node-verified): the CURRENT node value of
            # the fired rows (joi renders the value at error-creation time)
            try:
                values = combine(self.arr).take(pa.array(np.nonzero(mask)[0]))
            except pa.ArrowException:
                values = None
        rec = ErrRec(code, mask, p, ctx or {}, seq, warn, message)
        rec.values = values
        rec.order, rec.soft = group, soft
        self.errors.append(rec)
        if not warn:
            np.logical_or(self.failed, mask, out=self.failed)
        return rec

    def adopt(self, recs) -> None:
        """Take a child's reports as this node's own: the node's error()
        applies to them (an object's covers its keys' reports as an
        array's covers its items'), and their rows fail."""
        for rec in recs:
            node_msg = self._override(rec.code, rec.path, rec.context)
            if node_msg is not None:
                rec.message = node_msg
                if rec.values is None and k_messages.template(rec.code, node_msg).has_value:
                    # the value at the report's own path, as the node's
                    # own reports render it
                    rec.values = _values_at(self.arr, self.path, rec, _fired_rows(rec))
            self.errors.append(rec)
            if not rec.warn:
                self.failed[_fired_rows(rec)] = True

    def gate(self, mask: np.ndarray) -> np.ndarray:
        """Under the node-EFFECTIVE abortEarly (env carries schema-local
        prefs) joi returns at the first stage error per row (validator.js:
        194-247): rows that already failed get no later valids/base report.
        With the outer abortEarly the table-level cut already keeps the
        first report, so this only shows when a node-local
        prefs({abortEarly:true}) rides under an outer abortEarly:false
        (fuzz seed 16000129)."""
        return mask & ~self.failed if self.env.abort_early else mask


def eval_node(
    node: CNode,
    arr,
    env: Env,
    path: str,
    scope: Optional[np.ndarray] = None,
) -> NodeResult:
    """Validate one column/array against one compiled node (thin wrapper
    over the implementation).  When the node's schema-LOCAL prefs turn
    abortEarly ON under a non-aborting caller (validator.js merges prefs
    per node, :116-118), joi returns at that node's first error per row —
    the subtree's error recs get a local-abort group id so
    ``_assemble_violations`` applies the abortEarly cut SCOPED to this
    node's emissions (fuzz seed 15100028: ordered-array slot any.only must
    suppress the later array.sparse/orderedLength under local abort).
    Outer tags overwrite inner ones — the outer abort subsumes."""
    res = _eval_node_impl(node, arr, env, path, scope=scope)
    if (node.schema.prefs and node.schema.prefs.get("abort_early")
            and not env.prefs.get("abort_early", True)):
        _LOCAL_ABORT_GID[0] += 1
        gid = _LOCAL_ABORT_GID[0]
        for rec in res.errors:
            rec.local_abort = gid
    return res


def _eval_node_impl(
    node: CNode,
    arr,
    env: Env,
    path: str,
    scope: Optional[np.ndarray] = None,
) -> NodeResult:
    """Validate one column/array against one compiled node.  ``scope`` masks
    which rows this evaluation applies to (used for struct children of null
    parents and conditional branches); errors outside scope are suppressed.
    Runs the node's ``plan`` over one ``_Node``: its last stage returns the
    result."""
    arr = combine(arr)
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()  # kernels operate on plain arrays
    # schema-local prefs override call prefs (lib/validator.js:116-118,433-448)
    if node.schema.prefs:
        _e2 = Env({**env.prefs, **node.schema.prefs}, env._resolve_sibling, env.ancestors)
        # keep the parent-row accessor for arg-taking fn defaults/failovers
        # (fuzz seed 48003724: schema-local prefs dropped it, feeding the
        # failover fn a None parent)
        _e2.row_getter = env.row_getter
        env = _e2
    c = _Node(node, arr, env, path, scope)
    plan = node.plan
    for stage in plan[:-1]:
        stage(c)
    return plan[-1](c)


def _plan(node: CNode) -> tuple:
    """The stages ``node`` runs per batch, in joi's order (validator.js:
    112-257); a stage with nothing to do for the node is left out.  Every
    node type shares the presence and valids stages, which joi runs before
    it dispatches on the type (validator.js:168-227):

    - scalars, objects and arrays: coerce -> empty -> presence -> valids ->
      base -> rules -> finalize;
    - alternatives: empty -> presence -> valids -> the match loop
      (``_match_stage``, which finalizes);
    - when() wrappers: their own valids -> the branch dispatch
      (``_when_stage``, which finalizes)."""
    valids = (_valids_stage,) if (node.allow_static or node.allow_refs or node.invalid_static
                                  or node.invalid_refs) else ()
    if node.whens:
        return (*valids, _when_stage)
    empty = (_empty_stage,) if node.empty_values or node.empty_schemas else ()
    if node.type == "alternatives":
        return (*empty, _presence_stage, *valids, _match_stage)
    rules = (_rules_stage,) if node.rules else ()
    return (_coerce_stage, *empty, _presence_stage, *valids, _base_stage, *rules, _finalize_stage)


def _coerce_stage(c: _Node) -> None:
    """Coerce, then the string pipeline and array sort.  A row with a
    coerce-stage error returns IMMEDIATELY in joi (validator.js:150-156
    finalize): it gets ONLY this report — the empty stage, presence,
    valids, base, rules and defaults never see it (fuzz seed 5102192: ''
    failing isoDate at coerce reports ONLY string.isoDate, never the
    empty-converted any.required)."""
    node, env = c.node, c.env
    arr, c.base_fail, coerce_errs = _coerce3(node, c.arr, env)
    n = len(arr)

    # string coerce pipeline in joi's FIXED stage order (string/index.js
    # :68-135): normalize -> case -> trim -> replace -> hex pad -> isoDate
    # -> truncate, all BEFORE valids/empty; the convert-phase rules are
    # then skipped in the rules loop (lib/validator.js:269-273)
    if node.type == "string" and env.convert and (
        pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)
    ):
        for cr in node.convert_rules:  # normalize -> case -> trim
            out = cr.fn(arr, env)
            if out.new_value is not None:
                arr = out.new_value
        # replacements run AFTER trim (string/index.js:89-95) — fuzz seed
        # 5000021: lowercase must land before the replace pattern matches
        if node.replacements:
            arr = k_strings.apply_replacements(arr, node.replacements)
        # hex byteAligned odd-length zero-pad (string/index.js:97-103)
        _hexr = next((r for r in node.schema.rules if r["name"] == "hex"
                      and (r.get("args") or {}).get("options", {}).get("byteAligned")),
                     None)
        if _hexr is not None:
            odd = pc.equal(pc.bit_wise_and(pc.utf8_length(arr), 1), 1)
            padded = pc.binary_join_element_wise(pa.nulls(n, pa.string()).fill_null("0"), arr, "")
            arr = pc.if_else(odd, padded, arr)
        # isoDate converts via toISOString at coerce; failure is a COERCE
        # error that aborts the row — no valids/rules run (string/index.js
        # :105-117 returns {value, errors}; fuzz seed 5000076)
        _isocr = next((cr for cr in node.rules if cr.name == "isoDate"), None)
        if _isocr is not None and _isocr.fn is not None:
            out = _isocr.fn(arr, env)
            if out.new_value is not None:
                arr = out.new_value
            _iso_bad = ~out.ok & ~null_mask(arr)
            if _iso_bad.any():
                coerce_errs = list(coerce_errs) + [("string.isoDate", _iso_bad)]
        # truncate slices to the max() limit LAST (string/index.js:119-133),
        # with per-row ref-resolved limits; a non-positive-integer resolved
        # limit is an any.ref coerce error
        if node.flags.get("truncate"):
            _maxr = next((r for r in node.schema.rules if r["name"] == "max"), None)
            if _maxr is not None:
                _lim = _maxr["args"]["limit"]
                if isinstance(_lim, Ref):
                    rv = env.resolve_ref(_lim, n)
                    lv = [ref_cell(rv, i) for i in range(n)]
                    bad_lim = np.array(
                        [not (isinstance(v, (int, float)) and not isinstance(v, bool)
                              and v >= 0 and float(v).is_integer()) for v in lv],
                        dtype=bool) & ~null_mask(arr)
                    if bad_lim.any():
                        # joi's truncate asserts the resolved limit (string/
                        # index.js coerce); the report value is that limit
                        ref_ctx = {"arg": "limit", "ref": _lim.display,
                                   "reason": "must be a positive integer"}
                        ref_vals = [lv[int(i)] for i in np.nonzero(bad_lim)[0]]
                        coerce_errs = list(coerce_errs) + [("any.ref", bad_lim, ref_ctx, ref_vals)]
                    good = ~bad_lim & ~null_mask(arr)
                    if good.any():
                        out_l = combine(arr).to_pylist()
                        for i in np.nonzero(good)[0]:
                            out_l[int(i)] = out_l[int(i)][: int(lv[int(i)])]
                        arr = pa.array(out_l, type=pa.string())
                elif not hasattr(_lim, "kind"):
                    arr = k_strings.truncate_to(arr, int(_lim))

    # array sort() runs at COERCE time under convert — BEFORE the items
    # loop, so sparse/item errors report post-sort indexes (array.js
    # coerce:44-48 -> internals.sort; fuzz seed 10100012: [undef,5,5,0.5]
    # descending sparse-errors at index 3, not 0).  convert=True forces
    # the sort regardless of prefs (engine extension); convert=False
    # never sorts here (check-only, validated in the rules loop)
    if node.type == "array" and (
        pa.types.is_list(arr.type) or pa.types.is_large_list(arr.type)
    ):
        _srt = next((r for r in node.schema.rules if r["name"] == "sort"), None)
        if _srt is not None:
            _sc = _srt["args"].get("convert")
            if _sc is True or (_sc is None and env.convert):
                arr, _serrs = k_lists.coerce_sort(arr, _srt["args"])
                coerce_errs = list(coerce_errs) + _serrs
    c.arr = arr
    for code, cmask, *rest in coerce_errs:
        ctx, vals = (*rest, None, None)[:2]
        c.coerce_bad |= cmask
        c.add(code, cmask, ctx, seq=-4, values=vals)
        c.resolved |= cmask


def _empty_stage(c: _Node) -> None:
    """empty(): values (or matching schemas) treated as missing
    (lib/validator.js:162-165; empty(schema) per lib/base.js:124-134)."""
    arr, n = c.arr, len(c.arr)
    em = _empty_matches(c, arr)
    if c.base_fail.any():
        # a value the coerce could not convert stays as it was in joi
        # (number.js coerce leaves '' alone), so the empty stage sees the
        # original there
        em = np.where(c.base_fail, _empty_matches(c, c.original), em)
    em = em & ~c.coerce_bad
    if em.any():
        c.arr = pc.if_else(pa.array(em), pa.nulls(n, arr.type), arr)
        c.base_fail = c.base_fail & ~em


def _empty_matches(c: _Node, arr) -> np.ndarray:
    """The rows of ``arr`` that match the node's empty() values or
    schemas.  The check probes the TRIMMED value when a trim() rule is
    enabled, and matches under DEFAULT prefs (convert on) regardless of
    the caller's convert setting (validator.js:162-163 passes
    internals.trim(value, schema) and Common.defaults)."""
    node, probe = c.node, arr
    if (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)) and any(
        r.get("name") == "trim" and r.get("args", {}).get("enabled", True)
        for r in node.schema.rules
    ):
        probe = pc.utf8_trim_whitespace(arr)
    em = (
        _set_membership(probe, node.empty_values, [], node.flags.get("insensitive", False), c.env)
        if node.empty_values
        else np.zeros(len(arr), dtype=bool)
    )
    if node.empty_schemas:
        eenv = Env({"convert": True}, c.env._resolve_sibling, c.env.ancestors)
        for es in node.empty_schemas:
            em |= node_validity(es, probe, eenv, c.scope) & ~null_mask(probe)
    return em


def _presence_stage(c: _Node) -> None:
    """Presence (lib/validator.js:168-190) over the missing mask: the
    node's presence wins, else prefs.presence supplies the default.  joi
    returns here for an undefined value, so its rows are settled, except
    under an ended switch's 'ignore', which lets them flow on into the
    matches (validator.js:170)."""
    node = c.node
    c.missing = missing = null_mask(c.arr) & ~c.base_fail
    c.presence = node.presence or c.env.prefs.get("presence", "optional")
    if node.allow_missing:
        c.resolved |= missing
    elif c.presence == "required":
        c.add("any.required", missing, seq=-3)
        c.resolved |= missing
    elif c.presence == "forbidden":
        # joi returns immediately on a present forbidden value
        # (validator.js:188-190) — any.unknown is the ONLY error; no
        # valids/base/rules run for those rows.  "Present" here includes
        # uncoercible values (joi's coerce emits no error for them; the
        # base check they would have hit never runs)
        c.add("any.unknown", ~missing & c.scope & ~c.resolved & ~c.coerce_bad, seq=-3)
        c.resolved |= True  # everything settled at this stage
        c.base_fail = np.zeros(len(missing), dtype=bool)
    elif c.presence != "ignore":
        c.resolved |= missing


def _valids_stage(c: _Node) -> None:
    """valids / invalids (lib/validator.js:194-227), one stage for every
    node type.  A valids match settles the row with the stored value
    under convert; a no-match under the node's ``only`` reports any.only,
    and an invalids match any.invalid."""
    node, env, arr, n = c.node, c.env, c.arr, len(c.arr)
    insensitive = node.flags.get("insensitive", False)
    active = c.scope & ~c.resolved & ~c.failed
    if node.allow_static or node.allow_refs:
        in_allow = _set_membership(arr, node.allow_static, node.allow_refs, insensitive, env)
        # a valids MATCH replaces the value with the stored valid in convert
        # mode (validator.js:197-201) — visible for insensitive string
        # matches: 'ABC' with valid('abc').insensitive() converts to 'abc'
        if (
            insensitive
            and env.convert
            and in_allow.any()
            and (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type))
        ):
            lowered = pc.utf8_lower(arr)
            # joi's Values.get checks EXACT membership first (values.js:74)
            # — only insensitive-rescued rows take the stored spelling
            str_valids = [v for v in node.allow_static if isinstance(v, str)]
            replaced = (
                as_bool_np(pc.is_in(arr, value_set=pa.array(str_valids, type=arr.type)), n)
                if str_valids
                else np.zeros(n, dtype=bool)
            )
            for v in str_valids:
                hit = in_allow & ~replaced & as_bool_np(pc.equal(lowered, v.lower()), n)
                if hit.any():
                    c.arr = pc.if_else(pa.array(hit), pa.scalar(v, type=arr.type), c.arr)
                    replaced |= hit
        in_allow_orig = in_allow
        if c.base_fail.any():
            in_allow_orig = in_allow | _set_membership(c.original, node.allow_static, node.allow_refs,
                                                       insensitive, env)
        if node.only:
            # joi raises any.only even for rows that will also fail the
            # base type check (valids stage precedes base validate and
            # only abortEarly suppresses the second error)
            c.add("any.only", active & ~in_allow_orig,
                  {"valids": node.allow_static + [v.display for v in node.allow_refs]}, seq=-2)
        c.resolved |= in_allow_orig
        c.base_fail = c.base_fail & ~in_allow_orig
    if node.invalid_static or node.invalid_refs:
        in_invalid = _set_membership(c.arr, node.invalid_static, node.invalid_refs, insensitive, env)
        c.add("any.invalid", c.gate(in_invalid & active & ~c.resolved),
              {"invalids": node.invalid_static + [v.display for v in node.invalid_refs]}, seq=-2)


def _base_stage(c: _Node) -> None:
    """Base type checks, then the object/array recursion.  A row with a
    base-stage error skips the rules loop (joi's "Base error always aborts
    early", validator.js:236-247)."""
    node, env = c.node, c.env
    # base type errors from coercion; date picks a format-specific code
    # (date.js:39-49: strict -> date.strict, iso -> date.isoDate,
    # timestamp -> date.timestamp.{javascript|unix})
    base_code = f"{node.type}.base"
    if node.type == "date":
        if not env.convert:
            base_code = "date.strict"
        else:
            base_code = {"iso": "date.isoDate", "ms": "date.timestamp.javascript",
                         "s": "date.timestamp.unix"}.get(node.flags.get("format"), base_code)
    base_errored = c.base_fail & ~c.resolved
    c.add(base_code, c.gate(base_errored), seq=-1)

    # number base checks: NaN / Infinity / unsafe magnitude
    if node.type == "number" and (pa.types.is_floating(c.arr.type) or pa.types.is_integer(c.arr.type)):
        c.arr, base_errs = k_numbers.base_check(c.arr, env, node.flags)
        for code, mask, ctx in base_errs:
            m = mask & ~c.missing & ~c.resolved
            base_errored |= m
            c.add(code, c.gate(m), ctx, seq=-1)

    # string base: empty string is an error (string/index.js:139-148),
    # checked only when some row is still open
    if node.type == "string" and (pa.types.is_string(c.arr.type) or pa.types.is_large_string(c.arr.type)):
        live = c.scope & ~c.missing & ~c.resolved
        if not any(v == "" for v in node.allow_static) and live.any():
            m = _empty_strings(c.arr) & live
            base_errored |= m
            c.add("string.empty", c.gate(m), seq=-1)

    # structural recursion.  joi returns at the presence stage for
    # forbidden values (validator.js:188-190): any.unknown is the only
    # error — item and key schemas never run (node-verified, fuzz seed
    # 14000246 family)
    if c.presence == "forbidden":
        pass
    elif node.type == "array" and (pa.types.is_list(c.arr.type) or pa.types.is_large_list(c.arr.type)):
        # array ITEMS are rules in joi (array.js items/ordered are rule
        # entries), so item errors do NOT suppress length/unique rules
        c.arr, c.alt_pair = _eval_array(c)
    elif node.type == "object" and pa.types.is_struct(c.arr.type):
        # object keys+dependencies live in def.validate (object.js:68) —
        # a child error suppresses the object's OWN rules for that row
        failed_before_children = c.failed.copy()
        c.arr = _eval_object(c)
        base_errored |= c.failed & ~failed_before_children
    c.resolved |= base_errored


def _empty_strings(arr: pa.Array) -> np.ndarray:
    """The rows of a ``string`` or ``large_string`` column holding ''
    (not null), read from its offsets buffer."""
    n = len(arr)
    width = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offsets = np.frombuffer(arr.buffers()[1], dtype=width, count=n + 1,
                            offset=arr.offset * np.dtype(width).itemsize)
    empty = np.diff(offsets) == 0
    return empty & ~null_mask(arr) if arr.null_count else empty


def _rules_stage(c: _Node) -> None:
    """The rules loop (lib/validator.js:260-320).  Per-value joi returns
    before the rules loop when the base type check failed; the columnar
    equivalent: Arrow columns are homogeneous, so a family-incompatible
    physical type means EVERY present row already carries {type}.base —
    running typed kernels would crash on the raw array (e.g. a regex over
    int64), so the loop is skipped wholesale."""
    node, env, n = c.node, c.env, len(c.arr)
    rules = node.rules if _rule_type_ok(node.type, c.arr.type) else ()
    for cr in rules:
        if cr.convert_phase and env.convert:
            continue  # already applied in the coerce phase
        if cr.fn is None:  # warning rule: always fires on present rows
            c.add(cr.code, c.scope & ~c.missing & ~c.resolved, {"code": cr.code}, seq=cr.seq,
                  warn=True, message=cr.message)
            continue
        if isinstance(cr.fn, tuple) and cr.fn[0] == "structural":
            _eval_structural_rule(c, cr)
            continue
        active = c.scope & ~c.missing & ~c.resolved
        if env.abort_early:
            active = active & ~c.failed
        if not active.any() and cr.convert_phase is False:
            continue
        n_active = int(active.sum())
        ref_err = None
        if (
            cr.name in _PURE_CHECK_RULES
            and 0 < n_active < int(0.7 * n)
            and node.type != "array"  # list kernels need full offsets
        ):
            # a pure check runs on the active rows only; its ok mask and
            # any.ref rows scatter back to the column
            idx = np.nonzero(active)[0]
            idx_arr = pa.array(idx)
            out = cr.fn(c.arr.take(idx_arr), _TakeEnv(env, idx_arr))
            ok = np.ones(n, dtype=bool)
            ok[idx] = out.ok
            ref_err = out.context.pop("__ref_err__", None) if out.context else None
            if ref_err is not None:
                rmask = np.zeros(n, dtype=bool)
                rmask[idx[ref_err[0]]] = True
                ref_err = (rmask, *ref_err[1:])
        else:
            out = cr.fn(c.arr, env)
            if out.new_value is not None:
                c.arr = out.new_value
            ok = out.ok
            alt_err = out.context.pop("__alt_err__", None) if out.context else None
            if alt_err is not None:
                # a kernel raising a DIFFERENT code for some rows (joi's
                # comparator-thrown array.sort.mismatching replaces the
                # rule's own error there)
                amask, acode, actx = alt_err
                c.add(acode, amask & active, actx, seq=cr.seq, warn=cr.warn)
            ref_err = out.context.pop("__ref_err__", None) if out.context else None
        bad = active & ~ok
        if ref_err is not None:
            # ref-resolved arg failed the rule's assert: any.ref fires
            # INSTEAD of the rule error (lib/validator.js:281-293); the
            # report's value is the RESOLVED arg (for {[.]})
            rmask, rctx, rvals = (*ref_err, None)[:3]
            if rvals is None:
                # a producer that did not capture the resolved arg: undefined
                rvals = [None] * int(rmask.sum())
            fired0 = rmask.copy()
            rmask = rmask & active
            if not np.array_equal(fired0, rmask):
                # values were aligned with the producer's fired set —
                # refilter to the active subset
                rvals = _keep_values(rvals, rmask[np.nonzero(fired0)[0]])
            c.add("any.ref", rmask, rctx, seq=cr.seq, warn=cr.warn,
                  message=cr.message, values=rvals)
            bad = bad & ~rmask
        if out.item_rows is not None:
            keep = active[out.item_rows]
            c.add(cr.code, bad, out.context, seq=cr.seq, warn=cr.warn,
                  message=cr.message, item_rows=out.item_rows[keep],
                  item_index=out.item_index[keep])
            continue
        c.add(cr.code, bad, out.context, seq=cr.seq, warn=cr.warn, message=cr.message)


def _finalize_stage(c: _Node) -> NodeResult:
    """finalize (lib/validator.js:351-430): failover, default, cast, then
    the raw()/strip() result flags."""
    node, original = c.node, c.original
    nr = NodeResult(value=c.arr, errors=c.errors, missing=c.missing, failed=c.failed,
                    strip=bool(node.flags.get("strip")), raw_value=original)
    if c.alt_pair is not None:
        # blocked cross-type item promotion: ref consumers see the per-row
        # typed value joi's assignment implies
        nr.alt_view = AltView(c.arr, [c.alt_pair])
    _finalize(nr, node.flags, c.missing, c)
    if node.flags.get("raw") or node.flags.get("strip"):
        # joi shadows the CONVERTED value for ANY result-flagged schema —
        # raw() AND strip() — unconditionally, even when the node errored
        # (validator.js:413-417: `if (schema._flags.result)` precedes any
        # error check), so sibling refs to a strip key resolve the
        # converted value (fuzz seed 4000168: a failed alternatives branch
        # with strip still plants its coerced number for a date ref).
        # The shadow records the value as finalize saw it — for a row
        # whose COERCION failed that is still the original ('1' stays a
        # string when boolean coercion missed), which our converted column
        # holds as null; those rows fall back to the raw-original path
        nr.shadow.append((c.scope & ~(null_mask(nr.value) & ~null_mask(original)), nr.value))
        # a result flag REVERTS the finalize fill in the output slot
        # (validator.js:413-421 runs after the default step: raw returns
        # the ORIGINAL — undefined for missing input — and strip returns
        # undefined), so a wrapper's own default still sees those rows as
        # undefined (fuzz seed 40000303, node-verified: raw otherwise-
        # branch + post-when default(thrower) errors any.default)
        nr.fin_filled = None
        if node.flags.get("raw"):
            nr.value = original
            if nr.alt_view is not None:
                nr.alt_view = AltView(original, nr.alt_view.pairs)
    return nr


def _apply_cast(arr: pa.Array, to: str, prefs: dict | None = None) -> pa.Array:
    """joi's cast defs are gated by a `from` predicate (validator.js:390-
    394 `if (caster.from(value))`): a value that never coerced (e.g. a
    string under convert:false) passes through UNCAST."""
    if to == "string":
        if pa.types.is_floating(arr.type) or pa.types.is_integer(arr.type):
            # number cast: JS Number.prototype.toString (number.js:272-279)
            # — 5.0 renders '5', 1e10 '10000000000', not Arrow's '1e+10'
            return pa.array(
                [None if v is None else k_numbers.js_number_to_string(float(v)) for v in arr.to_pylist()],
                type=pa.string(),
            )
        if pa.types.is_timestamp(arr.type) or pa.types.is_date(arr.type):
            # date cast: Template.date(value, prefs) — the OUTPUT string
            # follows prefs.dateFormat, not just message rendering
            # (date.js:145-151 -> template.js:99-102; fuzz seed 16068).
            # Format from epoch-ms via the JS-exact formatter: strftime %Y
            # drops zero-padding for years <1000 and can't render the
            # expanded ±YYYYYY forms
            from .kernels.messages import _js_date_render

            fmt = (prefs or {}).get("date_format", "iso")
            ints = pc.cast(pc.cast(arr, pa.timestamp("ms")), pa.int64())
            return pa.array(
                [None if v is None else _js_date_render(v, fmt) for v in ints.to_pylist()],
                type=pa.string(),
            )
        if pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type):
            # binary cast: buffer.toString() — a UTF-8 decode with
            # REPLACEMENT chars.  The safe cast validates utf-8, keeping
            # the common case zero-copy-ish; only columns carrying invalid
            # bytes (lenient base64 decodes; seed-133443 family) take the
            # per-row replacement path
            try:
                return pc.cast(arr, pa.string())
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                return pa.array(
                    [None if b is None else b.decode("utf-8", "replace")
                     for b in combine(arr).to_pylist()],
                    type=pa.string(),
                )
        if pa.types.is_boolean(arr.type):
            # boolean cast: value.toString() -> 'true'/'false'
            return pc.if_else(arr, pa.scalar("true"), pa.scalar("false"))
        return arr  # from-gate: value never coerced (e.g. convert:false)
    if to == "number":
        if pa.types.is_timestamp(arr.type):
            return pc.cast(pc.cast(arr, pa.timestamp("ms")), pa.int64())
        if pa.types.is_date(arr.type):
            return pc.cast(pc.cast(arr, pa.timestamp("ms")), pa.int64())
        if pa.types.is_boolean(arr.type):
            return pc.cast(arr, pa.int8())
        if pa.types.is_floating(arr.type) or pa.types.is_integer(arr.type):
            return arr  # already a number
        return arr  # from-gate: not a Date/boolean
    if to in ("set", "map"):
        return arr  # JS Set/Map casts are N/A-by-design in Arrow (SURVEY §2.3)
    try:
        return pc.cast(arr, to)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
        return arr


def _when_branches(w: dict, arr, env: Env, scope: np.ndarray, n: int):
    """(branch, selection) pairs of one compiled when(): peek and is give
    then/otherwise; a switch gives each case, then otherwise on the rows
    no case matched.  Lazy, so a switch evaluates a case's condition only
    after the previous case's branch ran (joi tries them in turn)."""
    if "peek" in w:
        cond = node_validity(w["peek"], arr, env, scope)
    else:
        ref_resolved = _resolve_when_ref(w["ref"], arr, env, n)
        if "switch" in w:
            remaining = scope.copy()
            for is_c, then_c in w["switch"]:
                cond = _when_condition(is_c, ref_resolved, env, remaining, n)
                yield then_c, remaining & cond
                remaining = remaining & ~cond
            yield w["otherwise"], remaining
            return
        cond = _when_condition(w["is"], ref_resolved, env, scope, n, w.get("shared", False))
    yield w["then"], scope & cond
    yield w["otherwise"], scope & ~cond


def _when_stage(c: _Node) -> NodeResult:
    """A when() wrapper's branch dispatch: each branch (branch =
    base.concat(branch)) on its rows, merged, then the wrapper finalize.
    The branches run on the rows the wrapper's own valids stage left: a
    wrapper-valid match returns the value as is, and the branch (and its
    coercion) never runs; a no-match under the wrapper's only CONTINUES
    into the branches, so the branch's own any.only can follow (fuzz seed
    54000083, node-verified; it fires on missing rows too)."""
    node, arr, env, n = c.node, c.arr, c.env, len(c.arr)
    c.scope = c.scope & ~c.resolved
    merged = NodeResult(value=arr, errors=c.errors, missing=np.zeros(n, bool), failed=c.failed)
    parts, branch_pairs, promoted = [], [], False
    for branch, sel in _when_branches(node.whens[0], arr, env, c.scope, n):
        sub = eval_node(branch, arr, env, c.path, scope=sel)
        promoted |= _merge_into(merged, sub, sel)
        parts.append((branch, sel))
        if sel.any():
            branch_pairs.append((sel, combine(sub.value)))
    if promoted:
        # the branches emitted DIFFERENT output types: ref consumers
        # read each branch's typed value per row — joi's object holds
        # 42 (number) next to '42' (string), the one Arrow column
        # cannot (fuzz seed 9641)
        merged.alt_view = AltView(merged.value, branch_pairs)
    return _finish_whens(c, merged, parts)


def _finish_whens(c: _Node, merged: NodeResult, parts) -> NodeResult:
    """Wrapper finalize after a whens branch merge — joi's when() wraps the
    base in a FRESH alternatives (base.js:364), so chain calls AFTER the
    when apply in the WRAPPER's finalize over the merged branch result:

    - a post-when .failover() fires only on rows the branches left errored
      (a pre-when failover already cleared its rows inside the branch —
      fuzz seed 1028: failover('ab') before the when, failover(thrower)
      after, both active at different levels);
    - a post-when .default() fires on rows whose branch result value is
      UNDEFINED: missing rows AND every row of a strip-flagged branch
      (validator.js:413-421 returns undefined for strip even on errors —
      fuzz seed 957: strip + when + default(thrower) errors any.default
      on every row);
    - rows that adopt a wrapper value are no longer strip-deleted (the
      wrapper has no result flag, so the parent writes the value); a
      strip row that errors stays deleted — unlike alternatives, where
      an errored strip row keeps its value (``_match_stage``)."""
    undef = merged.missing.copy()
    if merged.fin_filled is not None:
        # a branch default/failover already set the value (joi: no longer
        # undefined) — the wrapper default must not re-fill (node: default(9)
        # before the when beats default(11) after it on missing rows)
        undef &= ~merged.fin_filled
    if merged.strip_rows is not None:
        undef |= merged.strip_rows
    for cn, sel in parts:
        if cn.flags.get("strip"):
            undef |= sel  # strip branches return undefined even on error
    _finalize(merged, c.node.wrapper_fins or {}, undef, c)
    return merged


def _merge_into(merged: NodeResult, sub: NodeResult, sel: np.ndarray) -> bool:
    """Merge one when() branch result into ``merged`` on its ``sel`` rows.
    Returns whether the branch output PROMOTED the column to its type."""
    merged.errors.extend(sub.errors)
    if sub.missing is not None:
        merged.missing = merged.missing | (sub.missing & sel)
    if sub.failed is not None:
        merged.failed = merged.failed | (sub.failed & sel)
    if sub.fin_filled is not None:
        ff = sub.fin_filled & sel
        if ff.any():
            merged.fin_filled = (
                ff if merged.fin_filled is None else merged.fin_filled | ff)
    # shadow entries (raw-flagged branches) survive the merge per row
    merged.shadow += _shadow_on(sub.shadow, sel)
    promoted = False
    # a branch that returned its input leaves the column as it is
    if sel.any() and sub.value is not None and sub.value is not merged.value:
        sel_arr = pa.array(sel)
        sub_val = combine(sub.value)
        try:
            merged.value = pc.if_else(sel_arr, sub_val, merged.value)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            # a branch whose key strip NARROWED the struct: widen the
            # subset side back (deleted key ≙ null) instead of casting the
            # full struct down — that would drop the key for EVERY row
            # (fuzz seed 24001572, node-verified: then keeps p, otherwise
            # strips it; the then-rows must keep their p)
            widened = False
            mv = combine(merged.value)
            if pa.types.is_struct(mv.type) and pa.types.is_struct(sub_val.type):
                sv2 = _expand_struct_to(sub_val, mv.type)
                if sv2.type == mv.type:
                    try:
                        merged.value = pc.if_else(sel_arr, sv2, mv)
                        widened = True
                    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                        pass
                if not widened:
                    mv2 = _expand_struct_to(mv, sub_val.type)
                    if mv2.type == sub_val.type:
                        try:
                            merged.value = pc.if_else(sel_arr, sub_val, mv2)
                            widened = True
                        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                            pass
            if not widened:
                # cross-type branch output (a cast('string') branch over a
                # float column): promote the merged column to the branch type
                promoted = True
                try:
                    base = pc.cast(merged.value, sub_val.type, safe=False)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    base = pa.nulls(len(sel), sub_val.type)
                try:
                    merged.value = pc.if_else(sel_arr, sub_val, base)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    pass
    # strip from a branch applies per ROW — only where the branch matched
    # (joi resolves whens per value, so object.js's strip delete is
    # row-dependent; fuzz seed 98: an unmatched switch case's strip must
    # not drop the key for other rows)
    if sub.strip or sub.strip_rows is not None:
        rows = sel & (np.ones(len(sel), bool) if sub.strip else sub.strip_rows)
        if sub.failed is not None:
            # joi deletes only on SUCCESS (object.js:126-137: result.errors
            # short-circuits the strip delete, the key keeps its original)
            rows = rows & ~sub.failed
        if rows.any():
            merged.strip_rows = rows if merged.strip_rows is None else merged.strip_rows | rows
    return promoted


def _shadow_on(shadow: list, rows: np.ndarray) -> list:
    """The shadow pairs restricted to ``rows``, empty ones dropped."""
    return [(rows & m, v) for m, v in shadow if (rows & m).any()]


def node_validity(node: CNode, arr, env: Env, scope: np.ndarray) -> np.ndarray:
    """Row mask: does this value satisfy the node? (Used for `is` conditions,
    alternatives matching, array item matching, has().)"""
    arr = combine(arr)
    res = eval_node(node, arr, env, "", scope=scope)
    return ~res.failed


def _strip_survivors(res: NodeResult, orig, n: int):
    """Per-row value of a strip-flagged key: joi deletes the key only on
    CLEAN rows — ``result.errors`` short-circuits BOTH the adoption and
    the strip delete (object.js:125-139), so an errored key keeps its
    ORIGINAL value in the output object.  Returns None when every row
    strips (drop the column wholesale), else an array with the original
    on errored rows and null (deleted) elsewhere.  Observable through
    deep-compare rules: fuzz seed 116307 — ``unique()`` over object items
    whose strip-flagged key errored must compare the surviving originals,
    not treat the key as gone (node-verified)."""
    f = res.failed
    if f is None or not f.any():
        return None
    orig = combine(orig) if orig is not None else pa.nulls(n)
    # take with null indices nulls the clean (deleted) rows for ANY type
    return orig.take(pa.array(np.arange(n), mask=~f))


def _failed_overlay(res: NodeResult, orig):
    """One sibling's value as a ref sees it, row by row (ref.js:137-143):
    joi's shadow first (validator.js:414-417), then result.value — which
    joi writes into the object ONLY when the child validated cleanly
    (object.js:125-140): an errored key keeps its ORIGINAL value, so
    later sibling refs see the raw input (e.g. a required-missing key
    with a default resolves undefined, raising any.ref on ref-limit
    rules).

    One walk over ``res.shadow`` (later pairs winning), then the pair
    (failed rows no shadow covers, original).  A pair of the column's
    type is written into the column, one of another type becomes an
    AltView pair (fuzz seed 63506); either way it takes its rows from the
    earlier AltView pairs (fuzz seed 27000130, node-verified: a failed
    strip-branch's numeric shadow feeds min(ref), not the matched
    cast('string') branch's '42').  Returns the column, or an AltView
    when pairs of another type remain."""
    val = combine(res.value)
    pairs = list(res.alt_view.pairs) if res.alt_view is not None else []
    walk = list(res.shadow)
    if res.failed is not None and res.failed.any() and orig is not None:
        unshadowed = res.failed.copy()
        for m, _ in res.shadow:
            unshadowed &= ~m
        walk.append((unshadowed, combine(orig)))
    for m, a in walk:
        pairs = [(pm & ~m, pv) for pm, pv in pairs]
        if a is val:
            continue  # the key returned its input: nothing to write back
        if a.type == val.type:
            val = pc.if_else(pa.array(m), a, val)
        else:
            pairs.append((m, a))
    pairs = [(pm, pv) for pm, pv in pairs if pm.any()]
    return AltView(val, pairs) if pairs else val


def _resolve_when_ref(r, arr, env: Env, n: int):
    """Resolve a when-condition ref; a self ref ('.a', ancestor level 0 —
    lib/ref.js:40-49, test/ref.js:40-61) reaches into the node's OWN value
    via struct-field walk instead of the sibling scope.  Sibling refs
    resolve like every ref (a column or an AltView), so the condition
    probes the RAW value of an errored key exactly like joi."""
    if getattr(r, "level", None) == 0:
        from .kernels.util import _walk_ref_path

        return env._ref_post(r, _walk_ref_path(arr, r.parts, n))
    return env.resolve_ref(r, n)


def _when_condition(is_node: CNode, resolved, env: Env, scope: np.ndarray, n: int,
                    shared: bool = False) -> np.ndarray:
    """Evaluate an is-condition against a resolved ref, once per piece:
    rows whose sibling ERRORED match against the raw original (joi's
    value[key] keeps it, object.js:125-140), the rest against the
    converted value or shadow — each re-coerced by the condition schema
    itself.  A ``shared`` condition (``_share_conditions``) is kept in the
    object scope's ``env.cond_memo``: a sibling wrapper reuses the mask
    when its ref resolved to the same plain column over an equal scope."""
    memo = env.cond_memo if shared and isinstance(resolved, pa.Array) else None
    if memo is not None:
        hit = memo.get(is_node)
        if hit is not None and hit[0] is resolved and np.array_equal(hit[1], scope):
            return hit[2]
    if not isinstance(resolved, (pa.Array, pa.ChunkedArray, AltView)):
        resolved = pa.array([resolved] * n)
    cond = np.zeros(n, dtype=bool)
    for rows, col in ref_parts(resolved, n):
        cond = np.where(rows, node_validity(is_node, col, env, scope), cond)
    if memo is not None:
        memo[is_node] = (resolved, scope.copy(), cond)
    return cond


def _finalize_branch_values(arr, branch_values, n: int):
    """Adopt matching branches' CONVERTED values (joi returns the branch
    result verbatim — alternatives.js:37-40, so a number branch coerces
    '0' -> 0).  Arrow limitation: rows matched by branches with DIFFERENT
    output types (number vs boolean vs string) cannot share one column —
    in that case keep the ORIGINAL values everywhere (value-equivalent,
    tracked as a representational deviation) rather than corrupt any row
    through lossy casts."""
    pairs = [
        (m, combine(v) if isinstance(v, pa.ChunkedArray) else v)
        for m, v in branch_values
        if v is not None
    ]
    if not pairs:
        return arr, None
    out_types = {v.type for _, v in pairs}
    if len(out_types) > 1 and not all(t == arr.type for t in out_types):
        # mixed branch output types: adopt what shares the input type
        # (trim/case rewrites, empty-conversions); the cross-type rows keep
        # their original value in the COLUMN (the documented repr limit)
        # and expose the typed per-row values via an AltView for refs
        value = arr
        for m, v in pairs:
            if v.type == arr.type:
                try:
                    value = pc.if_else(pa.array(m), v, value)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    pass
            elif (pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type)) and (
                pa.types.is_floating(v.type) or pa.types.is_integer(v.type)
                or pa.types.is_boolean(v.type)
            ):
                # numeric/boolean branch values land as their STRING
                # rendering ('true'/'12') — value-equivalent to joi's
                # typed result (the tracked value_repr form) instead of a
                # stale original that a failover/truthy conversion
                # replaced (fuzz seed 5003214: '' -> failover true)
                try:
                    value = pc.if_else(pa.array(m), pc.cast(v, arr.type), value)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    pass
            elif (
                pa.types.is_floating(arr.type) or pa.types.is_integer(arr.type)
                or pa.types.is_boolean(arr.type)
            ) and (pa.types.is_string(v.type) or pa.types.is_large_string(v.type)):
                # the MIRRORED form (fuzz seed 15300258): a cast('string')
                # or string-failover branch matching into a numeric/boolean
                # column lands as its numeric PARSE when the rendering
                # round-trips — value-equivalent to joi's string result
                # (tracked value_repr) instead of the stale original the
                # branch's failover replaced; non-matched rows are nulled
                # first so only matched-row strings must parse
                try:
                    mm = pa.array(m)
                    casted = pc.cast(pc.if_else(mm, v, pa.nulls(n, v.type)), arr.type)
                    value = pc.if_else(mm, casted, value)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    pass
        return value, AltView(value, pairs)
    target = next(iter(out_types))
    if target == arr.type:
        value = arr
    elif (
        pa.types.is_struct(target)
        and pa.types.is_struct(arr.type)
        and all(arr.type.get_field_index(f.name) >= 0 for f in target)
    ):
        # a stripping object branch narrows the struct: project the base
        # onto the branch's field subset (joi's value drops stripped keys)
        value = pa.StructArray.from_arrays(
            [combine(pc.struct_field(arr, f.name)) for f in target],
            names=[f.name for f in target],
            mask=pa.array(null_mask(arr)),
        )
        if value.type != target:
            try:
                value = pc.cast(value, target, safe=False)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                value = pa.nulls(n, target)
    else:
        try:
            value = pc.cast(arr, target, safe=False)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            value = pa.nulls(n, target)
    for m, v in pairs:
        try:
            value = pc.if_else(pa.array(m), v, value)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
            pass
    return value, None


def _match_stage(c: _Node) -> NodeResult:
    """alternatives: first-match-wins over the matches (alternatives.js:
    27-94), after the shared presence and valids stages, then the node's
    finalize.  It tries the rows those stages left open: an ended
    switch's undefined rows (presence 'ignore'), and the rows with an
    any.only or, under abortEarly off, an any.invalid report, which joi
    pushes and CONTINUES into the matches (fuzz seeds 56000275,
    88123215).  The node's own reports go through ``c.add``; a branch's
    reports it passes on (a single-error no-match, a decided branch, a
    leaked warn) through ``c.adopt``, so the node's error() replaces every
    error it returns (lib/base.js:136-142 via validator finalize;
    test/types/alternatives.js:350-361)."""
    node, arr, env, path = c.node, c.arr, c.env, c.path
    n, missing = len(arr), c.missing
    active = c.scope & ~c.resolved
    # failed rows whose value joi KEEPS: a presence or valids return
    # (validator.js:183-227 finalize the value as is).  An any.invalid row
    # under abortEarly off is kept only where a branch matched: elsewhere
    # no value was set and the row reaches the node default
    kept, invalid_open = c.failed.copy(), None
    if env.abort_early:
        active &= ~c.failed
    elif not node.only:
        invalid_open = c.failed & ~c.resolved
        kept &= c.resolved
    matched = np.zeros(n, dtype=bool)
    decided = np.zeros(n, dtype=bool)  # conditional-branch rows: result final
    # rows whose MATCHED branch is strip-flagged: the branch finalize
    # returns undefined (validator.js:413-421), so the parent deletes the
    # key AND the alternatives' own default sees the row as undefined
    # (fuzz seed 20003109, node-verified: strip branch + default(thrower)
    # errors any.default on a PRESENT value)
    strip_hit = np.zeros(n, dtype=bool)
    # rows whose matched branch RETURNED undefined (empty('') coercion):
    # the node default sees them as undefined too
    undef_hit = np.zeros(n, dtype=bool)
    # rows a BRANCH default/failover filled (presence-ignore lets missing
    # rows through): defined now — the node default must skip them
    branch_filled = np.zeros(n, dtype=bool)
    branch_values: list[tuple[np.ndarray, object]] = []  # (rows, converted)
    tried: list = []  # the try-branches' reports, for the no-match union
    # raw() shadows persist from every ATTEMPTED branch, failed ones
    # included — joi's finalize writes the shadow per branch try
    # (validator.js:414-417), so a failed trim().raw() branch still feeds
    # the trimmed value to later refs (fuzz seed 38925, node-verified)
    shadow: list = []
    for m in node.matches:
        still = active & ~matched & ~decided
        if not still.any():
            break
        # a conditional entry (alternatives.when) returns the selected
        # branch's result AS-IS — pass or fail, later matches are not
        # tried for that row (lib/types/alternatives.js:47-57)
        tries = [(m["schema"], still)] if "schema" in m else _when_branches(m, arr, env, still, n)
        for bn, sel in tries:
            if bn is None or not sel.any():
                continue
            sub = eval_node(bn, arr, env, path, scope=sel)
            shadow += _shadow_on(sub.shadow, sel)
            if sub.shadow and sub.raw_value is not None:
                # rows whose COERCION failed inside a raw() branch: joi's
                # shadow holds the value finalize saw — the ORIGINAL
                # ('true' stays a string when number coercion missed; fuzz
                # seed 59592).  EMPTIED rows are different: finalize saw
                # UNDEFINED (the empty() conversion), so they shadow
                # nothing — a later is:'' condition must NOT resolve the
                # raw '' (fuzz seed 35000213, node-verified)
                rest = sel & ~np.logical_or.reduce([sm for sm, _ in sub.shadow])
                if sub.missing is not None:
                    rest &= ~sub.missing
                if rest.any():
                    shadow.append((rest, sub.raw_value))
            hit = sel & ~sub.failed
            matched |= hit
            if sub.strip:
                strip_hit |= hit
            elif sub.strip_rows is not None:
                strip_hit |= hit & sub.strip_rows
            if sub.missing is not None:
                # a matched branch can RETURN undefined for a present value
                # (empty('') coercion) — the node default then fires
                # (fuzz seed 23600100, node-verified)
                ff = sub.fin_filled if sub.fin_filled is not None else np.zeros(n, bool)
                undef_hit |= hit & sub.missing & ~ff
                branch_filled |= hit & ff
            if hit.any():
                branch_values.append((hit, sub.value))
            if "schema" in m:
                tried += sub.errors
                # warn-rule reports push to the MAIN state immediately in
                # joi (validator.js:303-306), so every ATTEMPTED branch
                # leaks its warnings — matched, failed, and no-match rows
                # alike (node-verified; fuzz seed 1400069 family)
                c.adopt([r for r in sub.errors if r.warn])
                continue
            decided |= sel
            c.adopt(sub.errors)
            # a DECIDED branch failure keeps its processed value (joi
            # returns the branch result as-is) — only try-style no-match
            # leaves value undefined (validator.js:234), so the node
            # default must not fire here (fuzz seed 35000189,
            # node-verified) unless the input itself was undefined
            kept |= sel & sub.failed & ~(
                sub.missing if sub.missing is not None else np.zeros(n, bool))
    if invalid_open is not None:
        kept |= invalid_open & matched
    settled = c.scope & c.resolved & ~c.failed & ~missing
    if branch_values and settled.any():
        # a valids match keeps its value (validator.js:197-201), in the
        # input's type, next to the branch values
        branch_values.append((settled, arr))
    value, alt_view = _finalize_branch_values(arr, branch_values, n)
    nomatch = active & ~matched & ~decided
    if nomatch.any():
        _no_match_errors(c, nomatch, tried)
    nr = NodeResult(value=value, errors=c.errors, missing=missing, failed=c.failed,
                    strip_rows=strip_hit if strip_hit.any() else None, alt_view=alt_view,
                    shadow=shadow)
    _finalize(nr, node.flags,
              # undefined at finalize = missing + no-branch-match failures
              # (value = base.value leaves undefined, validator.js:234) +
              # strip-branch matches (branch finalize returned undefined);
              # kept failures are excluded; branch default/failover fills
              # are DEFINED now
              (missing & ~branch_filled) | (c.failed & ~kept) | strip_hit | undef_hit, c)
    if nr.strip_rows is not None:
        # an errored strip-branch row keeps its value: joi's parent
        # deletes only a clean child (object.js:126-139; node-verified in
        # test_alternatives_strip_branch_feeds_node_default)
        keep = nr.strip_rows & ~nr.failed
        nr.strip_rows = keep if keep.any() else None
    return nr


def _no_match_errors(c: _Node, nomatch: np.ndarray, tried: list) -> None:
    """The error union of the rows no branch matched (alternatives.js:
    60-91): no branch errors -> alternatives.base; exactly one -> the
    child's error passes through; several all-*.base ->
    alternatives.types; mixed -> alternatives.match.  (Per-row error count
    is per error FAMILY — joi counts per-item reports; divergence only for
    multi-item rows.)"""
    n = len(nomatch)
    count = np.zeros(n, dtype=np.int32)
    nonbase = np.zeros(n, dtype=bool)
    per_rec: list[tuple] = []
    for rec in tried:
        if rec.warn:
            continue
        rmask = np.zeros(n, dtype=bool)
        rows = rec.rows
        if rows is not None:
            rmask[rows] = True
        else:
            rmask |= rec.mask
        rmask &= nomatch
        if not rmask.any():
            continue
        per_rec.append((rec, rmask))
        count += rmask
        # joi destructures [type, code] = report.code.split('.') — so
        # 'string.pattern.base' has code 'pattern', NOT base
        # (alternatives.js:79-86)
        parts = rec.code.split(".")
        if len(parts) != 2 or parts[1] != "base":
            nonbase |= rmask
    single = nomatch & (count == 1)
    c.adopt([ErrRec(rec.code, rmask & single, rec.path, rec.context, rec.seq, rec.warn, rec.message)
             for rec, rmask in per_rec if (rmask & single).any()])
    c.add("alternatives.base", nomatch & (count == 0), seq=0)
    types_mask = nomatch & (count > 1) & ~nonbase
    if types_mask.any():
        # joi pushes one type per branch ERROR in order, duplicates
        # included (alternatives.js:73-87) — rows may differ, so split recs
        # by per-row type signature
        rows_t = np.nonzero(types_mask)[0]
        per_row: dict[int, list] = {int(r): [] for r in rows_t}
        for rec, rmask in per_rec:
            t = rec.code.split(".")[0]
            for r in rows_t[rmask[rows_t]]:
                per_row[int(r)].append(t)
        sigs: dict[tuple, np.ndarray] = {}
        for r, ts in per_row.items():
            m = sigs.setdefault(tuple(ts), np.zeros(n, dtype=bool))
            m[r] = True
        for ts, m in sigs.items():
            c.add("alternatives.types", m, {"types": list(ts)}, seq=0)
    c.add("alternatives.match", nomatch & (count > 1) & nonbase, seq=0)


def _expand_struct_to(v: pa.Array, bt: pa.DataType) -> pa.Array:
    """Widen a struct whose fields are a SUBSET of ``bt``'s (a strip()
    key dropped the column) back to ``bt``, filling the missing fields
    with null (joi's deleted key ≙ undefined ≙ our null).  Returns ``v``
    unchanged when not applicable."""
    if not (pa.types.is_struct(v.type) and pa.types.is_struct(bt)):
        return v
    base_fields = {f.name: f.type for f in bt}
    v_names = {f.name for f in v.type}
    if not v_names <= set(base_fields) or v_names == set(base_fields):
        return v
    cols = []
    for f in bt:
        if f.name not in v_names:
            cols.append(pa.nulls(len(v), f.type))
            continue
        c = pc.struct_field(v, f.name)
        if c.type != f.type:
            # a cast('string') key changed the field's type — land it in
            # the base field type when the cast round-trips (fuzz seed
            # 13000587: adopted {x:'3'} widens back over {x:float64, y}
            # so failed items keep their ORIGINAL y for unique())
            try:
                c = pc.cast(c, f.type)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                return v
        cols.append(c)
    return pa.StructArray.from_arrays(
        cols, fields=list(bt), mask=pa.array(as_bool_np(pc.is_null(v), len(v))))


def _adopt_items_multi(pairs, base, failed_any, n_items: int):
    """Merge converted item values into the flat array (array.js:209/297
    value[i] = res.value), all adopting schemas at once so earlier slots
    can't be clobbered by a later slot's type promotion.  Cross-type
    conversions (number items over a string list) promote the base when
    every CLEAN kept item survives the promoted type; FAILED kept items
    may fall to null (joi keeps their raw value, never value-compared).
    Mixed adopted types: only same-as-base adoptions land (repr limit).

    Returns ``(merged_or_None, alt_flat, alt_ok)``: when the promotion is
    BLOCKED by heterogeneous clean rows, ``alt_flat`` is the promoted-type
    flat with the cross adoptions applied and ``alt_ok`` marks the items
    whose alt value matches what joi's value[i] would hold (adopted or
    null) — the array node turns this into a per-row typed view for ref
    consumers (a date ref to an ordered list whose number slot converted
    must see [3], not ["3.0"])."""
    # an item schema that returned its input (the base itself) adopts nothing
    base = combine(base)
    pairs = [(m, combine(v)) for m, v in pairs if v is not None and v is not base and m.any()]
    if not pairs:
        return None, None, None
    # a strip-narrowed object item (sub struct missing a field the base
    # has) expands back to the base type with the stripped field null —
    # adoption stays same-type so FAILED items keep their originals, which
    # unique() value-compares (fuzz seed 4000881, node-verified: an item
    # failing object.and keeps its strip-deleted key's original)
    pairs = [
        (m, _expand_struct_to(v, base.type) if v.type != base.type else v)
        for m, v in pairs
    ]
    out, changed = base, False
    # stage 1: same-type adoptions land directly
    for m, v in pairs:
        if v.type == base.type:
            try:
                out = pc.if_else(pa.array(m), v, out)
                changed = True
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                pass
    # stage 2: cross-type adoptions promote the column IF all clean kept
    # items survive the promoted type (string-slot values are equivalent
    # through the cast; truly heterogeneous CLEAN rows stay original —
    # the repr limit)
    cross = [(m, v) for m, v in pairs if v.type != base.type]
    if cross and len({v.type for _, v in cross}) == 1:
        T = cross[0][1].type
        adopt_all = np.zeros(n_items, dtype=bool)
        for m, _ in cross:
            adopt_all |= m
        base2 = None
        if pa.types.is_floating(T) and (
            pa.types.is_string(base.type) or pa.types.is_large_string(base.type)
        ):
            base2 = pa.array(k_numbers.parse_strings(out), type=T, from_pandas=True)
        else:
            try:
                base2 = pc.cast(out, T, safe=False)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                base2 = None
        if base2 is not None:
            lost = null_mask(base2) & ~null_mask(out) & ~adopt_all
            if failed_any is not None:
                lost = lost & ~failed_any
            out2, ok2 = base2, False
            for m, v in cross:
                try:
                    out2 = pc.if_else(pa.array(m), v, out2)
                    ok2 = True
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                    pass
            if not lost.any():
                if ok2:
                    return out2, None, None
            elif ok2:
                # promotion blocked — graft UNRELATED adopted values (a
                # failover whose original doesn't round-trip to the
                # adopted type) into the base as their string rendering:
                # value-equivalent to joi's typed item (tracked
                # value_repr), not a stale original (fuzz seed 5001791:
                # 'ABC' -> failover 10 must not stay 'ABC')
                graft = adopt_all & ~null_mask(out)
                if graft.any() and (
                    pa.types.is_string(base.type) or pa.types.is_large_string(base.type)
                ) and (pa.types.is_floating(T) or pa.types.is_integer(T)
                       or pa.types.is_boolean(T)):
                    try:
                        # graft only where the adopted value DIFFERS from
                        # the original's round-trip (failover 3 -> 10, not
                        # the pure '25' -> 25 conversion whose original is
                        # already value-equivalent; fuzz seed 5101332)
                        neq = as_bool_np(
                            pc.fill_null(pc.not_equal(base2, out2), True), n_items)
                        graft = graft & neq
                        if graft.any():
                            out = pc.if_else(pa.array(graft), pc.cast(out2, base.type), out)
                            changed = True
                    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
                        pass
                # expose the typed view: an item's alt value is faithful
                # iff it was ADOPTED (joi converted it) or is null; merely
                # cast-survivable strings keep their original rendering in
                # joi ("5.0" stays "5.0") and must exclude the row
                return (out if changed else None), out2, adopt_all | null_mask(out)
    return (out if changed else None), None, None


def _first_per_row(items: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Mask of the first ``items`` entry of each row (flat items run row
    by row, in position order)."""
    first = np.zeros(len(items), dtype=bool)
    idxs = np.nonzero(items)[0]
    if len(idxs):
        p = parents[idxs]
        first[idxs[np.r_[True, p[1:] != p[:-1]]]] = True
    return first


def _fill_missed(c, schemas: list, miss: np.ndarray) -> None:
    """fillMissedErrors (array.js:674-699): one error per row over the
    required ``schemas`` it missed — labelled ones as knownMisses, the
    rest counted as unknownMisses, Both when a row has each.  ``miss`` is
    a rows × schemas bool matrix."""
    rows = np.nonzero(miss.any(axis=1))[0]
    if not len(rows):
        return
    patterns, which = np.unique(miss[rows], axis=0, return_inverse=True)
    for k, pattern in enumerate(patterns):
        labels = [s.flags.get("label") for s, m in zip(schemas, pattern) if m]
        known = [l for l in labels if l]
        unknown = len(labels) - len(known)
        if known and unknown:
            code, ctx = "array.includesRequiredBoth", {
                "knownMisses": known, "unknownMisses": unknown}
        elif known:
            code, ctx = "array.includesRequiredKnowns", {"knownMisses": known}
        else:
            code, ctx = "array.includesRequiredUnknowns", {"unknownMisses": unknown}
        mask = np.zeros(len(miss), dtype=bool)
        mask[rows[which.reshape(-1) == k]] = True
        c.add(code, mask, ctx)


def _keep_fired(rec: ErrRec, keep: np.ndarray) -> None:
    """Keep the ``keep`` entries of a rec's fired rows (``rows``, else
    ``mask.nonzero()``) and every per-row field aligned with them."""
    if rec.rows is None:
        fired = np.nonzero(rec.mask)[0]
        rec.mask = np.zeros(len(rec.mask), dtype=bool)
        rec.mask[fired[keep]] = True
    else:
        rec.rows = rec.rows[keep]
        if rec.item_index is not None:
            rec.item_index = rec.item_index[keep]
        if rec.fire_items is not None:
            rec.fire_items = rec.fire_items[keep]
    rec.values = _keep_values(rec.values, keep)


def _keep_values(vals, keep: np.ndarray):
    """The ``keep`` entries of a rec's per-row values (``ErrRec.values``:
    an Arrow array, or a list of ref cells); None stays None."""
    if vals is None:
        return None
    if isinstance(vals, (pa.Array, pa.ChunkedArray)):
        return vals.filter(pa.array(keep))
    return list(compress(vals, keep))


def _fired_rows(rec: ErrRec) -> np.ndarray:
    """A rec's fired rows: ``rows`` for span-level recs, else ``mask.nonzero()``."""
    return rec.rows if rec.rows is not None else np.nonzero(rec.mask)[0]


def _abort_early_keep(errors: list) -> list:
    """abortEarly's one cut: joi returns from validate() at a row's first
    error, so only the reports emitted before that point survive
    (validator.js:260-320).  Returns a keep mask over each rec's fired
    rows (``_fired_rows`` order).

    Each row's reports are walked in joi's order: (ordering-group first
    emission index, FIRE-time item index, emission index) — an item-0
    warn precedes an item-1 error from an EARLIER rec (fuzz seed
    49000734, node-verified), and within one item joi walks the item
    object's keys in emission order (fuzz seed 59130).

    - the row's first NON-SOFT error aborts and is kept; warnings before
      it are kept;
    - a SOFT error (the inclusions-loop converted-sparse, array.js:
      286-292) does not abort its own node: later errors of its ordering
      group ride along, until a non-soft one of that group (kept), a
      finalize push, or the first error from another group (not kept —
      the node returned and the parent key loop aborted, object.js:
      125-128);
    - a finalize push (any.default/any.failover, validator.js:359-364,
      385) aborts like any error, and one not kept above still rides
      along when the row never aborted, when its path is the root's, or
      when the abort anchor (the aborting error, else the last pending
      soft error) lies in its subtree: that node's finalize ran after its
      rules errored (fuzz seeds 17100263 / 18000711)."""
    fired = [_fired_rows(rec) for rec in errors]
    lens = np.asarray([len(r) for r in fired], dtype=np.int64)
    total = int(lens.sum())
    if not total:
        return [np.ones(k, dtype=bool) for k in lens]
    group_first: dict[int, int] = {}
    eff = np.asarray([i if rec.order is None or not k else group_first.setdefault(id(rec.order), i)
                      for i, (rec, k) in enumerate(zip(errors, lens))], dtype=np.int64)
    rec_of = np.repeat(np.arange(len(errors)), lens)
    rows = np.concatenate(fired).astype(np.int64)
    items = []
    for rec, k in zip(errors, lens):
        it = rec.fire_items if rec.fire_items is not None else rec.item_index
        items.append(np.full(k, -1) if rec.rows is None or it is None else it)
    order = np.lexsort((rec_of, np.concatenate(items).astype(np.int64), eff[rec_of], rows))
    # everything below is in walk order; ``seg`` numbers each row's run
    rec_s, grp, r_s = rec_of[order], eff[rec_of[order]], rows[order]
    flags = np.asarray([(not r.warn, r.soft, r.post_abort) for r in errors], dtype=bool)[rec_s]
    err = flags[:, 0]
    soft, fin = err & flags[:, 1], err & flags[:, 2]
    hard = err & ~soft & ~fin
    new_row = np.r_[True, r_s[1:] != r_s[:-1]]
    starts, seg = np.flatnonzero(new_row), np.cumsum(new_row) - 1
    pos = np.arange(total)
    none = np.iinfo(np.int64).max
    # the row's first soft error fixes the group a pending soft belongs to
    s0 = np.minimum.reduceat(np.where(soft, pos, none), starts)[seg]
    other = err & (pos > s0) & (grp != grp[np.minimum(s0, total - 1)])
    abort = np.minimum.reduceat(np.where(hard | fin | other, pos, none), starts)[seg]
    # the aborting report itself is kept when it is a non-soft error of
    # the pending soft group (or with none pending), or a finalize push
    # with no soft error pending
    keep = (pos < abort) | ((pos == abort) & ((hard & ~other) | (fin & (s0 > pos))))
    lost = np.flatnonzero(fin & ~keep)
    if len(lost):
        # the anchor: the aborting error when it was kept, else the last
        # pending soft error before it
        last_soft = np.maximum.reduceat(np.where(soft & (pos < abort), pos, -1), starts)[seg]
        anchor = np.where(keep[np.minimum(abort, total - 1)], abort, last_soft)
        for i in lost:
            fp, kp = errors[rec_s[i]].path, errors[rec_s[anchor[i]]].path
            keep[i] = fp == "" or kp == fp or kp.startswith(fp + ".")
    out = np.empty(total, dtype=bool)
    out[order] = keep
    return np.split(out, np.cumsum(lens)[:-1])


def _parent_row_getter(columns: dict, results: dict):
    """Per-row PARENT dict for arg-taking function defaults/failovers
    (validator.js:465 passes Hoek.clone(state.ancestors[0])): joi's value
    object MUTATES as keys validate in topo order, so already-validated
    keys expose their PROCESSED value (converted/defaulted), errored keys
    keep the original (object.js:125-140), and strip keys read as deleted
    (fuzz seed 48002125, node-verified: a forbidden key's failover
    fn reads the sibling's default-filled value, not the raw null).
    ``results`` is the live per-key dict the key loop fills — keys not
    yet validated fall back to the raw column like joi's untouched
    value[key]."""
    def get(i):
        i = int(i)
        out = {}
        for k2, c2 in columns.items():
            res2 = results.get(k2)
            if res2 is None:
                out[k2] = c2[i].as_py()
                continue
            f2 = res2.failed
            if f2 is not None and bool(f2[i]):
                out[k2] = c2[i].as_py()
            elif res2.strip or (res2.strip_rows is not None
                                and bool(res2.strip_rows[i])):
                out[k2] = None
            else:
                v2 = res2.value
                out[k2] = combine(v2)[i].as_py() if v2 is not None else None
        return out
    return get


class _Items:
    """One array node's items loop (array.js:140-350), shared by its stage
    functions: the flat items with each one's parent row and position, the
    child env and the masks the loop hands on.  Every mask is row-scoped
    (``in_scope``), so each report's items agree with ``_Node.add``'s own
    scope filter (fuzz seed 43005514: a branch-scoped sparse rec kept 5
    rows against an 8-row mask).

    - ``live``: the items the loop visits.  joi SKIPS undefined entries of
      a non-sparse array: the sparse check errors them and `continue`s
      (array.js:154-164); with sparse() they flow through like any value;
    - ``matched``: items an ordered slot, exclusion or inclusion claimed;
    - ``strip``: items spliced out (a strip-flagged slot or schema,
      stripUnknown.arrays); ``undef``: required+strip claims, nulled in
      place with no splice (``_required_strip_claims``);
    - ``adopted``: items that took a converted value.  When a type
      promotion rewrites the whole column, joi's typeof-sensitive unique()
      still tells a kept number 1 from an adopted cast "1" — these tags
      carry that lost type bit (fuzz seed 5300531).

    ``report`` is the loop's one item-report path and ``adopt`` its one
    adoption path."""

    __slots__ = ("c", "flat", "parents", "positions", "nulls", "in_scope", "live", "matched",
                 "strip", "undef", "adopted", "new_flat", "alt_flat", "alt_ok", "env", "grp",
                 "shifts", "requireds", "req_claims", "attempts")

    def __init__(self, c: _Node):
        self.c = c
        self.flat, self.parents = k_lists.flatten_with_parents(c.arr)
        self.positions = k_lists.list_positions(self.parents)
        m = len(self.flat)
        self.nulls = as_bool_np(pc.is_null(self.flat), m) if m else np.zeros(0, bool)
        self.in_scope = c.scope[self.parents]
        self.live = (np.ones(m, bool) if c.node.flags.get("sparse") else ~self.nulls) & self.in_scope
        self.matched, self.strip, self.undef, self.adopted = (np.zeros(m, bool) for _ in range(4))
        # the merged column of adopted values and the blocked cross-type
        # promotion (typed flat, faithful items), see _adopt_items_multi
        self.new_flat = self.alt_flat = self.alt_ok = None
        self.env = None
        # joi's items loop is ITEM-outer: all errors of the items stage
        # interleave by position, so they share one ordering group
        self.grp = object()
        #: (rec, flat items) of every item report, for the splice index shift
        self.shifts: list = []
        self.requireds = [ic for ic in c.node.inclusions if ic.flags.get("presence") == "required"]
        #: per required schema, the items that claimed it
        self.req_claims = [np.zeros(m, bool) for _ in self.requireds]
        #: per required schema (by id), the items its pre-loop attempt covered
        self.attempts: dict[int, np.ndarray] = {}
        c.env.item_type_tags = None  # reset any sibling array's stale tags
        c.env.item_type_tag_fields = None

    def remaining(self) -> np.ndarray:
        return self.live & ~self.matched

    def failed(self, sub: NodeResult) -> np.ndarray:
        return sub.failed if sub.failed is not None else np.zeros(len(self.flat), bool)

    def report(self, code, items, ctx=None, src: Optional[ErrRec] = None, **kw):
        """One report over the flat ``items`` (a mask or indices), at each
        item's parent row and position, in the items ordering group.  It
        keeps the items for the splice index shift.  ``src`` is the child
        report a lift takes: when the array's error() asks for ``{[.]}``,
        the value at that report's own path fills it.  Returns the ErrRec,
        or None when no item is in scope."""
        fired = np.flatnonzero(items) if items.dtype == bool else items
        sel = self.in_scope[fired]
        if not sel.all():
            fired = fired[sel]
            kw["values"] = _keep_values(kw.get("values"), sel)
        if not len(fired):
            return None
        rec = self.c.add(code, np.zeros(len(self.c.arr), bool), ctx, item_rows=self.parents[fired],
                         item_index=self.positions[fired].astype(np.int32), group=self.grp, **kw)
        if rec is not None:
            self.shifts.append((rec, fired))
            if src is not None and rec.values is None and k_messages.template(code, rec.message).has_value:
                rec.values = _values_at(self.flat, self.c.path, src, fired)
        return rec

    def lift(self, sub: NodeResult) -> None:
        """Take an item node's reports as the array's own.  joi renders the
        item label with the index AT the array boundary ('a[0].x' for
        sub-errors below the array level, errors.js:87-107); sub-errors at
        the array path itself keep the append form ('a[0]').  Inner-array
        indices of doubly nested arrays are not preserved (one item_index
        per violation row)."""
        path = self.c.path
        for rec in sub.errors:
            self.report(rec.code, _fired_rows(rec), rec.context, src=rec, seq=rec.seq,
                        warn=rec.warn, message=rec.message, path_override=rec.path,
                        values=rec.values, path_ipos=len(path) if len(rec.path) > len(path) else None)

    def lift_warns(self, sub: NodeResult, forced_abort: bool = False,
                   exclude: Optional[np.ndarray] = None) -> None:
        """A probe (exclusion / inclusion-match) is a real validate call in
        joi, so its warn-rule reports leak to the main state as they fire
        (validator.js:303-306).  $_match probes (exclusions) FORCE
        abortEarly=true internally (base.js:719-726), so only warns emitted
        before the probe's first hard error per item leak; $_validate
        attempts (inclusions, ordered) follow the outer prefs (fuzz seeds
        63909, 66988, 1800014).  ``exclude``: items a required's pre-loop
        attempt already leaked — joi reuses that result in the inclusions
        stage (array.js:274-278 previousCheck), no re-leak."""
        if not any(r.warn for r in sub.errors):
            return
        kept = []
        for rec, keepv, rows, vals in _probe_warns(
                sub.errors, forced_abort or self.c.env.prefs.get("abort_early", True),
                None if exclude is None else ~exclude):
            nr = ErrRec(rec.code, np.zeros(len(self.flat), bool), rec.path, rec.context,
                        rec.seq, rec.warn, rec.message)
            nr.rows, nr.values = rows, vals
            nr.item_index = rec.item_index[keepv] if rec.item_index is not None else None
            kept.append(nr)
        self.lift(NodeResult(value=None, errors=kept))

    def adopt_clean(self, pairs: list, sub: NodeResult, clean: np.ndarray, soft: bool = True) -> None:
        """Queue the ``clean`` matches to adopt the schema's converted value
        (array.js:209/297 value[i] = res.value; joi adopts ONLY on success,
        so failed items keep the original, fuzz seed 4000881).  A clean
        match whose converted value is undefined (an empty('') conversion)
        errors array.sparse in a non-sparse array and keeps the original
        (fuzz seed 3000556): the inclusions loop records it WITHOUT
        aborting early (array.js:286-292, ``soft``), the ordered loop
        aborts (array.js:201-207)."""
        if sub.value is None:
            return
        if not self.c.node.flags.get("sparse") and len(self.flat) and sub.value is not self.flat:
            became = (clean & ~self.nulls & as_bool_np(pc.is_null(sub.value), len(self.flat))
                      & ~self.failed(sub))
            if became.any():
                self.report("array.sparse", became, seq=-1, soft=soft)
                clean = clean & ~became
        if clean.any():
            pairs.append((clean, sub.value))

    def adopt(self, pairs: list, failed_any: np.ndarray) -> None:
        """Merge queued adoptions into the column in ONE pass, so a later
        schema's type promotion can't clobber an earlier one's values;
        ``failed_any`` marks the items a promotion may lose.  The first
        blocked promotion is kept as the typed ref view."""
        if not pairs:
            return
        for m, _ in pairs:
            self.adopted |= m
        merged, alt_f, alt_o = _adopt_items_multi(
            pairs, self.flat if self.new_flat is None else self.new_flat, failed_any, len(self.flat))
        if merged is not None:
            self.new_flat = merged
        if alt_f is not None and self.alt_flat is None:
            self.alt_flat, self.alt_ok = alt_f, alt_o


def _values_at(col, base: str, rec: ErrRec, idx: np.ndarray):
    """joi's ``{[.]}`` value for the fired rows of a report a node takes
    from a child: the value at the report's own path, walked down from
    ``col`` (the values at path ``base``, ``idx`` the fired entries of it)
    through struct fields and, for an item report, to the item at its
    fire-time index.  None when the path leaves the column."""
    item = rec.rows is not None and rec.item_index is not None
    cut = rec.ipos if item and rec.ipos is not None else len(rec.path)
    if not rec.path.startswith(base):
        return None
    col = _struct_walk(combine(col), rec.path[len(base):cut])
    if col is None:
        return None
    col = col.take(pa.array(idx))
    if item:
        if not (pa.types.is_list(col.type) or pa.types.is_large_list(col.type)):
            return None
        pos = rec.fire_items if rec.fire_items is not None else rec.item_index
        starts = col.offsets.to_numpy(zero_copy_only=False)[:-1]
        col = _struct_walk(col.values.take(pa.array(starts + pos)), rec.path[cut:])
    return col


def _struct_walk(col, rel: str):
    """The field at the dotted path ``rel`` of a struct column, or None."""
    for name in filter(None, rel.split(".")):
        if not pa.types.is_struct(col.type) or col.type.get_field_index(name) < 0:
            return None
        col = pc.struct_field(col, name)
    return col


def _item_env(c: _Node, parents: np.ndarray) -> Env:
    """The items' env: an ancestor ref resolves on the parent rows,
    broadcast to their items."""
    env, n, parent_idx = c.env, len(c.arr), pa.array(parents)

    def resolve_ancestor(name: str):
        col = env.resolve_ref(Ref(name), n)
        if isinstance(col, AltView):
            return col.take(parent_idx)
        if isinstance(col, (pa.Array, pa.ChunkedArray)):
            return combine(col).take(parent_idx)
        return col

    return Env(env.prefs, None, env.ancestors + [resolve_ancestor])


def _eval_array(c: _Node):
    """The array items loop (array.js:140-350), stage by stage in joi's
    order over one ``_Items``.  Returns the new column and the blocked
    cross-type promotion pair (or None)."""
    it = _Items(c)
    _items_sparse(it)
    node = c.node
    if node.items or node.ordered:
        it.env = _item_env(c, it.parents)
        if node.ordered:
            _items_ordered(it)
        if node.items:
            _items_exclusions(it)
            # stripUnknown strips unmatched array items ONLY in object form
            # with arrays:true (array.js:266 — plain `stripUnknown: true`
            # still errors, see test/types/array.js:436-467)
            su = c.env.prefs.get("strip_unknown", False)
            strip_arrays = bool(isinstance(su, dict) and su.get("arrays"))
            # joi's `jl === 1`: a lone inclusion returns the item's ACTUAL
            # errors (array.js:304-315), unless stripUnknown.arrays strips
            lone = len(node.inclusions) == 1 and not strip_arrays
            _items_inclusions(it, strip_arrays, lone, [] if lone else _items_requireds(it))
        _items_missed(it)
        return _items_finish(it, _items_splice(it))
    return _items_finish(it, c.arr)


def _items_sparse(it: _Items) -> None:
    """sparse: null items are forbidden unless the flag is set
    (array.js:454-466)."""
    node = it.c.node
    if node.flags.get("sparse"):
        return
    mask = it.nulls & it.in_scope
    if not mask.any():
        return
    if node.ordered and not node.items:
        # joi BREAKs the items loop at the first beyond-slots NON-undefined
        # item (array.js:222-231) — sparse checks after that position
        # never run
        first = _first_per_row((it.positions >= len(node.ordered)) & ~it.nulls, it.parents)
        cutoff = np.full(len(it.c.arr), np.iinfo(np.int64).max, dtype=np.int64)
        cutoff[it.parents[first]] = it.positions[first]
        mask &= it.positions < cutoff[it.parents]
    it.report("array.sparse", mask, seq=-1)


def _items_ordered(it: _Items) -> None:
    """The ordered slots (array.js:185-231): each slot validates the item
    at its position; then the items beyond the slots."""
    c, node = it.c, it.c.node
    pairs: list = []
    slot_failed = np.zeros(len(it.flat), dtype=bool)
    for i, oc in enumerate(node.ordered):
        pos_mask = (it.positions == i) & it.live
        if not pos_mask.any():
            continue
        sub = eval_node(oc, it.flat, it.env, c.path, scope=pos_mask)
        it.lift(sub)
        clean = pos_mask & ~it.failed(sub)
        slot_failed |= pos_mask & ~clean
        it.matched |= pos_mask
        if oc.flags.get("strip"):
            # a clean strip-flagged slot match is spliced out
            # (array.js:195-200) — no adoption, no sparse check
            it.strip |= clean
        else:
            it.adopt_clean(pairs, sub, clean, soft=False)
    beyond = it.positions >= len(node.ordered)
    # beyond-slot items are tolerable for the type promotion: their rows
    # carry array.orderedLength (or array.includes failures downstream),
    # so their values are never compared
    it.adopt(pairs, slot_failed | ~it.live | beyond)
    if beyond.any() and not node.items:
        # ONE row-level error at the first beyond NON-UNDEFINED item (an
        # undefined one sparse-errors and `continue`s — array.js:154-164
        # precedes :222-231), then joi BREAKs.  Strip-flagged slot splices
        # shift the reported pos: every ordered strip sits at a slot
        # position < L <= ppos, so the first beyond item's CURRENT index is
        # ppos minus the row's strip count (array.js:222-231 uses the loop i)
        n = len(c.arr)
        first = _first_per_row(beyond & it.live, it.parents)
        row_strips = np.bincount(it.parents[it.strip], minlength=n)
        ppos = it.positions[first] - row_strips[it.parents[first]]
        for p in np.unique(ppos):
            rows_over = np.zeros(n, dtype=bool)
            rows_over[it.parents[first][ppos == p]] = True
            c.add("array.orderedLength", rows_over, {"pos": int(p), "limit": len(node.ordered)})
        it.matched |= beyond


def _items_exclusions(it: _Items) -> None:
    """Exclusions first (array.js:206-218): a forbidden item schema's match
    errors array.excludes and claims the item before any inclusion can —
    an exclusion-errored item also never reaches the requireds loop
    (`errored -> continue`), so it cannot CLAIM a required schema (fuzz
    seed 43005251, node-verified: all-excluded items still miss the
    required)."""
    for xc in it.c.node.exclusions:
        remaining = it.remaining()
        if not remaining.any():
            break
        xsub = eval_node(xc, it.flat, it.env.match_env(), it.c.path, scope=remaining)
        bad = remaining & ~it.failed(xsub)
        it.lift_warns(xsub, forced_abort=True)  # $_match probe
        it.report("array.excludes", bad, {})
        it.matched |= bad


def _items_requireds(it: _Items) -> list:
    """joi's REQUIREDS pre-loop (array.js:233-258): each item tries the
    still-unclaimed requireds in order via full $_validate — the first
    match CLAIMS the schema, adopts ITS conversion, and skips the
    inclusions stage; warns leak from every attempt (items up to and
    including the claim point; fuzz seed 25000108, node-verified: a
    claimant matching a non-required too still adopts the required's value
    and leaks its warn).  Each OCCURRENCE of a required schema claims a
    DISTINCT item (test/types/array.js:581-602).  Returns the queued
    adoptions."""
    pairs: list = []
    remaining = it.remaining()
    if not it.requireds or not remaining.any():
        return pairs
    m, n = len(it.flat), len(it.c.arr)
    claim_of_item = np.full(m, -1, dtype=np.int64)
    pre_claimed = np.zeros(m, dtype=bool)
    for j, ric in enumerate(it.requireds):
        free = remaining & ~pre_claimed
        clj = _first_per_row(node_validity(ric, it.flat, it.env, free) & free, it.parents)
        pre_claimed |= clj
        claim_of_item[clj] = j
        it.req_claims[j] = clj
    for j, ric in enumerate(it.requireds):
        clj = it.req_claims[j]
        # attempts = items up to the row's claim point that didn't already
        # claim an EARLIER required (a claim breaks the item's requireds walk)
        claim_pos = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        claim_pos[it.parents[clj]] = it.positions[clj]
        att = (remaining & (it.positions <= claim_pos[it.parents])
               & ~((claim_of_item >= 0) & (claim_of_item < j)))
        it.attempts[id(ric)] = att
        if not att.any():
            continue
        sub = eval_node(ric, it.flat, it.env, it.c.path, scope=att)
        it.lift_warns(sub)
        if not clj.any():
            continue
        if ric.flags.get("strip"):
            _required_strip_claims(it, ric, clj)
        else:
            it.adopt_clean(pairs, sub, clj)
    it.matched |= pre_claimed
    return pairs


def _items_inclusions(it: _Items, strip_arrays: bool, lone: bool, pairs: list) -> None:
    """The inclusions loop (array.js:260-340).  joi tries NON-REQUIRED
    inclusions first, requireds last (array.js:137 `[...inclusions,
    ...requireds]`); the first match claims the item.  A lone inclusion
    (``lone``) reports an unmatched item's ACTUAL errors, not
    array.includes (`jl === 1`; ordered+items vector :1201-1213) — a
    sparse-flowing undefined that fails it lifts its real error
    (any.required; fuzz seed 4101290) — and, required, claims its first
    clean hit per row without the requireds pre-loop.  ``pairs`` holds
    the pre-loop's adoptions; all merge once after the loop."""
    c, node = it.c, it.c.node
    for ic in [ic for ic in node.inclusions if ic.flags.get("presence") != "required"] + it.requireds:
        remaining = it.remaining()
        if not remaining.any():
            break
        sub = eval_node(ic, it.flat, it.env, c.path, scope=remaining)
        if lone:
            it.lift(sub)
        else:
            it.lift_warns(sub, exclude=it.attempts.get(id(ic)))
        hit = remaining & ~it.failed(sub)
        if not ic.flags.get("strip"):
            # matched items adopt the inclusion's CONVERTED value (fuzz
            # seed 2200074: trim/uppercase must land under
            # stripUnknown.arrays)
            it.adopt_clean(pairs, sub, hit)
        elif id(ic) in it.attempts:
            # the requireds PRE-LOOP already holds this schema's claim —
            # inclusion-stage matches of an already-claimed required
            # splice like plain inclusions (array.js:280-283; fuzz seed
            # 38000247, node-verified).  A strip-flagged inclusion splices
            # BEFORE the undefined check (array.js:280-286), so an
            # empty('')-converted clean item strips silently instead of
            # sparse-erroring (fuzz seed 4001409, node-verified)
            it.strip |= hit
        else:
            _required_strip_claims(it, ic, hit)
        if lone and it.requireds:
            it.req_claims[0] = hit
        it.matched |= hit
    it.adopt(pairs, ~it.matched | ~it.live)
    # the unmatched items.  ``live`` already excludes non-sparse
    # undefineds (they sparse-error and `continue`); under sparse() an
    # undefined item flows through the loop like any value — a
    # required-only inclusion set REJECTS it, so it strips under
    # stripUnknown.arrays / errors array.includes (fuzz seed 3000260:
    # [5, undefined, 5].unique() -> joi splices the undefined, the dup
    # reports post-splice index 1).  With no inclusion schemas, unmatched
    # values pass
    if strip_arrays and node.inclusions:
        # stripUnknown.arrays drops unmatched items silently (array.js:327-331)
        it.strip |= it.remaining()
    elif len(node.inclusions) > 1:
        it.report("array.includes", it.remaining(), {})


def _required_strip_claims(it: _Items, ic: CNode, hit: np.ndarray) -> None:
    """Splice out the ``hit`` matches of a strip-flagged schema, except
    that the first clean match PER ROW of a required+strip inclusion is
    consumed by joi's REQUIREDS loop, which has NO strip check
    (array.js:237-255): ``value[i] = res.value`` where a strip schema's
    $_validate returns undefined (validator.js:414-415) — so the item
    becomes undefined WITHOUT a splice, and a non-sparse array records
    array.sparse at the current index (aborting under abortEarly).  Only
    LATER matches of the same schema reach the inclusions loop's strip
    fastSplice (array.js:278-283).  Fuzz seed 4000136, node-verified."""
    if ic.flags.get("presence") == "required" and hit.any():
        claim = _first_per_row(hit, it.parents)
        if not it.c.node.flags.get("sparse"):
            it.report("array.sparse", claim, seq=-1)
        it.undef |= claim
        hit = hit & ~claim
    it.strip |= hit


def _items_missed(it: _Items) -> None:
    """After the loop joi reports the unclaimed required items, then the
    required ordered slots beyond the row's length, each as one error per
    row (array.js:341-350 fillMissedErrors/fillOrderedErrors; they fire on
    empty arrays too: fuzz seeds 99175, 4100375; vector :1187-1199).
    Items an ordered slot consumed never reach the requireds loop
    (array.js:222-231 `continue`), so they claim none."""
    c, node = it.c, it.c.node
    n = len(c.arr)
    present = ~null_mask(c.arr) & c.scope
    got = np.zeros((n, len(it.req_claims)), dtype=bool)
    for j, clj in enumerate(it.req_claims):
        got[it.parents[clj], j] = True
    _fill_missed(c, it.requireds, present[:, None] & ~got)
    req_ord = [(i, oc) for i, oc in enumerate(node.ordered) if oc.flags.get("presence") == "required"]
    if req_ord:
        lengths = pc.list_value_length(c.arr).fill_null(0).to_numpy(zero_copy_only=False)
        _fill_missed(c, [oc for _, oc in req_ord],
                     present[:, None] & (lengths[:, None] <= np.array([i for i, _ in req_ord])))


def _items_splice(it: _Items):
    """joi splices stripped items DURING the loop (i--), so every item
    report carries its POST-SPLICE index: sparse errors ([10, undefined]
    with 10 stripped -> array.sparse at 0; fuzz seed 2200454),
    array.excludes, lifted sub-errors, and probe warn leaks (fuzz seeds
    109406/110082 — a kept item's string.min warn reports index minus the
    strips before it; all node-verified).  Then required+strip claims
    become null in place (validator.js:414) and the stripped items leave
    the lists."""
    n, m = len(it.c.arr), len(it.flat)
    if it.strip.any():
        cs = np.concatenate(([0], np.cumsum(it.strip)[:-1]))
        rows_u, first_idx = np.unique(it.parents, return_index=True)
        row_cs0 = np.zeros(n, dtype=np.int64)
        row_cs0[rows_u] = cs[first_idx]
        adj = it.positions - (cs - row_cs0[it.parents])
        for rec, fired in it.shifts:
            rec.item_index = adj[fired].astype(np.int32)
    if it.undef.any():
        src = it.flat if it.new_flat is None else combine(it.new_flat)
        it.new_flat = src.take(pa.array(np.arange(m), mask=it.undef))
    if it.strip.any():
        keep = ~it.strip
        # strip from the ADOPTED flat (converted item values must survive
        # the splice — fuzz seed 2200074); the kept items become the whole
        # column, so the finish stage can't re-expand the shorter lists
        src = it.flat if it.new_flat is None else combine(it.new_flat)
        kept_flat = src.filter(pa.array(keep))
        it.adopted = it.adopted[keep]
        it.new_flat = None
        kept_counts = np.bincount(it.parents[keep], minlength=n) if keep.any() else np.zeros(n, np.int64)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        rebuilt = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int64()).cast(pa.int32()), kept_flat)
        null_rows = null_mask(it.c.arr)
        if null_rows.any():
            rebuilt = pc.if_else(pa.array(null_rows), pa.nulls(n, rebuilt.type), rebuilt)
        return rebuilt
    return it.c.arr


def _items_finish(it: _Items, arr):
    """The output column with the adopted values, the typed ref view of a
    blocked promotion, and unique()'s typeof tags."""
    c, flat = it.c, it.flat
    n = len(c.arr)
    if it.new_flat is not None and it.new_flat is not flat:
        arr = _rebuild_list(arr, it.new_flat)
    alt_pair = None
    if it.alt_flat is not None:
        # per-row typed view for ref consumers: include a row only when
        # EVERY live item's alt value is faithful to joi's value[i]
        rows_bad = np.zeros(n, dtype=bool)
        rows_bad[it.parents[it.live & ~it.alt_ok]] = True
        rows_ok = ~null_mask(c.arr) & ~rows_bad
        if rows_ok.any():
            try:
                alt_pair = (rows_ok, _rebuild_list(c.arr, it.alt_flat))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                alt_pair = None
    # typeof side-channel for unique(): when a promotion rewrote the
    # column type, kept-original items and adopted-converted items carry
    # different joi typeofs even though the Arrow column is now uniform
    # (fuzz seed 5300531: kept number 1 never dups adopted cast "1");
    # consumed by make_unique via env (set fresh per array node)
    if it.adopted.any() and arr is not c.arr:
        try:
            out_flat = k_lists.flatten_with_parents(combine(arr))[0]
            if out_flat.type != flat.type and len(out_flat) == len(it.adopted):
                c.env.item_type_tags = it.adopted
                # which struct FIELDS the promotion retyped — sort(by=...)
                # only sees a typeof split when its by-field is one of them
                # (fuzz seed 26000610: cast x, sort by y — no mismatch in
                # joi's by-resolved comparator); None is a whole-value
                # promotion
                if pa.types.is_struct(out_flat.type) and pa.types.is_struct(flat.type):
                    old_f = {f.name: f.type for f in flat.type}
                    c.env.item_type_tag_fields = {
                        f.name for f in out_flat.type if old_f.get(f.name) != f.type}
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            pass
    return arr, alt_pair


def _rebuild_list(arr: pa.Array, new_flat: pa.Array) -> pa.Array:
    lengths = pc.list_value_length(arr).fill_null(0).to_numpy(zero_copy_only=False)
    offsets = np.zeros(len(arr) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    nulls = null_mask(arr)
    off = pa.array(offsets.astype(np.int32), type=pa.int32())
    out = pa.ListArray.from_arrays(off, new_flat)
    if nulls.any():
        out = pc.if_else(pa.array(nulls), pa.nulls(len(arr), out.type), out)
    return out


def _plan_renames(names: list[str], renames: list[dict], prefs: dict):
    """Resolve rename entries against a concrete key/column-name set —
    the batch analog of ``lib/types/object.js:886-967``.  Returns
    ``(ops, errs)``: ops are ``(from, to, alias, ignore_undefined)`` in
    application order; errs are ``(code, context)`` for multiple/override
    violations (joi records the error and still performs the rename)."""
    import re as _re

    from .kernels.template import compile_template

    ops: list[tuple] = []
    errs: list[tuple] = []
    renamed: set[str] = set()
    current = set(names)
    for rn in renames:
        opts = rn.get("options", {})
        is_pattern = bool(rn.get("regex"))
        matches: list[tuple] = []
        if not is_pattern:
            if rn["from"] in current:
                matches.append((rn["from"], rn["to"], None))
        else:
            rx = _re.compile(rn["from"])
            for f in names:
                if f not in current or f == rn["to"]:
                    continue
                m = rx.search(f)
                if m:
                    matches.append((f, rn["to"], m))
        for frm, to, m in matches:
            if isinstance(to, str) and "{" in to:
                # template target rendered with the regex match as local
                # context ({#0} whole match, {#1}.. groups — object.js:924)
                def resolve(name, _m=m):
                    key = name.lstrip("#$")
                    if name.startswith("$"):
                        ctx = prefs.get("context", {})
                        if key in ctx:
                            return ctx[key]
                        raise KeyError(name)
                    if _m is not None and key.isdigit():
                        gi = int(key)
                        if gi == 0 or gi <= (_m.lastindex or 0):
                            return _m.group(gi)
                    raise KeyError(name)

                to = compile_template(to).render(resolve)
            if frm == to:
                continue
            if not opts.get("multiple") and to in renamed:
                errs.append(("object.rename.multiple",
                             {"from": frm, "to": to, "pattern": is_pattern}))
            if to in current and not opts.get("override") and to not in renamed:
                errs.append(("object.rename.override",
                             {"from": frm, "to": to, "pattern": is_pattern}))
            ops.append((frm, to, bool(opts.get("alias")), bool(opts.get("ignoreUndefined"))))
            renamed.add(to)
            current.add(to)
            if not opts.get("alias"):
                current.discard(frm)
    return ops, errs


def _apply_rename_ops(cols: dict, ops: list[tuple]) -> dict:
    """Apply planned renames to an ordered name->array mapping.  Without
    ignore_undefined the target becomes the source column wholesale (joi
    per-row: ``value[to] = value[from]``, deleting on undefined); with it,
    rows whose source is null keep the existing target value."""
    for frm, to, alias, ign in ops:
        src = cols.get(frm)
        if src is None:
            continue
        if ign and to in cols:
            cols[to] = pc.if_else(pc.is_valid(combine(src)), src, cols[to])
        else:
            cols[to] = src
        if not alias:
            cols.pop(frm, None)
    return cols


def _eval_object(c: _Node) -> pa.Array:
    """The object keys, patterns, unknown keys and dependencies
    (object.js:68-166); each key's reports become the object's own.
    Returns the rebuilt struct column."""
    node, arr, env, path, scope = c.node, c.arr, c.env, c.path, c.scope
    n = len(arr)
    parent_present = ~null_mask(arr)
    # deep default (default() no-arg, test/base.js:1064-1081): a missing
    # object is treated as present-empty so child defaults fill it; the
    # struct rebuild below then clears the null mask for those rows
    if (node.flags.get("default") == Schema._DEEP_DEFAULT
            and not env.prefs.get("no_defaults", False)
            and node.flags.get("presence") != "forbidden"):
        parent_present = parent_present | scope
    field_names = orig_names = [f.name for f in arr.type]

    # renames (object.js:387-415,886-967): struct-field rename at batch
    # level, incl. regex sources, template targets and
    # multiple/override/alias/ignoreUndefined options
    children: dict[str, pa.Array] = dict(zip(field_names, arr.flatten()))
    if node.renames:
        ops, rerrs = _plan_renames(field_names, node.renames, env.prefs)
        children = _apply_rename_ops(children, ops)
        field_names = list(children)
        for code, ctx in rerrs:
            c.add(code, scope & parent_present, ctx, seq=-2)
    results: dict[str, NodeResult] = {}

    def resolve_sibling(name: str):
        if name in results:
            return _failed_overlay(results[name], children.get(name))
        if name in children:
            return children[name]
        return pa.nulls(n)  # refs to absent keys resolve undefined (lib/ref.js)

    child_env = env.child(resolve_sibling)
    # parent rows for arg-taking function defaults (validator.js:465)
    child_env.row_getter = _parent_row_getter(children, results)
    child_env.cond_memo = {}  # the keys' shared when-conditions
    kscope = scope & parent_present

    def run_child(key, cnode, child_arr, child_scope):
        sub = eval_node(cnode, child_arr, child_env, f"{path}.{key}" if path else key, scope=child_scope)
        results[key] = sub
        c.adopt(sub.errors)

    for key in node.key_order:
        child_arr = children.get(key)
        run_child(key, node.keys[key], pa.nulls(n) if child_arr is None else child_arr, kscope)

    # unknown fields (object.js:970-1041): each is checked against every
    # pattern in order (chaining coerced values) until an exclusive match;
    # each pattern's ``matches`` schema validates the array of matched key
    # names once per batch (object.pattern.match)
    unknown = [f for f in field_names if f not in node.keys]
    if node.patterns:
        pmatched: list[list[str]] = [[] for _ in node.patterns]
        for f in unknown:
            for i, p in enumerate(node.patterns):
                if p["rx"].search(f):
                    pmatched[i].append(f)
                    # joi walks only the keys PRESENT in the object
                    # (object.js:112): a null cell never reaches the pattern
                    # schema, so presence prefs don't apply
                    child = results[f].value if f in results else children[f]
                    run_child(f, p["node"], child, kscope & ~null_mask(combine(child)))
                    if p["exclusive"]:
                        break
        unknown = [f for f in unknown if f not in results]
        for i, p in enumerate(node.patterns):
            if p["matches"] is None:
                continue
            keys_arr = pa.array([pmatched[i]], type=pa.list_(pa.string()))
            if not node_validity(p["matches"], keys_arr, Env(env.prefs), np.ones(1, dtype=bool))[0]:
                c.add("object.pattern.match", kscope.copy(), {"matches": pmatched[i]}, seq=-1)
    # unknown-key finalizer (object.js:1043-1076): no keys/patterns terms
    # -> unknown allowed; stripUnknown(.objects) strips UNLESS a local
    # unknown() flag is set; the forbid gate is flags.unknown ?? allowUnknown
    # and fires per-row only where the key is actually present (non-null)
    has_terms = node.keys_term or bool(node.patterns)
    _su = env.prefs.get("strip_unknown", False)
    su_objects = _su is True or (isinstance(_su, dict) and bool(_su.get("objects")))
    strip_unk = su_objects and not node.flags.get("unknown", False) and has_terms
    allow_unknown = node.flags.get("unknown", env.prefs.get("allow_unknown", False))
    if unknown and has_terms and not allow_unknown and not strip_unk:
        for f in unknown:
            # error localizes at the unknown key itself (object.js:1068)
            c.add("object.unknown", kscope & ~null_mask(children[f]),
                  {"child": f}, seq=-1,
                  path_override=f"{path}.{f}" if path else f)

    # dependencies over presence masks (object.js:722-873); dep names may
    # be dotted deep paths ('b.c') — resolved by struct-field traversal,
    # with a per-dependency separator option
    for d in node.dependencies:
        sep = d.get("separator", ".")
        names = list(d["peers"]) + ([d["key"]] if d.get("key") else [])
        pm = {}
        for f in names:
            m = _dep_presence(f, results, children, parent_present, n, sep)
            # unknown names are simply never present (reference: an
            # unresolvable peer still counts as missing and stays in the
            # reported peer list)
            pm[f] = m if m is not None else np.zeros(n, dtype=bool)
        labels = {f: _dep_label(node, f, sep) for f in names}
        for viol, code, ctx in k_structs.dependency_violations(
                d["rel"], pm, d["peers"], d.get("key"), labels):
            c.add(code, viol & kscope, ctx)

    # rebuild struct with coerced / stripped children; a per-row strip
    # (whens branch) nulls the field only where the branch matched, and a
    # plain strip with FAILED rows keeps those rows' originals
    # (_strip_survivors — the errors short-circuit joi's delete)
    keep = []
    for f in field_names:
        if strip_unk and f in unknown:
            continue
        if f in results and results[f].strip:
            surv = _strip_survivors(results[f], children.get(f), n)
            if surv is None:
                continue
            results[f].value = surv
            results[f].strip = False
        keep.append(f)
    # a schema key absent from the input joins the output where a default
    # filled it (joi assigns the result onto the object, object.js:125-140)
    keep += [f for f in node.keys if f not in children and not results[f].strip
             and combine(results[f].value).null_count < n]
    for f in keep:
        if f in results and results[f].strip_rows is not None:
            v = combine(results[f].value)
            results[f].value = pc.if_else(
                pa.array(results[f].strip_rows), pa.nulls(len(v), v.type), v)
    arrays = [results[f].value if f in results else children[f] for f in keep]
    if keep != orig_names or any(results[f].value is not children.get(f) for f in results if f in keep):
        arr = pa.StructArray.from_arrays([combine(a) for a in arrays], names=keep, mask=pa.array(~parent_present))
    return arr


def _dep_label(node, name, separator="."):
    """Display label for a dependency name — each path segment mapped
    through its schema's ``label`` flag (reference ``keysToLabels`` /
    ``$_mapLabels``, object.js:878-886: ``and('a','b.c')`` with labels
    first/second renders ``first`` and ``b.second``)."""
    parts = name.split(separator) if separator else [name]
    out, cur = [], node
    for seg in parts:
        child = cur.keys.get(seg) if cur is not None else None
        out.append(child.flags.get("label", seg) if child is not None else seg)
        cur = child
    return (separator or ".").join(out)


def _dep_presence(name, results, children, parent_present, n, separator="."):
    """Presence mask for a dependency name, supporting dotted deep paths
    ('b.c' — reference object.js dependency separators): present iff every
    path level is non-null.  ``separator=False`` treats the name as one
    literal key (reference options.separator).  Returns None when the
    TOP-level field doesn't exist in the schema/value (reference: unknown
    top key is simply never present), an all-False mask when a deeper
    level is missing."""
    parts = name.split(separator) if separator else [name]
    top = parts[0]
    if top in results:
        cur = results[top].value
        present = ~null_mask(cur)
        # joi only writes result.value back into the object when the child
        # validated cleanly (object.js:125-140): an ERRORED key keeps its
        # ORIGINAL input value, so dependencies see the raw presence there
        # (e.g. q='' with empty('')+required: errored, still "present")
        res_failed = results[top].failed
        if res_failed is not None and res_failed.any() and top in children:
            orig_present = ~null_mask(children[top])
            present = np.where(res_failed, orig_present, present)
        # joi deletes strip-flagged keys in the keys loop, BEFORE
        # dependencies run (object.js:117-141 precedes :158-166) — but
        # only on CLEAN rows: result.errors short-circuits the delete, so
        # an errored key stays present with its original (fuzz seed 109:
        # xor('p','q') with p=number().strip() sees only q)
        if results[top].strip:
            clean = ~res_failed if res_failed is not None else np.ones(n, dtype=bool)
            present = present & ~clean
        elif results[top].strip_rows is not None:
            present = present & ~results[top].strip_rows
    elif top in children:
        cur = children[top]
        present = ~null_mask(cur)
    else:
        return None
    mask = present & parent_present
    for p in parts[1:]:
        if not pa.types.is_struct(cur.type) or cur.type.get_field_index(p) < 0:
            return np.zeros(n, dtype=bool)
        cur = pc.struct_field(cur, p)
        if isinstance(cur, pa.ChunkedArray):
            cur = cur.combine_chunks()
        mask = mask & ~null_mask(cur)
    return mask


def _probe_warns(errors: list, abort: bool = True, allow: Optional[np.ndarray] = None):
    """The warn reports a probe leaks: a probe is a real validate call, so
    its warn-rule reports reach the main state as they fire (validator.js:
    303-306).  Under abortEarly, which every $_match probe forces
    (base.js:719-726), only the warns ``_abort_early_keep`` keeps leak.
    Yields ``(rec, keep, rows, values)`` for each warn with a kept row:
    ``keep`` masks the rec's rows, ``rows``/``values`` are the kept ones.
    ``allow`` (indexed by row) further limits the rows that may leak."""
    cut = _abort_early_keep(errors) if abort else None
    for i, rec in enumerate(errors):
        if not rec.warn:
            continue
        rows = _fired_rows(rec)
        keep = cut[i] if cut is not None else np.ones(len(rows), dtype=bool)
        if allow is not None:
            keep &= allow[rows]
        if keep.any():
            yield rec, keep, rows[keep], _keep_values(rec.values, keep)


def _eval_structural_rule(c: _Node, cr) -> None:
    node, arr, env, path = c.node, c.arr, c.env, c.path
    _, args, cnode = cr.fn
    name, n = cr.name, len(arr)
    active = c.scope & ~c.missing & ~c.resolved
    if node.type == "array" and name == "has":
        flat, parents = k_lists.flatten_with_parents(arr)
        positions = k_lists.list_positions(parents)
        ok_rows = np.zeros(n, dtype=bool)
        if len(parents):
            sub = eval_node(cnode, flat, Env(env.prefs).match_env(), path, scope=np.ones(len(flat), dtype=bool))
            okm = ~(sub.failed if sub.failed is not None else np.zeros(len(flat), bool))
            ok_rows[np.unique(parents[okm])] = True
            # joi probes items IN ORDER until the first match (array.js:
            # 99-107 returns on $_match), and each probe is a real validate
            # call whose warn reports leak (validator.js:303-306) — under
            # abortEarly only warns emitted before the probe's first hard
            # error per item (node-verified)
            first = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
            if okm.any():
                np.minimum.at(first, parents[okm], positions[okm])
            probed = positions <= first[parents]
            for rec, _, kr, vals in _probe_warns(sub.errors, allow=probed):
                c.add(rec.code, np.zeros(n, bool), rec.context, seq=rec.seq,
                      warn=True, message=rec.message, item_rows=parents[kr],
                      item_index=positions[kr].astype(np.int32),
                      path_override=rec.path, values=vals,
                      path_ipos=len(path) if len(rec.path) > len(path) else None)
        # a LABELED has-schema errors array.hasKnown with the patternLabel
        # (array.js:109-114)
        plabel = cnode.flags.get("label")
        if plabel:
            c.add("array.hasKnown", active & ~ok_rows, {"patternLabel": plabel},
                  seq=cr.seq, warn=cr.warn, message=cr.message)
        else:
            c.add("array.hasUnknown", active & ~ok_rows, {}, seq=cr.seq, warn=cr.warn, message=cr.message)
        return
    if node.type == "object":
        if name in ("min", "max", "length"):
            field_names = [f.name for f in arr.type] if pa.types.is_struct(arr.type) else []
            presence = {f: ~null_mask(pc.struct_field(arr, f)) for f in field_names}
            counts = k_structs.key_count(presence, n)
            limit = args["limit"]
            opmap = {"min": counts >= limit, "max": counts <= limit, "length": counts == limit}
            c.add(f"object.{name}", active & ~opmap[name], {"limit": limit}, seq=cr.seq, warn=cr.warn, message=cr.message)
            return
        if name == "assert":
            r = args["ref"]
            if pa.types.is_struct(arr.type):
                # refs inside the assert schema resolve with the object
                # prepended to the ancestor chain (object.js:221-224 —
                # ancestors: [value, ...state.ancestors])
                def _own_child(seg, _arr=arr, _n=n):
                    t = _arr.type
                    if t.get_field_index(seg) >= 0:
                        return pc.struct_field(_arr, seg)
                    return pa.nulls(_n)

                env = env.child(_own_child)
            if r.kind == "ancestor" and pa.types.is_struct(arr.type):
                # subject path resolves within the object's own value,
                # dotted segments walking struct fields
                from .kernels.util import _walk_ref_path

                subject = combine(_walk_ref_path(arr, r.parts, n))
            else:
                # global ($context) subjects resolve via prefs.context.
                # NOTE the reference CRASHES here (object.js:223 calls
                # ref.resolve with no prefs, so ref.js:114 reads
                # undefined.context) — we implement the documented intent;
                # the fuzzer tracks the crash as assert_context_crash.
                subject = env.resolve_ref(r, n)
            if not isinstance(subject, (pa.Array, pa.ChunkedArray, AltView)):
                subject = pa.array([subject] * n)
            ok = np.ones(n, dtype=bool)
            for prows, col in ref_parts(subject, n):
                asub = eval_node(cnode, col, env.match_env(), "", scope=active & prows)
                if asub.failed is not None:
                    ok &= ~(asub.failed & prows)
                # the assert sub-$_match is a real validate call: its warn
                # reports leak to the main state with joi's root-ish path
                # ('"value" must be...', path []) — $_match FORCES
                # abortEarly internally (base.js:721; node-verified:
                # hard-first suppresses the warn even under outer
                # abortEarly:false)
                for rec, _, rows, vals in _probe_warns(asub.errors):
                    wmask = np.zeros(n, dtype=bool)
                    wmask[rows] = True
                    c.add(rec.code, wmask, rec.context, seq=rec.seq, warn=True,
                          message=rec.message, path_override=rec.path, values=vals)
            c.add("object.assert", active & ~ok,
                  {"ref": r.path, "message": args.get("message") or "pass the assertion test"},
                  seq=cr.seq, warn=cr.warn, message=cr.message)
            return
    raise ValueError(f"unhandled structural rule {node.type}.{name}")


def _topo_keys(keys: dict[str, CNode]) -> list[str]:
    """Topologically order sibling keys so referenced columns evaluate first
    (shadow semantics — the analog of ``object.js:598-609``)."""
    if not keys:
        return []
    deps: dict[str, set[str]] = {k: set() for k in keys}

    def collect(s: Schema, out: set):
        for r in s.rules:
            for v in r.get("args", {}).values():
                if isinstance(v, Ref) and getattr(v, "level", None) == 1:
                    out.add(v.parts[0] if v.parts else v.path)
        for v in s.allow_vals + s.invalid_vals:
            if isinstance(v, Ref) and getattr(v, "level", None) == 1:
                out.add(v.parts[0] if v.parts else v.path)
        dv = s.flags.get("default")
        if isinstance(dv, Ref) and getattr(dv, "level", None) == 1:
            out.add(dv.parts[0] if dv.parts else dv.path)
        elif hasattr(dv, "ref_names"):
            # expression-valued default: joi registers the template's refs
            # on the schema, so its sibling names order the topo too
            for nm in dv.ref_names():
                if nm and nm[0] not in "#$":
                    out.add(nm.split(".")[0])
        # NOTE deliberately NOT when-condition refs: the reference's
        # alternatives type never registers them (lib/types/alternatives.js
        # has no _refs.register), so they don't feed the key topo sort —
        # a when() sees the RAW sibling unless something else orders it.
        # Branch SCHEMAS however are registered sub-schemas
        # ($_mutateRegister propagates their refs), so their own rule refs
        # do count.
        for w in s.terms.get("whens", []):
            for br in ("then", "otherwise"):
                if isinstance(w.get(br), Schema):
                    collect(w[br], out)
            for sw in w.get("switch", []) or []:
                if isinstance(sw.get("then"), Schema):
                    collect(sw["then"], out)
                if isinstance(sw.get("otherwise"), Schema):
                    collect(sw["otherwise"], out)

    for k, cn in keys.items():
        collect(cn.schema, deps[k])
        deps[k] &= deps.keys()
    # @hapi/topo keeps INSERTION order and only defers a dependent past its
    # targets ({b,c,a-after-c,d} -> [b, c, a, d], not [c, a, b, d]) — the
    # evaluation (and with abortEarly, the first-error) order depends on it.
    # Kahn's algorithm picking the earliest-inserted ready node mirrors that.
    # A heap of ready keys by insertion position keeps that choice
    # O(k log k).
    names = list(keys)
    waiting = {k: len(deps[k]) for k in names}
    users: dict[str, list[str]] = {k: [] for k in names}
    for k in names:
        for d in deps[k]:
            users[d].append(k)
    pos = {k: i for i, k in enumerate(names)}
    ready = [i for i, k in enumerate(names) if not waiting[k]]
    out = []
    while ready:
        k = names[heapq.heappop(ready)]
        out.append(k)
        for u in users[k]:
            waiting[u] -= 1
            if not waiting[u]:
                heapq.heappush(ready, pos[u])
    if len(out) < len(names):
        # the reference REFUSES cyclic key dependencies at build time
        # (@hapi/topo: 'item added into group <k> created a
        # dependencies error' via object.js:601-606)
        remaining = [k for k in names if waiting[k]]
        raise ValueError(
            f"cyclic key dependencies among {sorted(remaining)} "
            "(reference @hapi/topo raises at schema build)"
        )
    return out


# ==========================================================================
# table-level API


@dataclass
class BatchResult:
    value: pa.Table
    violations: pa.Table
    ok: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.ok)

    @property
    def n_failed(self) -> int:
        return int((~self.ok).sum())

    def summary(self) -> dict:
        codes: dict[str, int] = {}
        warnings: dict[str, int] = {}
        if self.violations.num_rows:
            vc = self.violations.group_by(["code", "severity"]).aggregate([("code", "count")])
            for code, sev, cnt in zip(
                vc["code"].to_pylist(), vc["severity"].to_pylist(), vc["code_count"].to_pylist()
            ):
                bucket = warnings if sev == "warn" else codes
                bucket[code] = bucket.get(code, 0) + cnt
        out = {"rows": self.n_rows, "failed": self.n_failed, "codes": codes}
        if warnings:
            out["warnings"] = warnings
        return out


class CompiledSchema:
    """Driver-side compiled validation program for a fixed-schema table.

    ``schema`` must be (or describe) an object schema whose keys are the
    table's columns; ``id_column`` names the column carried into violation
    rows (the north rule's ``doc_id``).
    """

    def __init__(self, schema: Schema | dict, prefs: dict | None = None, id_column: str | None = None):
        if isinstance(schema, dict) and "type" in schema:
            schema = build(schema)
        if not isinstance(schema, Schema) or schema.type != "object":
            raise ValueError("table schema root must be an object() with keys")
        self.schema = schema
        self.prefs = {**DEFAULT_PREFS, **(prefs or {}), **schema.prefs}
        self.id_column = id_column
        self.root = CNode(schema)

    def validate_table(self, tbl: pa.Table) -> BatchResult:
        # joi validates the root like any nested object (validator.js:101-
        # 109 entry -> the same per-node validate): the table is one
        # struct column, one struct value per row, through eval_node
        tbl = tbl.combine_chunks()
        n = tbl.num_rows
        columns: dict[str, pa.Array] = {c: combine(tbl[c]) for c in tbl.column_names}
        # (the all-valid mask gives a column-less table its row count)
        root = pa.StructArray.from_arrays(list(columns.values()), names=list(columns),
                                          mask=pa.array(np.zeros(n, dtype=bool)))
        res = eval_node(self.root, root, Env(self.prefs), "")
        value = pa.Table.from_struct_array(res.value)
        violations = self._assemble_violations(res.errors, columns, n)
        return BatchResult(value=value, violations=violations, ok=~res.failed)

    def _assemble_violations(self, errors: list[ErrRec], columns: dict, n: int) -> pa.Table:
        ids = None
        if self.id_column and self.id_column in columns:
            idc = columns[self.id_column]
            if not pa.types.is_string(idc.type):
                idc = pc.cast(idc, pa.string())
            ids = idc
        # abortEarly's cut runs on the recs, before anything renders: over
        # every rec when the call aborts early, else scoped to each
        # schema-local abortEarly subtree (validator.js merges prefs per
        # node) — recs outside any subtree keep all their rows
        if self.prefs.get("abort_early", True):
            cut = _abort_early_keep(errors)
        else:
            cut = [None] * len(errors)
            groups: dict[int, list[int]] = {}
            for i, rec in enumerate(errors):
                if rec.local_abort:
                    groups.setdefault(rec.local_abort, []).append(i)
            for idx in groups.values():
                for i, keep in zip(idx, _abort_early_keep([errors[i] for i in idx])):
                    cut[i] = keep
        # per-REC scalar columns (one entry per rec), taken into row
        # position once, already in the final order
        rows_l, item_l = [], []
        path_r, code_r, ctx_r, warn_r, seq_r = [], [], [], [], []
        # messages: each rec adds its texts to one pool (a list of str or a
        # string array) and points each fired row at one of them
        pool: list = []
        msg_l: list[np.ndarray] = []
        pooled = 0
        esc, wrap, datefmt = k_messages.err_opts(self.prefs)
        for rec, keep in zip(errors, cut):
            if keep is not None and not keep.all():
                rec = replace(rec)
                _keep_fired(rec, keep)
            rows = _fired_rows(rec)
            if rec.rows is not None and rec.item_index is not None:
                items = rec.item_index
            else:
                items = np.full(len(rows), -1, dtype=np.int32)
            if len(rows) == 0:
                continue
            k = len(rows)
            rows_l.append(rows.astype(np.int64))
            item_l.append(items.astype(np.int32))
            ctx_json = json.dumps(rec.context, default=str, sort_keys=True) if rec.context else "{}"
            # joi renders the label from the FULL state path including the
            # item index ("b[0]", errors.js:87-107) unless a label flag
            # overrides it; item errors therefore need one render per
            # distinct index (bounded by max list length, not row count).
            # A report that carries the offending values ({[.]},
            # string/index.js:760-763) renders per distinct item too, as
            # the texts between its value parts for _value_messages.
            if rec.values is not None or ("label" not in (rec.context or {}) and (items >= 0).any()):
                uniq, inv = np.unique(items, return_inverse=True)
                labels = [_item_label_path(rec.path, int(it), rec.ipos) for it in uniq]
                if rec.values is not None:
                    splits = [render(rec.code, lb, rec.context, rec.message, prefs=self.prefs, split=True)
                              for lb in labels]
                    escapes = k_messages.template(rec.code, rec.message).value_escapes(esc)
                    texts = _value_messages(splits, inv, rec.values, escapes, wrap, datefmt)
                    at = np.arange(k)
                else:
                    texts = [render(rec.code, lb, rec.context, rec.message, prefs=self.prefs) for lb in labels]
                    at = inv
            else:
                texts = [render(rec.code, rec.path, rec.context, rec.message, prefs=self.prefs)]
                at = np.zeros(k, dtype=np.int64)
            pool.append(texts)
            msg_l.append(at + pooled)
            pooled += len(texts)
            path_r.append(rec.path)
            code_r.append(rec.code)
            ctx_r.append(ctx_json)
            warn_r.append(bool(rec.warn))
            seq_r.append(rec.seq)
        if not rows_l:
            empty = {name: pa.array([], type=t) for name, t in zip(VIOLATION_SCHEMA.names, VIOLATION_SCHEMA.types)}
            return pa.table(empty)
        rows_all = np.concatenate(rows_l)
        items_all = np.concatenate(item_l)
        rec_of = np.repeat(np.arange(len(rows_l)), [len(r) for r in rows_l])
        # the order of FIXTURES.md's determinism rules: (row, path, seq,
        # item), ties in emission order.  path and seq are per-rec, so one
        # dense rank of the recs' (path, seq) pairs stands for both (str
        # order is code-point order, the order of Arrow's UTF-8 bytes)
        keys = list(zip(path_r, seq_r))
        rank_of = {key: i for i, key in enumerate(sorted(set(keys)))}
        rank = np.asarray([rank_of[key] for key in keys], dtype=np.int64)
        order = np.lexsort((items_all, rank[rec_of], rows_all))
        rec_o = rec_of[order]
        rec_idx = pa.array(rec_o)
        rows_o = rows_all[order]
        return pa.table(
            {
                "doc_id": ids.take(pa.array(rows_o)) if ids is not None else pa.nulls(len(order), pa.string()),
                "row": pa.array(rows_o, type=pa.int64()),
                "path": pa.array(path_r, type=pa.string()).take(rec_idx),
                "item_index": pa.array(items_all[order], type=pa.int32()),
                "code": pa.array(code_r, type=pa.string()).take(rec_idx),
                "message": pa.concat_arrays([pa.array(t, pa.string()) if isinstance(t, list) else t
                                             for t in pool]).take(pa.array(np.concatenate(msg_l)[order])),
                "context": pa.array(ctx_r, type=pa.string()).take(rec_idx),
                "severity": pa.array(["error", "warn"]).take(pa.array(np.asarray(warn_r, dtype=np.int64)[rec_o])),
            }
        )


def _value_messages(splits: list[list[str]], inv: np.ndarray, vals, escapes: list[bool], wrap: bool,
                    datefmt: str) -> pa.Array:
    """Each fired row's message: its item's render parts (``splits[inv]``,
    the texts between the template's ``{[.]}`` parts) joined by the row's value.
    ``escapes`` tells, per value part, whether it HTML-escapes the value
    (``{{[.]}}`` under errors.escapeHtml).  A None value is JS undefined
    (e.g. an unbound ref resolution): the {[.]} part DROPS, not 'null'.  A
    string array with no escaped part renders in one kernel call, and a
    string stringifies to itself; other values stringify row by row."""
    if (isinstance(vals, pa.Array) and pa.types.is_string(vals.type) and not any(escapes)
            and len({len(parts) for parts in splits}) == 1):
        if len(splits) == 1:
            cols = splits[0]  # str parts broadcast over the rows
        else:
            idx = pa.array(inv)
            cols = [pa.array(list(col), pa.string()).take(idx) for col in zip(*splits)]
        return pc.binary_join_element_wise(*cols, pc.fill_null(vals, ""))
    if not isinstance(vals, list):
        vals = vals.to_pylist()
    out = []
    for i, v in zip(inv, vals):
        text = "" if v is None else k_messages._stringify(v, wrap, datefmt)
        shown = [k_messages._escape_html(text) if e else text for e in escapes]
        parts = splits[i]
        out.append("".join(p for pair in zip(parts, shown) for p in pair) + parts[-1])
    return pa.array(out, pa.string())


def compile_schema(schema: Schema | dict, prefs: dict | None = None, id_column: str | None = None) -> CompiledSchema:
    return CompiledSchema(schema, prefs, id_column)


class ValidationFailure(ValueError):
    def __init__(self, violations: pa.Table, message: str | None = None):
        self.violations = violations
        first = violations.to_pylist()[:3]
        prefix = f"{message} " if message else ""
        super().__init__(f"{prefix}{violations.num_rows} violation(s); first: {first}")


def assert_(tbl: pa.Table, schema: "Schema | dict", prefs: dict | None = None, id_column: str | None = None,
            message: str | None = None) -> None:
    """Validate-or-raise without returning the normalized table (the
    ``Joi.assert`` analog; ``message`` prefixes the raised error —
    lib/index.js:83-103)."""
    attempt(tbl, schema, prefs, id_column, message)


def attempt(tbl: pa.Table, schema: Schema | dict, prefs: dict | None = None, id_column: str | None = None,
            message: str | None = None) -> pa.Table:
    """Validate-or-raise convenience (the ``Joi.attempt`` analog,
    ``/root/reference/lib/index.js:54-59``): returns the normalized table or
    raises ``ValidationFailure`` carrying the violation rows."""
    res = compile_schema(schema, prefs, id_column).validate_table(tbl)
    errors = res.violations.filter(pc.equal(res.violations["severity"], "error"))
    if errors.num_rows:
        raise ValidationFailure(errors, message)
    return res.value
