"""Error-message catalog and renderer.

Mirrors the reference's per-type template tables (string messages
``/root/reference/lib/types/string/index.js:737-769``, number
``lib/types/number.js`` tail, base/any codes ``lib/messages.js``): one
template per error ``type`` code, in joi's template syntax (``{{#x}}``
HTML-escaped under ``errors.escapeHtml``, ``{#x}`` raw, ``{[.]}`` the
offending value).  Every message — catalog, ``prefs.messages``,
``.message()``, ``error()`` — compiles once to a ``kernels.template``
``Template`` and renders in one pass.  We render lazily — only for failing
rows — and keep the rendered string static per (code, path, context) so
violation output is byte-stable across partitioning (required for the
N-vs-4N fixture match).
"""

from __future__ import annotations

MESSAGES: dict[str, str] = {
    # any (lib/messages.js)
    "any.default": '"{{#label}}" threw an error when running default method',
    "any.failover": '"{{#label}}" threw an error when running failover method',
    "any.required": '"{{#label}}" is required',
    "any.unknown": '"{{#label}}" is not allowed',
    "any.invalid": '"{{#label}}" contains an invalid value',
    "any.only": '"{{#label}}" must be one of {{#valids}}',
    "any.custom": '"{{#label}}" failed custom validation',
    "any.ref": '"{{#label}}" {{#arg}} references "{{#ref}}" which {{#reason}}',
    "any.warning": '"{{#label}}" triggered warning {{#code}}',
    # string
    "string.base": '"{{#label}}" must be a string',
    "string.empty": '"{{#label}}" is not allowed to be empty',
    "string.min": '"{{#label}}" length must be at least {{#limit}} characters long',
    "string.max": '"{{#label}}" length must be less than or equal to {{#limit}} characters long',
    "string.length": '"{{#label}}" length must be {{#limit}} characters long',
    # {[.]} is the offending value, raw (string/index.js:760-763); the
    # regex renders as a JS literal (/src/)
    "string.pattern.base": '"{{#label}}" with value "{[.]}" fails to match the required pattern: {{#regex}}',
    "string.pattern.name": '"{{#label}}" with value "{[.]}" fails to match the {{#name}} pattern',
    "string.pattern.invert.base": '"{{#label}}" with value "{[.]}" matches the inverted pattern: {{#regex}}',
    "string.pattern.invert.name": '"{{#label}}" with value "{[.]}" matches the inverted {{#name}} pattern',
    "string.alphanum": '"{{#label}}" must only contain alpha-numeric characters',
    "string.token": '"{{#label}}" must only contain alpha-numeric and underscore characters',
    "string.hex": '"{{#label}}" must only contain hexadecimal characters',
    "string.base64": '"{{#label}}" must be a valid base64 string',
    "string.dataUri": '"{{#label}}" must be a valid dataUri string',
    "string.email": '"{{#label}}" must be a valid email',
    "string.domain": '"{{#label}}" must contain a valid domain name',
    "string.hostname": '"{{#label}}" must be a valid hostname',
    "string.guid": '"{{#label}}" must be a valid GUID',
    "string.ip": '"{{#label}}" must be a valid ip address with a {{#cidr}} CIDR',
    "string.ipVersion": '"{{#label}}" must be a valid ip address of one of the following versions {{#version}} with a {{#cidr}} CIDR',
    "string.uri": '"{{#label}}" must be a valid uri',
    "string.uriCustomScheme": '"{{#label}}" must be a valid uri with a scheme matching the {{#scheme}} pattern',
    "string.uriRelativeOnly": '"{{#label}}" must be a valid relative uri',
    "string.isoDate": '"{{#label}}" must be a valid ISO 8601 date',
    "string.isoDuration": '"{{#label}}" must be a valid ISO 8601 duration',
    "string.creditCard": '"{{#label}}" must be a credit card',
    "string.lowercase": '"{{#label}}" must only contain lowercase characters',
    "string.uppercase": '"{{#label}}" must only contain uppercase characters',
    "string.trim": '"{{#label}}" must not have leading or trailing whitespace',
    "string.normalize": '"{{#label}}" must be unicode normalized in the {{#form}} form',
    # number
    "number.base": '"{{#label}}" must be a number',
    "number.min": '"{{#label}}" must be larger than or equal to {{#limit}}',
    "number.max": '"{{#label}}" must be less than or equal to {{#limit}}',
    "number.greater": '"{{#label}}" must be greater than {{#limit}}',
    "number.less": '"{{#label}}" must be less than {{#limit}}',
    "number.integer": '"{{#label}}" must be an integer',
    "number.multiple": '"{{#label}}" must be a multiple of {{#multiple}}',
    "number.port": '"{{#label}}" must be a valid port',
    "number.positive": '"{{#label}}" must be a positive number',
    "number.negative": '"{{#label}}" must be a negative number',
    "number.precision": '"{{#label}}" must have no more than {{#limit}} decimal places',
    "number.unsafe": '"{{#label}}" must be a safe number',
    "number.infinity": '"{{#label}}" cannot be infinity',
    # boolean
    "boolean.base": '"{{#label}}" must be a boolean',
    # date
    "date.base": '"{{#label}}" must be a number of milliseconds or valid date string',
    "date.strict": '"{{#label}}" must be a valid date',
    "date.timestamp.javascript": '"{{#label}}" must be a valid timestamp or number of milliseconds',
    "date.timestamp.unix": '"{{#label}}" must be a valid timestamp or number of seconds',
    "date.isoDate": '"{{#label}}" must be a valid ISO 8601 date',
    "date.format": '"{{#label}}" must be in {{#format}} format',
    "date.min": '"{{#label}}" must be larger than or equal to "{{#limit}}"',
    "date.max": '"{{#label}}" must be less than or equal to "{{#limit}}"',
    "date.greater": '"{{#label}}" must be greater than "{{#limit}}"',
    "date.less": '"{{#label}}" must be less than "{{#limit}}"',
    # binary
    "binary.base": '"{{#label}}" must be a buffer or a string',
    "binary.min": '"{{#label}}" must be at least {{#limit}} bytes',
    "binary.max": '"{{#label}}" must be less than or equal to {{#limit}} bytes',
    "binary.length": '"{{#label}}" must be {{#limit}} bytes',
    # array
    "array.base": '"{{#label}}" must be an array',
    "array.min": '"{{#label}}" must contain at least {{#limit}} items',
    "array.max": '"{{#label}}" must contain less than or equal to {{#limit}} items',
    "array.length": '"{{#label}}" must contain {{#limit}} items',
    "array.unique": '"{{#label}}" contains a duplicate value',
    "array.sparse": '"{{#label}}" must not be a sparse array item',
    "array.excludes": '"{{#label}}" contains an excluded value',
    "array.includes": '"{{#label}}" does not match any of the allowed types',
    "array.includesRequiredUnknowns": '"{{#label}}" does not contain {{#unknownMisses}} required value(s)',
    "array.includesRequiredKnowns": '"{{#label}}" does not contain {{#knownMisses}}',
    "array.includesRequiredBoth": '"{{#label}}" does not contain {{#knownMisses}} and {{#unknownMisses}} other required value(s)',
    "array.hasUnknown": '"{{#label}}" does not contain at least one required match',
    "array.hasKnown": '"{{#label}}" does not contain at least one required match for type "{{#patternLabel}}"',
    "array.sort": '"{{#label}}" must be sorted in {{#order}} order by {{#by}}',
    "array.sort.mismatching": '"{{#label}}" cannot be sorted due to mismatching types',
    "array.sort.unsupported": '"{{#label}}" cannot be sorted due to unsupported type {{#type}}',
    "array.orderedLength": '"{{#label}}" must contain at most {{#limit}} items',
    # object
    "object.base": '"{{#label}}" must be of type object',
    "object.unknown": '"{{#label}}" is not allowed',
    # dependency messages are byte-parity with lib/types/object.js:629-648
    "object.and": '"{{#label}}" contains {{#presentWithLabels}} without its required peers {{#missingWithLabels}}',
    "object.nand": '"{{#mainWithLabel}}" must not exist simultaneously with {{#peersWithLabels}}',
    "object.or": '"{{#label}}" must contain at least one of {{#peersWithLabels}}',
    "object.xor": '"{{#label}}" contains a conflict between exclusive peers {{#peersWithLabels}}',
    "object.oxor": '"{{#label}}" contains a conflict between optional exclusive peers {{#peersWithLabels}}',
    "object.with": '"{{#mainWithLabel}}" missing required peer "{{#peerWithLabel}}"',
    "object.without": '"{{#mainWithLabel}}" conflict with forbidden peer "{{#peerWithLabel}}"',
    "object.assert": '"{{#label}}" is invalid because "{{#ref}}" failed to {{#message}}',
    "object.min": '"{{#label}}" must have at least {{#limit}} keys',
    "object.max": '"{{#label}}" must have less than or equal to {{#limit}} keys',
    "object.length": '"{{#label}}" must have {{#limit}} keys',
    "object.missing": '"{{#label}}" must contain at least one of {{#peersWithLabels}}',
    "object.rename.multiple": '"{{#label}}" cannot rename "{{#from}}" because multiple renames are disabled and another key was already renamed to "{{#to}}"',
    "object.rename.override": '"{{#label}}" cannot rename "{{#from}}" because override is disabled and target "{{#to}}" exists',
    "object.pattern.match": '"{{#label}}" keys failed to match pattern requirements',
    # alternatives
    "alternatives.any": '"{{#label}}" does not match any of the allowed types',
    "alternatives.match": '"{{#label}}" does not match any of the allowed types',
    "alternatives.base": '"{{#label}}" does not match any of the allowed types',
    "alternatives.types": '"{{#label}}" must be one of {{#types}}',
}


def lookup_override(code: str, prefs: dict) -> str | None:
    """Resolve a prefs-level message override for a code
    (``lib/errors.js`` messages preference): ``errors.language`` selects a
    language-keyed sub-map inside ``prefs.messages`` (a non-string language
    is a context ref — test/errors.js:243-268), falling through to a
    root-level code entry (test/errors.js:195-211)."""
    msgs = prefs.get("messages")
    if not msgs:
        return None
    err = prefs.get("errors") or {}
    lang = err.get("language")
    if lang is not None and not isinstance(lang, str):
        lang = (prefs.get("context") or {}).get(getattr(lang, "path", None))
    if lang:
        sub = msgs.get(lang)
        if isinstance(sub, dict):
            v = sub.get(code)
            if isinstance(v, str):
                return v
    v = msgs.get(code)
    return v if isinstance(v, str) else None


def err_opts(prefs: dict | None) -> tuple:
    """(escape_html, wrap_arrays, date_format) from validation prefs — joi's
    error-render options (``lib/errors.js:76`` passes ``prefs.errors`` into
    ``template.render``; defaults ``lib/common.js:27-32``: escapeHtml false,
    wrapArrays true, dateFormat 'iso')."""
    if not prefs:
        return (False, True, "iso")
    err = prefs.get("errors") or {}
    esc = err.get("escape_html", err.get("escapeHtml", False))
    wrap = err.get("wrap_arrays", err.get("wrapArrays", True))
    return (bool(esc), bool(wrap), prefs.get("date_format", "iso"))


def template(code: str, message: str | None = None):
    """The compiled template of a report: its own message (an override),
    else the catalog's; cached per source."""
    from .template import compile_template

    return compile_template(message or MESSAGES.get(code) or f'"{{{{#label}}}}" fails rule {code}')


def render(code: str, path: str, context: dict, override: str | None = None,
           prefs: dict | None = None, *, split: bool = False) -> str | list[str]:
    """Render the static message for an error family in one pass of its
    template (``template``): each part resolves in the error context, the
    label is the ``label`` context value or the path, and a part that
    resolves undefined is dropped (errors.js render pushes only defined
    parts; node-verified 'a {{#nope}} b' -> 'a  b'); a ``$name`` part
    reads ``prefs.context``.  Values go in as text
    and are never parsed again, so a label or a value holding braces keeps
    them.  The per-row value (``{[.]}``) has no binding here: with
    ``split`` the result is the list of texts between the value parts, for
    the caller to join with each row's value; without it the value parts
    drop.

    ``prefs`` threads joi's error-render options: ``{{...}}`` parts are
    HTML-escaped when ``errors.escapeHtml``, arrays wrap per
    ``errors.wrapArrays``, dates render per ``dateFormat``
    (template.js:185,331 + the dateFormat method map template.js:16-22)."""
    from .util import context_value

    label = context.get("label") or path
    if not label:
        # root-level errors: prefs.messages.root renames the root label
        # (lib/errors.js label fallback; node-verified '"myroot" contains
        # [a] without its required peers [b]'), default 'value'
        root = ((prefs or {}).get("messages") or {}).get("root")
        label = root if isinstance(root, str) else "value"

    def resolve(name: str):
        if name[:1] == "$":
            # a global ref reads prefs.context (template.js resolves it
            # like any ref); an unbound name raises KeyError and drops
            return context_value(prefs, name[1:].split("."))
        key = name[1:] if name[:1] == "#" else name
        if key == "label":
            return label
        v = context[key]
        if key == "regex" and isinstance(v, str) and not v.startswith("/"):
            # joi stringifies the RegExp object: String(/\d/) === "/\\d/"
            return f"/{v}/"
        return v

    return template(code, override).render(resolve, err_opts(prefs), split=split)


def stringify(v, prefs: dict | None = None) -> str:
    """Public alias: joi's template value rendering (see _stringify).  NOTE:
    the ``{[.]}`` value token is a SINGLE-brace (raw) template part in the
    reference catalog, so it is never HTML-escaped — only wrapArrays and
    dateFormat apply."""
    _, wrap, datefmt = err_opts(prefs)
    return _stringify(v, wrap, datefmt)


_WDAYS = ("Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _js_date_render(total_ms: int, fmt: str) -> str:
    """JS ``Date.prototype.to{Date,ISO,,Time,UTC}String`` in a UTC zone —
    joi renders message dates via ``prefs.dateFormat``
    (lib/template.js:16-22,99-102; node-verified byte-for-byte)."""
    from .strings import _civil_from_days, _js_iso_format

    if fmt == "iso":
        return _js_iso_format(total_ms)
    days, rem = divmod(total_ms, 86400000)
    y, mo, d = _civil_from_days(days)
    hh, rem = divmod(rem, 3600000)
    mm, rem = divmod(rem, 60000)
    ss, _ = divmod(rem, 1000)
    wd = _WDAYS[(days + 4) % 7]
    mon = _MONTHS[mo - 1]
    ystr = f"{y:04d}" if y >= 0 else f"-{abs(y):04d}"  # '0099', '275760', '-0001'
    if fmt == "date":
        return f"{wd} {mon} {d:02d} {ystr}"
    if fmt == "time":
        return f"{hh:02d}:{mm:02d}:{ss:02d} GMT+0000 (Coordinated Universal Time)"
    if fmt == "utc":
        return f"{wd}, {d:02d} {mon} {ystr} {hh:02d}:{mm:02d}:{ss:02d} GMT"
    # 'string' (Date.prototype.toString)
    return f"{wd} {mon} {d:02d} {ystr} {hh:02d}:{mm:02d}:{ss:02d} GMT+0000 (Coordinated Universal Time)"


_HTML_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                 "'": "&#x27;", "`": "&#x60;"}


def _escape_html(s: str) -> str:
    return "".join(_HTML_ESCAPES.get(c, c) for c in s)


def _stringify(v, wrap_arrays: bool = True, date_format: str = "iso") -> str:
    """joi's template array rendering (lib/template.js internals.stringify):
    ``[a, b]`` with wrapArrays (default), bare ``a, b`` without; options
    propagate into nested arrays (template.js:327-331)."""
    if isinstance(v, (list, tuple)):
        # joi inserts ', ' only when the accumulated string is non-empty
        # (template.js:327-331) — a leading '' item leaves no separator:
        # ['', 'a'] renders "[a]" while ['a', ''] renders "[a, ]"
        partial = ""
        for x in v:
            partial = partial + (", " if partial else "") + _stringify(x, wrap_arrays, date_format)
        return "[" + partial + "]" if wrap_arrays else partial
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if hasattr(v, "isoformat"):  # datetime: joi renders per prefs.dateFormat
        import datetime as _dt

        if isinstance(v, _dt.datetime):
            # JS formats zero-pad years <1000 ("0123-..."), which strftime
            # %Y does not — format from epoch-ms instead
            vv = v if v.tzinfo else v.replace(tzinfo=_dt.timezone.utc)
            epoch = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)
            return _js_date_render((vv - epoch) // _dt.timedelta(milliseconds=1), date_format)
    if isinstance(v, float):
        # JS Number.prototype.toString: integral values render without a
        # decimal point ("2", not "2.0"); -0 renders "0"
        import math as _math

        if _math.isnan(v):
            return "NaN"
        if _math.isinf(v):
            return "Infinity" if v > 0 else "-Infinity"
        if v.is_integer() and abs(v) < 1e21:
            return str(int(v))
        return str(v)
    if isinstance(v, (bytes, bytearray)):
        # joi renders Buffers via .toString() (utf8): "must be one of [hello]"
        return bytes(v).decode("utf-8", errors="replace")
    if isinstance(v, dict):
        # a non-array object renders via value.toString() (lib/template.js
        # internals.stringify)
        return "[object Object]"
    return str(v)
