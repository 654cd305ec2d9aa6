"""Vectorized string rule kernels.

Re-expresses the reference's string type (``/root/reference/lib/types/string/
index.js``, 821 LoC) as Arrow compute kernels.  Every kernel is a *factory*:
compile-time work (regex construction, value-set building) happens once when
the schema is compiled — the analog of joi precompiling regexes at
schema-build time (``lib/types/string/index.js:298-300,346,691-692``) — and
the returned closure runs per batch.  Factories are held in actor state by
the pipeline's validator pool, so this cost is paid once per actor.
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .util import Env, RuleOut, as_bool_np, cmp_mask, combine, distinct_strings


@functools.lru_cache(maxsize=512)
def _py_regex(pattern: str) -> "re.Pattern":
    return re.compile(pattern)


def regex_mask(arr: pa.Array, pattern: str) -> np.ndarray:
    """Regex match -> bool mask.  Arrow's RE2 engine first (C++-vectorized);
    Python ``re`` via pandas as fallback for RE2-unsupported syntax
    (lookaround, backreferences)."""
    n = len(arr)
    try:
        return as_bool_np(pc.match_substring_regex(arr, pattern), n)
    except pa.ArrowInvalid:
        pat = _py_regex(pattern)
        s = arr.to_pandas()
        return s.str.match(pat, na=False).to_numpy(dtype=bool)


def _lengths(arr: pa.Array) -> pa.Array:
    return pc.utf8_length(arr)


# --------------------------------------------------------------------------
# factories: name -> factory(args) -> kernel(arr, env) -> RuleOut

_ALPHANUM = r"^[a-zA-Z0-9]+$"
_TOKEN = r"^\w+$"
_HEX = r"^[0-9a-fA-F]+$"

# base64 variants — the reference's four regexes verbatim
# (lib/types/string/index.js:14-24): paddingRequired forms require the
# '='/'==' tail; the non-required forms make padding OPTIONAL, not forbidden.
_B64_STD_PAD = r"^(?:[A-Za-z0-9+/]{4})*(?:[A-Za-z0-9+/]{2}==|[A-Za-z0-9+/]{3}=)?$"
_B64_STD_NOPAD = r"^(?:[A-Za-z0-9+/]{4})*(?:[A-Za-z0-9+/]{2}(?:==)?|[A-Za-z0-9+/]{3}=?)?$"
_B64_URL_PAD = r"^(?:[A-Za-z0-9\-_]{4})*(?:[A-Za-z0-9\-_]{2}==|[A-Za-z0-9\-_]{3}=)?$"
_B64_URL_NOPAD = r"^(?:[A-Za-z0-9\-_]{4})*(?:[A-Za-z0-9\-_]{2}(?:==)?|[A-Za-z0-9\-_]{3}=?)?$"

# local part: RFC atext plus non-ASCII (the reference's @hapi/address
# accepts UTF-8 locals, e.g. 'êjness@something.com' —
# test/types/string.js:874); length caps applied separately in the kernel
# @hapi/address v2 local part: dot-separated segments, each of RFC 5322
# atext (JS \w + specials, i.e. incl. underscore) or non-ASCII codepoints
# (v2 accepts UTF-8 locals, e.g. 'êjness@something.com' —
# test/types/string.js:874); no empty segments (leading/trailing/double
# dots); length caps applied separately in the kernel
_EMAIL_SEG = r"(?:[A-Za-z0-9_!#$%&'*+\-/=?^`{|}~]|[^\x00-\x7F])+"
_EMAIL_LOCAL = rf"{_EMAIL_SEG}(?:\.{_EMAIL_SEG})*"
_HOST_LABEL = r"[a-zA-Z0-9](?:[a-zA-Z0-9\-]{0,61}[a-zA-Z0-9])?"
# @hapi/address v2 domain: non-TLD segments are alphanumeric-with-inner-
# hyphens (domainSegmentRx), the FINAL segment must START WITH A LETTER
# (tldSegmentRx — 'a.b2' and '123.456' are invalid, '123.com' is valid);
# >63-char segments fail (encoded via {0,61})
_DOMAIN_TLD = r"[A-Za-z](?:[A-Za-z0-9\-]{0,61}[A-Za-z0-9])?"
_EMAIL_DOMAIN = rf"(?:{_HOST_LABEL}\.)+{_DOMAIN_TLD}"
_EMAIL = rf"^{_EMAIL_LOCAL}@{_EMAIL_DOMAIN}$"
# joi hostname (NOT address-based): internals.hostRegex has no per-label
# 63-char cap — only the total <=255 check (string/index.js:35,:401)
_HOST_LABEL_NOCAP = r"[a-zA-Z0-9](?:[a-zA-Z0-9\-]*[a-zA-Z0-9])?"
_HOSTNAME = rf"^{_HOST_LABEL_NOCAP}(?:\.{_HOST_LABEL_NOCAP})*$"
_DOMAIN = rf"^(?:{_HOST_LABEL}\.)+{_DOMAIN_TLD}$"

_UUID_HEX = "[0-9a-fA-F]"
# joi guid: optional matching {} or [] wrapping (lib/types/string/index.js:320-365);
# RE2 has no backreferences, so enumerate the three wrapped forms.


def _guid_pattern(versions: list[int] | None) -> str:
    """Reference guid regex re-expressed without backreferences
    (``lib/types/string/index.js:346``): separator is '-', ':' or absent —
    once chosen, later separators are that character or omitted; wrapping
    brackets ({}, [], ()) must match; version digit + 89AB variant nibble
    enforced only when versions are given."""
    v = f"[{''.join(str(x) for x in versions)}]" if versions else _UUID_HEX
    r = "[89abAB]" if versions else _UUID_HEX
    H = _UUID_HEX

    def core(sep: str) -> str:
        so = f"{sep}?" if sep else ""
        return f"{H}{{8}}{sep}{H}{{4}}{so}{v}{H}{{3}}{so}{r}{H}{{3}}{so}{H}{{12}}"

    x = "(?:" + "|".join(core(s) for s in ("-", ":", "")) + ")"
    return rf"^(?:{x}|\{{{x}\}}|\[{x}\]|\({x}\))$"


# IPv4 octets allow leading zeros up to 3 digits (reference vectors:
# '01.020.030.100', '000.000.000.000' are valid — test/types/string.js:2030)
_OCTET = r"(?:25[0-5]|2[0-4]\d|1\d\d|0\d\d|\d{1,2})"
_IPV4 = rf"{_OCTET}(?:\.{_OCTET}){{3}}"
# RE2-safe IPv6: full, :: compressed, and embedded-IPv4 tail forms
_H16 = r"[0-9a-fA-F]{1,4}"
_IPV6 = (
    rf"(?:(?:{_H16}:){{7}}{_H16}"
    rf"|(?:{_H16}:){{6}}{_IPV4}"
    rf"|(?:{_H16}:){{1,5}}:{_IPV4}"
    rf"|(?:{_H16}:){{1,7}}:"
    rf"|(?:{_H16}:){{1,6}}:{_H16}"
    rf"|(?:{_H16}:){{1,5}}(?::{_H16}){{1,2}}"
    rf"|(?:{_H16}:){{1,4}}(?::{_H16}){{1,3}}"
    rf"|(?:{_H16}:){{1,3}}(?::{_H16}){{1,4}}"
    rf"|(?:{_H16}:){{1,2}}(?::{_H16}){{1,5}}"
    rf"|{_H16}:(?::{_H16}){{1,6}}"
    rf"|:(?:(?::{_H16}){{1,7}}|:)"
    rf"|::(?:[fF]{{4}}:)?{_IPV4})"
)
# RFC 3986 IPvFuture (lib/types/string/ip.js — reference ip() accepts it)
_IPVFUT = r"v[0-9A-Fa-f]+\.[A-Za-z0-9\-._~!$&'()*+,;=:]+"

# the reference's full ISO 8601 regex (lib/common.js:13) with one change:
# JS treats a backreference to an UNSET group as empty, Python fails it, so
# the seconds separator \2 becomes the conditional (?(2)\2|).  Uses
# backreferences + lookaheads -> regex_mask's Python-re fallback handles it.
_ISO_DATE = (
    r"^(?:[-+]\d{2})?(?:\d{4}(?!\d{2}\b))"
    r"(?:(-?)(?:(?:0[1-9]|1[0-2])(?:\1(?:[12]\d|0[1-9]|3[01]))?"
    r"|W(?:[0-4]\d|5[0-2])(?:-?[1-7])?"
    r"|(?:00[1-9]|0[1-9]\d|[12]\d{2}|3(?:[0-5]\d|6[1-6])))"
    r"(?![T]$|[T][\d]+Z$)"
    r"(?:[T\s](?:(?:(?:[01]\d|2[0-3])(?:(:?)[0-5]\d)?|24\:?00)(?:[.,]\d+(?!:))?)"
    r"(?:(?(2)\2|)[0-5]\d(?:[.,]\d+)?)?"
    r"(?:[Z]|(?:[+-])(?:[01]\d|2[0-3])(?::?[0-5]\d)?)?)?)?$"
)

_ISO_DURATION_SHAPE = r"^P(?:\d+Y)?(?:\d+M)?(?:\d+W)?(?:\d+D)?(?:T(?:\d+H)?(?:\d+M)?(?:\d+(?:\.\d+)?S)?)?$"

# RFC 3986 URI grammar as an RE2 regex (the analog of the reference's
# generated expression, lib/types/string/uri.js:116-185; ABNF from the
# public RFC 3986 appendix A)
_UNRES = r"A-Za-z0-9\-._~"
_SUBDEL = r"!$&'()*+,;="
_PCT = r"%[0-9A-Fa-f]{2}"
_PCHAR = rf"(?:[{_UNRES}{_SUBDEL}:@]|{_PCT})"
# non-empty 1-255 chars, pct chars as class members — mirrors the
# reference's regName (lib/types/string/uri.js:63) so 'http://' (empty
# host, empty path) is rejected while 'file:///x' passes via the
# no-authority triple-slash form below
_REGNAME = rf"[{_UNRES}{_SUBDEL}%]{{1,255}}"
_IPLIT = rf"\[(?:{_IPV6}|{_IPVFUT})\]"
_URI_HOST = rf"(?:{_IPLIT}|{_IPV4}|{_REGNAME})"
_USERINFO = rf"(?:[{_UNRES}{_SUBDEL}:]|{_PCT})*"
_AUTHORITY = rf"(?:{_USERINFO}@)?{_URI_HOST}(?::\d*)?"
_SEGMENT = rf"{_PCHAR}*"
_PATH_ABEMPTY = rf"(?:/{_SEGMENT})*"
_PATH_ABS = rf"/(?:{_PCHAR}+(?:/{_SEGMENT})*)?"
_PATH_ROOTLESS = rf"{_PCHAR}+(?:/{_SEGMENT})*"
# segment-nz-nc: pchar without ':' (first segment of a relative ref)
_SEG_NZ_NC = rf"(?:[{_UNRES}{_SUBDEL}@]|{_PCT})+"
_PATH_NOSCHEME = rf"{_SEG_NZ_NC}(?:/{_SEGMENT})*"
_PATH_AB_NO_AUTH = rf"///{_SEGMENT}{_PATH_ABEMPTY}"  # file:/// (uri.js:91)
_HIER_PART = rf"(?://{_AUTHORITY}{_PATH_ABEMPTY}|{_PATH_ABS}|{_PATH_ROOTLESS}|{_PATH_AB_NO_AUTH})"
_REL_PART = rf"(?://{_AUTHORITY}{_PATH_ABEMPTY}|{_PATH_ABS}|{_PATH_NOSCHEME}|)"
_QUERY = rf"(?:[{_UNRES}{_SUBDEL}:@/?]|{_PCT})*"
_QUERY_SQ = rf"(?:[{_UNRES}{_SUBDEL}:@/?\[\]]|{_PCT})*"
_FRAGMENT = _QUERY
_SCHEME = r"[A-Za-z][A-Za-z0-9+.\-]*"


def _uri_pattern(scheme_re: str | None = None, relative: bool = False,
                 relative_only: bool = False, square_brackets: bool = False) -> str:
    q = _QUERY_SQ if square_brackets else _QUERY
    sch = scheme_re if scheme_re is not None else _SCHEME
    absolute = rf"(?:{sch}):{_HIER_PART}"
    rel = _REL_PART
    if relative_only:
        core = rel
    elif relative:
        core = rf"(?:{absolute}|{rel})"
    else:
        core = absolute
    return rf"^{core}(?:\?{q})?(?:\#{_FRAGMENT})?$"


_URI_ABS = _uri_pattern()
_URI_REL = _uri_pattern(relative_only=True)

_DATA_URI = r"^data:[\w+.\-]+/[\w+.\-]+(?:;[\w.\-]+=[^;,]+)*(?:;base64)?,[A-Za-z0-9+/=%.\-~!$&'()*,;:@?_ ]*$"


def _regex_rule(pattern: str, code: str, ctx: dict | None = None):
    def factory(args: dict):
        def kernel(arr, env: Env) -> RuleOut:
            return RuleOut(ok=regex_mask(arr, pattern), context=ctx or {})

        return kernel

    return factory


def _measure(arr: pa.Array, encoding: str | None):
    """Char length by default; byte length when encoding='utf8'
    (the reference's Buffer.byteLength path, string/index.js:510-556)."""
    if encoding in ("utf8", "utf-8"):
        return pc.binary_length(pc.cast(arr, pa.binary()))
    return _lengths(arr)


def _len_rule(op: str):
    def factory(args):
        enc = args.get("encoding")

        def kernel(arr, env: Env) -> RuleOut:
            ok, ctx = cmp_mask(_measure(arr, enc), op, args["limit"], env, arg="limit")
            return RuleOut(ok=ok, context=ctx)

        return kernel

    return factory


make_min = _len_rule("ge")
make_max = _len_rule("le")
make_length = _len_rule("eq")


def make_pattern(args):
    pattern = args["regex"]
    invert = bool(args.get("invert"))
    name = args.get("name")

    def kernel(arr, env: Env) -> RuleOut:
        m = regex_mask(arr, pattern)
        ok = ~m if invert else m
        return RuleOut(ok=ok, context={"name": name, "regex": pattern})

    return kernel


def pattern_code(args) -> str:
    invert = bool(args.get("invert"))
    name = args.get("name")
    return "string.pattern." + (("invert." if invert else "") + ("name" if name else "base"))


def make_base64(args):
    pad = args.get("paddingRequired", True)
    url = args.get("urlSafe", False)
    pattern = (_B64_URL_PAD if pad else _B64_URL_NOPAD) if url else (_B64_STD_PAD if pad else _B64_STD_NOPAD)

    def kernel(arr, env: Env) -> RuleOut:
        ok = regex_mask(arr, pattern) & (as_bool_np(pc.greater(_lengths(arr), 0), len(arr)))
        return RuleOut(ok=ok)

    return kernel


def make_email(args):
    tlds = args.get("tlds")
    multiple = args.get("multiple", False)
    sep = args.get("separator", ",") or ","
    min_segments = args.get("minDomainSegments", 2)
    # tlds: allow-list (plain list, round-1 form) or {"allow": [...],
    # "deny": [...]} like the reference (lib/types/string/index.js:291-318)
    tld_set = None
    tld_deny = None
    if isinstance(tlds, dict):
        if tlds.get("allow"):
            tld_set = {t.lower() for t in tlds["allow"]}
        if tlds.get("deny"):
            tld_deny = {t.lower() for t in tlds["deny"]}
    elif tlds:
        tld_set = {t.lower() for t in tlds}

    # minDomainSegments below the default 2 relaxes the domain shape
    # ('a@b' is valid under minDomainSegments:1 — @hapi/address v2)
    if min_segments <= 1:
        email_pattern = rf"^{_EMAIL_LOCAL}@(?:{_HOST_LABEL}\.)*{_DOMAIN_TLD}$"
    else:
        email_pattern = _EMAIL

    def check_one(arr, n):
        ok = regex_mask(arr, email_pattern)
        # @hapi/address limits: local part <= 64 chars, whole address
        # <= 254 bytes (lib/types/string/index.js:291-318 delegation)
        ok &= as_bool_np(
            pc.less_equal(pc.binary_length(pc.cast(arr, pa.binary())), 254), n)
        # local-part cap is 64 BYTES (v2: TextEncoder().encode(local).length)
        local = pc.struct_field(pc.extract_regex(arr, r"^(?P<l>[^@]*)@"), "l")
        ok &= as_bool_np(pc.less_equal(pc.binary_length(pc.cast(local, pa.binary())), 64), n)
        if min_segments > 2:
            dom = pc.struct_field(pc.extract_regex(arr, r"@(?P<d>[^@]*)$"), "d")
            dots = pc.count_substring(dom, ".")
            ok &= as_bool_np(pc.greater_equal(dots, min_segments - 1), n)
        if tld_set or tld_deny:
            # extract the final label; allow-set membership / deny-set miss
            tld = pc.extract_regex(arr, r"\.(?P<tld>[A-Za-z0-9\-]+)$")
            tl = pc.utf8_lower(pc.struct_field(tld, "tld"))
            if tld_set:
                ok &= as_bool_np(pc.is_in(tl, value_set=pa.array(sorted(tld_set))), n)
            if tld_deny:
                ok &= ~as_bool_np(pc.is_in(tl, value_set=pa.array(sorted(tld_deny))), n)
        return ok

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        if not multiple:
            return RuleOut(ok=check_one(arr, n))
        # multiple addresses separated by `sep`: explode and re-and per row
        s = arr.to_pandas().str.split(sep)
        ok = np.ones(n, dtype=bool)
        flat, parent = [], []
        for i, parts in enumerate(s):
            if isinstance(parts, list):
                for p in parts:
                    flat.append(p.strip())
                    parent.append(i)
        if flat:
            fm = check_one(pa.array(flat, type=pa.string()), len(flat))
            bad = np.asarray(parent)[~fm]
            ok[bad] = False
        return RuleOut(ok=ok)

    return kernel


def make_guid(args):
    versions = args.get("version")
    pattern = _guid_pattern(versions)

    def kernel(arr, env: Env) -> RuleOut:
        return RuleOut(ok=regex_mask(arr, pattern), context={"version": versions})

    return kernel


_CIDR_V4 = r"/(?:3[0-2]|[12]?\d)"          # 0-32
_CIDR_V6 = r"/(?:12[0-8]|1[01]\d|\d{1,2})"  # 0-128


def make_ip(args):
    # reference default accepts ipv4 + ipv6 + ipvfuture, with per-version
    # CIDR ranges (ipv4 /0-32, ipv6 + ipvfuture /0-128) —
    # lib/types/string/ip.js:35-39 + test vectors
    versions = args.get("version") or ["ipv4", "ipv6", "ipvfuture"]
    cidr = args.get("cidr", "optional")
    parts = []
    for v, addr_re, cidr_re in (
        ("ipv4", _IPV4, _CIDR_V4),
        ("ipv6", _IPV6, _CIDR_V6),
        ("ipvfuture", _IPVFUT, _CIDR_V6),
    ):
        if v in versions:
            sfx = {"optional": f"(?:{cidr_re})?", "required": cidr_re, "forbidden": ""}[cidr]
            parts.append(f"(?:{addr_re}{sfx})")
    pattern = "^(?:" + "|".join(parts) + ")$"

    def kernel(arr, env: Env) -> RuleOut:
        return RuleOut(ok=regex_mask(arr, pattern), context={"cidr": cidr, "version": versions})

    return kernel


def ip_code(args) -> str:
    return "string.ipVersion" if args.get("version") else "string.ip"


def make_uri(args):
    schemes = args.get("scheme")
    allow_rel = args.get("allowRelative", False)
    rel_only = args.get("relativeOnly", False)
    sq = args.get("allowQuerySquareBrackets", False)
    domain_opt = args.get("domain")
    scheme_re = None
    if schemes:
        def one(sch):
            # compiled patterns pass through verbatim (the reference accepts
            # RegExp scheme entries, lib/types/string/uri.js:121-131);
            # strings are literal, with a trailing-* wildcard convenience
            if hasattr(sch, "pattern"):
                return f"(?:{sch.pattern})"
            if sch.endswith("*"):
                return re.escape(sch[:-1]) + r"[a-zA-Z0-9+.\-]*"
            return re.escape(sch)

        scheme_re = "|".join(one(sch) for sch in schemes)
    pattern = _uri_pattern(scheme_re, relative=allow_rel, relative_only=rel_only,
                           square_brackets=sq)

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        ok = regex_mask(arr, pattern) & as_bool_np(pc.greater(_lengths(arr), 0), n)
        # 'scheme:/ is technically valid but makes no sense' —
        # lib/types/string/index.js:696-698 rejects these two exactly
        ok &= ~as_bool_np(pc.is_in(arr, value_set=pa.array(["http:/", "https:/"])), n)
        if domain_opt:
            # domain option (string/index.js:702-707): the authority host
            # must be a valid domain; True or {"minDomainSegments": N}
            hostm = pc.extract_regex(
                arr, r"^[A-Za-z][A-Za-z0-9+.\-]*://(?:[^/@?#]*@)?(?P<h>[^/:?#]*)")
            h = pc.struct_field(hostm, "h")
            # a domain's TLD must contain a letter (@hapi/address rejects
            # all-numeric TLDs, so bare IPv4 hosts are not domains)
            dok = regex_mask(h, _DOMAIN) & regex_mask(
                h, r"\.[A-Za-z0-9\-]*[A-Za-z][A-Za-z0-9\-]*$")
            if isinstance(domain_opt, dict) and domain_opt.get("minDomainSegments", 2) > 2:
                dots = pc.count_substring(h, ".")
                dok &= as_bool_np(
                    pc.greater_equal(dots, domain_opt["minDomainSegments"] - 1), n)
            ok &= dok
        return RuleOut(ok=ok, context={"scheme": schemes})

    return kernel


def uri_code(args) -> str:
    if args.get("scheme"):
        return "string.uriCustomScheme"
    if args.get("relativeOnly"):
        return "string.uriRelativeOnly"
    return "string.uri"


# -- JS-Date model for the isoDate convert path ------------------------------
# The reference's coerce step (string/index.js:103-115) requires the value to
# be BOTH regex-valid (common.js:13) and `new Date(value)`-parseable, then
# normalizes via Date.prototype.toISOString().  Pandas' strict ISO8601 parser
# covers the common forms; the residual classes (expanded ±YYYYYY years,
# 24:00 rollover, out-of-datetime64-range years) are handled by a small
# explicit parser below, and classes V8 cannot parse (week dates, ordinal
# dates, comma fractions, hour fractions) correctly become string.isoDate
# errors — pinned by the reference's own convert test ('2013-184' -> error,
# test/types/string.js:9515-9524).

_JS_ISO_PARSE_RE = None


def _days_from_civil(y: int, m: int, d: int) -> int:
    # proleptic-Gregorian day count (public-domain civil-days algorithm);
    # exact for negative years, matching JS Date's extended range
    y -= m <= 2
    # Hinnant's (y - 399) / 400 compensates C++ TRUNCATING division for
    # negative y; Python // already floors (see _civil_from_days) — the
    # extra subtraction shifted every pre-year-0 date one day back, which
    # previously canceled against the matching bug in _civil_from_days
    era = y // 400
    yoe = y - era * 400
    doy = (153 * (m + (-3 if m > 2 else 9)) + 2) // 5 + d - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def _civil_from_days(z: int) -> tuple:
    z += 719468
    # Hinnant's civil_from_days writes (z - 146096) / 146097 for negative z
    # because C++ division TRUNCATES; Python's // already floors, so the
    # adjustment would double-correct and shift every pre-year-0 date one
    # day forward (node-verified: -000001-01-01 rendered as -01-02)
    era = z // 146097
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    y = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    d = doy - (153 * mp + 2) // 5 + 1
    m = mp + (3 if mp < 10 else -9)
    return y + (m <= 2), m, d


def _js_iso_format(total_ms: int) -> str:
    days, rem = divmod(total_ms, 86400000)
    y2, mo2, d2 = _civil_from_days(days)
    hh2, rem = divmod(rem, 3600000)
    mm2, rem = divmod(rem, 60000)
    ss2, ms2 = divmod(rem, 1000)
    ystr = f"{y2:04d}" if 0 <= y2 <= 9999 else f"{'+' if y2 > 0 else '-'}{abs(y2):06d}"
    return f"{ystr}-{mo2:02d}-{d2:02d}T{hh2:02d}:{mm2:02d}:{ss2:02d}.{ms2:03d}Z"


def _js_iso_parse_ms(s: str) -> int | None:
    """Parse a regex-valid-but-pandas-rejected ISO string the way V8's Date
    parser would; return the UTC epoch milliseconds, or None for Invalid
    Date."""
    global _JS_ISO_PARSE_RE
    if _JS_ISO_PARSE_RE is None:
        import re as _re

        _JS_ISO_PARSE_RE = _re.compile(
            r"^(?:(?P<sign>[+-])(?P<eyear>\d{6})|(?P<year>\d{4}))"
            r"(?:-(?P<month>\d{2})(?:-(?P<day>\d{2}))?)?"
            r"(?:[T ](?P<hh>\d{2}):(?P<mm>\d{2})"
            r"(?::(?P<ss>\d{2})(?:\.(?P<frac>\d+))?)?"
            r"(?P<tz>Z|[+-]\d{2}:?\d{2})?)?$"
        )
    m = _JS_ISO_PARSE_RE.match(s)
    if m is None:
        return None  # week/ordinal/comma/hour-fraction forms: Invalid Date
    g = m.groupdict()
    if g["eyear"] is not None:
        y = int(g["eyear"])
        if g["sign"] == "-":
            if y == 0:
                return None  # JS: -000000 is invalid
            y = -y
    else:
        y = int(g["year"])
    mo = int(g["month"]) if g["month"] else 1
    d = int(g["day"]) if g["day"] else 1
    if not (1 <= mo <= 12) or not (1 <= d <= 31):
        return None
    # V8 accepts any day 01-31 and rolls past-month-end forward via MakeDay
    # ('2019-02-30' -> Mar 2) — _days_from_civil is linear in d, so the
    # overflow day advances the epoch count naturally
    hh = int(g["hh"]) if g["hh"] else 0
    mm = int(g["mm"]) if g["mm"] else 0
    ss = int(g["ss"]) if g["ss"] else 0
    ms = int(((g["frac"] or "") + "000")[:3]) if g["frac"] else 0
    if hh == 24:
        # ES spec: hour 24 only with zero minutes/seconds/fraction; the
        # instant rolls over to 00:00 of the next day
        if mm or ss or ms:
            return None
    elif hh > 23 or mm > 59 or ss > 59:
        return None
    off_min = 0
    tz = g["tz"]
    if tz and tz != "Z":
        tzs = tz.replace(":", "")
        off_min = int(tzs[1:3]) * 60 + int(tzs[3:5])
        if tz[0] == "-":
            off_min = -off_min
    total_ms = (_days_from_civil(y, mo, d) * 86400000
                + hh * 3600000 + mm * 60000 + ss * 1000 + ms
                - off_min * 60000)
    if abs(total_ms) > 8640000000000000:  # JS Date epoch range
        return None
    return total_ms


#: pandas' int64 for NaT, what a datetime64 null slot holds
_NAT = np.iinfo(np.int64).min
#: a sign after the date-time separator: a string that may carry a UTC offset
_MAY_CARRY_OFFSET = re.compile(r"[Tt\s].*[+-]")
_LEADING_DIGIT = re.compile(r"\s*[0-9]")


def pandas_ms(strings: list, fmt: str) -> list:
    """``pd.to_datetime`` over (distinct) strings -> the UTC epoch ms of
    each (floored, as a datetime64[ms] cast floors), None where pandas gives
    NaT.  ``fmt`` is "ISO8601", or "mixed" for the free-form grammar, which
    parses each string on its own (no format inferred from the first)."""
    if not strings:
        return []
    import warnings

    import pandas as pd

    # pandas' ISO8601 parser applies a string's UTC offset to the naive
    # date-times after it in the same call (pandas 2.2), so the strings
    # that may carry an offset go last
    order = sorted(range(len(strings)), key=lambda i: bool(_MAY_CARRY_OFFSET.search(strings[i].strip())))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ns = pd.to_datetime([strings[i] for i in order], errors="coerce", utc=True, format=fmt).asi8
    out = [None] * len(strings)
    for i, v in zip(order, ns.tolist()):
        out[i] = None if v == _NAT else v // 1_000_000
    return out


def iso_ms(values: list) -> list:
    """UTC epoch ms of each string read as an ISO 8601 date, None where
    neither parser reads it: the JS ISO model (V8's Date parser: expanded
    years, 24:00, day rollover) first, pandas' ISO8601 parser for the forms
    it does not read (week and ordinal dates, basic format, ...)."""
    out = [_js_iso_parse_ms(v) for v in values]
    # pandas' ISO8601 parser reads nothing that does not start with a digit
    rest = [i for i, ms in enumerate(out) if ms is None and _LEADING_DIGIT.match(values[i])]
    for i, ms in zip(rest, pandas_ms([values[i] for i in rest], "ISO8601")):
        out[i] = ms
    return out


def iso_dates_ms(values: list) -> list:
    """``iso_ms`` of each string that passes joi's ISO regex (common.js:13),
    None for the rest."""
    gate = _py_regex(_ISO_DATE)
    cand = [v for v in values if gate.match(v)]
    parsed = dict(zip(cand, iso_ms(cand)))
    return [parsed.get(v) for v in values]


def make_iso_date(args):
    gate = _py_regex(_ISO_DATE)

    def kernel(arr, env: Env) -> RuleOut:
        codes, values = distinct_strings(arr)
        ok = np.array([gate.match(v) is not None for v in values] + [False])[codes]
        if env.convert and ok.any():
            # convert mode (string/index.js:103-115): regex-valid values
            # must ALSO be JS-Date-parseable, and normalize via
            # toISOString() (UTC, ms precision).  TZ-less datetimes are
            # treated as UTC, matching the reference test environment.
            ms = iso_dates_ms(values)
            ok = np.array([m is not None for m in ms] + [False])[codes]
            new = [v if m is None else _js_iso_format(m) for v, m in zip(values, ms)]
            return RuleOut(ok=ok, new_value=pa.array(np.array(new + [None], dtype=object)[codes],
                                                     type=pa.string()))
        return RuleOut(ok=ok)

    return kernel


def make_iso_duration(args):
    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        shape = regex_mask(arr, _ISO_DURATION_SHAPE)
        # RE2 has no lookahead: additionally require at least one component
        # and no dangling 'T' (joi: /^P(?!$)...(?!$)/, lib string index:495-508)
        nonempty = ~regex_mask(arr, r"^P$") & ~regex_mask(arr, r"T$")
        return RuleOut(ok=shape & nonempty)

    return kernel


def make_credit_card(args):
    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        shape = regex_mask(arr, r"^\d{8,19}$")
        ok = shape.copy()
        idx = np.nonzero(shape)[0]
        if len(idx):
            s = arr.take(pa.array(idx)).to_pandas().str.zfill(19)
            # vectorized Luhn: leading zeros don't change the checksum
            buf = "".join(s.tolist()).encode()
            digits = np.frombuffer(buf, dtype=np.uint8).reshape(len(idx), 19) - 48
            # double every second digit from the right (indices 17,15,...)
            doubled = digits.copy()
            cols = np.arange(19)
            dbl_cols = (18 - cols) % 2 == 1
            d2 = digits[:, dbl_cols] * 2
            d2 = np.where(d2 > 9, d2 - 9, d2)
            doubled[:, dbl_cols] = d2
            luhn_ok = doubled.sum(axis=1) % 10 == 0
            ok[idx[~luhn_ok]] = False
        return RuleOut(ok=ok)

    return kernel


def make_case(args):
    direction = args["direction"]
    fn = pc.utf8_lower if direction == "lower" else pc.utf8_upper

    def kernel(arr, env: Env) -> RuleOut:
        if env.convert:
            return RuleOut(ok=np.ones(len(arr), dtype=bool), new_value=fn(arr))
        ok = as_bool_np(pc.equal(arr, fn(arr)), len(arr))
        return RuleOut(ok=ok, context={"direction": direction})

    return kernel


def case_code(args) -> str:
    return "string.lowercase" if args["direction"] == "lower" else "string.uppercase"


def make_trim(args):
    enabled = args.get("enabled", True)

    def kernel(arr, env: Env) -> RuleOut:
        if not enabled:
            return RuleOut(ok=np.ones(len(arr), dtype=bool))
        trimmed = pc.utf8_trim_whitespace(arr)
        if env.convert:
            return RuleOut(ok=np.ones(len(arr), dtype=bool), new_value=trimmed)
        return RuleOut(ok=as_bool_np(pc.equal(arr, trimmed), len(arr)))

    return kernel


def make_normalize(args):
    form = args.get("form", "NFC")

    def kernel(arr, env: Env) -> RuleOut:
        s = arr.to_pandas()
        normed = s.str.normalize(form)
        if env.convert:
            return RuleOut(
                ok=np.ones(len(arr), dtype=bool),
                new_value=pa.Array.from_pandas(normed, type=arr.type),
            )
        ok = (s == normed) | s.isna()
        return RuleOut(ok=ok.to_numpy(dtype=bool), context={"form": form})

    return kernel


def apply_replacements(arr: pa.Array, replacements: list[dict]) -> pa.Array:
    """Coerce-time replace list (``lib/types/string/index.js:598-617``):
    joi wraps STRING patterns in a GLOBAL regex (replace ALL occurrences),
    while RegExp patterns run with their own flags — and without /g, JS
    String.replace substitutes only the FIRST match.  Python regexes have
    no /g, so compiled patterns map to joi's no-flag default:
    max_replacements=1 (fuzz seeds 1/94, node-verified: replace(/\\d/, '')
    on 'abc123' -> 'abc23', not 'abc')."""
    for r in replacements:
        if r.get("literal"):
            arr = pc.replace_substring(arr, r["pattern"], r["replacement"])
        else:
            arr = pc.replace_substring_regex(arr, r["pattern"], r["replacement"],
                                             max_replacements=1)
    return arr


def truncate_to(arr: pa.Array, limit: int) -> pa.Array:
    return pc.utf8_slice_codeunits(arr, 0, limit)


def make_domain(args):
    """@hapi/address v2 domain analysis (boolean path joi v16 uses via
    ``Address.domain.isValid``, string/index.js:280-287): total length
    <= 256, dot-separated RFC 1035 segments (non-TLD alphanumeric with
    inner hyphens, TLD starts with a letter), minDomainSegments (default
    2) and tlds allow/deny sets.  Mirrored byte-for-byte by the refshim's
    faithful v2 port (tools/refshim/node_modules/@hapi/address)."""
    opts = (args or {}).get("options") or {}
    min_segments = opts.get("minDomainSegments") or opts.get("min_domain_segments") or 2
    if min_segments <= 1:
        pattern = rf"^(?:{_HOST_LABEL}\.)*{_DOMAIN_TLD}$"
    else:
        pattern = rf"^(?:{_HOST_LABEL}\.){{{min_segments - 1},}}{_DOMAIN_TLD}$"
    tlds = opts.get("tlds")
    allow = deny = None
    if isinstance(tlds, dict):
        if tlds.get("allow") and tlds["allow"] is not True:
            allow = {t.lower() for t in tlds["allow"]}
        if tlds.get("deny"):
            deny = {t.lower() for t in tlds["deny"]}

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        ok = regex_mask(arr, pattern) & as_bool_np(pc.less_equal(_lengths(arr), 256), n)
        # non-ASCII domains go through v2's NFC + punycode (the shim uses
        # WHATWG URL host; Python's idna codec agrees on the common forms
        # — 'αβ' -> xn--mxac, node-verified; fuzz seed 6301530) and the
        # punycoded ASCII form re-checks the segment shape
        nonascii = (~as_bool_np(pc.match_substring_regex(arr, r"^[\x00-\x7f]*$"), n)
                    & ~as_bool_np(pc.is_null(arr), n))
        if nonascii.any() and opts.get("allowUnicode", True) is not False:
            import re as _re
            import unicodedata as _ud

            rx = _re.compile(pattern)
            vals = arr.to_pylist()
            for i in np.nonzero(nonascii)[0]:
                s0 = vals[int(i)]
                if s0 is None or len(s0) > 256:
                    continue
                try:
                    p = _ud.normalize("NFC", s0).encode("idna").decode("ascii")
                except (UnicodeError, UnicodeDecodeError):
                    continue
                if len(p) <= 256 and rx.fullmatch(p):
                    ok[int(i)] = True
        if allow or deny:
            tld = pc.utf8_lower(pc.struct_field(
                pc.extract_regex(arr, r"\.?(?P<tld>[A-Za-z0-9\-]+)$"), "tld"))
            if allow:
                ok &= as_bool_np(pc.is_in(tld, value_set=pa.array(sorted(allow))), n)
            if deny:
                ok &= ~as_bool_np(pc.is_in(tld, value_set=pa.array(sorted(deny))), n)
        return RuleOut(ok=ok, context={})

    return kernel


def make_hostname(args):
    """hostname = (len <= 255 AND host regex) OR any-ip regex
    (lib/types/string/index.js:394-408)."""
    ip_all = (
        rf"^(?:{_IPV4}(?:{_CIDR_V4})?|{_IPV6}(?:{_CIDR_V6})?|{_IPVFUT}(?:{_CIDR_V6})?)$"
    )

    def kernel(arr, env: Env) -> RuleOut:
        n = len(arr)
        host = regex_mask(arr, _HOSTNAME) & as_bool_np(pc.less_equal(_lengths(arr), 255), n)
        return RuleOut(ok=host | regex_mask(arr, ip_all))

    return kernel


# dataUri needs capture-group logic (charset/base64 branch + base64 payload
# check, lib/types/string/index.js:238-269) — Python re per cell; the rule
# is rare in hot schemas and the reference regex is not RE2-expressible
_DATAURI_FORMAT = re.compile(r"^data:[\w+.\-]+/[\w+.\-]+;((charset=[\w\-]+|base64),)?(.*)$", re.S)


def make_data_uri(args):
    pad = args.get("paddingRequired", True)
    b64 = re.compile(_B64_STD_PAD if pad else _B64_STD_NOPAD)

    def kernel(arr, env: Env) -> RuleOut:
        s = arr.to_pandas()

        def check(v):
            if not isinstance(v, str):
                return False
            m = _DATAURI_FORMAT.match(v)
            if not m:
                return False
            if m.group(2) != "base64":
                return True
            return bool(b64.match(m.group(3)))

        return RuleOut(ok=s.map(check).to_numpy(dtype=bool))

    return kernel


FACTORIES = {
    "min": make_min,
    "max": make_max,
    "length": make_length,
    "pattern": make_pattern,
    "alphanum": _regex_rule(_ALPHANUM, "string.alphanum"),
    "token": _regex_rule(_TOKEN, "string.token"),
    "hex": _regex_rule(_HEX, "string.hex"),
    "base64": make_base64,
    "dataUri": make_data_uri,
    "email": make_email,
    "domain": lambda args: make_domain(args),
    "hostname": make_hostname,
    "guid": make_guid,
    "ip": make_ip,
    "uri": make_uri,
    "isoDate": make_iso_date,
    "isoDuration": make_iso_duration,
    "creditCard": make_credit_card,
    "case": make_case,
    "trim": make_trim,
    "normalize": make_normalize,
}

# error code per rule (default: "string.<name>")
CODES = {
    "pattern": pattern_code,
    "ip": ip_code,
    "uri": uri_code,
    "case": case_code,
    "guid": lambda a: "string.guid",
}

# rules that rewrite the value in convert mode and therefore run in the
# coerce phase in canonical order (lib/types/string/index.js:68-135)
CONVERT_ORDER = ["normalize", "case", "trim"]
