"""Template expression engine — the ``lib/template.js:26-227`` subset used
by messages and rename targets, with the ``@hapi/formula`` expression
grammar (references, constants, arithmetic, comparison/logical operators,
``if``/``number`` functions).

Syntax (reference ``lib/template.js:41-95``):

- ``{expr}``   raw interpolation
- ``{{expr}}`` HTML-escaped interpolation
- ``\\{`` / ``\\}`` escape literal braces
- references: ``#name`` (local error context), ``$name`` (global context),
  bare ``name`` (value path; resolved through the same resolver), and
  ``[.]``, the value itself (a message's offending value)
- constants: ``true false null second minute hour day``
  (``lib/template.js:335-344``)
- functions: ``if(cond, then, otherwise)``, ``number(v)``
  (``lib/template.js:347-375``)
- operators by precedence (low to high): ``??``, ``||``, ``&&``,
  ``== !=``, ``< <= > >=``, ``+ -``, ``* / %``, ``^`` — with parentheses
  and unary minus

Rendering is one pass: each value is stringified by joi's
``internals.stringify`` (``kernels.messages._stringify``) and never parsed
again, and a part that resolves undefined is dropped (template.js render
pushes only defined parts).
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable

from .messages import _escape_html, _stringify

_UNKNOWN = object()  # sentinel: reference did not resolve


# --------------------------------------------------------------------------
# formula: tokenizer + Pratt parser


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<num>\d+(?:\.\d+)?)
      | (?P<str>'[^']*'|"[^"]*")
      | (?P<op>\?\?|\|\||&&|==|!=|<=|>=|[-+*/%^<>(),])
      | (?P<name>[#$]?[A-Za-z_][\w.\[\]]*|[#$][\w.\[\]]+|\[[^\]]+\])
    )""",
    re.VERBOSE,
)

_CONSTANTS = {
    "true": True,
    "false": False,
    "null": None,
    "second": 1000,
    "minute": 60 * 1000,
    "hour": 60 * 60 * 1000,
    "day": 24 * 60 * 60 * 1000,
}

_BINARY_PRECEDENCE = {
    "??": 1, "||": 2, "&&": 3,
    "==": 4, "!=": 4,
    "<": 5, "<=": 5, ">": 5, ">=": 5,
    "+": 6, "-": 6,
    "*": 7, "/": 7, "%": 7,
    "^": 8,
}


def _tokenize(src: str) -> list[tuple[str, str]]:
    out, pos = [], 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            rest = src[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize template expression at: {rest!r}")
        pos = m.end()
        for kind in ("num", "str", "op", "name"):
            v = m.group(kind)
            if v is not None:
                out.append((kind, v))
                break
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, str]]):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, op: str):
        kind, v = self.next()
        if kind != "op" or v != op:
            raise ValueError(f"expected {op!r}, got {v!r}")

    def parse(self):
        node = self.expression(0)
        if self.i != len(self.toks):
            raise ValueError(f"unexpected trailing tokens: {self.toks[self.i:]}")
        return node

    def expression(self, min_prec: int):
        node = self.unary()
        while True:
            kind, v = self.peek()
            if kind != "op" or v not in _BINARY_PRECEDENCE:
                break
            prec = _BINARY_PRECEDENCE[v]
            if prec < min_prec:
                break
            self.next()
            # ^ is right-associative in formula; the rest left
            rhs = self.expression(prec if v == "^" else prec + 1)
            node = ("bin", v, node, rhs)
        return node

    def unary(self):
        kind, v = self.peek()
        if kind == "op" and v == "-":
            self.next()
            return ("neg", self.unary())
        if kind == "op" and v == "+":
            self.next()
            return self.unary()
        return self.primary()

    def primary(self):
        kind, v = self.next()
        if kind == "num":
            return ("lit", float(v) if "." in v else int(v))
        if kind == "str":
            return ("lit", v[1:-1])
        if kind == "op" and v == "(":
            node = self.expression(0)
            self.expect(")")
            return node
        if kind == "name":
            if v in _CONSTANTS:
                return ("lit", _CONSTANTS[v])
            nkind, nv = self.peek()
            if nkind == "op" and nv == "(":
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.expression(0))
                    while self.peek() == ("op", ","):
                        self.next()
                        args.append(self.expression(0))
                self.expect(")")
                return ("call", v, args)
            return ("ref", v)
        raise ValueError(f"unexpected token {v!r}")


def _evaluate(node, resolve: Callable[[str], Any]):
    tag = node[0]
    if tag == "lit":
        return node[1]
    if tag == "ref":
        return resolve(node[1])
    if tag == "neg":
        v = _evaluate(node[1], resolve)
        if v is _UNKNOWN:
            return _UNKNOWN
        return -v
    if tag == "call":
        name, args = node[1], node[2]
        vals = [_evaluate(a, resolve) for a in args]
        if any(v is _UNKNOWN for v in vals):
            return _UNKNOWN
        if name == "if":
            cond = vals[0]
            return vals[1] if cond else (vals[2] if len(vals) > 2 else None)
        if name == "number":
            v = vals[0]
            if isinstance(v, bool):
                return 1 if v else 0
            if isinstance(v, (int, float)):
                return v
            if isinstance(v, str):
                try:
                    return float(v)
                except ValueError:
                    return None
            return None
        raise ValueError(f"unknown template function {name!r}")
    if tag == "bin":
        op, ln, rn = node[1], node[2], node[3]
        a = _evaluate(ln, resolve)
        if op == "??":
            return _evaluate(rn, resolve) if a is None or a is _UNKNOWN or a is _UNDEFINED else a
        if op == "||":
            if a is not _UNKNOWN and _js_truthy(a):
                return a
            b = _evaluate(rn, resolve)
            return b if b is not _UNKNOWN else _UNKNOWN
        if op == "&&":
            if a is _UNKNOWN:
                return _UNKNOWN
            if not _js_truthy(a):
                return a
            return _evaluate(rn, resolve)
        b = _evaluate(rn, resolve)
        if a is _UNKNOWN or b is _UNKNOWN:
            return _UNKNOWN
        # @hapi/formula evaluates with raw JS operators — coercion included
        # (formula index.js evaluate: a + b etc. with no type gating)
        if op == "+":
            if isinstance(a, str) or isinstance(b, str):
                return _js_str(a) + _js_str(b)
            return _js_to_number(a) + _js_to_number(b)
        if op in ("-", "*", "/", "%", "^"):
            x, y = _js_to_number(a), _js_to_number(b)
            if op == "-":
                return x - y
            if op == "*":
                return x * y
            if op == "/":
                if y == 0:
                    if x == 0 or math.isnan(x) or math.isnan(y):
                        return float("nan")
                    return math.copysign(float("inf"), x) * math.copysign(1.0, y)
                return x / y
            if op == "%":
                # JS remainder truncates toward zero (-7 % 2 === -1)
                if y == 0 or math.isnan(x) or math.isnan(y) or math.isinf(x):
                    return float("nan")
                return math.fmod(x, y)
            try:
                return math.pow(x, y)
            except (ValueError, OverflowError):
                # JS Math.pow: 0**-1 = Infinity, (-8)**(1/3) = NaN
                if x == 0 and y < 0:
                    return float("inf")
                return float("nan")
        if op == "==":  # formula uses JS === (strict)
            return _js_strict_eq(a, b)
        if op == "!=":
            return not _js_strict_eq(a, b)
        # relational: JS compares strings lexicographically when BOTH are
        # strings, else numerically (NaN comparisons are false)
        if isinstance(a, str) and isinstance(b, str):
            x, y = a, b
        else:
            x, y = _js_to_number(a), _js_to_number(b)
            if math.isnan(x) or math.isnan(y):
                return False
        if op == "<":
            return x < y
        if op == "<=":
            return x <= y
        if op == ">":
            return x > y
        if op == ">=":
            return x >= y
    raise ValueError(f"bad template ast node {node!r}")


class _Undefined:
    """JS undefined inside formula evaluation: NaN under arithmetic, falsy
    in logic, 'undefined' when concatenated — distinct from _UNKNOWN (a
    reference that did not resolve, which poisons its whole part) and
    from None (JS null).  A part that renders either is dropped."""

    def __repr__(self):  # pragma: no cover
        return "undefined"


_UNDEFINED = _Undefined()

_JS_NUM_RX = None


def _js_to_number(v) -> float:
    """JS ToNumber for formula operands."""
    global _JS_NUM_RX
    if v is None:
        return 0.0
    if v is _UNDEFINED or v is _UNKNOWN:
        return float("nan")
    if isinstance(v, bool):
        return 1.0 if v else 0.0
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        s = v.strip()
        if not s:
            return 0.0
        if _JS_NUM_RX is None:
            import re as _re

            # radix literals take NO sign prefix in JS (Number('-0x1f') is
            # NaN, node-verified); Infinity and decimals do
            _JS_NUM_RX = _re.compile(
                r"(?:0[xX][0-9a-fA-F]+|0[bB][01]+|0[oO][0-7]+"
                r"|[+-]?(?:Infinity"
                r"|\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?))$"
            )
        if not _JS_NUM_RX.fullmatch(s):
            return float("nan")
        try:
            low = s.lstrip("+-").lower()
            sign = -1.0 if s.startswith("-") else 1.0
            if low.startswith("0x"):
                return sign * int(low, 16)
            if low.startswith("0b"):
                return sign * int(low, 2)
            if low.startswith("0o"):
                return sign * int(low, 8)
            return float(s)
        except (ValueError, OverflowError):
            return float("nan")
    if hasattr(v, "isoformat"):  # Date: ToNumber = epoch ms
        import datetime as _dt

        if isinstance(v, _dt.datetime):
            vv = v if v.tzinfo else v.replace(tzinfo=_dt.timezone.utc)
            epoch = _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)
            return float((vv - epoch) // _dt.timedelta(milliseconds=1))
    if isinstance(v, (list, tuple)):
        # JS ToPrimitive(array) -> ','-join; single numeric element passes
        if len(v) == 0:
            return 0.0
        if len(v) == 1:
            return _js_to_number(v[0]) if v[0] is not None else 0.0
        return float("nan")
    return float("nan")


def _js_str(v) -> str:
    if v is _UNDEFINED or v is _UNKNOWN:
        return "undefined"
    return _stringify(v)


def _js_truthy(v) -> bool:
    if v is _UNDEFINED or v is None:
        return False
    if isinstance(v, float) and math.isnan(v):
        return False
    return bool(v)


def _js_strict_eq(a, b) -> bool:
    if a is _UNDEFINED or b is _UNDEFINED:
        return a is b
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)  # NaN !== NaN holds naturally
    if type(a) is not type(b):
        return False
    return a == b


# --------------------------------------------------------------------------
# template parsing (lib/template.js:41-95 + encode/split helpers :227-281)


_OPEN, _CLOSE = "\u0000", "\u0001"
#: the AST of a message's value part, ``{[.]}``
_VALUE_PART = ("ref", "[.]")


class Template:
    """Parsed ``"... {expr} ..."`` template.

    ``render(resolve)`` interpolates each variable: ``resolve(name)`` maps a
    reference name (with its ``#``/``$`` sigil) to a value, raising
    KeyError for an unknown name — a part that resolves undefined is
    dropped.  ``has_value``: the template has a value part (``{[.]}``);
    ``value_escapes`` tells which of them HTML-escape the value."""

    def __init__(self, source: str):
        if not isinstance(source, str):
            raise TypeError("template source must be a string")
        self.source = source
        self.parts: list = self._parse(source)
        #: per value part (``{[.]}``), in order: is it raw (single braces)?
        self._value_raw = tuple(p[1] for p in self.parts if not isinstance(p, str) and p[2] == _VALUE_PART)
        self.has_value = bool(self._value_raw)

    @property
    def is_dynamic(self) -> bool:
        return any(not isinstance(p, str) for p in self.parts)

    @staticmethod
    def _parse(source: str) -> list:
        if "{" not in source:
            return [source]
        enc = re.sub(r"\\(\{)", _OPEN, source)
        enc = re.sub(r"\\(\})", _CLOSE, enc)

        def dec(s: str) -> str:
            return s.replace(_OPEN, "{").replace(_CLOSE, "}")

        parts: list = []
        i, cur = 0, ""
        chunks: list[str] = []
        while i < len(enc):
            c = enc[i]
            if c == "{":
                nxt = ""
                while i + 1 < len(enc) and enc[i + 1] == "{":
                    nxt += "{"
                    i += 1
                chunks.append(cur)
                cur = nxt
            else:
                cur += c
            i += 1
        chunks.append(cur)

        head = chunks[0]
        rest = chunks[1:]
        if head:
            parts.append(dec(head))
        for part in rest:
            raw = not part.startswith("{")
            ender = "}" if raw else "}}"
            end = part.find(ender)
            if end == -1 or (not raw and part[1:2] == "{"):
                parts.append("{" + dec(part))
                continue
            content = dec(part[0 if raw else 1 : end])
            try:
                ast = _Parser(_tokenize(content)).parse()
            except ValueError:
                parts.append("{" + dec(part))
                continue
            parts.append((content, raw, ast))
            tail = part[end + len(ender):]
            if tail:
                parts.append(dec(tail))
        return parts

    @property
    def display(self) -> str:
        """What joi embeds for a template in any.ref messages and rule
        contexts: the template SOURCE ('"b" limit references "x{a}" ...',
        node-verified)."""
        return self.source

    def ref_names(self) -> list[str]:
        """Variable names referenced by the template's expression parts —
        joi registers template refs on the schema ($_mutateRegister), so
        they feed the sibling key topo sort like plain Refs."""
        out: list[str] = []

        def walk(node):
            if not isinstance(node, tuple):
                return
            if node[0] == "ref":
                out.append(node[1])
                return
            for sub in node[1:]:
                if isinstance(sub, tuple):
                    walk(sub)
                elif isinstance(sub, list):
                    for s in sub:
                        walk(s)

        for p in self.parts:
            if not isinstance(p, str):
                walk(p[2])
        return out

    def resolve_value(self, resolve: Callable[[str], Any]):
        """joi's ``template.resolve`` (template.js:150-159): a template that
        is ONE expression part returns the evaluated VALUE ('{a + 1}' with
        a=4 resolves the number 5, not '5'); anything else renders text."""
        if len(self.parts) == 1 and not isinstance(self.parts[0], str):
            _content, _raw, ast = self.parts[0]
            return _evaluate(ast, resolve)
        return self.render(resolve)

    def value_escapes(self, escape_html: bool) -> list[bool]:
        """Per value part, in order: does it HTML-escape the value?  The
        rule ``render`` applies to a named part: a ``{{...}}`` part escapes
        under ``escape_html`` (errors.escapeHtml), a raw one never."""
        return [escape_html and not raw for raw in self._value_raw]

    def render(self, resolve: Callable[[str], Any], options: tuple = (True, True, "iso"),
               split: bool = False) -> str | list[str]:
        """One pass over the parts.  ``options`` = (escape_html,
        wrap_arrays, date_format), joi's render options (errors.js:76
        passes ``prefs.errors``; escape applies to non-raw ``{{...}}``
        parts, template.js:185); the default is joi's bare ``render()``,
        which escapes them.  With ``split`` the result is the list of texts
        between the value parts (``{[.]}``), which are left out."""
        def safe_resolve(name: str):
            try:
                return resolve(name)
            except KeyError:
                return _UNKNOWN

        esc, wrap, datefmt = options
        texts, out = [], []
        for p in self.parts:
            if isinstance(p, str):
                out.append(p)
                continue
            _content, raw, ast = p
            if split and ast == _VALUE_PART:
                texts.append("".join(out))
                out = []
                continue
            try:
                v = _evaluate(ast, safe_resolve)
            except (TypeError, ValueError, ZeroDivisionError):
                continue
            if v is not _UNKNOWN and v is not _UNDEFINED:
                s = _stringify(v, wrap, datefmt)
                out.append(s if raw or not esc else _escape_html(s))
        texts.append("".join(out))
        return texts if split else texts[0]


_TEMPLATE_CACHE: dict[str, Template] = {}


def compile_template(source: str) -> Template:
    t = _TEMPLATE_CACHE.get(source)
    if t is None:
        t = Template(source)
        _TEMPLATE_CACHE[source] = t
    return t
