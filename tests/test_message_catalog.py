"""The catalog's rendered bytes, pinned: every ``MESSAGES`` code renders
with one fixed context under the default error-render prefs,
``errors.escapeHtml``, ``errors.wrapArrays: false`` and each
``dateFormat``, once with a plain label and once with a label that holds
template syntax (joi inserts the label as text).  Each entry is the list of
texts between the message's value parts (``{[.]}``).

``tests/fixtures/message_catalog.json`` holds the expected renders; rewrite
it with ``python tests/test_message_catalog.py --write`` only when a catalog
message changes on purpose."""

from __future__ import annotations

import datetime as dt
import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "message_catalog.json"

# one value per context key the catalog uses: lists (wrapArrays), HTML
# specials (escapeHtml), null/bool/float text, and a date for the date codes
CONTEXT = {
    "valids": ["a<b", 1.5, None, True, ["x", "y"]],
    "arg": "limit",
    "ref": "ref:b",
    "reason": "must be a number",
    "code": "custom.x",
    "limit": 10,
    "regex": "^a+$",
    "name": "alpha",
    "cidr": "optional",
    "version": ["ipv4", "ipv6"],
    "scheme": ["http", "git+ssh"],
    "form": "NFC",
    "multiple": 3,
    "format": ["YYYY-MM-DD"],
    "unknownMisses": 2,
    "knownMisses": ["k1", "k&2"],
    "patternLabel": "p",
    "order": "ascending",
    "by": "value",
    "type": "object",
    "presentWithLabels": ["a"],
    "missingWithLabels": ["b", "c"],
    "mainWithLabel": "m<",
    "peersWithLabels": ["p1", "p2"],
    "peerWithLabel": "q",
    "message": "pass the assertion test",
    "from": "old",
    "to": "new",
    "types": ["number", "string"],
}
DATE_LIMIT = dt.datetime(2019, 6, 1, 12, 30, tzinfo=dt.timezone.utc)

PREFS = {
    "default": {},
    "escapeHtml": {"errors": {"escapeHtml": True}},
    "wrapArrays-false": {"errors": {"wrapArrays": False}},
    **{f"dateFormat-{f}": {"date_format": f} for f in ("iso", "utc", "date", "string", "time")},
}
LABELS = {"plain": "doc.x", "syntax": "L<{limit}>{value}"}


def _context(code: str, label: str) -> dict:
    ctx = {**CONTEXT, "label": label}
    if code.startswith("date."):
        ctx["limit"] = DATE_LIMIT
    return ctx


def _renders(codes) -> dict:
    from joi_ray.kernels.messages import render

    return {
        f"{pname}|{lname}|{code}": render(code, "doc.x", _context(code, label), prefs=prefs, split=True)
        for pname, prefs in PREFS.items()
        for lname, label in LABELS.items()
        for code in codes
    }


def test_catalog_renders_match_golden():
    from joi_ray.kernels.messages import MESSAGES

    golden = json.loads(GOLDEN.read_text())
    codes = sorted({key.rsplit("|", 1)[1] for key in golden})
    families = {c.split(".")[0] for c in codes}
    # every catalog code of these families is pinned (codes an extension
    # registers under its own family are not)
    assert sorted(c for c in MESSAGES if c.split(".")[0] in families) == codes
    got = _renders(codes)
    assert got.keys() == golden.keys()
    diff = [k for k in golden if got[k] != golden[k]]
    assert not diff, f"{len(diff)} renders differ, first {diff[0]}: {got[diff[0]]!r} != {golden[diff[0]]!r}"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
    from joi_ray.kernels.messages import MESSAGES as _M

    GOLDEN.write_text(json.dumps(_renders(sorted(_M)), indent=0, sort_keys=True) + "\n")
