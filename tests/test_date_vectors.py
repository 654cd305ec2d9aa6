"""Reference date-type vectors, ported from /root/reference/test/types/
date.js — primarily the date().iso() block (:429-538), which pins the
JS-Date model: ISO regex gate + new Date() parseability, including
expanded ±YYYYYY years."""

import numpy as np
import pyarrow as pa

import joi_ray as jr
from joi_ray import compile_schema
from joi_ray import object as obj
from tests.helper import check

# (input, valid) — test/types/date.js:429-538 verbatim
ISO_VECTORS = [
    ("+002013-06-07T14:21:46.295Z", True),
    ("-002013-06-07T14:21:46.295Z", True),
    ("002013-06-07T14:21:46.295Z", False),
    ("+2013-06-07T14:21:46.295Z", False),
    ("-2013-06-07T14:21:46.295Z", False),
    ("2013-06-07T14:21:46.295Z", True),
    ("2013-06-07T14:21:46.295Z0", False),
    ("2013-06-07T14:21:46.295+07:00", True),
    ("2013-06-07T14:21:46.295+07:000", False),
    ("2013-06-07T14:21:46.295-07:00", True),
    ("2013-06-07T14:21:46Z", True),
    ("2013-06-07T14:21:46Z0", False),
    ("2013-06-07T14:21:46+07:00", True),
    ("2013-06-07T14:21:46-07:00", True),
    ("2013-06-07T14:21Z", True),
    ("2013-06-07T14:21+07:00", True),
    ("2013-06-07T14:21+07:000", False),
    ("2013-06-07T14:21-07:00", True),
    ("2013-06-07T14:21Z+7:00", False),
    ("2013-06-07", True),
    ("2013-06-07T", False),
    ("2013-06-07T14:21", True),
    ("1-1-2013", False),
    ("2013", True),
    # week/ordinal: regex-valid, Invalid Date in JS (date.js coerce
    # requires BOTH, same as string/index.js:103-115)
    ("2013-W23", False),
    ("2013-184", False),
]


def test_date_iso_vectors():
    schema = obj({"v": jr.date().iso()})
    t = pa.table({"v": pa.array([c[0] for c in ISO_VECTORS], pa.string())})
    res = compile_schema(schema, prefs={"abort_early": False}).validate_table(t)
    mismatches = [
        (val, exp, bool(res.ok[i]))
        for i, (val, exp) in enumerate(ISO_VECTORS)
        if bool(res.ok[i]) != exp
    ]
    assert not mismatches, mismatches


def test_date_iso_expanded_year_value():
    """'converts expanded isoDates' (date.js:539-544): the parsed instant
    must equal new Date('-002013-06-07T14:21:46.295Z')."""
    from joi_ray import attempt

    schema = obj({"v": jr.date().iso()})
    out = attempt(pa.table({"v": ["-002013-06-07T14:21:46.295Z"]}), schema)
    ms = out["v"].cast(pa.int64())[0].as_py()
    # epoch ms for year -2013: verified against the civil-day arithmetic
    from joi_ray.kernels.strings import _js_iso_parse_ms

    assert ms == _js_iso_parse_ms("-002013-06-07T14:21:46.295Z")
    # and the 24:00 rollover instant
    out2 = attempt(pa.table({"v": ["2013-06-07T24:00"]}), schema)
    ms2 = out2["v"].cast(pa.int64())[0].as_py()
    from joi_ray.kernels.strings import _js_iso_parse_ms as pm

    assert ms2 == pm("2013-06-08T00:00:00.000")


def test_date_iso_epoch_consistency():
    """Rows pandas parses and rows the residual parser handles must agree
    on the instant for forms both can express."""
    from joi_ray.kernels.strings import _js_iso_parse_ms
    import pandas as pd

    for s in ["2013-06-07T14:21:46.295Z", "2013-06-07T14:21:46.295+07:00",
              "2013-06-07", "2013"]:
        t = pd.Timestamp(s)
        t = t.tz_localize("UTC") if t.tzinfo is None else t
        expect = int(t.value // 1_000_000)
        assert _js_iso_parse_ms(s) == expect, s


def test_js_iso_parse_property_vs_pandas():
    """Property: on the domain both parsers accept (in-range calendar
    datetimes), the civil-day parser and pandas agree on the epoch ms."""
    import pandas as pd
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from joi_ray.kernels.strings import _js_iso_parse_ms

    @settings(max_examples=200, deadline=None)
    @given(
        y=st.integers(1700, 2200), mo=st.integers(1, 12), d=st.integers(1, 28),
        hh=st.integers(0, 23), mm=st.integers(0, 59), ss=st.integers(0, 59),
        ms=st.integers(0, 999),
        off=st.one_of(st.none(), st.integers(-23 * 60 - 59, 23 * 60 + 59)),
    )
    def check(y, mo, d, hh, mm, ss, ms, off):
        tz = "Z" if off is None else f"{'+' if off >= 0 else '-'}{abs(off) // 60:02d}:{abs(off) % 60:02d}"
        s = f"{y:04d}-{mo:02d}-{d:02d}T{hh:02d}:{mm:02d}:{ss:02d}.{ms:03d}{tz}"
        expect = int(pd.Timestamp(s).tz_convert("UTC").value // 1_000_000)
        assert _js_iso_parse_ms(s) == expect, s

    check()


def test_js_iso_parse_rejects_invalid_calendar():
    from joi_ray.kernels.strings import _js_iso_parse_ms

    # V8 rolls an out-of-range day-of-month forward via MakeDay (verified
    # against node: new Date('2013-02-29') === 2013-03-01T00:00:00.000Z)
    assert _js_iso_parse_ms("2013-02-29") == _js_iso_parse_ms("2013-03-01")
    assert _js_iso_parse_ms("2012-02-29") is not None      # leap year
    assert _js_iso_parse_ms("2013-04-31") == _js_iso_parse_ms("2013-05-01")
    assert _js_iso_parse_ms("2013-13-01") is None          # month 13: Invalid
    assert _js_iso_parse_ms("2013-01-00") is None          # day 00: Invalid
    assert _js_iso_parse_ms("2013-06-07T25:00") is None
    assert _js_iso_parse_ms("2013-06-07T24:00:01") is None
    # documented deviation: V8's LEGACY parser resurrects '-000000-01-01'
    # as 2001-01-01; we treat it as Invalid (ES-spec ISO behavior)
    assert _js_iso_parse_ms("-000000-01-01") is None


def test_date_plain_legacy_forms():
    # date.js:137-163 — plain date() accepts JS-Date legacy string forms
    # and numeric-string ms-epoch; invalid strings -> date.base
    res = check(jr.date(), [
        ("1-1-2013 UTC", True),
        ("1357948800000", True),
        ("Jan 1 2013", True),
        ("not a valid date", False, "date.base"),
    ])


def test_date_timestamp_number_coercion():
    # date.js:1218-1287 — JS Number() semantics: decimals, scientific
    # notation; blank / non-numeric -> date.timestamp.javascript
    check(jr.date().timestamp(), [
        ("1452126061677.0000", True),
        ("1.452126061677e+12", True),
        ("1E3", True),
        (",", False, "date.timestamp.javascript"),
        ("123A,0xA", False, "date.timestamp.javascript"),
        ("1-1-2013 UTC", False, "date.timestamp.javascript"),
        ("", False, "date.timestamp.javascript"),
    ])
    check(jr.date().timestamp("unix"), [
        ("1452126061.677", True),
        ("x", False, "date.timestamp.unix"),
    ])


def test_date_format_codes_and_asserts():
    # date.js:39-49 code selection; :120-126 type assert; strict mode
    import pytest
    check(jr.date().iso(), [("1-1-2013", False, "date.isoDate")])
    check(jr.date(), [("2013-01-01", False, "date.strict")], prefs={"convert": False})
    with pytest.raises(ValueError):
        jr.date().timestamp("not allowed")


def test_js_date_output_forms_roundtrip():
    # fuzz seed 86726 (node-verified): JS Date OUTPUT strings parse back
    # through V8's legacy grammar — a dateFormat cast('string') ref must
    # round-trip; dateutil's POSIX-inverted GMT offset and negative years
    # are overridden; small years window by VALUE ('0099' -> 1999)
    from joi_ray.kernels.scalars import js_parse_date_strings

    cases = {
        "Thu Jan 01 1970 00:00:00 GMT+0000 (Coordinated Universal Time)": 0,
        "Thu, 01 Jan 1970 00:00:00 GMT": 0,
        "Thu Jan 01 1970": 0,
        "Sat, 13 Sep 275760 00:00:00 GMT": 8640000000000000,
        "Thu Jan 01 1970 00:00:00 GMT+0130": -5400000,
        "Apr 31 2019": 1556668800000,       # V8 rolls to May 1
        "Fri Jan 01 -0001": None,            # V8 Invalid
        "Jan 5 13": 1357344000000,           # window -> 2013
        "Thu, 01 Jan 0099 00:00:00 GMT": 915148800000,  # window -> 1999
        "00:00:00 GMT+0000 (Coordinated Universal Time)": None,
    }
    out = js_parse_date_strings(pa.array(list(cases)))
    assert out.type == pa.timestamp("ms")
    for (src, want), got in zip(cases.items(), out.cast(pa.int64()).to_pylist()):
        assert got == want, src


def _date_run(schema, vals):
    res = compile_schema(obj({"v": schema}), prefs={"abort_early": False}).validate_table(
        pa.table({"v": pa.array(vals, pa.string())}))
    return list(res.ok), res.violations["code"].to_pylist(), res.value["v"].cast(pa.int64()).to_pylist()


def test_free_form_dates_do_not_depend_on_the_batch():
    # each free-form string is parsed on its own: no format is inferred
    # from the first one and forced on the rest
    vals = ["March 4, 2019", "03/04/2019", "2019/03/04 10:00", "4 Mar 2019 10:00:00 +0100"]
    whole = _date_run(jr.date(), vals)
    assert whole[0] == [True] * 4 and whole[1] == []
    assert whole[2][3] == 1551690000000  # 2019-03-04T09:00:00Z
    for i, v in enumerate(vals):
        ok, codes, values = _date_run(jr.date(), [v])
        assert (ok, values) == ([whole[0][i]], [whole[2][i]]), v


def test_epoch_strings_truncate_like_time_clip():
    # new Date(v) truncates toward zero (TimeClip): '-1.5' is -1 ms, not
    # the floor, and '1.9999999' is 1, not rounded up
    assert _date_run(jr.date(), ["-1.5", "1.9999999", "-0.0004", "12.5"])[2] == [-1, 1, 0, 12]
    assert _date_run(jr.date().timestamp("unix"), ["-0.0004", "-1.5"])[2] == [0, -1500]


def test_epoch_strings_cover_the_js_date_range():
    # new Date(ms) holds ±8.64e15 ms, far past datetime64[ns]'s years
    # 1677-2262: year 2264 and year -0001 epochs are valid dates
    vals = ["9300000000000", "-62198755200000", "8640000000000000", "8640000000000001"]
    ok, _, values = _date_run(jr.date(), vals)
    assert ok == [True, True, True, False]
    assert values == [9300000000000, -62198755200000, 8640000000000000, None]


def test_iso_offsets_do_not_carry_to_naive_datetimes():
    # a UTC offset belongs to its own string: the naive date-times after
    # an offset string in the column still read as UTC
    vals = ["2019-01-01T00:00+05:30", "2019-04-20T09:03:01", "2019-04-20 09:03 -05:00",
            "20190420T090301"]
    want = [1546281000000, 1555750981000, 1555768980000, 1555750981000]
    # iso() takes no space before the offset (common.js:13)
    for schema, expect in ((jr.date(), want), (jr.date().iso(), want[:2] + [None] + want[3:])):
        assert _date_run(schema, vals)[2] == expect
        assert [_date_run(schema, [v])[2][0] for v in vals] == expect
    res = compile_schema(obj({"v": jr.string().iso_date()})).validate_table(pa.table({"v": vals[:2]}))
    assert res.value["v"].to_pylist() == ["2018-12-31T18:30:00.000Z", "2019-04-20T09:03:01.000Z"]
