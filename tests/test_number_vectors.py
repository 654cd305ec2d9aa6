"""Reference number-type test vectors ported from
/root/reference/test/types/number.js (fixtures extracted verbatim into
tests/fixtures/number_vectors.json; schema per block transcribed from the
corresponding `it()` blocks)."""

import json
import math
import os

import pyarrow as pa

import joi_ray as jr
from joi_ray import compile_schema, object as obj

FIX = json.load(open(os.path.join(os.path.dirname(__file__), "fixtures", "number_vectors.json")))

# Arrow null == undefined in the columnar model (SURVEY.md §1.4): joi
# treats JS null as a VALUE failing number.base, but a null cell in an
# Arrow column is 'missing' and passes an optional schema.  Documented
# design difference, not a bug.
DEVIATIONS: dict[tuple, str] = {
    (b, "None"): "Arrow null == undefined (missing), not the JS null value"
    for b in ("num_integer", "num_min_max", "num_min_positive",
              "num_max_positive", "num_min_negative")
}


def _decode(v):
    if v == "___Inf":
        return math.inf
    if v == "___-Inf":
        return -math.inf
    return v


def run_block(schema, block_name, column_type=None):
    cases = [(_decode(v), e) for v, e in FIX[block_name]]
    vals = [c[0] for c in cases]
    if column_type is None:
        # mixed numeric/string inputs -> string column exercises the
        # coercion path; numeric-only -> float64
        column_type = pa.string() if any(isinstance(v, str) for v in vals) else pa.float64()
    if pa.types.is_string(column_type):
        vals = [None if v is None else (str(v) if not isinstance(v, str) else v) for v in vals]
    arr = pa.array(vals, type=column_type)
    res = compile_schema(obj({"v": schema}), prefs={"abort_early": False}).validate_table(
        pa.table({"v": arr}))
    mismatches = [
        (cases[i][0], cases[i][1], bool(res.ok[i]))
        for i in range(len(cases))
        if bool(res.ok[i]) != cases[i][1] and (block_name, repr(cases[i][0])) not in DEVIATIONS
    ]
    assert not mismatches, f"{block_name}: {mismatches[:10]}"


def test_multiple_int():
    run_block(jr.number().multiple(3), "num_multiple_int")


def test_multiple_float():
    run_block(jr.number().multiple(3.5), "num_multiple_float")


def test_integer():
    run_block(jr.number().integer(), "num_integer")


def test_infinity_rejected():
    run_block(jr.number(), "num_infinity")


def test_decimal():
    run_block(jr.number(), "num_decimal")


def test_string_numbers():
    run_block(jr.number(), "num_string_numbers", column_type=pa.string())


def test_min_max():
    run_block(jr.number().min(8).max(10), "num_min_max")


def test_min_positive():
    run_block(jr.number().min(-3).positive(), "num_min_positive")


def test_max_positive():
    run_block(jr.number().max(5).positive(), "num_max_positive")


def test_min_negative():
    run_block(jr.number().min(-3).negative(), "num_min_negative")


def test_precision_converts():
    # validity + converted values from test/types/number.js:1027-1040
    t = pa.table({"v": pa.array(["1.5", "0.12345", "123456", "123456.123456"], pa.string())})
    res = compile_schema(obj({"v": jr.number().precision(4)}), prefs={"abort_early": False}).validate_table(t)
    assert list(res.ok) == [True] * 4
    assert res.value["v"].to_pylist() == [1.5, 0.1235, 123456.0, 123456.1235]


def _number_run(schema, vals):
    res = compile_schema(obj({"v": schema}), prefs={"abort_early": False}).validate_table(
        pa.table({"v": pa.array(vals, pa.string())}))
    return list(res.ok), res.violations["code"].to_pylist(), res.value["v"].to_pylist()


# shortest round-trip reprs a non-correctly-rounded parse misreads
SHORTEST_REPRS = ["0.013040000451301373", "4116305363741328.5", "-3163001563.6915455"]


def test_shortest_repr_decimals_are_safe_and_exact():
    # parseFloat rounds correctly, so each string reproduces its digits
    # and joi passes it; under unsafe() the value is that exact double
    ok, codes, _ = _number_run(jr.number(), SHORTEST_REPRS)
    assert ok == [True] * 3 and codes == []
    ok, codes, values = _number_run(jr.number().unsafe(), SHORTEST_REPRS)
    assert ok == [True] * 3 and codes == []
    assert [v.hex() for v in values] == [float(s).hex() for s in SHORTEST_REPRS]


def test_overflowing_exponent_is_unsafe_not_missing():
    # parseFloat('1e400') is Infinity: the round trip fails (number.unsafe),
    # and under unsafe() the base check reports number.infinity
    assert _number_run(jr.number(), ["1e400"])[:2] == ([False], ["number.unsafe"])
    assert _number_run(jr.number().unsafe(), ["1e400", "-1e400"])[:2] == (
        [False, False], ["number.infinity", "number.infinity"])


def test_non_ascii_digits_fail_the_number_gate():
    # JS \d is [0-9]: Arabic-Indic, Devanagari and fullwidth digits are not
    # numbers, whatever Python's float() accepts
    ok, codes, _ = _number_run(jr.number(), ["٣", "१२", "１", "3"])
    assert ok == [False, False, False, True]
    assert codes == ["number.base"] * 3


def test_integer_strings_past_2_53_parse_as_doubles():
    # an all-integer column past 2**53 is a double like any other: unsafe
    # (the digits do not round-trip), and the nearest double under unsafe()
    assert _number_run(jr.number(), ["9007199254740993"])[:2] == ([False], ["number.unsafe"])
    assert _number_run(jr.number().unsafe(), ["9007199254740993", "12"]) == (
        [True, True], [], [9007199254740992.0, 12.0])


def _js_number_to_string_reference(v: float) -> str:
    """Number::toString(10) from Decimal's digits of repr(v), the form
    js_number_to_string had before it read repr's digits directly."""
    from decimal import Decimal

    if math.isnan(v) or math.isinf(v) or v == 0:
        return "NaN" if math.isnan(v) else "0" if v == 0 else ("Infinity" if v > 0 else "-Infinity")
    _, digits, exp = Decimal(repr(abs(v))).as_tuple()
    s = "".join(map(str, digits)).rstrip("0")
    npos, k = len(digits) + exp, len(s)
    if k <= npos <= 21:
        body = s + "0" * (npos - k)
    elif 0 < npos <= 21:
        body = s[:npos] + "." + s[npos:]
    elif -6 < npos <= 0:
        body = "0." + "0" * (-npos) + s
    else:
        e = f"e{'+' if npos - 1 >= 0 else '-'}{abs(npos - 1)}"
        body = (s if k == 1 else s[0] + "." + s[1:]) + e
    return ("-" if v < 0 else "") + body


def test_js_number_to_string_matches_the_decimal_reference():
    import random
    import struct

    from joi_ray.kernels.numbers import js_number_to_string

    rng = random.Random(11)
    vals = [0.0, -0.0, 1.0, 123.0, 1e21, 1e-7, 1e-6, 5e-324, 1.7976931348623157e308, 0.1,
            1e20, 1.5e-7, 0.0000015, math.inf, -math.inf, math.nan]
    vals += [struct.unpack("d", struct.pack("Q", rng.getrandbits(64)))[0] for _ in range(20000)]
    vals += [round(rng.uniform(-1e4, 1e4), rng.randint(0, 6)) * 10.0 ** rng.randint(-25, 25)
             for _ in range(20000)]
    bad = [v for v in vals if js_number_to_string(v) != _js_number_to_string_reference(v)]
    assert not bad, bad[:5]
