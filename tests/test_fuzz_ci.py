"""Standing differential-fuzz guard (VERDICT r3 item 10).

Runs a fixed 120-seed slice of the round-3 fuzz campaign against the REAL
reference under node on every suite run (~40 s), so hot-path optimizations
can't silently regress joi semantics.  The deeper 1000-seed sweep is
``make fuzz-ci`` (<5 min).  Skips loudly when node, the refshim or the
reference checkout the refshim loads is unavailable.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(REPO, "tools", "refshim", "refrunner.js")


def _skip_without_reference():
    """Skip when the refshim runner, or the reference checkout it requires
    (its first absolute ``require``), is missing."""
    if not os.path.exists(RUNNER):
        pytest.skip("refshim runner missing")
    with open(RUNNER, encoding="utf-8") as f:
        ref = re.search(r"require\('(/[^']+)'\)", f.read())
    if ref is not None and not os.path.exists(ref.group(1)):
        pytest.skip(f"reference checkout {ref.group(1)} missing (the refshim requires it)")


@pytest.mark.skipif(shutil.which("node") is None, reason="node not available")
def test_fuzz_120_seeds_no_hard_deviations():
    _skip_without_reference()
    # subprocess keeps the long-lived node ref process out of the pytest
    # interpreter (fuzz_spec owns its lifecycle and exit code)
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "fuzz_spec.py"), "120", "0"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"fuzz deviations:\n{proc.stdout[-3000:]}\n{proc.stderr[-2000:]}"


@pytest.mark.skipif(shutil.which("node") is None, reason="node not available")
def test_fuzz_manifest_roundtrip_slice():
    """FUZZ_MANIFEST=1 routes every joi_ray-side schema through
    build(describe()) before compiling, so this slice differentially fuzzes
    the manifest round-trip itself (round-5 frontier; 2,800 cases at seeds
    15.10-15.11M were clean when this guard landed)."""
    _skip_without_reference()
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "tools", "fuzz_spec.py"), "40", "15100000"],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "FUZZ_MANIFEST": "1"},
    )
    assert proc.returncode == 0, f"manifest-roundtrip deviations:\n{proc.stdout[-3000:]}\n{proc.stderr[-2000:]}"
