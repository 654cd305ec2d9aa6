"""Size bound for the evaluator and its kernels: no function in
``joi_ray/engine.py`` or ``joi_ray/kernels/`` is longer than 150 physical
lines (``tools/loc.py`` measures them)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINES = 150


def _loc():
    spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_no_engine_function_over_150_lines():
    src = (ROOT / "joi_ray" / "engine.py").read_text(encoding="utf-8")
    too_long = [(line, name, size) for line, name, size in _loc().long_functions(src)
                if size > MAX_LINES]
    assert not too_long, f"engine.py functions over {MAX_LINES} lines: {too_long}"


def test_no_kernels_function_over_150_lines():
    too_long = [(path.name, line, name, size)
                for path in sorted((ROOT / "joi_ray" / "kernels").glob("*.py"))
                for line, name, size in _loc().long_functions(path.read_text(encoding="utf-8"))
                if size > MAX_LINES]
    assert not too_long, f"joi_ray/kernels/ functions over {MAX_LINES} lines: {too_long}"
