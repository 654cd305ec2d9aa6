"""Line counts for the Python files of a package: physical lines and code
lines per file, plus the total, then every function longer than
``LONG`` lines (file, line, name and length, longest first).

Code lines leave out blank lines, comment-only lines and docstrings (any
statement that is a bare string literal), so deleting comments or
docstrings does not show as a smaller program.  A line counts as code when
any other token touches it; a multi-line expression counts every line it
spans.

Usage:
    python3 tools/loc.py            # joi_ray/
    python3 tools/loc.py DIR [DIR ...]
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LONG = 150  # a function over this many physical lines is listed
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(src: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    doc_lines: set[int] = set()
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            doc_lines.update(range(node.lineno, node.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type in _SKIP:
            continue
        if tok.type == tokenize.STRING and tok.start[0] in doc_lines:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(src.splitlines()), len(code)


def long_functions(src: str) -> list[tuple[int, str, int]]:
    """(line, qualified name, physical lines) of every function in one
    Python source text longer than ``LONG`` lines."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                size = child.end_lineno - child.lineno + 1
                if not isinstance(child, ast.ClassDef) and size > LONG:
                    out.append((child.lineno, name, size))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(src), "")
    return out


def main(argv: list[str]) -> int:
    dirs = argv or [os.path.join(ROOT, "joi_ray")]
    rows, long_fns = [], []
    for d in dirs:
        for base, subdirs, files in os.walk(d):
            subdirs[:] = sorted(s for s in subdirs if s != "__pycache__")
            for f in sorted(files):
                if f.endswith(".py"):
                    p = os.path.join(base, f)
                    with open(p, encoding="utf-8") as fh:
                        src = fh.read()
                    rel = os.path.relpath(p, ROOT)
                    rows.append((rel, *count(src)))
                    long_fns += [(rel, *f) for f in long_functions(src)]
    width = max((len(r[0]) for r in rows), default=5)
    print(f"{'file':<{width}}  {'lines':>7}  {'code':>7}")
    for name, phys, code in rows:
        print(f"{name:<{width}}  {phys:>7,}  {code:>7,}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>7,}  {sum(r[2] for r in rows):>7,}")
    print(f"\nfunctions over {LONG} lines:")
    for rel, line, name, size in sorted(long_fns, key=lambda f: -f[3]):
        print(f"  {rel}:{line}  {name}  {size:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
