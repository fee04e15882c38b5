#!/usr/bin/env python
"""Count code lines: physical lines holding a token that is not a comment,
a docstring or blank -- so deleting docstrings never reads as a reduction.

    python scripts/code_lines.py src/repro            # per file, then the total
    python scripts/code_lines.py src/repro/core/gateway.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Physical lines of ``source`` that carry code."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                docstring_lines.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines)


def main(argv) -> int:
    """Print ``count  path`` per file under each argument, then the total."""
    paths = []
    for arg in map(Path, argv):
        paths += sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]
    counts = [(code_lines(path.read_text()), path) for path in paths]
    for count, path in counts:
        print(f"{count:6d}  {path}")
    print(f"{sum(count for count, _ in counts):6d}  total ({len(counts)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["src/repro"]))
