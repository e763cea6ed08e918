"""Count the lines of a package's source: all lines, and code lines.

A code line is one that is not blank, not only a comment and not part of a
module, class or function docstring (found with ``ast``). Run from the
repository root:

    python tools/src_lines.py [src/varconn]
"""

import ast
import sys
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: Path) -> tuple[int, int]:
    """All lines of one file, and its code lines."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skipped = {n for n, line in enumerate(lines, 1) if not line.strip() or line.strip().startswith("#")}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            skipped.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines), len(lines) - len(skipped)


if __name__ == "__main__":
    files = sorted(Path(sys.argv[1] if len(sys.argv) > 1 else "src/varconn").rglob("*.py"))
    total, code = map(sum, zip(*(counts(path) for path in files)))
    print(f"{total} lines, {code} code lines in {len(files)} files")
