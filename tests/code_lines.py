"""Raw and code line counts of Python sources.

Code lines are the lines that hold a token other than a comment, less the
lines of module, class and function docstrings.  A statement or literal
that spans several lines counts each line it spans.

Usage: python tests/code_lines.py DIR_OR_FILE...  (for example `src scripts`)
prints one "raw code path" line per argument and, given more than one, a
last "raw code total" line that sums them.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def count(path: pathlib.Path) -> tuple[int, int]:
    """(raw lines, code lines) of a .py file or of every .py file under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    texts = [f.read_text() for f in files]
    return sum(len(t.splitlines()) for t in texts), sum(code_lines(t) for t in texts)


def main(argv: list[str]) -> None:
    counts = [count(pathlib.Path(arg)) for arg in argv]
    for (raw, code), arg in zip(counts, argv):
        print(f"{raw} {code} {arg}")
    if len(argv) > 1:
        print(f"{sum(raw for raw, _ in counts)} {sum(code for _, code in counts)} total")


if __name__ == "__main__":
    main(sys.argv[1:])
