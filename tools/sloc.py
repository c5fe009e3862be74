"""Count the code lines of Python sources.

A code line holds a token other than a comment; blank lines, comment
lines and docstrings (of modules, classes and functions) are not
counted, and a statement or string spread over several lines counts each
of them.  Usage, from the root of a checkout::

    python3 tools/sloc.py src

prints each module's count, then the total over all of them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef,
                   ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in a module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, _WITH_DOCSTRING)
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    roots = [Path(arg) for arg in args or ["src"]]
    files = sorted(path for root in roots
                   for path in ([root] if root.is_file()
                                else root.rglob("*.py")))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
