"""Print the code lines of each module of a package, and their total.

A code line is a line that is not blank, not only a comment and not part
of a docstring.  Lines come from `tokenize` (a string or other token that
spans several lines counts on each of them) and docstrings from `ast`
(the first statement of a module, class or function when it is a string).

Usage: python scripts/code_lines.py [package dir, default src/hardsplit]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path):
    "Number of code lines in the Python file at `path`."
    text = Path(path).read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/hardsplit")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print("%6d  %s" % (n, path.name))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv)
