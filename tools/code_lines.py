"""Count the code lines of each module of ``src/rankfuse``.

A code line holds a token that is not a comment; blank lines, comment lines
and docstrings (of a module, class or function) are not counted. Run from
anywhere: ``python tools/code_lines.py [package-dir]``.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "rankfuse"
    counts = {p.name: code_lines(p) for p in sorted(root.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
