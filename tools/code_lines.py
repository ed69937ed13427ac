"""Count the code lines of each module of ``src/rankfuse``.

A code line holds a token that is not a comment; blank lines, comment lines
and docstrings (of a module, class or function) are not counted. Run from
anywhere: ``python tools/code_lines.py [package-dir]``. After the per-module
totals it lists each top-level function and class, with the code lines from
its first decorator to its end, largest first.
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (ast.Module, *_DEFS)


def _code_line_set(path: Path) -> tuple[ast.Module, set]:
    """The parsed module at ``path`` and the numbers of its code lines."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return tree, lines - docs


def code_lines(path: Path) -> int:
    return len(_code_line_set(path)[1])


def definition_lines(path: Path) -> dict:
    """Code lines of each top-level function and class of ``path``, by name."""
    tree, lines = _code_line_set(path)
    counts = {}
    for node in tree.body:
        if isinstance(node, _DEFS):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            counts[node.name] = len(lines.intersection(range(start, node.end_lineno + 1)))
    return counts


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "rankfuse"
    paths = sorted(root.glob("*.py"))
    counts = {p.name: code_lines(p) for p in paths}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    print()
    rows = [(n, f"{p.name}:{name}") for p in paths for name, n in definition_lines(p).items()]
    for n, name in sorted(rows, key=lambda row: (-row[0], row[1])):
        print(f"{n:6d}  {name}")
