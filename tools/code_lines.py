"""Count the code lines of Python modules.

A line counts when it holds a token other than a comment or a module,
class or function docstring; blank lines, comment lines and docstring
lines do not count.  A token that spans lines, such as a multi-line
string that is not a docstring, counts every line it spans.

    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory, read recursively; the default
is src/heisaut.  Prints one row per module, largest first, and the
total.  Uses the standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    # the (line, column) where each docstring's string token starts
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_bytes()
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT:
                continue
            if tok.type == tokenize.STRING and tok.start in docstrings:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _modules(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src/heisaut")]
    counts = [(code_lines(f), str(f)) for f in _modules(paths)]
    counts.sort(key=lambda row: (-row[0], row[1]))
    width = max([len(name) for _, name in counts] + [len("total")])
    for n, name in counts:
        print(f"{name:<{width}}  {n:>6}")
    print(f"{'total':<{width}}  {sum(n for n, _ in counts):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
