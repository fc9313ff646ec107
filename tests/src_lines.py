"""Physical lines and code lines of each module under ``src/``, then the
totals.

    python tests/src_lines.py

A module's physical lines are its lines as ``wc -l`` counts them. Its code
lines are the lines on which a token of code starts or runs, as
``tokenize`` reads them: blank lines, comments and docstrings (a string
statement that opens a module, class or function body) are not code. A
string that is not a docstring is code on every line it spans.
"""
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(tree) -> set:
    """The (line, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def counts(text: str) -> tuple:
    """(physical lines, code lines) of one module's source text."""
    docstrings = _docstrings(ast.parse(text))
    code = set()
    in_docstring = False
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in NOT_CODE:
            in_docstring = False
            continue
        # the parts of an implicitly joined docstring follow its first
        in_docstring = tok.type == tokenize.STRING and (
            in_docstring or tok.start in docstrings)
        if not in_docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def modules(root=ROOT) -> list:
    """The path of each ``.py`` file under ``src/``, relative to ``root``,
    sorted."""
    found = []
    for folder, _, files in os.walk(os.path.join(root, "src")):
        found += [os.path.relpath(os.path.join(folder, name), root)
                  for name in files if name.endswith(".py")]
    return sorted(found)


def main(root=ROOT, out=sys.stdout) -> tuple:
    """Print one line per module, then the totals, and return them."""
    physical_total = code_total = 0
    for path in modules(root):
        with tokenize.open(os.path.join(root, path)) as fh:
            physical, code = counts(fh.read())
        physical_total += physical
        code_total += code
        print(f"{physical:6d} {code:6d}  {path}", file=out)
    print(f"{physical_total:6d} {code_total:6d}  total", file=out)
    return physical_total, code_total


if __name__ == "__main__":
    main()
