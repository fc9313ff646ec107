"""``src_lines.py`` counts physical lines, and code lines without blank
lines, comments or docstrings."""
import io

import src_lines

SNIPPET = '''\
"""A module docstring
over two lines."""
import os  # a comment on a line of code

# a comment alone


def f(x):
    "a docstring" "joined to another"
    s = """a string that is not a docstring
spans two lines of code"""
    return (x +
            1)


class C:
    """A one-line docstring."""
    y = 1; """a string after code"""
'''


def test_code_lines_leave_out_blank_lines_comments_and_docstrings():
    # import, def, two of s, two of return, class, y
    assert src_lines.counts(SNIPPET) == (18, 8)


def test_a_string_first_in_a_body_is_a_docstring_only_if_it_has_no_f():
    assert src_lines.counts('def f():\n    f"{1}"\n    return\n') == (3, 3)
    assert src_lines.counts('def f():\n    "doc"\n    return\n') == (3, 2)


def test_the_totals_follow_one_line_per_module(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\n", encoding="utf-8")
    (package / "b.py").write_text('"""doc"""\ny = 2\n', encoding="utf-8")
    (package / "notes.txt").write_text("not a module\n", encoding="utf-8")
    out = io.StringIO()
    assert src_lines.main(str(tmp_path), out) == (4, 2)
    assert out.getvalue().splitlines() == [
        "     2      1  src/pkg/a.py",
        "     2      1  src/pkg/b.py",
        "     4      2  total",
    ]
