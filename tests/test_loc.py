"""tools/loc.py, the code-line count that simplicity changes cite."""

from helpers import tool_module

# 10 lines of code: the docstrings, comments and blank lines do not count,
# and each line of the multi-line expression and string does
SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a comment after code


# a comment line
def f(x):
    """Function docstring."""
    total = (
        x
        + math.pi
    )
    return total


class C:
    """Class docstring."""

    text = """a string that is
not a docstring"""
'''


def test_code_lines_of_a_fixed_snippet():
    assert tool_module("loc").code_lines(SNIPPET) == 10


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    pkg = tmp_path / "src" / "projspec"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(SNIPPET)
    (pkg / "b.py").write_text("x = 1\n\n# done\n")
    assert tool_module("loc").main(["--root", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'a':10s} {10:5d}", f"{'b':10s} {1:5d}", f"{'total':10s} {11:5d}", "",
    ]
