"""The code-line measure of `tests/code_lines.py` on hand-counted snippets."""

import pathlib
import textwrap

from code_lines import code_lines, count, main

# ROADMAP's "The code-line budget" rule: the code lines of `src/` plus `scripts/`.
CODE_LINE_BUDGET = 2349

SNIPPET = textwrap.dedent('''\
    """Module docstring,
    two lines."""

    import os  # a trailing comment keeps its line


    def f(a,
          b):
        """Function docstring."""
        # a comment line
        return (a +

                b)


    class C:
        """Class docstring,

        three lines."""

        x = """a string that is
    not a docstring"""
    ''')


def test_counts_code_lines_only():
    # import; def f(a, / b):; return (a + / b); class C:; x = """... / ..."""
    assert code_lines(SNIPPET) == 8


def test_a_multi_line_statement_counts_each_line():
    assert code_lines("x = [\n    1,\n    2,\n]\n") == 4
    assert code_lines("x = [1, 2]\n") == 1


def test_docstrings_and_comments_are_excluded():
    assert code_lines('"""Doc."""\n# comment\n\ndef g():\n    """Doc."""\n    pass\n') == 2


def test_several_paths_print_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n# comment\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = [\n    2,\n]\n')
    main([str(tmp_path / "a.py"), str(tmp_path / "b.py")])
    assert capsys.readouterr().out.splitlines() == [
        f"2 1 {tmp_path / 'a.py'}", f"4 3 {tmp_path / 'b.py'}", "6 4 total",
    ]
    main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [f"6 4 {tmp_path}"]


def test_src_and_scripts_within_budget():
    root = pathlib.Path(__file__).resolve().parents[1]
    total = sum(count(root / d)[1] for d in ("src", "scripts"))
    assert total <= CODE_LINE_BUDGET, f"{total} code lines, over the budget of {CODE_LINE_BUDGET}"
