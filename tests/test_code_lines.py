"""``tools/code_lines.py`` counts the lines that hold a token, leaving out
comments, blank lines and docstrings."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line
def f(x):
    """A function docstring."""
    s = """a string that is
not a docstring"""
    return (x +
            len(s))


class C:
    """A class docstring."""

    y = 1
'''


def test_sample_counts_code_lines_only():
    # import, def, the two-line string, the two-line return, class, y = 1
    assert code_lines.code_lines(SAMPLE) == 8
    assert code_lines.code_lines("") == 0
    assert code_lines.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"


def test_a_missing_path_is_named_and_nothing_is_counted(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n", encoding="utf-8")
    missing = str(tmp_path / "nonexist")
    assert code_lines.main([str(tmp_path), missing]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"code_lines: no such file or directory: {missing}\n"
