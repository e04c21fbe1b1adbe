"""`tools/code_lines.py`: line and code-line counts of Python modules."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
two lines."""

import os  # a comment


class Box:
    """Class docstring."""

    # a comment line
    def size(self):
        """Function
        docstring."""
        text = """a string
        that is code"""
        return len(text)
'''


def test_counts_a_synthetic_module():
    # code: import, class, def, the two lines of the assignment, return
    assert code_lines.count(MODULE) == (16, 6)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["lines", "code", "module"]
    assert out[1].split() == ["16", "6", str(tmp_path / "a.py")]
    assert out[2].split() == ["3", "1", str(tmp_path / "b.py")]
    assert out[3].split() == ["19", "7", "total"]


def test_needs_a_path(capsys):
    assert code_lines.main([]) == 2
    assert "usage" in capsys.readouterr().err
