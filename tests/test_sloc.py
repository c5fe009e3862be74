"""The code-line count of ``tools/sloc.py`` on a small fixture."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parent.parent / "tools" / "sloc.py")
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

# nine code lines: the import, the class line, the def, the three lines
# of the call, the string's two lines and the return
FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment is on a code line


class Thing:
    """A class docstring."""

    # a comment line
    def method(self):
        """A method docstring,

        with a blank line inside."""
        value = os.path.join(
            "a",
            "b")
        text = """a string that is not a docstring,
        over two lines"""
        return value + text
'''


def test_counts_code_lines_only():
    assert sloc.code_lines(FIXTURE) == 9


def test_empty_and_docstring_only_modules():
    assert sloc.code_lines("") == 0
    assert sloc.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert sloc.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "2", "11"]
    assert lines[-1].split()[1] == "total"


def test_main_with_no_paths_counts_src(tmp_path, monkeypatch, capsys):
    # an empty list means the default root, not the process's arguments
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sloc.sys, "argv", ["sloc.py", "elsewhere"])
    assert sloc.main([]) == 0
    assert capsys.readouterr().out.split() == [
        "1", str(Path("src") / "m.py"), "1", "total"]
