import importlib.util
import io
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"


@pytest.fixture()
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""A docstring
over two lines."""

# A comment.
x = 1

y = x + 2
'''


def test_counts_statements_not_docstrings_comments_or_blanks(code_lines):
    assert code_lines.code_lines(io.StringIO(FIXTURE).readline) == 2


def test_prints_each_module_and_the_total(code_lines, tmp_path, capsys, monkeypatch):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    # A function's docstring does not count; a statement over two lines does, twice.
    (tmp_path / "b.py").write_text('def f():\n    """Doc."""\n    return (1 +\n            2)\n',
                                   encoding="utf-8")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out.split() == ["a.py", "2", "b.py", "3", "total", "5"]
