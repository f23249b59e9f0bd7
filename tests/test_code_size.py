"""``tools/code_size.py`` counts by its stated rules."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("code_size", ROOT / "tools" / "code_size.py")
code_size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_size)

SOURCE = '''"""Module docstring,
two lines."""
# a comment line

from dataclasses import dataclass, field


@dataclass
class Point:
    """Class docstring."""

    x: float
    y: float = 0.0
    tag: str = field(default="", init=False)


def scale(p, k=2.0, *, clip=None, name):
    """Function docstring."""
    text = """a string
    that is not a docstring"""
    inner = lambda v=1: v  # noqa: E731
    return k * p.x, text, inner, clip, name
'''


def test_code_lines_skip_comments_blanks_and_docstrings():
    # the import, the decorator, the class line, three fields, the def, the
    # two lines of the string, the lambda and the return
    assert code_size.code_lines(SOURCE) == 11


def test_settable_values_are_defaults_and_constructor_fields():
    # k, clip and the lambda's v; the fields x and y, not the init=False tag
    assert code_size.settable_values(SOURCE) == 5


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("def f(x=1):\n    return x\n")
    code_size.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["a", "11", "5"], ["b", "2", "1"], ["total", "13", "6"]]


def test_environment_reads_count_once_per_name():
    # FLAG is read three ways and HOME once; a write and another mapping's get
    # are not environment reads
    source = (
        "import os\n"
        "a = os.environ['FLAG']\n"
        "b = os.environ.get('FLAG', '')\n"
        "c = os.getenv('FLAG')\n"
        "d = os.getenv('HOME')\n"
        "os.environ['OTHER'] = a\n"
        "e = {}.get('NOT_ENV')\n"
    )
    assert code_size.settable_values(source) == 2
