"""The README's library example runs as written, so its calls keep up with
the signatures they show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == block.count("print(")
