"""The README's examples run as written, so its calls and configs keep up
with the signatures and keys they show."""

import json
import re
from pathlib import Path

from pinlab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# a config key that names its command -> (command, the payload files it writes)
_COMMAND_OF_KEY = {
    "lambda_grid": ("homopolymer", ("homopolymer.csv",)),
    "tr_schedule": ("relevance", ("relevance_scan.csv", "relevance_bounds.json")),
}


def test_library_example_runs(capsys):
    (block,) = re.findall(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == block.count("print(")


def test_command_line_examples_run(tmp_path):
    (section,) = re.findall(r"\n## Command line\n(.*?)(?=\n## |\Z)", README.read_text(), re.S)
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert blocks
    for i, block in enumerate(blocks):
        doc = json.loads(block)
        (key,) = set(doc) & set(_COMMAND_OF_KEY)
        command, payloads = _COMMAND_OF_KEY[key]
        config, out = tmp_path / f"example{i}.json", tmp_path / f"out{i}"
        config.write_text(block)
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        for name in payloads:
            assert (out / name).is_file()
