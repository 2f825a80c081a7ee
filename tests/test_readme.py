"""The README's examples run as written: the python blocks in order, in one
namespace, and every command line of the command block reruns byte for byte."""

import re
import shlex
from pathlib import Path

import pytest

from unihop.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) >= 5
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["exact"].revival[-1] <= 1e-13


def _readme_commands() -> list[list[str]]:
    """The argv of each `unihop ...` line of the README command block, with
    backslash continuations joined and trailing comments dropped."""
    blocks = re.findall(r"^```\n(unihop .*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    lines = blocks[0].replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    assert all(command[0] == "unihop" for command in commands)
    return [command[1:] for command in commands]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_reruns_byte_for_byte(capsys, tmp_path, monkeypatch, argv):
    runs = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(argv) == 0
        files = {p.name: p.read_bytes() for p in workdir.iterdir()}
        assert files
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]
