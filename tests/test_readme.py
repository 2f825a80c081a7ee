"""The README's examples run as written: the python blocks in order, in one
namespace, and every command line of the command block reruns byte for byte,
both as written and from its dumped config."""

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


def _run_in(workdir: Path, monkeypatch, argv: list[str]) -> dict[str, bytes]:
    """Run ``argv`` in a fresh ``workdir`` and return the files it wrote."""
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(argv) == 0
    return {p.name: p.read_bytes() for p in workdir.iterdir()}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_reruns_byte_for_byte(capsys, tmp_path, monkeypatch, argv):
    runs = []
    for name in ("first", "second"):
        files = _run_in(tmp_path / name, monkeypatch, argv)
        assert files
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]
    # its dumped config reruns, in a fresh directory, to the same bytes
    config = tmp_path / "config.json"
    assert _run_in(tmp_path / "dump", monkeypatch, argv + ["--dump-config", str(config)]) == {}
    assert capsys.readouterr().out == f"{argv[0]}: resolved config written to {config}\n"
    files = _run_in(tmp_path / "reload", monkeypatch, [argv[0], "--config", str(config)])
    assert (capsys.readouterr().out, files) == runs[0]
