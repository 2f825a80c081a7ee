"""Every public function has a caller: a library module, the benchmark tracer or
the benchmark workloads.  A function that only tests and docstrings use is
dead weight in the public API."""

import ast
import inspect
import runpy
from pathlib import Path

import unihop

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "unihop").glob("*.py"))
PERFBENCH = ROOT / "perfbench"


def _library_references() -> set[str]:
    """Names that a module loads as a variable or attribute, except inside the
    ``def`` of the same name (recursion is no caller); imports, ``__all__``
    strings and docstrings are no references."""
    found: set[str] = set()

    def visit(node: ast.AST, own: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            own = node.name
        if isinstance(node, ast.Name) and node.id != own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), None)
    return found


def _benchmark_references() -> set[str]:
    names: set[str] = set()
    if (PERFBENCH / "tracer.py").exists():
        targets = runpy.run_path(str(PERFBENCH / "tracer.py"))["TARGETS"]
        names |= {func for layer in targets.values() for _, func in layer}
    if (PERFBENCH / "workloads.py").exists():
        tree = ast.parse((PERFBENCH / "workloads.py").read_text())
        names |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("unihop")
            for alias in node.names
        }
    return names


def test_every_public_function_has_a_caller():
    public = [
        name for name in unihop.__all__
        if callable(getattr(unihop, name)) and not inspect.isclass(getattr(unihop, name))
    ]
    assert public
    called = _library_references() | _benchmark_references()
    assert [name for name in public if name not in called] == []


def test_a_function_called_only_by_itself_has_no_caller(tmp_path, monkeypatch):
    source = tmp_path / "mod.py"
    source.write_text(
        '__all__ = ["lonely", "used"]\n\n'
        'def lonely(n):\n    """See :func:`used`."""\n    return lonely(n - 1) if n else 0\n\n'
        "def used():\n    return 1\n\n"
        "VALUE = used()\n"
    )
    monkeypatch.setitem(globals(), "SOURCES", [source])
    found = _library_references()
    assert "used" in found
    assert "lonely" not in found
