"""Static checks on the package source, read with `ast` (no linter needed).

- Modules import only public names from one another: a `_private` helper
  that another module needs belongs in the public layer of its owner.
- No import goes unused, except on lines marked `# noqa: F401`, in the
  package, the tests and the demos.  `__init__.py` is exempt, since
  re-exporting is what its imports are for.  The tests read private
  helpers on purpose, so the first rule stays with the package.
- In `verify.py` only `run_check` builds a Verdict: a check body yields its
  witnesses and may return a note, so `holds`, `discrepancy` and `vacuous`
  are called nowhere else.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sgideals"
MODULES = sorted(SRC.glob("*.py"))
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module):
    """(node, bound name, imported name) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name, alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    private = [
        f"line {node.lineno}: {name} from .{node.module or ''}"
        for node, _, name in _imports(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level and name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if p.name != "__init__.py"] + SCRIPTS,
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}",
)
def test_no_unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"line {node.lineno}: {bound}"
        for node, bound, _ in _imports(tree)
        if bound not in used
        and "# noqa: F401" not in lines[node.end_lineno - 1]
    ]
    assert unused == []



def test_only_run_check_builds_verdicts():
    tree = _tree(SRC / "verify.py")
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "run_check":
            inside = {id(n) for n in ast.walk(node)}
    calls = [
        f"line {node.lineno}: {node.func.id}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in {"holds", "discrepancy", "vacuous"} and id(node) not in inside
    ]
    assert inside and calls == []
