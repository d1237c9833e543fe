"""Static checks over the source tree: every import is used, and the
encoders build their clauses without the solver."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")
)


def unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports and never mentions, as a name or as the
    root of an attribute chain."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("module", ["cnf", "system", "pebbling", "peterson"])
def test_encoders_do_not_import_the_solver(module):
    tree = ast.parse((ROOT / "src" / "ipdr" / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.module not in ("solver", "ipdr.solver"), node.lineno
            assert not (node.level and node.module is None
                        and any(a.name == "solver" for a in node.names)), node.lineno
        elif isinstance(node, ast.Import):
            assert all(a.name != "ipdr.solver" for a in node.names), node.lineno
