"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tricut"
# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, in line order."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name, _ in sorted(bound.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["os", "b"]
    assert unused_imports("import numpy as np\nx: np.ndarray\n") == []
