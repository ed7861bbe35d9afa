"""Guards on the public surface: exports, the README example, and module
boundaries inside the package."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import ridgelab

PACKAGE_DIR = Path(ridgelab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves() -> None:
    assert [name for name in ridgelab.__all__ if not hasattr(ridgelab, name)] == []


def test_readme_quick_start_runs(capsys) -> None:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].endswith("negative")


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports_between_modules(path: Path) -> None:
    tree = ast.parse(path.read_text(), str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("ridgelab"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
