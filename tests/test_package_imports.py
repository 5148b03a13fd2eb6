"""The package's modules share only public names: a kernel that another
module reads is public, or it stays in its own module."""

import ast
from pathlib import Path

import pressurelab

PACKAGE = Path(pressurelab.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_another():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()  # names bound to package modules by `from . import x`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("pressurelab")):
                for alias in node.names:
                    if _private(alias.name):
                        offenders.append(f"{path.name} imports {alias.name}")
                    if node.module is None or node.module == "pressurelab":
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                offenders.append(f"{path.name} reads {node.value.id}.{node.attr}")
    assert offenders == []
