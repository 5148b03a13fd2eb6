"""The package's module structure.  Its modules share only public names: a
kernel that another module reads is public, or it stays in its own module.
Only the run boundary (`cli`, `config`) catches an exception: everywhere else
an error surfaces to it.  Only `studies` (`Problem.factor`) builds a stiffness
factor: every solver takes the factor it applies from its caller."""

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


def test_only_the_run_boundary_catches_exceptions():
    # cli and config turn errors into exit codes; a catch elsewhere would swallow one
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("cli.py", "config.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ExceptHandler):
                offenders.append(f"{path.name}:{node.lineno} except")
            elif isinstance(node, ast.Attribute) and node.attr == "suppress":
                offenders.append(f"{path.name}:{node.lineno} suppress")
            elif isinstance(node, ast.ImportFrom) and any(a.name == "suppress" for a in node.names):
                offenders.append(f"{path.name}:{node.lineno} imports suppress")
    assert offenders == []


def test_only_studies_builds_a_stiffness_factor():
    # one factorization per mesh: `Problem.factor`, which the limit solves and every L-BFGS seed share
    builders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "StiffnessPreconditioner":
                    builders.append(f"{path.name}:{node.lineno}")
    assert [site.split(":")[0] for site in builders] == ["studies.py"], builders
