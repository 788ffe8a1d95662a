"""Every module-level import in ``src/repro`` is used by its module.

A stdlib-only AST scan: a name bound by a module-level ``import`` or
``from ... import`` must be read somewhere in the same module (code, a
string annotation, or ``__all__``).  Package ``__init__.py`` files exist to
re-export, and the frozen ``_reference*`` modules record past code as it
shipped, so both are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _module_imports(tree):
    """``(name, line)`` for each name a module-level import binds.

    Imports inside functions and classes are local to them; imports nested
    in module-level ``if``/``try`` blocks are still module level.
    """
    bound = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound.append((alias.asname or alias.name, node.lineno))
        else:
            pending.extend(ast.iter_child_nodes(node))
    return bound


def _names_read(tree):
    """Every identifier the module reads, including the names inside string
    annotations and the strings listed in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            quoted.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            quoted.append(node.value)
    for root in filter(None, quoted):
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    expression = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names.update(inner.id for inner in ast.walk(expression)
                             if isinstance(inner, ast.Name))
    return names


def _unused_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py" or path.name.startswith("_reference"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = _names_read(tree)
        for name, line in _module_imports(tree):
            if name not in read:
                unused.append(f"{path.relative_to(SRC.parent)}:{line}: {name}")
    return sorted(unused)


def test_every_module_level_import_is_used():
    assert _unused_imports() == []


def test_scanner_flags_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom typing import List\n"
                     "def f() -> 'List[int]':\n    import json\n"
                     "    return sys.argv\n")
    read = _names_read(tree)
    assert [name for name, _ in _module_imports(tree)
            if name not in read] == ["os"]
