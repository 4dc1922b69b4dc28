"""No unused imports and no unused helpers in the package.

AST scans of src/torusbt/*.py. A name counts as used when it is read
anywhere in the module (annotations included). Names on a line marked
``# noqa: F401`` are deliberate re-exports. ``__init__.py`` is skipped:
its imports are the package's public API.

A function or non-dunder method counts as used when its name is
referenced (as a name or an attribute) somewhere in src/ outside its own
body, anywhere in demos/, or when ``__init__.py`` imports it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "torusbt"


def unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and name != "annotations"]


def test_no_unused_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = [u for p in modules for u in unused_imports(p)]
    assert unused == []


def _references(tree):
    """(name, line) of every ast.Name and ast.Attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _definitions(tree):
    """Module-level functions and non-dunder methods, as (qualified name,
    name, first line, last line)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node.lineno, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def unused_helpers(src: Path, demos: Path) -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    refs = {}                               # name -> [(path, line), ...]
    for path, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    outside = {name for p in sorted(demos.glob("*.py"))
               for name, _ in _references(ast.parse(p.read_text(encoding="utf-8")))}
    outside |= {alias.asname or alias.name for node in ast.walk(trees[src / "__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for path, tree in trees.items():
        for qual, name, first, last in _definitions(tree):
            if name in outside:
                continue
            if not any(other != path or not first <= line <= last
                       for other, line in refs.get(name, ())):
                unused.append(f"{path.stem}.{qual}")
    return unused


def test_no_unused_helpers():
    assert unused_helpers(SRC, ROOT / "demos") == []


def test_unused_helper_scan_flags_self_references_only(tmp_path):
    src, demos = tmp_path / "src", tmp_path / "demos"
    src.mkdir()
    demos.mkdir()
    (src / "__init__.py").write_text("from .mod import used\n")
    (src / "mod.py").write_text(
        "def used():\n    return helper() + K().method()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead(n):\n    return dead(n - 1)\n\n"
        "def shown():\n    return 2\n\n"
        "class K:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def method(self):\n        return 1\n\n"
        "    def dead_method(self):\n        return self.dead_method()\n")
    (demos / "demo.py").write_text("from mod import shown\nprint(shown())\n")
    assert unused_helpers(src, demos) == ["mod.dead", "mod.K.dead_method"]
