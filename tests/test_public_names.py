"""Every public module-level name in the package has a non-test user.

A public ``def``, ``class`` or constant at module level must be imported
by another module of the package with ``from .<module> import``, or loaded
by name in its own module.  Being re-exported in ``tetherpick.__all__``
does not count: ``__init__`` only lists names, so an exported name that
no other module uses is called only from tests, and is dead weight.

The other way round, every name in ``tetherpick.__all__`` must be an
attribute of the package, so that deleting a name cannot leave a stale
export behind.
"""

import ast
import importlib.util
from pathlib import Path

import tetherpick

PACKAGE = Path(tetherpick.__file__).resolve().parent


def _public_definitions(tree):
    """Names bound by module-level def, class and assignment statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets
                     if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _relative_imports(tree):
    """(module, name) for each ``from .<module> import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            for alias in node.names:
                yield node.module, alias.name


def _loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_public_names(package=PACKAGE):
    """Sorted 'module.name' strings of public names no module uses."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    imported = {pair for module, tree in trees.items()
                if module != "__init__" for pair in _relative_imports(tree)}
    unused = []
    for module, tree in trees.items():
        loaded = _loaded_names(tree)
        for name in _public_definitions(tree):
            if (module, name) in imported or name in loaded:
                continue
            unused.append(f"{module}.{name}")
    return sorted(unused)


def stale_exports(package):
    """Sorted names in ``package.__all__`` that the package lacks."""
    return sorted(name for name in package.__all__
                  if not hasattr(package, name))


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == []


def test_scan_flags_a_name_nothing_uses(tmp_path):
    (tmp_path / "core.py").write_text(
        "LIMIT = 3\n\n"
        "def used():\n    return LIMIT\n\n"
        "def exported():\n    return used()\n\n"
        "def imported():\n    pass\n\n"
        "def exported_only():\n    pass\n\n"
        "class Orphan:\n    pass\n\n"
        "def _private():\n    pass\n")
    (tmp_path / "__init__.py").write_text(
        "from .core import exported, exported_only\n\n"
        "__all__ = ['exported', 'exported_only']\n")
    (tmp_path / "other.py").write_text(
        "from .core import exported, imported\n")
    assert unused_public_names(tmp_path) == ["core.Orphan",
                                             "core.exported_only"]


def test_every_exported_name_is_an_attribute_of_the_package():
    assert stale_exports(tetherpick) == []


def test_stale_export_check_flags_a_missing_name(tmp_path):
    init = tmp_path / "__init__.py"
    init.write_text("def kept():\n    pass\n\n"
                    "__all__ = ['kept', 'removed']\n")
    spec = importlib.util.spec_from_file_location("stale_demo", init)
    package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    assert stale_exports(package) == ["removed"]
