"""The modules import in one dependency order, with no cycle to dodge."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ausokit

PACKAGE_DIR = Path(ausokit.__file__).parent
# Each module imports only modules listed before it.
ORDER = ("cube_core", "combinators", "pivot_engine", "verifier", "frame_store",
         "constructions", "cli")
FAMILY_NAMES = {"cunningham", "johnson", "zadeh"}
# The per-direction form of a move, which lives in the tests only
# (tests/directions.py): `ausokit` speaks a direction as its move bit or
# its text.
DIRECTION_NAMES = {"Direction", "DIRECTIONS", "direction_bit", "apply_direction",
                   "is_available", "directions"}


@pytest.mark.parametrize("module", ORDER)
def test_module_imports_first_in_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    proc = subprocess.run([sys.executable, "-c", f"import ausokit.{module}"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_init_imports_nothing():
    """The package re-exports nothing: callers import from the modules."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text(encoding="utf-8"))
    imports = [n.lineno for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not imports, f"__init__.py imports at lines {imports}"


def test_verifier_imports_from_cube_core_only():
    """The structural checkers read orientations and traces only: they stay
    independent of the rules, the builders and the families."""
    tree = ast.parse((PACKAGE_DIR / "verifier.py").read_text(encoding="utf-8"))
    package = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
    assert package == {"cube_core"}


def test_every_module_is_in_the_order():
    modules = {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__"}
    assert modules == set(ORDER), f"not in ORDER: {sorted(modules - set(ORDER))}"


def test_imports_are_module_level_and_follow_the_order():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        nested = [n.lineno for n in imports if n not in tree.body]
        assert not nested, f"{path.name}: imports inside a block at lines {nested}"
        if path.stem in ORDER:
            rank = ORDER.index(path.stem)
            for n in imports:
                if isinstance(n, ast.ImportFrom) and n.level:
                    assert ORDER.index(n.module) < rank, (path.name, n.module)


def test_every_imported_name_is_used():
    """Every name a module imports is read in that module; pyflakes'
    unused-import check, by AST."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                    if isinstance(n, ast.Import)
                    or isinstance(n, ast.ImportFrom) and n.module != "__future__"
                    for a in n.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        assert imported <= read, f"{path.name} imports unused {sorted(imported - read)}"


def test_no_module_imports_a_private_name_of_another():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private = [(n.module, a.name) for n in ast.walk(tree)
                   if isinstance(n, ast.ImportFrom) and n.level
                   for a in n.names if a.name.startswith("_")]
        assert not private, f"{path.name} imports private names {private}"


def test_no_module_branches_on_a_family_name():
    """Family facts live in frame_store.FAMILY, one record per family: no
    module compares with a family name, or with a collection that holds
    one, nor keys a dict literal by one."""
    def names_a_family(node):
        return any(isinstance(n, ast.Constant) and n.value in FAMILY_NAMES
                   for n in ast.walk(node))

    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [n.lineno for n in ast.walk(tree)
                 if isinstance(n, ast.Compare)
                 and any(map(names_a_family, [n.left, *n.comparators]))
                 or isinstance(n, ast.Dict)
                 and any(names_a_family(k) for k in n.keys if k is not None)]
        assert not found, f"{path.name}: family names at lines {found}"


def test_no_module_names_a_direction():
    """No module defines, imports, reads or calls the per-direction form:
    no name, attribute, import or definition in DIRECTION_NAMES."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [getattr(n, "lineno", None) for n in ast.walk(tree)
                 if (n.id if isinstance(n, ast.Name)
                     else n.attr if isinstance(n, ast.Attribute)
                     else n.name if isinstance(n, (ast.alias, ast.FunctionDef, ast.ClassDef))
                     else None) in DIRECTION_NAMES]
        assert not found, f"{path.name} names a Direction at lines {found}"
