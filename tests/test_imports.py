"""The modules import in one dependency order, with no cycle to dodge."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import ausokit

PACKAGE_DIR = Path(ausokit.__file__).parent
# Each module imports only modules listed before it.
ORDER = ("cube_core", "combinators", "pivot_engine", "verifier", "frame_store",
         "constructions", "cli")
# Import one module first, with the package's __init__ (which imports them
# all in its own order) replaced by an empty package.
FIRST_IMPORT = """
import importlib, sys, types
package = types.ModuleType("ausokit")
package.__path__ = [sys.argv[1]]
sys.modules["ausokit"] = package
importlib.import_module("ausokit." + sys.argv[2])
"""


@pytest.mark.parametrize("module", ORDER)
def test_module_imports_first_in_fresh_interpreter(module):
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_IMPORT, str(PACKAGE_DIR), module],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
