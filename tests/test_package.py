import ast
import sys
from pathlib import Path

import freeconv

PACKAGE = Path(freeconv.__file__).parent


def test_runtime_imports_only_the_standard_library():
    """Every import under src/freeconv is relative, of the package itself,
    or of a standard-library module."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "freeconv" or top in sys.stdlib_module_names, \
                    (path.name, name)
