import ast
import os
import subprocess
import sys
from pathlib import Path

import freeconv
from freeconv import cli

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


def test_python_dash_m_runs_the_cli(capsys):
    """``python -m freeconv`` exits as ``cli.run`` returns and prints the
    same standard output."""
    argv = ["verify", "counterexample-r"]
    code = cli.run(argv)
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "freeconv", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert code == 0
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
