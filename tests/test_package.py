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


def _imported(module, anywhere):
    """The freeconv modules ``module`` imports from: at module level, or
    ``anywhere`` in it, function bodies included."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    nodes = ast.walk(tree) if anywhere else tree.body
    return {node.module for node in nodes
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_the_operator_modules_hold_no_verification():
    """``catalog`` holds both verify catalogs and their runner: the word
    layer imports nothing from the single-variable operators or the
    catalog, ``evolution`` nothing from the catalog at module level, and
    neither holds a name ``catalog`` defines.  Each serves one catalog name
    on first use, which the benchmark reads from it."""
    from freeconv import catalog, evolution, multivariate

    assert not _imported("multivariate", True) & {"evolution", "convolutions"}
    assert "catalog" not in _imported("multivariate", False)
    assert "catalog" not in _imported("evolution", False)
    tree = ast.parse(Path(catalog.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets}
    objects = {id(getattr(catalog, name)) for name in defined}
    for module in (evolution, multivariate):
        held = {name for name, obj in vars(module).items()
                if name in defined or id(obj) in objects}
        assert not held, (module.__name__, held)
    from freeconv.evolution import CATALOG
    assert CATALOG is catalog.CATALOG
    assert multivariate.NC_CATALOG is catalog.NC_CATALOG
    for module, name in ((evolution, "MIN_ORDER"), (evolution, "verify"),
                         (multivariate, "NC_MIN_ORDER"),
                         (multivariate, "nc_verify")):
        assert not hasattr(module, name), name
