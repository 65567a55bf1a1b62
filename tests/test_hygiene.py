"""Package hygiene: no dead code, and the import contract.

No dead code: every name the package defines is used somewhere.  A name
counts as used when it occurs as a whole word at least twice in the
Python sources of src/, tests/ and perfbench/: its definition plus one
use.  Mentions in docstrings and comments count as uses, which keeps the
check lenient; it catches names that nothing refers to at all.

No unused imports: every name an import binds in a module of src/ or
tests/ is read somewhere in that module's code.

The import contract: importing any hypfield module loads numpy and no
scipy module; each scipy module loads in the function that uses it.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hypfield"
SEARCHED = ("src", "tests", "perfbench")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _defined_names(tree):
    """(qualified name, bare name) of the module-level functions, classes
    and assignments, and of the non-dunder methods and properties."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def test_every_package_name_is_used():
    corpus = "\n".join(
        path.read_text(encoding="utf-8")
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    )
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for qualified, bare in _defined_names(tree):
            if _is_dunder(bare):
                continue
            if len(re.findall(rf"\b{re.escape(bare)}\b", corpus)) < 2:
                unused.append(f"{path.stem}.{qualified}")
    assert unused == []


def _unused_imports(tree):
    """Names bound by the imports of a module that its code never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    unused = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            rel = path.relative_to(ROOT)
            unused.extend(f"{rel}:{line} {name}" for line, name in _unused_imports(tree))
    assert unused == []


_IMPORT_PROBE = textwrap.dedent("""
    import importlib, pkgutil, sys
    import hypfield

    def loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    for info in pkgutil.iter_modules(hypfield.__path__):
        importlib.import_module("hypfield." + info.name)
    print(loaded())
    from hypfield import greens
    greens.ModelParams(2.0)
    print(loaded())
""")


def test_importing_hypfield_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded already
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert ast.literal_eval(out[0]) == []
    # a d = 2 model loads digamma's scipy.special, and nothing heavier
    after_model = ast.literal_eval(out[1])
    for heavy in ("scipy.integrate", "scipy.interpolate", "scipy.optimize"):
        assert heavy not in after_model
