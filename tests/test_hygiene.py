"""Package hygiene: no dead code, and the import contract.

No dead code: every name the package defines is used somewhere.  A name
counts as used when it occurs as a whole word at least twice in the
Python sources of src/, tests/ and perfbench/: its definition plus one
use.  Mentions in docstrings and comments count as uses, which keeps the
check lenient; it catches names that nothing refers to at all.

No unused imports: every name an import binds in a module of src/ or
tests/ is read somewhere in that module's code.

The import contract: importing any hypfield module loads numpy and no
scipy module; each scipy module loads in the function that uses it, and
the chain's paths load none.
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

# the chain's paths: the library's boundary and symmetry audits, then a
# small decay run at the cone_c the benchmark uses, through the CLI, which
# also writes the run's manifest without loading importlib.metadata
_CHAIN_PROBE = textwrap.dedent("""
    import dataclasses, math, os, sys, tempfile
    from hypfield import boundary as bd, cli, fieldmc as fm, greens, tessellation as ts
    from hypfield.geometry import Sector

    mp = greens.ModelParams(2.0)
    h = bd.BoundarySource.bump(math.pi / 6, math.pi / 3)
    bd.h_plus_forms(mp, h, 0.3, 0.5)
    tess = ts.generate(ts.TriangleParams(3, 4, 4), 7.5)
    bd.k_table(mp, h, 1.0, tess, [0, 1, 2])
    bd.sector_lower_bound_audit(mp, h, Sector(0.5, 0.6, 0.9), 20)
    greens.neumann_symmetry_audit(mp, greens.NeumannTruncation(tess, 4.0, tail_tol=1.0))
    cfg = dataclasses.replace(fm.TrivialityConfig(), cone_c=0.6, n_mc=2000)
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "run.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            for f in dataclasses.fields(cfg):
                fh.write(f"{'lambda' if f.name == 'lam' else f.name}={getattr(cfg, f.name)!r}\\n")
        assert cli.main(["triviality", "--config", path, "--out", out]) == 0
    # the manifest reads versions from the loaded modules, not from metadata
    assert "importlib.metadata" not in sys.modules and "email" not in sys.modules
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
""")


def _fresh_interpreter(script):
    """stdout lines of `script` run by a new interpreter on the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


def test_importing_hypfield_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded already
    out = _fresh_interpreter(_IMPORT_PROBE)
    assert ast.literal_eval(out[0]) == []
    # nor does building a model (its psi values are the package's own)
    assert ast.literal_eval(out[1]) == []


def test_the_chain_loads_no_scipy():
    assert ast.literal_eval(_fresh_interpreter(_CHAIN_PROBE)[-1]) == []
