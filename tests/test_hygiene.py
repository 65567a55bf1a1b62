"""No dead code: every name the package defines is used somewhere.

A name counts as used when it occurs as a whole word at least twice in
the Python sources of src/, tests/ and perfbench/: its definition plus
one use.  Mentions in docstrings and comments count as uses, which keeps
the check lenient; it catches names that nothing refers to at all.
"""

import ast
import pathlib
import re

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
