"""Every name `banglab` exports, and every public top-level function of
its modules, is used by the program or the benchmark.

A name counts as used when some module of `src/banglab` other than
`__init__.py`, or of `bench/`, reads it outside its own definition: as a
name, as an attribute, or as the string the traced benchmark looks it up
by.  A name that only its own tests reach is dead surface: a test oracle
belongs in `tests/_oracles.py`."""

import ast
from pathlib import Path

import banglab

ROOT = Path(__file__).resolve().parent.parent
MODULES = [p for p in (ROOT / "src" / "banglab").glob("*.py") if p.name != "__init__.py"]

# embed_ctx has no caller yet: the c-genericity suite (ROADMAP item 13)
# checks genericity through it, and EMBED_CTX_DIGEST pins it until then.
ALLOWED = {"embed_ctx"}


def _names_read(tree: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Names read under `tree`, skipping a definition's reads of itself."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {tree.name}
    found = set()
    if isinstance(tree, ast.Name) and isinstance(tree.ctx, ast.Load):
        found.add(tree.id)
    elif isinstance(tree, ast.Attribute) and isinstance(tree.ctx, ast.Load):
        found.add(tree.attr)
    elif isinstance(tree, ast.Constant) and isinstance(tree.value, str):
        found.add(tree.value)
    for child in ast.iter_child_nodes(tree):
        found |= _names_read(child, inside)
    return found - inside


def _used() -> set[str]:
    used = set()
    for path in [*MODULES, *(ROOT / "bench").glob("*.py")]:
        used |= _names_read(ast.parse(path.read_text()))
    return used


def test_every_export_is_used_outside_its_tests():
    assert sorted(set(banglab.__all__) - _used() - ALLOWED) == []


def test_every_public_function_is_used_outside_its_tests():
    functions = {node.name for path in MODULES for node in ast.parse(path.read_text()).body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert sorted(functions - _used() - ALLOWED) == []
