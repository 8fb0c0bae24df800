"""Source hygiene of the package, read with ``ast``: a deletion leaves no
unused import and no private helper that nothing refers to."""
import ast
import pathlib

import pytest

import zollab

SOURCES = sorted(pathlib.Path(zollab.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _references(node):
    """Names a statement reads: bare names and the attributes of attribute chains."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


# the package's __init__ imports its public names for its users, not for itself
@pytest.mark.parametrize("name", [name for name in TREES if name != "__init__.py"])
def test_no_unused_top_level_import(name):
    path = pathlib.Path(zollab.__file__).parent / name
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = TREES[name]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [
        alias.asname or alias.name.split(".")[0]
        for stmt in tree.body if isinstance(stmt, (ast.Import, ast.ImportFrom))
        and not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
        for alias in stmt.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
        and (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, f"{name} imports {unused} and does not use them"


def test_every_private_helper_is_referenced():
    # (module, statement) -> the names the statement reads
    statements = [(name, stmt, _references(stmt)) for name, tree in TREES.items()
                  for stmt in tree.body]
    dead = [f"{name}:{stmt.name}" for name, stmt, _ in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_") and not stmt.name.startswith("__")
            and not any(stmt.name in refs for other, s, refs in statements
                        if (other, s) != (name, stmt))]
    assert not dead, f"private definitions nothing refers to: {dead}"


def _unread_parameters(function):
    """The parameters of a function that its body never reads; names that
    start with ``_`` are exempt."""
    args = function.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
              + [a for a in (args.vararg, args.kwarg) if a is not None]]
    read = {n.id for stmt in function.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params if not p.startswith("_") and p not in read]


def test_every_private_function_reads_its_parameters():
    unread = [f"{name}:{stmt.name}({', '.join(params)})"
              for name, tree in TREES.items() for stmt in tree.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_")
              and not stmt.name.startswith("__")
              for params in [_unread_parameters(stmt)] if params]
    assert not unread, f"private functions with parameters they never read: {unread}"
