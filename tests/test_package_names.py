"""Every top-level function and class of the package is wired in: another
top-level statement of the package refers to it, or `assocrank.__all__`
exports it. Code that only tests reach belongs with the tests."""

import ast
from pathlib import Path

import assocrank

PACKAGE = Path(assocrank.__file__).parent


def referenced_names(node: ast.AST) -> set[str]:
    """Names that `node` reads, looks up as attributes, or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_top_level_definition_is_referenced_or_exported():
    statements = []  # (module, top-level statement) over the whole package
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        statements += [(path.stem, stmt) for stmt in tree.body]
    refs = [referenced_names(stmt) for _, stmt in statements]
    unused = [
        f"{module}.{stmt.name}"
        for i, (module, stmt) in enumerate(statements)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in assocrank.__all__
        and not any(stmt.name in names for j, names in enumerate(refs) if j != i)
    ]
    assert not unused, f"defined but never referenced in the package: {unused}"
