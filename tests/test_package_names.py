"""Every top-level function, class and constant of the package is wired in:
another top-level statement of the package refers to it, or
`assocrank.__all__` exports it. Code that only tests reach belongs with the
tests."""

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


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a function or class, or the names
    an assignment binds, less dunders such as `__all__` and `__version__`."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [
        sub.id
        for target in targets
        for sub in ast.walk(target)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
        and not (sub.id.startswith("__") and sub.id.endswith("__"))
    ]


def unused_definitions(sources: dict[str, str], exported) -> list[str]:
    """`module.name` of each top-level definition in `sources` (module name
    to source text) that no other top-level statement refers to and
    `exported` does not hold."""
    statements = []  # (module, top-level statement) over the whole package
    for module, text in sources.items():
        statements += [(module, stmt) for stmt in ast.parse(text).body]
    refs = [referenced_names(stmt) for _, stmt in statements]
    return [
        f"{module}.{name}"
        for i, (module, stmt) in enumerate(statements)
        for name in defined_names(stmt)
        if name not in exported
        and not any(name in names for j, names in enumerate(refs) if j != i)
    ]


def test_every_top_level_definition_is_referenced_or_exported():
    sources = {
        path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))
    }
    unused = unused_definitions(sources, assocrank.__all__)
    assert not unused, f"defined but never referenced in the package: {unused}"


def test_a_dangling_constant_is_caught():
    sources = {
        "training": (
            '__all__ = ["train"]\n'
            'STALE_MODES = ("a", "b")\n'
            "LIMIT: int = 3\n"
            "LOW, HIGH = 0, 1\n"
            "def train(x):\n"
            "    return min(x, LIMIT)\n"
        ),
        "other": "from training import HIGH\n",
    }
    assert unused_definitions(sources, ["train"]) == ["training.STALE_MODES", "training.LOW"]
