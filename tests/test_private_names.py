"""Source guard: no orphaned private helper in `src/loopgr`.

A module-level private name (one leading underscore, not a dunder) is a
helper of the package.  When the code that used it goes, the helper should
go too, so every such name must be read somewhere in `src/` outside its own
definition: by another top-level statement of any module, or imported by
one.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loopgr"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(stmt) -> set:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def _read(stmt) -> set:
    """The names a top-level statement reads or imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_module_name_is_used():
    stmts = [
        (path.name, stmt)
        for path in sorted(PACKAGE.rglob("*.py"))
        for stmt in ast.parse(path.read_text(), str(path)).body
    ]
    orphans = []
    for module, stmt in stmts:
        for name in sorted(filter(_is_private, _defined(stmt))):
            if not any(name in _read(other) for _, other in stmts if other is not stmt):
                orphans.append(f"{module}: {name}")
    assert not orphans, orphans
