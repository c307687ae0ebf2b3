"""The public surface holds only what the package's callers use.

Every name that `holosim/__init__` imports needs a caller outside the
tests: a reference in another module of the package, outside the name's
own top-level definition, or a reference in `perfbench/`.  A reference
is an `ast.Name` load, or an `ast.Attribute` load whose base is the
holosim package or the module that defines the name (`hs.run`,
`holosim.machine.run`), so an unrelated attribute of the same name
(`ledger.step`) is none.  A name kept for users alone is listed in
USER_ONLY with its reason and documented in README.  References that
only tests need live in `tests/support.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "holosim"

USER_ONLY = {
    "decode_configuration_exact": (
        "decodes the configuration bytes that `run --emit-history` and the "
        "pointwise witness write; the hostile-input contract covers it"
    ),
    "decode_history_exact": (
        "decodes the history bytes that `run --emit-history` and the history "
        "witness write; the hostile-input contract covers it"
    ),
}


def _defining_modules() -> dict[str, str]:
    """Each exported name, with the dotted module that defines it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name: f"holosim.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _exports() -> list[str]:
    return list(_defining_modules())


def _modules_bound(tree: ast.Module, here: str) -> dict[str, str]:
    """The local names a file's imports bind, with the dotted names they
    stand for; here is the file's own package, for relative imports."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.partition(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join([here, *filter(None, [node.module])])
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
    return bound


def _dotted(node: ast.AST, bound: dict[str, str]) -> str | None:
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bound)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _loads(node: ast.AST, bound: dict[str, str], modules: dict[str, str]) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            if _dotted(sub.value, bound) in ("holosim", modules.get(sub.attr)):
                names.add(sub.attr)
    return names


def _defines(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _callers() -> dict[str, set[str]]:
    """For each referenced name, the files that reference it, leaving
    out the name's own top-level definition."""
    found: dict[str, set[str]] = {}
    modules = _defining_modules()
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        where = str(path.relative_to(ROOT))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = _modules_bound(tree, "holosim")
        for stmt in tree.body:
            own = _defines(stmt) if path.parent == PACKAGE else set()
            for name in _loads(stmt, bound, modules) - own:
                found.setdefault(name, set()).add(where)
    return found


def test_every_export_has_a_caller_outside_tests():
    callers = _callers()
    uncalled = [n for n in _exports() if n not in callers and n not in USER_ONLY]
    assert not uncalled, (
        f"exported with no caller outside tests: {uncalled}; "
        f"move test-only references to tests/support.py"
    )


def test_user_only_names_are_exported_documented_and_uncalled():
    exports = set(_exports())
    callers = _callers()
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in USER_ONLY:
        assert name in exports, f"{name} is not exported"
        assert f"`{name}`" in readme, f"README does not document {name}"
        assert name not in callers, f"{name} has callers {sorted(callers[name])}"
