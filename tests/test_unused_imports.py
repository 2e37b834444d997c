"""No module of the package imports a name it never reads.

No linter ships with the test dependencies, so this stdlib ``ast`` check
stands in for pyflakes' F401.  Three kinds of import are exempt: the
``__future__`` import, the names ``__init__`` re-exports through
``__all__``, and the hook-only imports marked ``# noqa: F401``, which
exist so that ``perfbench/spans.py`` can rebind them in traced runs.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qcbounds"

# The names kept bound only for perfbench/spans.py to hook.
HOOK_ONLY = {
    ("cli", "bound_report"),
    ("cli", "random_density"),
    ("cli", "random_hermitian"),
    ("search", "bound_report"),
}


def imported_names(tree, lines):
    """Yield ``(name, hook_only)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "\n".join(lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, "# noqa: F401" in text


def read_names(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(package):
    """Return the sorted ``(module, name)`` pairs imported and never read,
    and the set of those exempted as hook-only."""
    unused, hooks = [], set()
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        used = read_names(tree) | exported_names(tree)
        for name, hook_only in imported_names(tree, source.splitlines()):
            if hook_only:
                hooks.add((path.stem, name))
            elif name not in used:
                unused.append((path.stem, name))
    return sorted(unused), hooks


def test_every_imported_name_is_read():
    unused, hooks = unused_imports(PACKAGE)
    assert unused == []
    # The exemption covers the hook-only imports and nothing else.
    assert hooks == HOOK_ONLY


def test_check_flags_an_unused_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "from .x import hook  # noqa: F401\n"
        "\n"
        "@dataclass\n"
        "class C:\n"
        "    path: str = os.sep\n"
    )
    (tmp_path / "__init__.py").write_text(
        "from .mod import C\nfrom . import mod\n__all__ = ['C']\n"
    )
    unused, hooks = unused_imports(tmp_path)
    assert unused == [("__init__", "mod"), ("mod", "field")]
    assert hooks == {("mod", "hook")}
