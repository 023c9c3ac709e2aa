"""Source hygiene: no module-level import in ``src/repro`` goes unused.

An import counts as used when its module reads the bound name, lists it
in ``__all__``, marks the line as a re-export (``# noqa: F401``), or when
another ``src/`` module imports that name from it.  Deleting the last
caller of a helper then also deletes the imports only it needed.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings it lists in ``__all__``."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def _unused_imports(root: Path) -> list[str]:
    """``path:line name`` of every unused module-level import under ``root``.

    A binding its own module never reads is still used when some module
    under ``root`` imports that name from it (``from module import name``).
    """
    unread = []
    imported_from = set()
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        relative = path.relative_to(root)
        module = ".".join(relative.with_suffix("").parts).removesuffix(".__init__")
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported_from |= {(node.module, alias.name) for alias in node.names}
        read = _read_names(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unread.append((relative.as_posix(), node.lineno, module, bound))
    return [
        f"{path}:{line} {name}"
        for path, line, module, name in unread
        if (module, name) not in imported_from
    ]


def test_every_module_level_import_in_src_is_used():
    unused = _unused_imports(SRC)
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_scan_flags_only_imports_nothing_reads(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from pkg.a import e\n\n__all__ = ['e']\n")
    (package / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import e, pi, tau\n"
        "from sys import argv  # noqa: F401\n\n"
        "def f():\n"
        "    return os.path\n"
    )
    (package / "b.py").write_text("from pkg.a import tau\n")
    assert _unused_imports(tmp_path) == ["pkg/a.py:3 pi", "pkg/b.py:1 tau"]
