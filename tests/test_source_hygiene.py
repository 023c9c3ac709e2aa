"""Source hygiene: ``src/repro`` carries no import and no public code that nothing uses.

An import counts as used when its module reads the bound name, lists it
in ``__all__``, marks the line as a re-export (``# noqa: F401``), or when
another ``src/`` module imports that name from it.  Deleting the last
caller of a helper then also deletes the imports only it needed.

A public module-level function or public method counts as reached when
some module of ``src/``, ``benchmarks/`` or ``examples/`` reads its name,
a package ``__all__`` lists it, or README names it in code outside its
removal notes.  Code only tests call belongs in a ``tests/*_reference.py``
oracle; :data:`KEPT` lists the exceptions, each with its reason.
``src/repro/testing/`` is exempt: it exists so tests can inject faults.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Public names nothing reaches that stay in ``src/`` anyway.
KEPT = {
    "WriteAheadLog.sync": "durability: forces an fsync whatever the log's policy",
    "GenerationStore.manifest_generation": "durability: the generation recovery would load",
    "coordinator_collector": "exports the repro_shard_* metric families README's table lists",
    "ShardCoordinator.breaker_states": "coordinator_collector's breaker gauge (read by getattr)",
    "GNNServer.snapshot_path": "the file a live server answers from after hot swaps",
}


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


def _readme_names(readme: str) -> set[str]:
    """Identifiers in README's inline code and python/bash blocks, minus its removal notes."""
    text = re.sub(r"^\d+\.\d+ removed\s.*?(?:\n\s*\n|\Z)", "", readme, flags=re.S | re.M)
    code = re.findall(r"```(?:python|bash)\n(.*?)```", text, flags=re.S)
    code += re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for span in code for name in re.findall(r"\w+", span)}


def _is_public_def(node: ast.stmt) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")


def _public_definitions(path: Path) -> list[tuple[int, str, str]]:
    """``(line, qualified name, name)`` of each public function and public method of a public class."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found += [
                (item.lineno, f"{node.name}.{item.name}", item.name)
                for item in node.body
                if _is_public_def(item)
            ]
        elif _is_public_def(node):
            found.append((node.lineno, node.name, node.name))
    return found


def _annotation_names(node) -> set[str]:
    """The identifiers an annotation mentions, string annotations included."""
    if node is None:
        return set()
    names = set()
    for part in ast.walk(node):
        if isinstance(part, ast.Name):
            names.add(part.id)
        elif isinstance(part, ast.Attribute):
            names.add(part.attr)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            names |= set(re.findall(r"\w+", part.value))
    return names


class _Classes:
    """Every class of ``src/``: its bases, and the classes each name's annotations give.

    ``gives[name]`` holds the classes named by the return annotation of a
    function, method or property called ``name``, or by the annotation of
    a class field or a parameter called ``name`` — what reading ``name``
    hands a caller.
    """

    def __init__(self, src: Path):
        self.bases: dict[str, set[str]] = {}
        self.gives: dict[str, set[str]] = {}
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    self.bases.setdefault(node.name, set()).update(
                        base.id for base in node.bases if isinstance(base, ast.Name)
                    )
                    for item in node.body:
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            self._give(item.target.id, item.annotation)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._give(node.name, node.returns)
                    for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                        self._give(arg.arg, arg.annotation)

    def _give(self, name: str, annotation) -> None:
        self.gives.setdefault(name, set()).update(_annotation_names(annotation))

    def family(self, names) -> set[str]:
        """``names``' classes with all their base classes and subclasses."""
        found = {name for name in names if name in self.bases}
        while True:
            grown = set(found)
            for name, bases in self.bases.items():
                grown |= bases & self.bases.keys() if name in found else set()
                if bases & found:
                    grown.add(name)
            if grown == found:
                return found
            found = grown

    def ancestry(self, name: str) -> set[str]:
        """``name`` and its base classes."""
        found, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current in self.bases and current not in found:
                found.add(current)
                todo += self.bases[current]
        return found


def _reached_methods(tree: ast.Module, classes: _Classes) -> set[tuple[str, str]]:
    """``(class, method)`` pairs a module's attribute reads reach.

    ``ClassName.m`` reaches the method of that class (or a base);
    ``self.m``/``cls.m`` the method of the enclosing class's family.  Any
    other ``obj.m`` reaches ``m`` of the classes the module can hold an
    instance of: those it names or defines, and those the annotations of
    the names it reads give it (``engine.execute(spec).neighbors`` gives
    a ``GroupNeighbor``).
    """
    read = _read_names(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    held = set(defined) | read
    for name in read:
        held |= classes.gives.get(name, set())
    held = classes.family(held)
    reached = set()

    def visit(node, enclosing):
        if isinstance(node, ast.ClassDef):
            enclosing = classes.family({node.name})
        if isinstance(node, ast.Attribute):
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in classes.bases:
                owners = classes.ancestry(receiver.id)
            elif isinstance(receiver, ast.Name) and receiver.id in ("self", "cls") and enclosing:
                owners = enclosing
            else:
                owners = held
            reached.update((owner, node.attr) for owner in owners)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, set())
    return reached


def _unreached(root: Path) -> list[str]:
    """``path:line name`` of every public function or method under ``root/src`` nothing reaches."""
    readme = _readme_names((root / "README.md").read_text())
    classes = _Classes(root / "src")
    names, methods = set(readme), set()
    for top in ("src", "benchmarks", "examples"):
        for path in (root / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            names |= _read_names(tree)
            names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            methods |= _reached_methods(tree, classes)
    unreached = []
    for path in sorted((root / "src").rglob("*.py")):
        relative = path.relative_to(root)
        if relative.parts[2] == "testing":
            continue
        for line, qualified, name in _public_definitions(path):
            owner = qualified.partition(".")[0] if "." in qualified else None
            if owner is None and name in names:
                continue
            if owner is not None and (name in readme or (owner, name) in methods):
                continue
            unreached.append(f"{relative.as_posix()}:{line} {qualified}")
    return unreached


def test_every_public_function_in_src_is_reached():
    unreached = _unreached(ROOT)
    flagged = [entry for entry in unreached if entry.split()[1] not in KEPT]
    assert not flagged, "reached only from tests (move to a tests/ oracle):\n" + "\n".join(flagged)
    stale = set(KEPT) - {entry.split()[1] for entry in unreached}
    assert not stale, f"KEPT lists names that are reached or gone: {sorted(stale)}"


def test_readme_names_come_from_its_code_outside_removal_notes():
    readme = (
        "Call `GNNEngine.execute(spec)` or\n`server.submit(\nspec)`; plain words do not count.\n\n"
        "```python\nengine.explain(spec)\n```\n\n"
        "```\ndiagram_box\n```\n\n"
        "4.0 removed `old_call`.\n\n"
        "12.0 removed\n`older_call` too.\n"
    )
    assert _readme_names(readme) == {
        "GNNEngine", "execute", "spec", "server", "submit", "engine", "explain"
    }


def test_reach_scan_flags_only_what_nothing_reaches(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "testing").mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.a import exported\n\n__all__ = ['exported']\n")
    (package / "a.py").write_text(
        "def exported(): pass\n"
        "def run(): return helper()\n"
        "def helper(): pass\n"
        "def in_readme(): pass\n"
        "def removed(): pass\n"
        "def _private(): pass\n"
        "class Box:\n"
        "    def area(self): pass\n"
        "    def orphan(self): pass\n"
        "    def _hidden(self): pass\n"
        "    def side(self): return self.edge()\n"
        "class Cube(Box):\n"
        "    def edge(self): pass\n"
        "class Disc:\n"
        "    def area(self): pass\n"
        "    def radius(self): pass\n"
        "def make() -> 'Box':\n"
        "    return Box()\n"
    )
    (package / "testing" / "faults.py").write_text("def inject(): pass\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "b.py").write_text(
        "from pkg.a import Disc, run\n\nrun()\nDisc.radius(None)\n"
    )
    (tmp_path / "examples").mkdir()
    # ``make`` hands out a Box, so its area is reached and Disc's same-named one is not.
    (tmp_path / "examples" / "e.py").write_text(
        "from pkg.a import make\n\ndef show():\n    return make().area() + make().side()\n"
    )
    (tmp_path / "README.md").write_text(
        "Call `in_readme()`; orphan is prose, not code.\n\n"
        "2.0 removed `removed` and\n`orphan`.\n\n"
        "```\nremoved orphan\n```\n"
    )
    assert _unreached(tmp_path) == [
        "src/pkg/a.py:5 removed",
        "src/pkg/a.py:9 Box.orphan",
        "src/pkg/a.py:15 Disc.area",
    ]
