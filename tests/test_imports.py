"""No import in ``src/repro`` binds a name that nothing reads.

A name an import statement binds in a module counts as used when the
module reads it, lists it in ``__all__``, or another module (in ``src/``,
``tests/``, ``examples/`` or ``perfbench/``) imports it from there.  An
import line that carries ``# noqa`` is kept on purpose (a side-effect
import such as the bench case registry's ``from . import cases``).
"""

import ast
import pathlib
from typing import Dict, Iterator, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
IMPORTERS = ("src", "tests", "examples", "perfbench")


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _source_module(node: ast.ImportFrom, path: pathlib.Path) -> str:
    """The absolute module name a ``from ... import`` statement reads."""
    if not node.level:
        return node.module or ""
    if SRC not in path.parents:
        return ""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    base = package[:len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def _imported_from(paths) -> Set[Tuple[str, str]]:
    """``(module, name)`` for every ``from module import name`` anywhere."""
    pairs = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                module = _source_module(node, path)
                pairs.update((module, alias.name) for alias in node.names)
    return pairs


def _bound_names(tree: ast.Module, lines) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every name an import binds, ``# noqa`` lines
    and ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        text = "".join(lines[node.lineno - 1:node.end_lineno])
        if "# noqa" in text:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            yield bound, node.lineno


def _names(tree: ast.AST) -> Set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, quoted annotations included."""
    names = _names(tree)
    for node in ast.walk(tree):
        annotation = (node.returns if isinstance(node, ast.FunctionDef)
                      else getattr(node, "annotation", None))
        for quoted in ast.walk(annotation or ast.Pass()):
            if (isinstance(quoted, ast.Constant)
                    and isinstance(quoted.value, str)):
                names |= _names(ast.parse(quoted.value, mode="eval"))
    return names


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and target.id == "__all__"
                        for target in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports() -> Dict[str, list]:
    """``{module path: [(line, name), ...]}`` of every unread import."""
    sources = sorted((SRC / "repro").rglob("*.py"))
    everywhere = [path for folder in IMPORTERS
                  for path in sorted((ROOT / folder).rglob("*.py"))]
    imported = _imported_from(everywhere)
    found: Dict[str, list] = {}
    for path in sources:
        text = path.read_text()
        tree = ast.parse(text)
        read, exported = _read_names(tree), _exported(tree)
        module = _module_name(path)
        for name, line in _bound_names(tree, text.splitlines(True)):
            if (name in read or name in exported
                    or (module, name) in imported):
                continue
            found.setdefault(str(path.relative_to(ROOT)), []).append(
                (line, name))
    return found


def test_every_import_is_read():
    assert unused_imports() == {}


def test_scan_sees_an_unread_import():
    # The scan's own check: a bound name nothing reads is reported; a read
    # one, an exported one and one on a ``# noqa`` line are not.
    source = ("import os\nfrom typing import List, Set  # noqa\n"
              "from json import dumps, loads\n"
              "__all__ = ['loads']\nprint(os.sep)\n")
    tree = ast.parse(source)
    bound = _bound_names(tree, source.splitlines(True))
    assert [name for name, _ in bound
            if name not in _read_names(tree)
            and name not in _exported(tree)] == ["dumps"]
