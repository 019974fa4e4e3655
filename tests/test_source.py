"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import pytest

from halqa.retrieval import INDEX_FORMAT_VERSION

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "halqa"
each_module = pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                                      ids=lambda path: path.name)


def _private(name):
    return name.startswith("_") and not name.startswith("__")


@each_module
def test_no_unused_imports(path):
    # A name counts as used only when the module reads it, so a re-export
    # fails too: each name is imported from the module that defines it.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never reads: {unused}"


@each_module
def test_no_unused_private_names(path):
    # A module-level _name (function, class or constant) is private to its
    # module, so a helper left behind by a refactor is read nowhere in it.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                              ast.Name):
            targets = [node.target.id]
        else:
            continue
        defined.update((name, node.lineno) for name in targets
                       if _private(name))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in defined.items()
              if name not in read}
    assert not unused, f"{path.name} defines private names it never reads: {unused}"


@each_module
def test_no_private_imports(path):
    # Neither `from m import _x` nor `m._x` on an imported name: another
    # module's private names, the standard library's included, may change.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
                if isinstance(node, ast.ImportFrom) and _private(alias.name):
                    private.append((node.lineno, alias.name))
    private += [(node.lineno, f"{node.value.id}.{node.attr}")
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported]
    assert not private, f"{path.name} imports private names: {private}"


@each_module
def test_no_module_reads_every_paragraph(path):
    # Index.paragraphs makes a Paragraph for every position each time it is
    # read; it is for checks and tests, so the package itself never reads it.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "paragraphs"]
    assert not lines, f"{path.name} reads .paragraphs at lines {lines}"


@each_module
def test_no_forwarding_properties(path):
    # A property whose whole body is `return self.<field>.<attr>` only
    # forwards: its callers can read the field's attribute themselves.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    forwarding = [
        f"{cls.name}.{fn.name}"
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "property"
                for d in fn.decorator_list)
        and len(fn.body) == 1 and isinstance(ret := fn.body[0], ast.Return)
        and isinstance(ret.value, ast.Attribute)
        and isinstance(field := ret.value.value, ast.Attribute)
        and isinstance(field.value, ast.Name) and field.value.id == "self"]
    assert not forwarding, f"{path.name} has forwarding properties: {forwarding}"


def test_every_public_name_is_read_outside_tests():
    # A module-level function or class that only tests read is dead code
    # kept alive by its tests. A decorator other than @dataclass registers
    # what it decorates (the click commands), which counts as a use.
    perfbench = [p for p in (ROOT / "perfbench").rglob("*.py")
                 if "tests" not in p.relative_to(ROOT).parts]
    read = set()
    for path in [*SRC.glob("*.py"), *perfbench]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in read
              and all(ast.unparse(d).startswith("dataclass")
                      for d in node.decorator_list)]
    assert not unread, f"public names only tests read: {unread}"


def test_readme_states_the_snapshot_format_version():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"\(format version (\d+)\)", readme) == \
        [str(INDEX_FORMAT_VERSION)]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "text_core.py"],
                         ids=lambda path: path.name)
def test_only_text_core_reads_tokens(path):
    # The package works on plain words. Token, tokenize and remove_stopwords
    # stay in text_core.py only because perfbench/ imports them.
    names = {"Token", "tokenize", "remove_stopwords", "detect_negation"}
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [(node.lineno, node.id) for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in names]
    reads += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in names]
    assert not reads, f"{path.name} reads {reads}"
