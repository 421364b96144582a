"""The package keeps no public function, class or method that nothing
reaches.

A definition in src/sphmach counts as reached when a name or attribute
with its name occurs in src/sphmach outside the definition itself, or
when a name, attribute or string constant with its name occurs in the
benchmark (perfbench/*.py) or in the acceptance criteria.  String
constants count there because the benchmark's tracer names the
functions it wraps as strings.

Every subcommand of the sphmach parser is also named by a string
constant in tests/test_cli.py, so that each command runs there, and
every import in the package is at module level but one.
"""

import argparse
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sphmach"
OUTSIDE = sorted((ROOT / "perfbench").glob("*.py")) + \
    [ROOT / "tests" / "test_acceptance.py"]


def _references(tree, strings=False) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _public_definitions(tree):
    """(qualified name, node) of every public module-level function or
    class and every public method."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def unreached():
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    inside = sum((_references(t) for t in trees.values()), Counter())
    outside = set()
    for p in OUTSIDE:
        outside |= set(_references(ast.parse(p.read_text()), strings=True))
    out = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for qual, node in _public_definitions(tree):
            own = _references(node)[node.name]
            if inside[node.name] - own <= 0 and node.name not in outside:
                out.append(f"{path.stem}.{qual}")
    return out


def test_every_public_definition_is_reached():
    assert unreached() == []


def test_every_subcommand_is_named_in_the_cli_tests():
    from sphmach import cli

    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    named = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(set(sub.choices) - named) == []


def _local_imports(node, scope=()):
    """(definition, imported module) of every import inside a function
    or class, the definition named by its dotted scope."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for child in ast.iter_child_nodes(node):
        if isinstance(child, defs):
            yield from _local_imports(child, scope + (child.name,))
        elif isinstance(child, (ast.Import, ast.ImportFrom)) and scope:
            module = getattr(child, "module", None)
            for alias in child.names:
                yield ".".join(scope), module or alias.name
        else:
            yield from _local_imports(child, scope)


def test_imports_are_at_module_level():
    found = {(path.stem, *imp) for path in sorted(PACKAGE.glob("*.py"))
             for imp in _local_imports(ast.parse(path.read_text()))}
    # folding imports words, so Automorphism.inverse imports folding late
    assert found == {("words", "Automorphism.inverse", "folding")}
