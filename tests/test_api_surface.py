"""The package keeps no public function, class or method that nothing
reaches.

A module-level function or class in src/sphmach counts as reached when
a name or attribute with its name occurs in src/sphmach outside the
definition itself.  A method or property counts as reached there only
through an attribute access (``.name``) outside itself: a variable or
parameter that happens to share its name reaches nothing.  Either kind
is also reached when a name, attribute or string constant with its name
occurs in the benchmark (perfbench/*.py) or in the acceptance criteria.
String constants count there because the benchmark's tracer names the
functions it wraps as strings.  A method that overrides a method of a
base class from outside the package (argparse's ``error``, say) counts
as reached, since that library calls it.

Every field is read and every defaulted parameter is passed.  A field
is a dataclass field or a ``self.<name> =`` attribute of a class in
src/sphmach; it is read by an attribute load ``.name`` (or a getattr
with that constant name) in src/, tests/ or perfbench/*.py.  A parameter
with a default, of a function, a method or a class's ``__init__``, is
passed when some call in src/, perfbench/*.py or the acceptance
criteria names the callee (``f(...)``, ``x.f(...)`` or the class name)
and gives that parameter by keyword or by position.  Dunder methods
other than ``__init__`` are exempt, since Python calls them itself.

Every subcommand of the sphmach parser is also named by a string
constant in tests/test_cli.py, so that each command runs there; every
option but --help is named, by one of its option strings, in a string
constant in tests/ or as a whitespace-separated token of one; and every
import in the package is at module level but one.
"""

import argparse
import ast
import importlib
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sphmach"
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
OUTSIDE = BENCH + [ROOT / "tests" / "test_acceptance.py"]


def _references(tree, strings=False, names=True) -> Counter:
    out = Counter()
    for node in ast.walk(tree):
        if names and isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _public_definitions(tree):
    """(qualified name, node, is a member) of every public module-level
    function or class and every public method or property."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub, True


def _overrides_outside(module, qual) -> bool:
    """Whether the method qual ("Class.method") of module overrides a
    method of a base class from outside the package."""
    cls_name, name = qual.split(".")
    cls = getattr(importlib.import_module(f"sphmach.{module}"), cls_name)
    return any(name in vars(base) for base in cls.__mro__[1:]
               if base.__module__.split(".")[0] != "sphmach")


def unreached():
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    inside = sum((_references(t) for t in trees.values()), Counter())
    inside_attrs = sum((_references(t, names=False) for t in trees.values()),
                       Counter())
    outside = set()
    for p in OUTSIDE:
        outside |= set(_references(ast.parse(p.read_text()), strings=True))
    out = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for qual, node, member in _public_definitions(tree):
            refs = inside_attrs if member else inside
            own = _references(node, names=not member)[node.name]
            if refs[node.name] - own <= 0 and node.name not in outside \
                    and not (member and _overrides_outside(path.stem, qual)):
                out.append(f"{path.stem}.{qual}")
    return out


def test_every_public_definition_is_reached():
    assert unreached() == []


def _fields(tree):
    """(class, field) of every dataclass field and self attribute."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        if any(_name_of(d.func if isinstance(d, ast.Call) else d)
               == "dataclass" for d in cls.decorator_list):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign):
                    yield cls.name, node.target.id
        for node in ast.walk(cls):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for t in targets:
                if isinstance(t, ast.Attribute) and \
                        isinstance(t.value, ast.Name) and t.value.id == "self":
                    yield cls.name, t.attr


def _name_of(func):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def unread_fields():
    reads = set()
    for p in sorted((ROOT / "src").rglob("*.py")) + \
            sorted((ROOT / "tests").glob("*.py")) + BENCH:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) \
                    and _name_of(node.func) == "getattr" \
                    and isinstance(node.args[1], ast.Constant):
                reads.add(node.args[1].value)
    return sorted({f"{path.stem}.{cls}.{name}"
                   for path in sorted(PACKAGE.glob("*.py"))
                   for cls, name in _fields(ast.parse(path.read_text()))
                   if name not in reads})


def _defaulted(tree):
    """(qualified name, callee name, parameter, position or None) of every
    parameter with a default; a method's position leaves out self."""
    def params(fn, qual, callee, skip):
        a = fn.args
        pos = a.args[skip:]
        first = len(pos) - len(a.defaults)
        for i, p in enumerate(pos[first:], first):
            yield qual, callee, p.arg, i
        for p, d in zip(a.kwonlyargs, a.kw_defaults):
            if d is not None:
                yield qual, callee, p.arg, None

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from params(node, node.name, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef) or (
                        sub.name.startswith("__") and sub.name != "__init__"):
                    continue
                callee = node.name if sub.name == "__init__" else sub.name
                yield from params(sub, f"{node.name}.{sub.name}", callee, 1)


def unpassed_parameters():
    passed = defaultdict(set)   # callee name -> keywords and positions given
    for p in sorted((ROOT / "src").rglob("*.py")) + OUTSIDE:
        for node in ast.walk(ast.parse(p.read_text())):
            if not isinstance(node, ast.Call) or _name_of(node.func) is None:
                continue
            got = passed[_name_of(node.func)]
            # *args counts as every position, **kwargs as every keyword
            got.update("*" if isinstance(arg, ast.Starred) else i
                       for i, arg in enumerate(node.args))
            got.update(k.arg or "**" for k in node.keywords)
    return [f"{path.stem}.{qual}({name})"
            for path in sorted(PACKAGE.glob("*.py"))
            for qual, callee, name, i in _defaulted(
                ast.parse(path.read_text()))
            if not {name, "**"} & passed[callee]
            and (i is None or not {i, "*"} & passed[callee])]


def test_every_field_is_read():
    assert unread_fields() == []


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters() == []


def _string_constants(path):
    return {node.value for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _subcommands():
    from sphmach import cli

    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices


def test_every_subcommand_is_named_in_the_cli_tests():
    named = _string_constants(ROOT / "tests" / "test_cli.py")
    assert sorted(set(_subcommands()[1]) - named) == []


def test_every_option_is_exercised_in_the_tests():
    named = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for text in _string_constants(path):
            named |= {text, *text.split()}
    parser, subcommands = _subcommands()
    missed = [f"{name} {'/'.join(a.option_strings)}".lstrip()
              for name, p in [("", parser), *subcommands.items()]
              for a in p._actions
              if a.option_strings and not isinstance(a, argparse._HelpAction)
              and not named & set(a.option_strings)]
    assert missed == []


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
