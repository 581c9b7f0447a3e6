"""Every public name, every parameter default and every model field in the
package is used by a program path, not only by the tests; and the package
runs on the standard library alone.

A public top-level function or class of ``src/solbuglab/*.py``, or a public
method of such a class (dunders aside), must be named somewhere that is not
a test: in ``src/`` outside its own definition, in ``perfbench/`` or
``tools/``, or in README's "Library use" section before its list of
removed names. A name that only tests call is compiled by every command
and documented nowhere.

The check goes by name, as a whole word, not by what the name refers to. So
a common word such as ``match`` passes it whenever any program text says
``match``, even if no caller reaches that definition.
"""

import ast
import glob
import os
import re
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _public_definitions(tree):
    """(name, first line, last line) of each public top-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield item.name, item.lineno, item.end_lineno


def _library_use_section():
    """README's "Library use" up to its list of removed names, which names
    what is gone, not what a reader may call."""
    readme = _read(os.path.join(ROOT, "README.md"))
    start = readme.index("\n## Library use\n")
    section = readme[start:readme.find("\n## ", start + 1)]
    return section.split("\nNames removed", 1)[0]


def _words(text):
    return Counter(re.findall(r"\w+", text))


def test_every_public_name_has_a_reader_outside_the_tests():
    sources = {path: _read(path)
               for path in sorted(glob.glob(os.path.join(ROOT, "src", "solbuglab", "*.py")))}
    words = {path: _words(text) for path, text in sources.items()}
    elsewhere = _words(_library_use_section())
    for pattern in ("perfbench/*.py", "tools/*.py"):
        for path in glob.glob(os.path.join(ROOT, pattern)):
            elsewhere.update(_words(_read(path)))

    unread = []
    for path, text in sources.items():
        lines = text.splitlines()
        for name, first, last in _public_definitions(ast.parse(text)):
            own = _words("\n".join(lines[first - 1:last]))[name]
            if (words[path][name] > own or name in elsewhere
                    or any(name in w for other, w in words.items() if other != path)):
                continue
            unread.append("%s:%d %s" % (os.path.basename(path), first, name))
    assert unread == [], "only tests name: " + ", ".join(unread)


def _defaults(tree):
    """(callee name, line, the parameters a call fills by position, those
    with a default) of each def in ``tree``. An ``__init__`` is called by
    its class's name, and no position fills a method's ``self``."""
    owners = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        args, owner = node.args, owners.get(id(node))
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        name = node.name
        if owner is not None:
            positional = positional[1:]
            name = owner.name if name == "__init__" else name
        yield name, node.lineno, positional, defaulted


def _passes(call, positional, name):
    return (any(k.arg in (name, None) for k in call.keywords)  # None: **kwargs
            or any(isinstance(a, ast.Starred) for a in call.args)
            or name in positional[:len(call.args)])


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A parameter with a default that no program path passes has one value
    in use, its default, so it is a knob that only tests turn.

    The check goes by name. A call in ``src/``, ``perfbench/`` or ``tools/``
    matches a definition in ``src/solbuglab/*.py`` when it calls that name,
    as ``f(...)`` or ``x.f(...)``, or the class's name for an ``__init__``.
    It passes a parameter by keyword, by position, or through ``*`` or
    ``**``, which count as passing every parameter. A parameter forwarded
    from the caller's own parameter counts as passed, so in a chain of
    functions that hand one knob down, only the outermost end is flagged,
    and removing the knob there removes the whole chain.
    """
    trees = {path: ast.parse(_read(path))
             for pattern in ("src/solbuglab/*.py", "perfbench/*.py", "tools/*.py")
             for path in sorted(glob.glob(os.path.join(ROOT, pattern)))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                calls.setdefault(getattr(func, "id", None) or getattr(func, "attr", None),
                                 []).append(node)

    unpassed = []
    for path, tree in trees.items():
        if os.path.basename(os.path.dirname(path)) != "solbuglab":
            continue
        for callee, line, positional, defaulted in _defaults(tree):
            unpassed += ["%s:%d %s(%s)" % (os.path.basename(path), line, callee, name)
                         for name in defaulted
                         if not any(_passes(c, positional, name) for c in calls.get(callee, ()))]
    assert unpassed == [], "no program path passes: " + ", ".join(unpassed)


def _record_fields(tree):
    """(record, field, line) of each field of each ``NamedTuple`` class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "NamedTuple" for base in node.bases):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def test_every_model_field_is_read_outside_the_tests():
    """A field of a ``model.py`` record that no program path reads is
    computed on every parse for the tests alone.

    The check goes by name: some file of ``src/``, ``perfbench/`` or
    ``tools/`` must say ``.field``. So a field whose name another record
    shares, such as ``kind``, passes it when any program text reads that
    name.
    """
    program = "\n".join(_read(path)
                        for pattern in ("src/solbuglab/*.py", "perfbench/*.py", "tools/*.py")
                        for path in sorted(glob.glob(os.path.join(ROOT, pattern))))
    reads = set(re.findall(r"\.(\w+)", program))
    tree = ast.parse(_read(os.path.join(ROOT, "src", "solbuglab", "model.py")))
    unread = ["model.py:%d %s.%s" % (line, record, field)
              for record, field, line in _record_fields(tree) if field not in reads]
    assert unread == [], "no program path reads: " + ", ".join(unread)


def _enum_members(tree):
    """(enum, member, line) of each member of each ``Enum`` class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "Enum" for base in node.bases):
            for item in node.body:
                if isinstance(item, ast.Assign) and isinstance(item.targets[0], ast.Name):
                    yield node.name, item.targets[0].id, item.lineno


def test_every_model_enum_member_is_named_outside_the_parser():
    """A member of a ``model.py`` enum that only the parser names is a
    distinction the parser computes and no rule reads.

    Some file of ``src/`` other than ``model.py`` and ``parser.py``, or of
    ``perfbench/`` or ``tools/``, must say ``Enum.MEMBER``.
    """
    program = "\n".join(
        _read(path)
        for pattern in ("src/solbuglab/*.py", "perfbench/*.py", "tools/*.py")
        for path in sorted(glob.glob(os.path.join(ROOT, pattern)))
        if os.path.basename(path) not in ("model.py", "parser.py"))
    named = set(re.findall(r"\b(\w+\.\w+)\b", program))
    tree = ast.parse(_read(os.path.join(ROOT, "src", "solbuglab", "model.py")))
    unread = ["model.py:%d %s.%s" % (line, enum, member)
              for enum, member, line in _enum_members(tree)
              if "%s.%s" % (enum, member) not in named]
    assert unread == [], "only the parser names: " + ", ".join(unread)


def test_the_package_imports_the_standard_library_alone():
    """No module of ``src/solbuglab`` imports a third-party package, and
    ``pyproject.toml`` declares no runtime dependency and no extra but the
    test one."""
    foreign = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "solbuglab", "*.py"))):
        for node in ast.walk(ast.parse(_read(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += ["%s:%d %s" % (os.path.basename(path), node.lineno, root)
                        for root in roots
                        if root not in sys.stdlib_module_names and root != "solbuglab"]
    assert foreign == [], "imports outside the standard library: " + ", ".join(foreign)

    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert list(project["optional-dependencies"]) == ["test"]
