"""Every public name in the package has a reader besides the tests.

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
from collections import Counter

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
