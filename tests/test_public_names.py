"""The package holds what runs: every public name has a caller outside
the tests.

A name counts as used when it appears as a whole word in ``src/``
(outside ``__init__.py`` and outside its own definition), in ``demos/``
or in ``perfbench/``.  A public method or property of an exported class
counts as used when it is read as an attribute, ``.name``, in those same
places; a method named like a common one (``items``) passes on any such
read.  Builders and references that only the tests use belong in
``tests/builders.py`` and ``tests/references.py``.
"""

import ast
import inspect
import re
from pathlib import Path

import mixedop
from mixedop import generators

ROOT = Path(__file__).resolve().parents[1]


def _public_names() -> set[str]:
    funcs = {
        name for name, value in vars(generators).items()
        if inspect.isfunction(value) and value.__module__ == generators.__name__ and not name.startswith("_")
    }
    return set(mixedop.__all__) | funcs


def _public_methods() -> list[tuple[str, str]]:
    """(class, name) for each public method and property that an exported
    class defines itself."""
    classes = [(name, getattr(mixedop, name)) for name in mixedop.__all__]
    return sorted(
        (name, attr) for name, cls in classes if inspect.isclass(cls)
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(value, property))
    )

def _definition_spans(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """The line span of each top-level def, class or assignment, by name."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        for name in names:
            spans[name] = (first, node.end_lineno)
    return spans


def _without_definition(text: str, spans: dict, name: str) -> str:
    if name not in spans:
        return text
    first, last = spans[name]
    lines = text.split("\n")
    return "\n".join(lines[: first - 1] + lines[last:])


def _texts():
    """The package modules but ``__init__.py``, and the demos and perfbench as one text."""
    texts = [p.read_text(encoding="utf-8") for p in (ROOT / "src" / "mixedop").glob("*.py") if p.name != "__init__.py"]
    outside = "\n".join(
        p.read_text(encoding="utf-8") for d in ("demos", "perfbench") for p in (ROOT / d).rglob("*.py")
    )
    return texts, outside


def _unreferenced(names: set[str]) -> list[str]:
    texts, outside = _texts()
    package = [(text, _definition_spans(ast.parse(text))) for text in texts]
    return [
        name for name in sorted(names)
        if not re.search(rf"\b{re.escape(name)}\b", outside)
        and not any(re.search(rf"\b{re.escape(name)}\b", _without_definition(text, spans, name))
                    for text, spans in package)
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    assert _unreferenced(_public_names()) == []


def test_every_public_method_has_a_caller_outside_the_tests():
    texts, outside = _texts()
    text = "\n".join(texts + [outside])
    assert [f"{cls}.{attr}" for cls, attr in _public_methods() if not re.search(rf"\.{attr}\b", text)] == []
