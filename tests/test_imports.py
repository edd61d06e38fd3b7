"""Every import in the package sits at module level and is used there, every
private module-level function or class is referenced somewhere in it, no
module reads another module's private name, and every name that
``__init__.py`` re-exports is read by some other module.

No linter ships with the project, so this is the check for orphaned imports
and helpers.
``__init__.py`` (whose imports are re-exports) and ``from __future__`` are
exempt; names listed in a module's ``__all__`` count as used. No module has
an import cycle that a deferred import would have to break, so an import in
a function or class body is an error too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import extremenu

MODULES = sorted(p for p in Path(extremenu.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def nested_imports(source: str) -> list:
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return sorted(f"line {node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top)


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from fractions import Fraction as F\n"
        "from .geometry import dot, frac\n"
        "__all__ = ['frac']\n"
        "x = math.pi + dot((), ())\n"
    )
    assert unused_imports(source) == ["F (line 3)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_nested_import():
    source = (
        "import math\n"
        "def f():\n"
        "    from .model import render_linear\n"
        "    return render_linear\n"
        "class C:\n"
        "    import functools\n"
    )
    assert nested_imports(source) == ["line 3", "line 6"]


@pytest.mark.parametrize("path", sorted(MODULES + [Path(extremenu.__file__)]),
                         ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_defs(sources: dict) -> list:
    """Private (single underscore) module-level functions and classes whose
    name no other top-level statement of any module reads, as a Name or as an
    attribute; a helper that only calls itself counts as unreferenced."""
    statements = [(module, node) for module, source in sorted(sources.items())
                  for node in ast.parse(source).body]
    names = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute))} for _, node in statements]
    return sorted(f"{module}.{node.name}" for k, (module, node) in enumerate(statements)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and _private(node.name)
                  and not any(node.name in seen for j, seen in enumerate(names) if j != k))


def test_checker_flags_an_unreferenced_private_def():
    sources = {
        "a": (
            "def _called():\n    return 1\n"
            "def _recursive(n):\n    return _recursive(n - 1)\n"
            "class _Orphan:\n    pass\n"
            "def public():\n    return _called()\n"
            "def __dunder__():\n    pass\n"
        ),
        "b": "from . import a\ndef _shared():\n    pass\nx = a._elsewhere\n",
        "c": "def _elsewhere():\n    pass\ny = _shared\n",
    }
    assert unreferenced_private_defs(sources) == ["a._Orphan", "a._recursive"]


def test_no_unreferenced_private_defs():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES + [Path(extremenu.__file__)]}
    assert unreferenced_private_defs(sources) == []


def foreign_private_reads(sources: dict) -> list:
    """Private (single underscore) names that a module reads from another
    package module, by ``from .m import _name`` or as ``m._name`` on a module
    ``m`` bound by ``from . import m``."""
    out = []
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        modules = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        out.append(f"{module}: {node.module}.{alias.name}")
        out += [f"{module}: {n.value.id}.{n.attr}" for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id in modules and _private(n.attr)]
    return sorted(out)


def test_checker_flags_a_foreign_private_read():
    sources = {
        "a": "def _own():\n    return 1\nx = _own()\n",
        "b": (
            "from . import a as alias\n"
            "from .a import _own, public\n"
            "class C:\n"
            "    def f(self):\n"
            "        return self._state, alias._own(), alias.__name__, alias.public\n"
        ),
    }
    assert foreign_private_reads(sources) == ["b: a._own", "b: alias._own"]


def test_no_foreign_private_reads():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES + [Path(extremenu.__file__)]}
    assert foreign_private_reads(sources) == []


def unreferenced_reexports(init_source: str, sources: dict) -> list:
    """Names that ``__init__.py`` imports from the package itself (its
    re-exports) and that no other module reads, as a Name or as an attribute:
    public API that the package does not use belongs to the caller or the
    tests."""
    exported = {alias.name for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    read = {n.id if isinstance(n, ast.Name) else n.attr for source in sources.values()
            for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.Name, ast.Attribute))}
    return sorted(exported - read)


def test_checker_flags_an_unreferenced_reexport():
    init = "from math import tau\nfrom .a import used, orphan\nfrom .b import Shape\n"
    sources = {
        "a": "def used():\n    return 1\ndef orphan():\n    pass\n",
        "b": "from . import a\nclass Shape:\n    pass\nx = a.used()\n",
        "c": "from .b import Shape\ny = Shape\n",
    }
    assert unreferenced_reexports(init, sources) == ["orphan"]


def test_no_unreferenced_reexports():
    init = Path(extremenu.__file__).read_text(encoding="utf-8")
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    assert unreferenced_reexports(init, sources) == []


def test_every_traced_name_resolves():
    # perfbench's tracer rebinds these functions by name; a deleted or
    # renamed one would break every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{fn}" for mod, fns in tracer.TRACED.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"extremenu.{mod}"), fn, None))]
    assert missing == []
