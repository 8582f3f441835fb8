"""Every module of the package uses each name it imports, every
module-level private name and UPPER_CASE constant is read somewhere in the
package, and the one chain rule of the package is the only map evaluation
inside a handle.

No linter ships with the project, so the checks read the modules' syntax
trees with the standard library.  ``__init__`` is left out of the import
check: it imports names only to re-export them.
"""

import ast
import pathlib

import pytest

import blaschke_lab

PACKAGE = pathlib.Path(blaschke_lab.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    # an attribute chain such as np.abs starts with the Name np
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_the_check_sees_an_unused_import():
    source = "import math\nimport cmath\nfrom .gallery import slit_g, slit_h\n" \
             "print(math.pi, slit_h)\n"
    assert unused_imports(source) == ["cmath", "slit_g"]


def test_the_package_has_modules_to_check():
    assert "maps.py" in MODULES and "verifier.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def nested_eval_many_calls(source: str) -> list:
    """The module-level function (or method) around each ``.eval_many`` call
    made inside a function nested in it, such as the ``fn`` of a handle."""
    tree = ast.parse(source)
    tops = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    tops += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    found = []
    for top in tops:
        nested = [node for node in ast.walk(top)
                  if node is not top and isinstance(node, (ast.FunctionDef, ast.Lambda))]
        calls = {call for fn in nested for call in ast.walk(fn)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                 and call.func.attr == "eval_many"}
        found += [top.name] * len(calls)
    return sorted(found)


def test_the_check_sees_an_evaluation_inside_a_handle():
    source = ("def outside(f, z):\n    return f.eval_many(z)\n"
              "def make(base):\n    def fn(z):\n        def deeper(u):\n"
              "            return base.eval_many(u)\n        return deeper(z)\n"
              "    return fn, lambda z: base.eval_many(z)\n"
              "class H:\n    def method(self):\n        return lambda z: self.eval_many(z)\n")
    assert nested_eval_many_calls(source) == ["make", "make", "method"]


def test_the_only_evaluation_inside_a_handle_is_the_chain_rule():
    calls = [f"{module}:{name}" for module in MODULES
             for name in nested_eval_many_calls((PACKAGE / module).read_text())]
    assert calls == ["maps.py:compose_handles"]


def unread_private_names(sources: dict) -> list:
    """``module:name`` for each module-level ``_name`` (dunders aside) or
    UPPER_CASE constant that no module of ``sources`` ({module: source})
    reads, imports or takes as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            unread += [f"{module}:{name}" for name in bound
                       if (name.startswith("_") and not name.startswith("__")
                           or name.isupper()) and name not in read]
    return sorted(unread)


def test_the_check_sees_an_unread_private_name():
    sources = {"a.py": "_used = 1\n_idle, _x = 2, 3\ndef _helper(): return _x\n",
               "b.py": "from .a import _used\nimport a\nprint(_used, a._helper)\n"}
    assert unread_private_names(sources) == ["a.py:_idle"]


def test_the_check_sees_an_unread_constant():
    sources = {"a.py": "STEP = 1\nDIP_RATIO, RATE_2 = 2, 3\nLimit = 4\n"
                       "def f(x): return x * STEP\n",
               "b.py": "from .a import f\nimport a\nprint(f(a.RATE_2))\n"}
    assert unread_private_names(sources) == ["a.py:DIP_RATIO"]


def test_every_module_level_private_name_is_read_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
