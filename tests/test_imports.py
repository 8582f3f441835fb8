"""Every module of the package uses each name it imports, every
module-level private name and UPPER_CASE constant is read somewhere in the
package, the one chain rule of the package is the only map evaluation
inside a handle, only the CLI reads a clock, one function iterates
Aberth sweeps, with no ``np.polyval`` anywhere, only the polynomial layer
calls ``_convolve``, one function walks the radii of a valence scan, one
function works out its jitter ladders, one function writes a failing
suite case, with no suite case numbered by a literal and none built
outside it, and the derivative stage of theorem 3.1 reads no structure of
its candidate and runs no census and no grid.

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


def imports_time(source: str) -> bool:
    """Whether a module imports ``time`` or a name from it."""
    return any(isinstance(node, ast.Import) and any(alias.name == "time" for alias in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "time" and not node.level
               for node in ast.walk(ast.parse(source)))


def test_the_check_sees_a_clock_import():
    sources = ["import time\n", "import os, time as clock\n", "from time import perf_counter\n",
               "import timeit\nfrom . import time\nfrom .time import now\n"]
    assert [imports_time(source) for source in sources] == [True, True, True, False]


def test_only_the_cli_reads_a_clock():
    # suites are pure: equal inputs give equal reports, so none carries a time
    clocked = [module for module in MODULES if imports_time((PACKAGE / module).read_text())]
    assert set(clocked) <= {"cli.py"}


def top_functions(tree) -> list:
    """The module-level functions and the methods of module-level classes."""
    tops = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    return tops + [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for node in cls.body if isinstance(node, ast.FunctionDef)]


def nested_eval_many_calls(source: str) -> list:
    """The module-level function (or method) around each ``.eval_many`` call
    made inside a function nested in it, such as the ``fn`` of a handle."""
    found = []
    for top in top_functions(ast.parse(source)):
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


def reads(node, name: str) -> bool:
    """Whether the expression or statement ``node`` reads ``name``, bare or
    as an attribute, or imports it."""
    return any(isinstance(sub, ast.Name) and sub.id == name
               or isinstance(sub, ast.Attribute) and sub.attr == name
               or isinstance(sub, ast.alias) and sub.name.split(".")[-1] == name
               for sub in ast.walk(node))


def sweep_loops(source: str) -> list:
    """The function (or method) around each loop whose iterable or condition
    reads ``ABERTH_MAX_ITER``: a loop of Aberth sweeps."""
    return sorted(top.name for top in top_functions(ast.parse(source))
                  for loop in ast.walk(top)
                  if isinstance(loop, ast.For) and reads(loop.iter, "ABERTH_MAX_ITER")
                  or isinstance(loop, ast.While) and reads(loop.test, "ABERTH_MAX_ITER"))


def test_the_checks_see_a_sweep_loop_and_polyval():
    source = ("from .numerics import ABERTH_MAX_ITER as CAP\nimport numpy as np\n"
              "def solve(p):\n    for _ in range(numerics.ABERTH_MAX_ITER):\n        pass\n"
              "class S:\n    def run(self, it=0):\n        while it < ABERTH_MAX_ITER:\n"
              "            it += 1\n        return np.polyval([1], 0), range(CAP)\n")
    assert sweep_loops(source) == ["run", "solve"]
    assert reads(ast.parse(source), "polyval")
    assert not reads(ast.parse("from numpy import polyfit\n"), "polyval")


def test_one_function_iterates_aberth_sweeps_and_none_calls_polyval():
    # one root-solver path: single solves and compose stacks share it
    loops = [f"{module}:{name}" for module in MODULES
             for name in sweep_loops((PACKAGE / module).read_text())]
    assert loops == ["numerics.py:_aberth_sweeps"]
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if reads(ast.parse(path.read_text()), "polyval")] == []


def callers(source: str, name: str) -> list:
    """The function (or method) around each call of ``name``, bare or as an
    attribute."""
    return sorted(top.name for top in top_functions(ast.parse(source))
                  for call in ast.walk(top) if isinstance(call, ast.Call)
                  and (isinstance(call.func, ast.Name) and call.func.id == name
                       or isinstance(call.func, ast.Attribute) and call.func.attr == name))


def test_the_check_sees_a_call():
    source = ("from .numerics import _convolve\n"
              "def pair(b):\n    return _convolve((1,), numerics._convolve((1,), (2,)))\n"
              "class P:\n    def mul(self, q):\n        return _convolve(self.c, q.c)\n"
              "def fine(b):\n    return _convolve, convolve((1,), (2,))\n")
    assert callers(source, "_convolve") == ["mul", "pair", "pair"]


def test_only_the_polynomial_layer_convolves():
    # one place expands a polynomial from its factors: poly_from_roots
    modules = {module for module in MODULES
               if callers((PACKAGE / module).read_text(), "_convolve")}
    assert modules == {"numerics.py"}


def stop_rule_loops(source: str) -> list:
    """The function (or method) around each loop that reads both
    ``STOP_RUN`` and ``STOP_MIN_RADIUS``: a walk over the radii of a
    valence scan that applies its stop rule."""
    return sorted(top.name for top in top_functions(ast.parse(source))
                  for loop in ast.walk(top) if isinstance(loop, (ast.For, ast.While))
                  and reads(loop, "STOP_RUN") and reads(loop, "STOP_MIN_RADIUS"))


def test_the_check_sees_a_stop_rule_loop():
    source = ("def walk(radii, used):\n    for r in radii:\n"
              "        if len(used) >= STOP_RUN and r >= valence.STOP_MIN_RADIUS:\n"
              "            break\n"
              "def first(radii):\n"
              "    return next(i + STOP_RUN for i, r in enumerate(radii) if r >= STOP_MIN_RADIUS)\n"
              "class S:\n    def run(self, counts):\n        while len(counts) < STOP_RUN:\n"
              "            counts.append(0)\n        return counts\n")
    assert stop_rule_loops(source) == ["walk"]


def test_one_function_walks_the_radii_of_a_valence_scan():
    # one scan path: valence_at and the verifier scans share _valences
    loops = [f"{module}:{name}" for module in MODULES
             for name in stop_rule_loops((PACKAGE / module).read_text())]
    assert loops == ["valence.py:_report"]


def jitter_readers(source: str) -> list:
    """The function (or method) around each read of ``PERTURB_BASE`` or
    ``PERTURB_STEPS``, once for each of the two that it reads."""
    return sorted(top.name for top in top_functions(ast.parse(source))
                  for name in ("PERTURB_BASE", "PERTURB_STEPS") if reads(top, name))


def test_the_check_sees_a_jitter_constant():
    source = ("def ladder(rs):\n"
              "    return [r + k * PERTURB_BASE for k in valence.PERTURB_STEPS for r in rs]\n"
              "def delta(r):\n    return PERTURB_BASE * (1 - r)\n"
              "class S:\n    def steps(self):\n        from .valence import PERTURB_STEPS\n"
              "        return len(PERTURB_STEPS)\n"
              "def fine(r):\n    return r * PERTURB\n")
    assert jitter_readers(source) == ["delta", "ladder", "ladder", "steps"]


def test_one_function_works_out_the_jitter_ladders():
    # one jitter rule: each rung worked out from its own radius
    assert jitter_readers((PACKAGE / "valence.py").read_text()) == ["_ladders", "_ladders"]


def error_writers(source: str) -> list:
    """The function (or method) around each write of an ``"error"`` field: a
    dict display or a keyword argument with that key, or a store into it."""
    def is_error(node):
        return isinstance(node, ast.Constant) and node.value == "error"
    return sorted(top.name for top in top_functions(ast.parse(source))
                  for node in ast.walk(top)
                  if isinstance(node, ast.Dict) and any(map(is_error, node.keys))
                  or isinstance(node, ast.keyword) and node.arg == "error"
                  or isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                  and is_error(node.slice))


def literal_case_numbers(source: str) -> list:
    """The literal value of each ``"case"`` key of a dict display."""
    return [value.value for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Dict)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and key.value == "case"
            and isinstance(value, ast.Constant)]


def case_writers(source: str) -> list:
    """The function (or method) around each write to a list named ``cases``
    (an append, extend or insert call, or an augmented assignment) and
    around each ``"case"`` key of a dict display or a keyword argument."""
    def is_cases(node):
        return isinstance(node, ast.Name) and node.id == "cases"
    return sorted(top.name for top in top_functions(ast.parse(source))
                  for node in ast.walk(top)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("append", "extend", "insert") and is_cases(node.func.value)
                  or isinstance(node, ast.AugAssign) and is_cases(node.target)
                  or isinstance(node, ast.Dict)
                  and any(isinstance(key, ast.Constant) and key.value == "case"
                          for key in node.keys)
                  or isinstance(node, ast.keyword) and node.arg == "case")


def test_the_checks_see_an_error_field_and_a_literal_case_number():
    source = ("def run(cases):\n    try:\n        pass\n    except E as err:\n"
              "        cases.append({'case': 0, 'ok': False, 'error': str(err)})\n"
              "def patch(record):\n    record['error'] = 'x'\n    record.update(error='y')\n"
              "def fine(cases, record):\n    cases.append({'case': len(cases), 'errors': 0})\n"
              "    return record['error']\n"
              "def more(cases, rows):\n    cases += rows\n    cases.extend(rows)\n"
              "    rows.append({'kind': 'x'})\n    return dict(case=1), {'cases': 2}\n")
    assert error_writers(source) == ["patch", "patch", "run"]
    assert literal_case_numbers(source) == [0]
    assert case_writers(source) == ["fine", "fine", "more", "more", "more", "run", "run"]


def test_one_function_writes_a_failing_case_and_no_suite_numbers_one():
    # one case runner: it numbers each case and turns an error into a record
    writers = [f"{module}:{name}" for module in MODULES
               for name in error_writers((PACKAGE / module).read_text())]
    assert writers == ["verifier.py:_case"]
    assert literal_case_numbers((PACKAGE / "verifier.py").read_text()) == []
    # and it is the one function that adds a case to a suite or writes a case number
    assert case_writers((PACKAGE / "verifier.py").read_text()) == ["_case", "_case"]


# a handle's structure, the critical-point census and the |f'| grid
FORKS = ("blaschke", "blaschke_critical_points", "_derivative_floor", "derivative_grid",
         "min_abs_derivative", "DERIVATIVE_GRID_RADIUS", "DERIVATIVE_GRID_RADII",
         "DERIVATIVE_GRID_ANGLES")


def fork_reads(source: str, function: str) -> list | None:
    """The names of FORKS that the module-level function (or method)
    ``function`` reads, or None when there is no such function."""
    tops = [top for top in top_functions(ast.parse(source)) if top.name == function]
    return sorted(name for top in tops for name in FORKS if reads(top, name)) if tops else None


def test_the_check_sees_a_structure_fork_a_census_and_a_grid():
    source = ("def check(c):\n    b = c.blaschke\n"
              "    return blaschke_critical_points(b), verifier.min_abs_derivative(c)\n"
              "def other(c):\n    return derivative_grid(), _derivative_floor(c, 0)\n")
    assert fork_reads(source, "check") == ["blaschke", "blaschke_critical_points",
                                           "min_abs_derivative"]
    assert fork_reads(source, "other") == ["_derivative_floor", "derivative_grid"]
    assert fork_reads(source, "missing") is None


def test_theorem_3_1_has_one_derivative_rule():
    # every candidate's critical points are counted by the winding of f'
    assert fork_reads((PACKAGE / "verifier.py").read_text(), "check_theorem_3_1") == []


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
