"""Every module of the package uses each name it imports.

No linter ships with the project, so the check reads the modules' syntax
trees with the standard library.  ``__init__`` is left out: it imports
names only to re-export them.
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
