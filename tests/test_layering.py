"""Each module of the package imports only modules below it."""

import ast
from pathlib import Path

import doubled_algebroids

PACKAGE = Path(doubled_algebroids.__file__).parent
LAYERS = ("poly", "generic", "algebroid", "doubled", "axioms", "cli")


def _package_imports(module: str):
    """(imported module or None for the package itself, imported names) for
    every import of the package in ``module``, function-local ones included."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.module, [alias.name for alias in node.names]
            elif node.module.split(".")[0] == "doubled_algebroids":
                yield node.module.partition(".")[2] or None, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "doubled_algebroids":
                    yield alias.name.partition(".")[2] or None, []


def test_layers_cover_every_module():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS + ("__init__",))


def test_modules_import_only_lower_layers():
    for rank, module in enumerate(LAYERS):
        for target, names in _package_imports(module):
            if target is None:
                assert (module, names) == ("cli", ["__version__"]), f"{module} imports the package"
            else:
                assert LAYERS.index(target) < rank, f"{module} imports {target}"
