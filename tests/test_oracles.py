"""The oracles stand apart from the code they judge, and the package root
binds only its submodules."""

import ast
import types
from pathlib import Path

import botimpact

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_nothing_from_botimpact():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not any(
        name.startswith(".") or name.split(".")[0] == "botimpact" for name in imported
    ), sorted(imported)


def test_the_package_root_binds_only_submodules():
    # one import path per name, so no oracle either, and the ghic module is not
    # shadowed by its function
    import botimpact.ghic as ghic_module

    assert isinstance(ghic_module, types.ModuleType)
    module_dunders = {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                      "__name__", "__package__", "__path__", "__spec__"}
    odd = sorted(name for name, value in vars(botimpact).items()
                 if name not in module_dunders and not (
                     isinstance(value, types.ModuleType)
                     and value.__name__ == f"botimpact.{name}"))
    assert not odd, odd
