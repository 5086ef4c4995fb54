"""The oracles stand apart from the code they judge."""

import ast
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


def test_the_package_exports_no_oracle():
    assert not [name for name in botimpact.__all__ if "oracle" in name]
    assert not [name for name in dir(botimpact) if "oracle" in name]
