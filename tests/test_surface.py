"""Every name ``smaselect`` exports has a reader in the product.

A name counts as read when the code of ``src/`` (other than the package's
``__init__.py``), ``bench/`` or ``scripts/`` names it as a variable or an
attribute; its own ``def`` or ``class`` line does not count, nor does a
mention in a docstring or comment.  The few exports no product path reads
are listed with the reason they stay.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "smaselect" / "__init__.py"

UNREAD = {
    "norm_upper": "ROADMAP item 3: the bracket of the exact power-loss quantile search",
}


def _exported() -> set[str]:
    tree = ast.parse(INIT.read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _read() -> set[str]:
    names = set()
    for top in ("src", "bench", "scripts"):
        for path in (ROOT / top).rglob("*.py"):
            if path == INIT:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_export_is_read_or_listed():
    assert sorted(_exported() - _read() - UNREAD.keys()) == []


def test_every_listed_export_exists_and_is_still_unread():
    assert sorted(UNREAD.keys() - _exported()) == []
    assert sorted(UNREAD.keys() & _read()) == []
