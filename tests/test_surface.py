"""Every name ``smaselect`` exports, and every public function, method or
property its modules define, has a reader in the product.

A name counts as read when the code of ``src/`` (other than the package's
``__init__.py``), ``bench/`` or ``scripts/`` (other than CI's checks,
``ci_checks.py``) names it as a variable or an attribute; its own ``def`` or ``class`` line does not count, nor does a
mention in a docstring or comment.  The few names no product path reads
are listed with the reason they stay.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "smaselect"
INIT = PACKAGE / "__init__.py"
CI_CHECKS = ROOT / "scripts" / "ci_checks.py"

UNREAD = {
    "norm_upper": "ROADMAP item 3: the bracket of the exact power-loss quantile search",
}

UNREAD_MEMBERS = UNREAD | {
    "single_traces": "the README names it; ROADMAP item 1a plans it as the bench's trace route",
}


def _exported() -> set[str]:
    tree = ast.parse(INIT.read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _members() -> dict[str, str]:
    """Public module-level functions and the methods and properties of
    module-level classes, qualified name to name."""
    members = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members[node.name] = node.name
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef):
                        members[f"{node.name}.{member.name}"] = member.name
    return {qualified: name for qualified, name in members.items() if not name.startswith("_")}


def _read() -> set[str]:
    names = set()
    for top in ("src", "bench", "scripts"):
        for path in (ROOT / top).rglob("*.py"):
            if path in (INIT, CI_CHECKS):
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


def test_every_member_is_read_or_listed():
    read = _read()
    unread = {qualified for qualified, name in _members().items() if name not in read}
    assert sorted(unread - UNREAD_MEMBERS.keys()) == []


def test_every_listed_member_exists_and_is_still_unread():
    members = _members()
    assert sorted(UNREAD_MEMBERS.keys() - members.keys()) == []
    assert sorted(q for q in UNREAD_MEMBERS if members[q] in _read()) == []
