"""README's name tables against the package: what it exports, and what it no longer has."""

import re
from pathlib import Path

import prophecy

README = Path(__file__).resolve().parents[1] / "README.md"


def _table(heading):
    """The cells of each row of the first table under ``heading``, less its header rows."""
    lines = README.read_text(encoding="utf-8").split("\n")
    at = lines.index(heading)
    while not lines[at].startswith("|"):
        at += 1
    rows = []
    for line in lines[at + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _names(cell):
    return re.findall(r"`([^`]+)`", cell)


def test_exported_names_table_lists_exactly_the_package_exports():
    rows = _table("### Exported names")
    listed = [name for row in rows for name in _names(row[0])]
    assert sorted(listed) == sorted(prophecy.__all__)
    for row in rows:
        (name,), (module,) = _names(row[0]), _names(row[1])
        assert getattr(getattr(prophecy, module), name) is getattr(prophecy, name), row


def test_removed_names_are_gone():
    removed = [name for row in _table("### Removed public names") for name in _names(row[0])]
    assert "step" in removed and "core_lang.execution" in removed
    for path in removed:
        *head, last = path.split(".")
        owner = prophecy
        for part in head:  # what held the name is still there, so the row is not stale
            owner = getattr(owner, part)
        assert not hasattr(owner, last), path
