"""The package's public names: ``__all__`` and the imports in
``citenet/__init__.py`` must agree, so that removing or adding a name
takes both edits."""

import ast
from pathlib import Path

import citenet


def test_every_exported_name_resolves_once():
    assert len(set(citenet.__all__)) == len(citenet.__all__)
    missing = [name for name in citenet.__all__ if not hasattr(citenet, name)]
    assert missing == []


def test_every_public_import_is_exported():
    tree = ast.parse(Path(citenet.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(citenet.__all__)) == []
