"""The package's public names: every name in ``citenet.__all__`` is the
object its module defines, and star-import and ``dir`` see them all."""

import importlib

import citenet


def test_every_exported_name_resolves_once():
    assert len(set(citenet.__all__)) == len(citenet.__all__)
    missing = [name for name in citenet.__all__ if not hasattr(citenet, name)]
    assert missing == []


def test_every_exported_name_is_its_modules_object():
    wrong = [
        name
        for name in citenet.__all__
        if getattr(citenet, name)
        is not getattr(importlib.import_module(f"citenet.{citenet._MODULE_OF[name]}"), name)
    ]
    assert wrong == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from citenet import *", namespace)
    assert sorted(set(citenet.__all__) - set(namespace)) == []


def test_dir_lists_every_exported_name():
    assert sorted(set(citenet.__all__) - set(dir(citenet))) == []
