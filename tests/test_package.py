"""The package surface: ``import okbodies`` and every name it exports."""

import okbodies


def test_every_name_in_all_resolves():
    # a name in __all__ that the package no longer binds raises AttributeError
    exec("from okbodies import *", {})
    assert len(set(okbodies.__all__)) == len(okbodies.__all__)
