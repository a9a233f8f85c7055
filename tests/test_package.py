"""The package namespace exports exactly names that exist."""

import lrpairs


def test_every_exported_name_resolves():
    missing = [name for name in lrpairs.__all__ if not hasattr(lrpairs, name)]
    assert missing == []
    assert len(set(lrpairs.__all__)) == len(lrpairs.__all__)


def test_star_import():
    namespace = {}
    exec("from lrpairs import *", namespace)
    assert set(lrpairs.__all__) <= set(namespace)
