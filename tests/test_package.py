import ztop


def test_every_exported_name_resolves():
    missing = [name for name in ztop.__all__ if not hasattr(ztop, name)]
    assert missing == []
    assert len(set(ztop.__all__)) == len(ztop.__all__)


def test_star_import():
    namespace = {}
    exec("from ztop import *", namespace)
    assert set(ztop.__all__) <= set(namespace)
