import cbos


def test_every_export_resolves():
    missing = [name for name in cbos.__all__ if not hasattr(cbos, name)]
    assert not missing
    assert len(set(cbos.__all__)) == len(cbos.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cbos import *", namespace)
    assert set(cbos.__all__) <= namespace.keys()
