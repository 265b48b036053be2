import irnnlab


def test_every_exported_name_resolves():
    missing = [name for name in irnnlab.__all__ if not hasattr(irnnlab, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from irnnlab import *", namespace)
    assert set(irnnlab.__all__) <= set(namespace)
