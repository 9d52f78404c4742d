import negbeta


def test_public_names_resolve():
    assert len(set(negbeta.__all__)) == len(negbeta.__all__)
    for name in negbeta.__all__:
        assert hasattr(negbeta, name), name
    # a stale name in __all__ makes the star import raise AttributeError
    namespace: dict = {}
    exec("from negbeta import *", namespace)
    assert set(negbeta.__all__) <= set(namespace)
