import abo


def test_public_names_resolve():
    assert all(hasattr(abo, name) for name in abo.__all__)
    namespace = {}
    exec("from abo import *", namespace)
    del namespace["__builtins__"]
    # a name listed twice in __all__ would also fail here
    assert sorted(namespace) == sorted(abo.__all__)
