"""The package's public names."""

import cosub


def test_every_listed_name_resolves():
    assert len(set(cosub.__all__)) == len(cosub.__all__)
    for name in cosub.__all__:
        assert getattr(cosub, name) is not None, name


def test_star_import_binds_exactly_the_listed_names():
    namespace: dict = {}
    exec("from cosub import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(cosub.__all__)
