import types

import infoflow


def test_all_lists_exactly_the_public_names():
    namespace = {}
    exec("from infoflow import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(infoflow.__all__)
    public = {
        name
        for name, value in vars(infoflow).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(infoflow.__all__)
