import types

import varconn


def test_star_import_exports_exactly_the_public_names():
    namespace = {}
    exec("from varconn import *", namespace)
    public = {
        name
        for name, value in vars(varconn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(varconn.__all__) == len(set(varconn.__all__))
    assert set(varconn.__all__) == public
    assert public <= namespace.keys()
