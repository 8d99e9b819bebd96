"""The package's public names."""

import ifslab


def test_every_public_name_resolves_once_and_star_imports():
    # a name left in __all__ after its object is removed breaks
    # `from ifslab import *` with an AttributeError
    names = ifslab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(ifslab, name)] == []
    namespace = {}
    exec("from ifslab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
