"""The package's top-level names are its defining modules' objects.

`twinproto/__init__.py` imports each name in its `__all__` from the module
that defines it, so `twinproto.run_scenario` and
`twinproto.harness.run_scenario` are one object, and any other name is an
AttributeError.
"""

import sys

import pytest

import twinproto


@pytest.mark.parametrize("name", twinproto.__all__)
def test_every_export_is_its_defining_modules_object(name):
    value = getattr(twinproto, name)
    if name == "__version__":
        assert isinstance(value, str)
        return
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("twinproto.")
    assert getattr(module, name) is value
    assert getattr(twinproto, name) is value  # the second lookup too


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twinproto.no_such_name
    assert not hasattr(twinproto, "no_such_name")
