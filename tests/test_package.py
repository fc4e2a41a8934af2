"""The package's exported names."""

import types

import nodaltheta


def test_all_lists_exactly_the_public_names():
    # a deleted name cannot linger in __all__, nor a new one go unlisted
    bound = {
        name
        for name, value in vars(nodaltheta).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(nodaltheta.__all__) == sorted(bound)
    assert len(set(nodaltheta.__all__)) == len(nodaltheta.__all__)
