"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def fresh_caches():
    """Every memoised result in the package dropped before and after the
    test: each lru_cache of every loaded pasep module.  A result cached by
    an earlier test cannot hide what this one patches in, nor one computed
    here outlive it."""

    def clear():
        for name, mod in list(sys.modules.items()):
            if name.startswith("pasep."):
                for obj in vars(mod).values():
                    if hasattr(obj, "cache_clear"):
                        obj.cache_clear()

    clear()
    yield
    clear()
