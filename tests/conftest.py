"""Fixtures shared by the test modules."""

import pytest

from pasep import ansatz, closedforms, crosscheck, paths, permstats, qcombinat, rooks


@pytest.fixture
def fresh_caches():
    """Every memoised result in the package dropped before and after the
    test: each lru_cache and permstats._TAILS.  A result cached by an earlier
    test cannot hide what this one patches in, nor one computed here outlive
    it."""

    def clear():
        for mod in (qcombinat, ansatz, paths, rooks, closedforms, permstats, crosscheck):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
        permstats._TAILS.clear()

    clear()
    yield
    clear()
