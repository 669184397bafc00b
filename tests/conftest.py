"""Fixtures shared by the test modules."""

import sys

import pytest

from pasep.laurent import LaurentPoly


def coeff_y(p, e_y):
    """The coefficient of y**e_y in p, as a polynomial in q."""
    return LaurentPoly({(e_q, 0): c for e_q, e, c in p.terms() if e == e_y})


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
