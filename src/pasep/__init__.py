"""Exact computation of the PASEP partition polynomial by five independent
families of methods (operator matrices, lattice paths, rook placements,
closed forms and permutation statistics).

The same bivariate polynomial is produced by operator-matrix truncations;
by the weighted Motzkin path transfer and signed labelled-path extraction;
by rook placements fed through an inversion formula; by an alternating
closed form and a coefficient formula; and by brute-force permutation
statistics, the combinatorial oracle.  The ``crosscheck`` CLI verb asserts
the full matrix of pairwise identities.
"""

from .laurent import LaurentPoly, NotDivisible, PoleAtZero

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "LaurentPoly",
    "NotDivisible",
    "PoleAtZero",
    "__version__",
]


def __getattr__(name: str):
    # BACKEND is read from kernels on first use, so that importing the
    # package does not load the kernels a route may never call.
    if name == "BACKEND":
        from .kernels import BACKEND

        return BACKEND
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
