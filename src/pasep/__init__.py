"""Exact computation of the PASEP partition polynomial, five independent ways.

The same bivariate polynomial is produced by operator-matrix truncations,
weighted Motzkin path transfer, signed labelled-path extraction, rook
placements fed through an inversion formula, and an alternating closed form;
brute-force permutation statistics provide the combinatorial oracle.  The
``crosscheck`` CLI verb asserts the full matrix of pairwise identities.
"""

from .kernels import BACKEND
from .laurent import LaurentPoly, NotDivisible, PoleAtZero

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "LaurentPoly",
    "NotDivisible",
    "PoleAtZero",
    "__version__",
]
