"""The largest sizes the exhaustive enumerations take.

``kernels`` and ``rooks`` check them, and ``kernels`` re-exports the ones
its tables check.  They live apart from both so that the command line can
print and check its method caps without loading the kernels, which a route
that reads no kernel table never needs.
"""

# Largest path length the signed-path table (and the signed-paths route) takes.
SIGNED_PATH_CAP = 24

# Largest n the permutation tables (and the permutation routes) take.
PERMUTATION_CAP = 9

# Largest n the matching table takes: (2n-1)!! matchings, 2027025 at the cap.
MATCHING_CAP = 8

# Largest length the left-factor table takes.
LEFT_FACTOR_CAP = 16

# Largest half-perimeter the exhaustive rook sums (and the rook route) take.
ROOK_CAP = 9
