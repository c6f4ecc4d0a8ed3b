"""Budget knobs for the exhaustive desk-scale scans.

Two searches still enumerate by design: the orbit-least arrow-matrix
assignments that enumerate_indecomposables builds, counted before the
first is built, and the vertex vectors of the admissible-submodule step of
determined_morphism.  Each raises CapExceeded before its work when the count
passes SCAN_CAP; the CLI's --cap flag overrides the value for one
invocation.  Splitting, isomorphism tests, radicals and minimal versions
are linear algebra and have no budget.
"""

SCAN_CAP = 1 << 16

# Minimal projective resolutions are cut off here; pd() raises CapExceeded
# when the resolution is still running at this length, and a resolution
# still running at step RESOLUTION_CAP + 1 refuses to go further.
RESOLUTION_CAP = 32

# Hard ceiling on the number of paths enumerated while building an algebra.
PATH_CAP = 100_000


def scan_cap(cap=None) -> int:
    return SCAN_CAP if cap is None else cap
