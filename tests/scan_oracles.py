"""The exhaustive scans dctkit once ran, kept as test oracles.

Each walks every vector of a space over F_p, p^dim of them, so they fit
only tiny hom spaces and primes.  The library answers the same questions
by linear algebra on End(x); the tests compare the two.
"""

from dctkit import exactlin, repcat
from dctkit.exactlin import Matrix
from dctkit.repcat import Morphism


def combinations(basis):
    """Every nonzero combination of the basis, in the old scan order."""
    p = basis[0].domain.field.p
    for counter in range(1, p ** len(basis)):
        f = None
        for b in basis:
            digit = counter % p
            counter //= p
            if digit:
                f = b.scale(digit) if f is None else f + b.scale(digit)
        yield f


def scan_idempotent(x):
    """First nontrivial idempotent endomorphism in scan order, if any."""
    ident = Morphism.identity(x)
    for e in combinations(repcat.hom_basis(x, x)):
        if e != ident and (e @ e) == e:
            return e
    return None


def scan_isomorphism(x, y):
    """First isomorphism x -> y in scan order, if any."""
    if x.dims != y.dims:
        return None
    if x.is_zero():
        return Morphism.zero(x, y)
    basis = repcat.hom_basis(x, y)
    return next((f for f in combinations(basis) if f.is_iso()), None) if basis else None


def scan_rad_between(x, y):
    """Flat span of the non-isomorphisms between indecomposables x and y."""
    n = repcat.hom_flat_dim(x, y)
    basis = repcat.hom_basis(x, y)
    if not basis:
        return Matrix.zeros(x.field, n, 0)
    if x is not y and scan_isomorphism(x, y) is None:
        return repcat.hom_space_matrix(x, y)
    cols = [repcat.hom_vec(f) for f in combinations(basis) if not f.is_iso()]
    return exactlin.canonical_basis(Matrix.from_columns(x.field, cols, n))


def scan_right_minimalize(g: Morphism) -> Morphism:
    """Right-minimal version of g by searching End(dom g), as dctkit once did.

    While some phi = id + psi with g o psi = 0 is not invertible (first one
    in scan order over a basis of such psi), pass to the image of phi^n,
    which is a proper summand of the domain that g restricts to.
    """
    while True:
        x = g.domain
        coords = exactlin.kernel_basis(repcat.hom_composites(x, g))
        flat = repcat.hom_space_matrix(x, x) @ coords
        basis = [repcat.morphism_from_vec(x, x, vec) for vec in flat.columns()]
        ident = Morphism.identity(x)
        phi = None
        if basis:
            phi = next((ident + f for f in combinations(basis) if not (ident + f).is_iso()), None)
        if phi is None:
            return g
        phi_n = phi
        for _ in range(x.total_dim - 1):
            phi_n = phi_n @ phi
        kept, inc = repcat.image(phi_n)
        assert kept.total_dim < x.total_dim
        g = g @ inc
