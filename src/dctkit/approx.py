"""Approximations by an additive subcategory, and minimal versions of maps.

An AddCategory is the additive closure of finitely many generator modules.
Right approximations are assembled from full hom bases and then shrunk to
their right-minimal versions by splitting off what a non-invertible
self-correction detects (iterated image/kernel splitting).  Left-sided
notions go through the vector-space duality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import config, exactlin, repcat
from .errors import CapExceeded, DimensionMismatch
from .exactlin import Matrix
from .repcat import Module, Morphism


class AddCategory:
    """The additive closure of a finite list of modules, with a size d.

    The additive generator M, the direct sum of the generators, is built
    once and keeps its inclusions and projections; each generator is split
    into indecomposables once, so the summands of M are known and never
    have to be rediscovered by splitting M itself.
    """

    def __init__(self, generators: Sequence[Module], d: int):
        if d < 1:
            raise ValueError("the dimension parameter must be at least 1")
        self.generators: Tuple[Module, ...] = tuple(generators)
        if not self.generators:
            raise ValueError("an additive category needs at least one generator")
        self.algebra = self.generators[0].algebra
        for g in self.generators:
            if g.algebra is not self.algebra:
                raise DimensionMismatch("generators over different algebras")
        self.d = d
        self._sum = repcat.direct_sum(list(self.generators), algebra=self.algebra)
        self._cache: Dict[Tuple[str, int], object] = {}

    def additive_generator(self) -> Module:
        """The direct sum of the generators: the same module on every call."""
        return self._sum[0]

    def _cached(self, name: str, cap, compute):
        """compute(), kept per effective scan cap: a smaller cap recomputes and may refuse."""
        key = (name, config.scan_cap(cap))
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _generator_parts(self, cap=None) -> List[Tuple[Module, Morphism, Morphism]]:
        """Indecomposable summands of M with their inclusions into and projections from M."""

        def compute():
            _, incs, projs = self._sum
            return [
                (z, incs[i] @ inc, proj @ projs[i])
                for i, g in enumerate(self.generators)
                for z, inc, proj in repcat.split_summands(g, cap)
            ]

        return self._cached("parts", cap, compute)

    def _summand_pool(self, cap=None) -> List[Module]:
        def compute():
            pool: List[Module] = []
            for z, _, _ in self._generator_parts(cap):
                if not any(repcat.are_isomorphic(z, w, cap) for w in pool):
                    pool.append(z)
            return pool

        return self._cached("pool", cap, compute)

    def generator_radical(self, y: Module, cap=None) -> Matrix:
        """Flat-coordinate basis of rad(M, y), from the kept summands of M."""
        parts = repcat.split_summands(y, cap)
        return _rad_from_parts(self.additive_generator(), y, self._generator_parts(cap), parts, cap)

    def contains(self, x: Module, cap=None) -> bool:
        """Whether every indecomposable summand of x occurs in a generator."""
        if x.is_zero():
            return True
        pool = self._summand_pool(cap)
        for z, _, _ in repcat.split_summands(x, cap):
            if not any(repcat.are_isomorphic(z, w, cap) for w in pool):
                return False
        return True

    def is_generating_cogenerating(self, cap=None) -> bool:
        """Whether every indecomposable projective and injective lies inside."""

        def compute():
            return all(
                self.contains(repcat.projective(self.algebra, v), cap)
                and self.contains(repcat.injective(self.algebra, v), cap)
                for v in range(self.algebra.quiver.n_vertices)
            )

        return self._cached("gen_cogen", cap, compute)


def right_approximation(cat: AddCategory, x: Module) -> Morphism:
    """A (not necessarily minimal) right approximation: all hom bases glued."""
    summands: List[Module] = []
    pieces: List[Morphism] = []
    for g in cat.generators:
        for f in repcat.hom_basis(g, x):
            summands.append(g)
            pieces.append(f)
    if not summands:
        z = repcat.zero_module(x.algebra)
        return Morphism.zero(z, x)
    _, out, _, _ = repcat.glue_columns(x, summands, pieces)
    return out


def left_approximation(cat: AddCategory, x: Module) -> Morphism:
    """A (not necessarily minimal) left approximation: all hom bases stacked."""
    summands: List[Module] = []
    pieces: List[Morphism] = []
    for g in cat.generators:
        for f in repcat.hom_basis(x, g):
            summands.append(g)
            pieces.append(f)
    if not summands:
        z = repcat.zero_module(x.algebra)
        return Morphism.zero(x, z)
    _, out, _, _ = repcat.glue_rows(x, summands, pieces)
    return out


def is_right_approximation(cat: AddCategory, g: Morphism) -> bool:
    for gen in cat.generators:
        if repcat.hom_image(gen, g).cols != repcat.hom_dim(gen, g.codomain):
            return False
    return True


# -- minimal versions ------------------------------------------------------


def _null_endos(g: Morphism) -> List[Morphism]:
    """Basis of the endomorphisms of the domain killed by postcomposing g."""
    x = g.domain
    coords = exactlin.kernel_basis(repcat.hom_composites(x, g))
    flat = repcat.hom_space_matrix(x, x) @ coords
    return [repcat.morphism_from_vec(x, x, vec, _skip_check=True) for vec in flat.columns()]


def _first_noninvertible_correction(
    g: Morphism, basis: List[Morphism], cap=None
) -> Optional[Morphism]:
    """First phi = id + psi with g o phi = g that is not invertible, if any."""
    if not basis:
        return None
    field = g.domain.field
    total = repcat._scan_space(field, len(basis), cap)
    ident = Morphism.identity(g.domain)
    for counter in range(1, total):
        psi = repcat._combination(basis, counter, field.p)
        phi = ident + psi
        if not phi.is_iso():
            return phi
    return None


def is_right_minimal(g: Morphism, cap=None) -> bool:
    return _first_noninvertible_correction(g, _null_endos(g), cap) is None


def right_minimalize(g: Morphism, cap=None) -> Tuple[Morphism, Morphism]:
    """Right-minimal version of g, with the inclusion of the kept summand.

    Returns (g_min, incl) where g_min = g @ incl and incl splits.
    """
    incl_total = Morphism.identity(g.domain)
    while True:
        phi = _first_noninvertible_correction(g, _null_endos(g), cap)
        if phi is None:
            return g, incl_total
        n = max(g.domain.total_dim, 1)
        phi_n = phi
        for _ in range(n - 1):
            phi_n = phi_n @ phi
        kept, inc = repcat.image(phi_n)
        if kept.total_dim == g.domain.total_dim:
            raise CapExceeded("minimalization failed to shrink the domain")
        g = g @ inc
        incl_total = incl_total @ inc


def is_left_minimal(f: Morphism, cap=None) -> bool:
    return is_right_minimal(repcat.duality_morphism(f), cap)


def left_minimalize(f: Morphism, cap=None) -> Tuple[Morphism, Morphism]:
    """Left-minimal version of f, with the projection onto the kept summand.

    Returns (f_min, proj) where f_min = proj @ f and proj splits.
    """
    df = repcat.duality_morphism(f)
    dmin, dincl = right_minimalize(df, cap)
    f_min = repcat.rebase(
        repcat.duality_morphism(dmin), f.domain, repcat.duality(dmin.domain)
    )
    proj = repcat.rebase(
        repcat.duality_morphism(dincl), f.codomain, f_min.codomain
    )
    return f_min, proj


def minimal_right_approximation(cat: AddCategory, x: Module, cap=None) -> Morphism:
    g, _ = right_minimalize(right_approximation(cat, x), cap)
    return g


def minimal_left_approximation(cat: AddCategory, x: Module, cap=None) -> Morphism:
    f, _ = left_minimalize(left_approximation(cat, x), cap)
    return f


# -- radical subspaces -----------------------------------------------------


def _rad_between_indecomposables(x: Module, y: Module, cap=None) -> Matrix:
    """Flat-coordinate span of non-isomorphisms between indecomposables."""
    field = x.field
    n = repcat.hom_flat_dim(x, y)
    basis = repcat.hom_basis(x, y)
    if not basis:
        return Matrix.zeros(field, n, 0)
    if x.dims != y.dims or repcat.find_isomorphism(x, y, cap) is None:
        return repcat.hom_space_matrix(x, y)
    cols = []
    total = repcat._scan_space(field, len(basis), cap)
    for counter in range(1, total):
        f = repcat._combination(basis, counter, field.p)
        if not f.is_iso():
            cols.append(repcat.hom_vec(f))
    return exactlin.canonical_basis(Matrix.from_columns(field, cols, n))


def rad_hom_basis(x: Module, y: Module, cap=None) -> Matrix:
    """Flat-coordinate basis of the radical subspace of Hom(x, y)."""
    parts_x, parts_y = repcat.split_summands(x, cap), repcat.split_summands(y, cap)
    return _rad_from_parts(x, y, parts_x, parts_y, cap)


def _rad_from_parts(x: Module, y: Module, dom_parts, cod_parts, cap=None) -> Matrix:
    """rad(x, y) from indecomposable splits of x and y, as split_summands lists them."""
    field = x.field
    n = repcat.hom_flat_dim(x, y)
    pieces = []
    for zi, _, proj_i in dom_parts:
        for zj, inc_j, _ in cod_parts:
            rad = _rad_between_indecomposables(zi, zj, cap)
            for vec in rad.columns():
                r = repcat.morphism_from_vec(zi, zj, vec, _skip_check=True)
                pieces.append(repcat.hom_vec(inc_j @ r @ proj_i))
    return exactlin.canonical_basis(Matrix.from_columns(field, pieces, n))
