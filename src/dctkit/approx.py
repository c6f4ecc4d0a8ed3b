"""Approximations by an additive subcategory, and minimal versions of maps.

An AddCategory is the additive closure of finitely many generator modules.
Every minimal version of a map is read off the top of its image functor:
`minimal_cover` takes pieces out of indecomposable summands the caller
already holds and keeps, per isomorphism class of summand, the composites
that are independent modulo the radical and the orbits kept before.  This
is linear algebra only; no endomorphism of a glued sum is ever searched.
The radical rad(x, y) and the sorting of indecomposables into isomorphism
classes live in repcat (`rad_hom_basis`, `iso_classes`).  Left-sided
notions go through the vector-space duality.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import exactlin, repcat
from .errors import DimensionMismatch
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
        self._cache: Dict[str, object] = {}
        self._dual: Optional[AddCategory] = None

    def additive_generator(self) -> Module:
        """The direct sum of the generators: the same module on every call."""
        return self._sum[0]

    def dual(self) -> "AddCategory":
        """The closure of the dual generators over the opposite algebra, built once."""
        if self._dual is None:
            self._dual = AddCategory([repcat.duality(g) for g in self.generators], self.d)
        return self._dual

    def _cached(self, name: str, compute):
        """compute(), kept on the category."""
        if name not in self._cache:
            self._cache[name] = compute()
        return self._cache[name]

    def _generator_parts(self) -> List[Tuple[Module, Morphism, Morphism]]:
        """Indecomposable summands of M with their inclusions into and projections from M."""

        def compute():
            _, incs, projs = self._sum
            return [
                (z, incs[i] @ inc, proj @ projs[i])
                for i, g in enumerate(self.generators)
                for z, inc, proj in repcat.split_summands(g)
            ]

        return self._cached("parts", compute)

    def _summand_pool(self) -> List[Module]:
        def compute():
            return repcat.iso_classes([z for z, _, _ in self._generator_parts()])[0]

        return self._cached("pool", compute)

    def contains(self, x: Module) -> bool:
        """Whether every indecomposable summand of x occurs in a generator."""
        pool = self._summand_pool()
        summands = [z for z, _, _ in repcat.split_summands(x)]
        return len(repcat.iso_classes(pool + summands)[0]) == len(pool)

    def is_generating_cogenerating(self) -> bool:
        """Whether every indecomposable projective and injective lies inside."""

        def compute():
            return all(
                self.contains(repcat.projective(self.algebra, v))
                and self.contains(repcat.injective(self.algebra, v))
                for v in range(self.algebra.quiver.n_vertices)
            )

        return self._cached("gen_cogen", compute)


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


def is_right_approximation(cat: AddCategory, g: Morphism) -> bool:
    for gen in cat.generators:
        if repcat.hom_image(gen, g).cols != repcat.hom_dim(gen, g.codomain):
            return False
    return True


# -- minimal versions ------------------------------------------------------


def minimal_cover(
    y: Module, summands: Sequence[Module], pieces: Sequence[Morphism]
) -> Tuple[Morphism, List[Tuple[int, Morphism]]]:
    """Right-minimal version of the map glued from pieces[j]: summands[j] -> y.

    Every summand must be indecomposable.  Let F be the image functor of
    the glued map.  At each isomorphism class Z of summands, F(Z) is spanned
    by the composites pieces[j] @ b, b in hom_basis(Z, summands[j]), and the
    radical of F at Z by pieces[j] o rad(Z, summands[j]).  Walking the
    composites in that order, one is kept when it lies outside the radical
    plus the End(Z)-orbits of those kept before.  The kept composites then
    span the top of F minimally, so glued they form its projective cover:
    right minimal, with the same image under every Hom(X, -).

    Returns (g_min, kept): g_min is glued from the kept composites, and
    kept[i] = (j, b) when the i-th of them is pieces[j] @ b.
    """
    field = y.field
    reps, label = repcat.iso_classes(summands)
    kept: List[Tuple[int, Morphism]] = []
    for c, z in enumerate(reps):
        composites = [repcat.hom_composites(z, piece) for piece in pieces]
        rad_coords: Dict[int, Matrix] = {}
        rad_cols = []
        for j, s in enumerate(summands):
            if label[j] == c and id(s) not in rad_coords:
                rad = repcat.rad_hom_basis(z, s)
                rad_coords[id(s)] = exactlin.solve(repcat.hom_space_matrix(z, s), rad)
            # rad(z, s) is all of Hom(z, s) when s is not isomorphic to z
            rad_cols.append(composites[j] @ rad_coords[id(s)] if label[j] == c else composites[j])
        n = repcat.hom_flat_dim(z, y)
        span = exactlin.canonical_basis(exactlin.hstack(rad_cols, field=field, rows=n))
        for j in [k for k in range(len(summands)) if label[k] == c]:
            for b, col in zip(repcat.hom_basis(z, summands[j]), composites[j].columns()):
                if not exactlin.contains(span, Matrix.column(field, col)):
                    kept.append((j, b))
                    orbit = repcat.hom_composites(z, pieces[j] @ b)
                    span = exactlin.subspace_sum(span, orbit)
    _, g_min, _, _ = repcat.glue_columns(
        y, [b.domain for _, b in kept], [pieces[j] @ b for j, b in kept]
    )
    return g_min, kept


def right_minimalize(g: Morphism) -> Tuple[Morphism, Morphism]:
    """Right-minimal version of g, with the inclusion of the kept summand.

    Returns (g_min, incl) where g_min = g @ incl and incl splits.
    """
    parts = repcat.split_summands(g.domain)
    pieces = [g @ inc for _, inc, _ in parts]
    _, kept = minimal_cover(g.codomain, [z for z, _, _ in parts], pieces)
    _, incl, _, _ = repcat.glue_columns(
        g.domain, [b.domain for _, b in kept], [parts[j][1] @ b for j, b in kept]
    )
    return g @ incl, incl


def is_right_minimal(g: Morphism) -> bool:
    return right_minimalize(g)[0].domain.total_dim == g.domain.total_dim


def is_left_minimal(f: Morphism) -> bool:
    return is_right_minimal(repcat.duality_morphism(f))


def minimal_right_approximation(cat: AddCategory, x: Module) -> Morphism:
    """Minimal right approximation, covered by the pool members' hom bases into x."""
    pairs = [(z, b) for z in cat._summand_pool() for b in repcat.hom_basis(z, x)]
    g, _ = minimal_cover(x, [z for z, _ in pairs], [b for _, b in pairs])
    return g


def minimal_left_approximation(cat: AddCategory, x: Module) -> Morphism:
    """Minimal left approximation: the dual of a minimal right one over cat.dual()."""
    return repcat.duality_morphism(minimal_right_approximation(cat.dual(), repcat.duality(x)))
