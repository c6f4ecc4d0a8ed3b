"""Approximations by an additive subcategory, and minimal versions of maps.

An AddCategory is the additive closure of finitely many generator modules.
Every minimal version of a map is read off the top of its image functor:
`minimal_cover` takes pieces out of indecomposable summands the caller
already holds and keeps, per isomorphism class of summand, the composites
that are independent modulo the radical and the orbits kept before.  This
is linear algebra only; no endomorphism of a glued sum is ever searched.
The radical rad(x, y) and the sorting of indecomposables into isomorphism
classes live in repcat (`rad_hom_basis`, `iso_classes`).  Left-sided
notions go through the vector-space duality, over the dual category, whose
pool is the duals of this one's.  `add_resolution` is the one
loop that covers kernels by minimal right approximations; d-exact
completions and gldim End(M) both read it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import exactlin, repcat
from .errors import DimensionMismatch
from .exactlin import Matrix
from .repcat import Module, Morphism


class AddCategory:
    """The additive closure of a finite list of modules, with a size d.

    The additive generator M is the direct sum of the generators, and it
    is never glued: each generator is split into indecomposables once and
    its summands are sorted into the pool, one member per isomorphism
    class, keeping each generator's pool labels.  Every question about M
    is asked of the pool members.  The dual category is built once from
    the duals of the pool, and its dual is this category again.
    """

    def __init__(self, generators: Sequence[Module], d: int):
        if d < 1:
            raise ValueError("the dimension parameter must be at least 1")
        self.generators: Tuple[Module, ...] = tuple(generators)
        if all(g.is_zero() for g in self.generators):
            raise ValueError("an additive category needs at least one nonzero generator")
        self.algebra = self.generators[0].algebra
        for g in self.generators:
            if g.algebra is not self.algebra:
                raise DimensionMismatch("generators over different algebras")
        self.d = d
        self._cache: Dict[str, object] = {}

    def dual(self) -> "AddCategory":
        """The closure of the dual generators over the opposite algebra, built once.

        D is an exact duality, so the duals of the pool are one indecomposable
        per isomorphism class, in the same order: the dual category takes them
        and this category's generator labels, and splits nothing again.
        """
        if "dual" not in self._cache:
            pool, labels = self._split_generators()
            dual = AddCategory([repcat.duality(g) for g in self.generators], self.d)
            dual._cache["pool"] = [repcat.duality(z) for z in pool], labels
            self._cache["dual"], dual._cache["dual"] = dual, self
        return self._cache["dual"]

    def _cached(self, name: str, compute):
        """compute(), kept on the category."""
        if name not in self._cache:
            self._cache[name] = compute()
        return self._cache[name]

    def _summand_pool(self) -> List[Module]:
        """One indecomposable summand of M per isomorphism class, in generator order."""
        return self._split_generators()[0]

    def _split_generators(self) -> Tuple[List[Module], List[List[int]]]:
        """The pool, and per generator the pool labels of its summands: one split of each."""

        def compute():
            split = [[z for z, _ in repcat.split_summands(g)] for g in self.generators]
            pool, label = repcat.iso_classes([z for parts in split for z in parts])
            labels = iter(label)
            return pool, [[next(labels) for _ in parts] for parts in split]

        return self._cached("pool", compute)

    def _pool_labels(self, x: Module) -> List[Optional[int]]:
        """Per indecomposable summand of x, the index of its pool member, or None."""
        pool = self._summand_pool()
        _, label = repcat.iso_classes([z for z, _ in repcat.split_summands(x)], reps=pool)
        return [c if c < len(pool) else None for c in label]

    def contains(self, x: Module) -> bool:
        """Whether every indecomposable summand of x occurs in a generator.

        Each summand is matched against the pool alone, which is sorted once.
        """
        return None not in self._pool_labels(x)

    def _generating_cogenerating(self) -> Tuple[bool, bool]:
        """Whether every indecomposable projective lies inside, and every injective.

        An indecomposable projective is P_v for its one top vertex v, and an
        indecomposable injective I_v for its one socle vertex; so M generates
        exactly when every vertex is the top of a projective pool member, and
        cogenerates when every vertex is the socle of an injective one.  No
        Hom is computed.
        """
        from . import homological  # loaded by the commands that ask, not by every process

        def compute():
            pool, n = self._summand_pool(), self.algebra.quiver.n_vertices
            tops = {v for z in pool if homological.is_projective(z)
                    for v, js in enumerate(repcat._top_reps(z)) if js}
            socles = {v for z in pool if homological.is_injective(z)
                      for v, k in enumerate(repcat._socle_dims(z)) if k}
            return len(tops) == n, len(socles) == n

        return self._cached("gen_cogen", compute)

    def is_generating_cogenerating(self) -> bool:
        """Whether every indecomposable projective and injective lies inside."""
        return all(self._generating_cogenerating())


# -- minimal versions ------------------------------------------------------


def minimal_cover(y: Module, pieces: Sequence[Morphism]) -> Tuple[Morphism, List[Tuple[int, Morphism]]]:
    """Right-minimal version of the map glued from pieces[j]: summands[j] -> y.

    The summands are the domains, and each must be indecomposable.  Let F
    be the image functor of the glued map.  At each isomorphism class Z of summands, F(Z) is spanned
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
    summands = [f.domain for f in pieces]
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
    dom = repcat.sum_module([b.domain for _, b in kept], y.algebra)
    return repcat.block_map(dom, y, [[pieces[j] @ b for j, b in kept]]), kept


def right_minimalize(g: Morphism) -> Tuple[Morphism, Morphism]:
    """Right-minimal version of g, with the inclusion of the kept summand.

    Returns (g_min, incl) where g_min = g @ incl and incl splits.
    """
    parts = repcat.split_summands(g.domain)
    pieces = [g @ inc for _, inc in parts]
    g_min, kept = minimal_cover(g.codomain, pieces)
    incl = repcat.block_map(g_min.domain, g.domain, [[parts[j][1] @ b for j, b in kept]])
    return g_min, incl


def is_right_minimal(g: Morphism) -> bool:
    return right_minimalize(g)[0].domain.total_dim == g.domain.total_dim


def is_left_minimal(f: Morphism) -> bool:
    return is_right_minimal(repcat.duality_morphism(f))


def minimal_right_approximation(cat: AddCategory, x: Module) -> Morphism:
    """Minimal right approximation, covered by the pool members' hom bases into x."""
    pieces = [b for z in cat._summand_pool() for b in repcat.hom_basis(z, x)]
    return minimal_cover(x, pieces)[0]


def add_resolution(cat: AddCategory, g: Morphism) -> Iterator[Morphism]:
    """The add M-resolution of g, lazily: g, then incl @ (its minimal right approximation).

    After each map r comes the kernel inclusion of r composed with the
    minimal right approximation of that kernel.  The maps go on forever
    once one is out of zero: the caller decides where to stop.
    """
    while True:
        yield g
        k, incl = repcat.kernel(g)
        g = incl @ minimal_right_approximation(cat, k)


def minimal_left_approximation(cat: AddCategory, x: Module) -> Morphism:
    """Minimal left approximation: the dual of a minimal right one over cat.dual()."""
    return repcat.duality_morphism(minimal_right_approximation(cat.dual(), repcat.duality(x)))
