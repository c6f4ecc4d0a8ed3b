"""Longer-than-short exact sequences and their calculus.

A DSequence is a complex T_0 -> T_1 -> ... -> T_n with zero composites,
usually with d+2 terms.  Hom-exactness against the additive generator M
of a category is what the one-sided exactness tests measure: applying
Hom(M, -) (left test) or Hom(-, M) (right test) must give vector-space
sequences that are exact at every spot except the trailing one.  Both are
asked of the category's pool, one indecomposable summand of M per class.

A sequence is contractible when its end map splits.  The d-pullback of
a sequence along a map into its end is a staircase of classical
pullbacks covered by minimal right approximations; the mapping cone of
the resulting morphism of complexes, away from the left term, is left
d-exact.  The left d-exact completion of a map g is the first d maps of
its add M-resolution (`approx.add_resolution`), closed by the kernel of
the last one.

Every right-hand construction is its left-hand twin under the duality D,
which is strictly involutive: the right test is the left test on the dual
sequence over cat.dual(), and the d-pushout is the dual of the d-pullback of
the dual sequence.  Dualizing back returns the very modules started from.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence, Tuple

from . import config, exactlin, repcat
from .approx import AddCategory, _add_kernels, minimal_right_approximation
from .errors import CapExceeded, DimensionMismatch, InvalidMorphism, VerificationFailed
from .exactlin import Matrix
from .repcat import Module, Morphism


class DSequence:
    """A finite complex of modules, maps running left to right."""

    def __init__(
        self,
        terms: Sequence[Module],
        maps: Sequence[Morphism],
        category: Optional[AddCategory] = None,
        _skip_check=False,
    ):
        self.terms: Tuple[Module, ...] = tuple(terms)
        self.maps: Tuple[Morphism, ...] = tuple(maps)
        self.category = category
        if len(self.terms) != len(self.maps) + 1:
            raise DimensionMismatch("a complex needs one more term than maps")
        if not self.maps:
            raise DimensionMismatch("a complex needs at least one map")
        for i, m in enumerate(self.maps):
            if m.domain is not self.terms[i] or m.codomain is not self.terms[i + 1]:
                raise InvalidMorphism(f"map {i} does not connect terms {i} and {i + 1}")
        if not _skip_check:
            for i in range(len(self.maps) - 1):
                if not (self.maps[i + 1] @ self.maps[i]).is_zero():
                    raise InvalidMorphism(f"composite of maps {i} and {i + 1} is nonzero")

    @property
    def d(self) -> int:
        return len(self.maps) - 1

    @property
    def left_map(self) -> Morphism:
        return self.maps[0]

    @property
    def right_map(self) -> Morphism:
        return self.maps[-1]

    @property
    def left_term(self) -> Module:
        return self.terms[0]

    @property
    def right_term(self) -> Module:
        return self.terms[-1]

    def interior(self) -> Tuple[Module, ...]:
        return self.terms[1:-1]

    def check_membership(self) -> bool:
        """Whether all terms lie in the attached category, if one is attached."""
        if self.category is None:
            return True
        return all(self.category.contains(t) for t in self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        dims = " -> ".join(str(t.total_dim) for t in self.terms)
        return f"DSequence({dims})"


class ComplexMorphism:
    """A degreewise morphism between two complexes of equal length."""

    def __init__(self, src: DSequence, dst: DSequence, maps: Sequence[Morphism]):
        self.src = src
        self.dst = dst
        self.maps: Tuple[Morphism, ...] = tuple(maps)
        if not is_chain_map(src, dst, self.maps):
            raise InvalidMorphism("the degreewise maps do not commute with the complexes")

    def __repr__(self):
        return f"ComplexMorphism({self.src!r} => {self.dst!r})"


def is_chain_map(src: DSequence, dst: DSequence, phis: Sequence[Morphism]) -> bool:
    if len(phis) != len(src.terms) or len(src.terms) != len(dst.terms):
        return False
    for i in range(len(src.maps)):
        if (phis[i + 1] @ src.maps[i]) != (dst.maps[i] @ phis[i]):
            return False
    return True


# -- hom-exactness tests -----------------------------------------------------


def _first_inexact_position(mats: List[Matrix]) -> Optional[int]:
    """First failure of 0 -> V_0 -> ... -> V_n being exact away from V_n.

    mats[i] maps V_i into V_{i+1}, or injectively into a space holding it:
    only ranks are taken.  Returns the failing position, None if exact.
    """
    for i, m in enumerate(mats):
        nullity = m.cols - exactlin.rank(m)
        expected = 0 if i == 0 else exactlin.rank(mats[i - 1])
        if nullity != expected:
            return i
    return None


def is_left_d_exact(seq: DSequence, cat: AddCategory) -> bool:
    """Hom(M, -) of the sequence is exact away from its last spot.

    Hom(M, -) is the sum of Hom(z, -) over the pool members z, so each
    pool member is tested on its own and M is never glued.
    """
    return all(
        _first_inexact_position([repcat.hom_composites(z, f) for f in seq.maps]) is None
        for z in cat._summand_pool()
    )


def is_right_d_exact(seq: DSequence, cat: AddCategory) -> bool:
    """Hom(-, M) exactness: the left test on the dual sequence over cat.dual().

    The dual category's pool is the duals of this one's, so nothing is split again.
    """
    return is_left_d_exact(_dual_sequence(seq), cat.dual())


def is_d_exact(seq: DSequence, cat: AddCategory) -> bool:
    """Hom-exact on both sides; cross-checked against plain exactness.

    When the category is generating and cogenerating, a sequence that is
    hom-exact on both sides must also be exact as modules with injective
    start and surjective end; a violation means the computation broke,
    so it raises instead of returning.
    """
    ok = is_left_d_exact(seq, cat) and is_right_d_exact(seq, cat)
    if ok and cat.is_generating_cogenerating():
        if not is_exact_complex(seq):
            raise VerificationFailed(
                "hom-exact sequence is not exact as modules over a "
                "generating-cogenerating category"
            )
    return ok


def is_exact_complex(seq: DSequence) -> bool:
    """Module-level exactness: a mono, exact at every interior term, then an epi."""
    if not (seq.maps[0].is_mono() and seq.maps[-1].is_epi()):
        return False
    for i in range(1, len(seq.terms) - 1):
        prev, nxt = seq.maps[i - 1], seq.maps[i]
        for v in range(len(seq.terms[i].dims)):
            ker = exactlin.kernel_basis(nxt.comps[v])
            im = exactlin.image_basis(prev.comps[v])
            if not exactlin.subspace_eq(ker, im):
                return False
    return True


# -- contractibility and the classical pullback ----------------------------


def is_contractible(seq: DSequence) -> bool:
    """Split-end test: the end map admits a section."""
    return repcat.is_split_epi(seq.right_map)


def pullback(f: Morphism, g: Morphism):
    """Classical pullback of f: X -> Z and g: Y -> Z.

    Returns (P, to_x, to_y, incl) with incl the kernel inclusion into X + Y.
    """
    if f.codomain is not g.codomain:
        raise DimensionMismatch("pullback legs must share a codomain")
    total, _, projs = repcat.direct_sum([f.domain, g.domain])
    p, incl = repcat.kernel(repcat.block_map(total, f.codomain, [[f, -g]]))
    return p, projs[0] @ incl, projs[1] @ incl, incl


# -- pullback and pushout completions ---------------------------------------


def d_pullback_complete(cat: AddCategory, seq: DSequence, fmap: Morphism):
    """Pull a full (d+2)-term sequence back along a map into its right end.

    A staircase of classical pullbacks, walked from the right: each one
    pulls the next map of seq back along the leg so far, and, before the
    last, is covered by a minimal right approximation that becomes the
    next leg.  The map into each pullback's term is induced by the map of
    seq before it; at the left it gives the kernel row, so the source
    keeps the original left term, mapped by the identity.  The mapping
    cone of the part right of the left term is left d-exact.
    """
    d = cat.d
    if len(seq.terms) != d + 2:
        raise DimensionMismatch("the sequence must have d+2 terms")
    if fmap.codomain is not seq.right_term:
        raise DimensionMismatch("the leg must map into the right end of the sequence")
    delta, alpha = seq.maps[d], fmap
    tops, top_maps, downs = [fmap.domain], [], [fmap]
    for i in range(d, 0, -1):
        p, q, r, incl = pullback(delta, alpha)
        zero_leg = Morphism.zero(seq.terms[i - 1], alpha.domain)
        pair = repcat.block_map(seq.terms[i - 1], incl.codomain, [[seq.maps[i - 1]], [zero_leg]])
        delta = repcat.corestrict(pair, incl)
        if delta is None:
            raise InvalidMorphism(f"term {i - 1} failed to land in the pullback")
        if i > 1:
            alpha = minimal_right_approximation(cat, p)
            p, q, r = alpha.domain, q @ alpha, r @ alpha
        tops.append(p)
        top_maps.append(r)
        downs.append(q)
    top = DSequence([seq.left_term] + tops[::-1], [delta] + top_maps[::-1])
    return ComplexMorphism(top, seq, [Morphism.identity(seq.left_term)] + downs[::-1])


def _dual_sequence(seq: DSequence) -> DSequence:
    """The reversed complex of dual modules over the opposite algebra."""
    terms = [repcat.duality(t) for t in reversed(seq.terms)]
    maps = [repcat.duality_morphism(m) for m in reversed(seq.maps)]
    return DSequence(terms, maps, _skip_check=True)


def _dual_chain(seq: DSequence, cm: ComplexMorphism) -> ComplexMorphism:
    """The dual of a morphism of complexes into the dual of seq, as one out of seq."""
    maps = [repcat.duality_morphism(m) for m in reversed(cm.maps)]
    return ComplexMorphism(seq, _dual_sequence(cm.src), maps)


def d_pushout_complete(cat: AddCategory, seq: DSequence, gmap: Morphism):
    """Push a full (d+2)-term sequence out, inducing the cokernel row.

    The dual of pulling the dual sequence back along the dual map over
    cat.dual(): the result starts at seq and keeps its right term.
    """
    if gmap.domain is not seq.left_term:
        raise DimensionMismatch("the leg must map out of the left end of the sequence")
    dual_leg = repcat.duality_morphism(gmap)
    return _dual_chain(seq, d_pullback_complete(cat.dual(), _dual_sequence(seq), dual_leg))


# -- defects ----------------------------------------------------------------


def defect_contravariant(seq: DSequence, x: Module) -> exactlin.Quotient:
    """Hom(x, right end) modulo maps lifting along the end map."""
    ambient = repcat.hom_space_matrix(x, seq.right_term)
    return exactlin.quotient(ambient, repcat.hom_image(x, seq.right_map))


def defect_covariant(seq: DSequence, y: Module) -> exactlin.Quotient:
    """Hom(left end, y) modulo maps extending along the start map."""
    ambient = repcat.hom_space_matrix(seq.left_term, y)
    return exactlin.quotient(ambient, repcat.hom_coimage(seq.left_map, y))


# -- construction from the right end ----------------------------------------


def build_left_d_exact(cat: AddCategory, g: Morphism) -> DSequence:
    """The first d maps of the add M-resolution of g, then the last kernel.

    Starting from g: C -> N, `add_resolution` covers the kernel of each
    map by a minimal right approximation; the kernel of the d-th map,
    kept on the module it approximates as every kernel after g's is, is
    the left term, giving d+2 terms in total.  The sequence carries cat
    as its category.  A d past config.RESOLUTION_CAP is refused.
    """
    if cat.d > config.RESOLUTION_CAP:
        raise CapExceeded.over("the add M-resolution of the start map", None, f"{cat.d} maps",
                               config.RESOLUTION_CAP, "config.RESOLUTION_CAP")
    kernels = list(islice(_add_kernels(cat, *repcat.kernel(g)), cat.d))
    maps = [g] + [incl @ minimal_right_approximation(cat, k) for k, incl in kernels[:-1]]
    maps = [kernels[-1][1]] + maps[::-1]
    return DSequence([f.domain for f in maps] + [g.codomain], maps, category=cat)
