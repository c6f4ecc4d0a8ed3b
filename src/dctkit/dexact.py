"""Longer-than-short exact sequences and their calculus.

A DSequence is a complex T_0 -> T_1 -> ... -> T_n with zero composites,
usually with d+2 terms.  Hom-exactness against the generators of an
additive category is what the one-sided exactness tests measure: applying
Hom(G, -) (left test) or Hom(-, G) (right test) must give vector-space
sequences that are exact at every spot except the trailing one.

Null homotopies are found by solving one joint linear system over all
degrees, so the returned homotopy is canonical.  Pullbacks of a sequence
tail along a map into its end are built as a staircase of classical
pullbacks interleaved with right approximations; the defining property —
the mapping cone of the resulting morphism of complexes is left d-exact —
is what the tests check.  The left d-exact completion of a map g is the
first d maps of its add M-resolution (`approx.add_resolution`), closed by
the kernel of the last one.

Every right-hand construction is its left-hand twin under the duality D,
which is strictly involutive: the right test is the left test on the dual
sequence over cat.dual(), and the pushout is the dual of the pullback of
the dual sequence.  Dualizing back returns the very modules started from.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence, Tuple

from . import exactlin, homological, repcat
from .approx import AddCategory, add_resolution, minimal_right_approximation
from .errors import DimensionMismatch, InvalidMorphism, VerificationFailed
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

    def cone(self) -> DSequence:
        return mapping_cone(self.src, self.dst, self.maps)

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
    """Hom(G, -) of the sequence is exact away from its last spot, for every generator G."""
    return all(
        _first_inexact_position([repcat.hom_composites(g, f) for f in seq.maps]) is None
        for g in cat.generators
    )


def is_right_d_exact(seq: DSequence, cat: AddCategory) -> bool:
    """Hom(-, G) exactness: the left test on the dual sequence over cat.dual()."""
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


def is_exact_complex(seq: DSequence, mono_start: bool = True, epi_end: bool = True) -> bool:
    """Module-level exactness at interior terms, optionally at the ends."""
    if mono_start and not seq.maps[0].is_mono():
        return False
    if epi_end and not seq.maps[-1].is_epi():
        return False
    for i in range(1, len(seq.terms) - 1):
        prev, nxt = seq.maps[i - 1], seq.maps[i]
        for v in range(len(seq.terms[i].dims)):
            ker = exactlin.kernel_basis(nxt.comps[v])
            im = exactlin.image_basis(prev.comps[v])
            if not exactlin.subspace_eq(ker, im):
                return False
    return True


# -- homotopies ------------------------------------------------------------


def _solve_homotopy(
    src: DSequence,
    dst: DSequence,
    phis: Sequence[Morphism],
    zero_slots: Sequence[int] = (),
) -> Optional[List[Morphism]]:
    """Solve phi = h o a + b o h jointly; None when no homotopy exists.

    The unknown h_i maps src term i+1 to dst term i; slots listed in
    zero_slots are pinned to the zero morphism.
    """
    n = len(src.terms)
    if len(dst.terms) != n or len(phis) != n:
        raise DimensionMismatch("homotopy data has mismatched lengths")
    field = src.terms[0].field
    slots = range(n - 1)
    widths = [
        0 if i in zero_slots else repcat.hom_dim(src.terms[i + 1], dst.terms[i]) for i in slots
    ]
    heights = [repcat.hom_flat_dim(s, t) for s, t in zip(src.terms, dst.terms)]
    system = [[0] * sum(widths) for _ in range(sum(heights))]

    def place(block: Matrix, r: int, c: int):
        for k, row in enumerate(block.entries):
            system[r + k][c : c + block.cols] = row

    for i in slots:
        if widths[i]:
            r, c = sum(heights[:i]), sum(widths[:i])
            # h_i enters equation i as h_i o a_i and equation i+1 as b_i o h_i
            place(repcat.hom_composites(src.maps[i], dst.terms[i]), r, c)
            place(repcat.hom_composites(src.terms[i + 1], dst.maps[i]), r + heights[i], c)
    rhs = Matrix.column(field, [t for phi in phis for t in repcat.hom_vec(phi)])
    sol = exactlin.solve(Matrix(field, system, sum(widths)), rhs)
    if sol is None:
        return None
    out: List[Morphism] = []
    for i in slots:
        x, y, c = src.terms[i + 1], dst.terms[i], sum(widths[:i])
        if widths[i]:
            coords = Matrix(field, sol.entries[c : c + widths[i]], 1)
            flat = [row[0] for row in (repcat.hom_space_matrix(x, y) @ coords).entries]
        else:
            flat = [0] * repcat.hom_flat_dim(x, y)
        out.append(repcat.morphism_from_vec(x, y, flat, _skip_check=True))
    return out


def null_homotopy(phi: ComplexMorphism) -> Optional[List[Morphism]]:
    """A null homotopy of a chain map, preferring one with vanishing start.

    When the degree-zero component is zero, a homotopy whose first slot
    is pinned to zero is tried first and kept when it exists.
    """
    if phi.maps[0].is_zero():
        h = _solve_homotopy(phi.src, phi.dst, phi.maps, zero_slots=(0,))
        if h is not None:
            return h
    return _solve_homotopy(phi.src, phi.dst, phi.maps)


def identity_chain(seq: DSequence) -> List[Morphism]:
    return [Morphism.identity(t) for t in seq.terms]


def contraction(seq: DSequence) -> Optional[List[Morphism]]:
    """A null homotopy of the identity, when the complex is contractible."""
    return _solve_homotopy(seq, seq, identity_chain(seq))


def is_contractible(seq: DSequence) -> bool:
    """Split-end test: the end map admits a section."""
    return repcat.is_split_epi(seq.right_map)


# -- classical squares -------------------------------------------------------


def pullback(f: Morphism, g: Morphism):
    """Classical pullback of f: X -> Z and g: Y -> Z.

    Returns (P, to_x, to_y, incl) with incl the kernel inclusion into X + Y.
    """
    if f.codomain is not g.codomain:
        raise DimensionMismatch("pullback legs must share a codomain")
    total, _, projs = repcat.direct_sum([f.domain, g.domain])
    p, incl = repcat.kernel(repcat.block_map(total, f.codomain, [[f, -g]]))
    return p, projs[0] @ incl, projs[1] @ incl, incl


def pushout(f: Morphism, g: Morphism):
    """Classical pushout of f: Z -> X and g: Z -> Y.

    Returns (Q, from_x, from_y, proj) with proj the cokernel projection.
    """
    if f.domain is not g.domain:
        raise DimensionMismatch("pushout legs must share a domain")
    total, incs, _ = repcat.direct_sum([f.codomain, g.codomain])
    q, proj = repcat.cokernel(repcat.block_map(f.domain, total, [[f], [-g]]))
    return q, proj @ incs[0], proj @ incs[1], proj


# -- pullback and pushout staircases ----------------------------------------


def _pullback_staircase(cat: AddCategory, bottom: DSequence, fmap: Morphism):
    """Shared construction; also returns the final stage's kernel inclusion."""
    d = cat.d
    if len(bottom.terms) != d + 1:
        raise DimensionMismatch("the tail must have d+1 terms")
    if fmap.codomain is not bottom.right_term:
        raise DimensionMismatch("the leg must map into the right end of the tail")
    delta = bottom.maps[d - 1]
    alpha = fmap
    tops_rev: List[Module] = [fmap.domain]
    top_maps_rev: List[Morphism] = []
    downs_rev: List[Morphism] = [fmap]
    last_incl: Optional[Morphism] = None
    for i in range(d, 0, -1):
        p, q, r, incl = pullback(delta, alpha)
        if i > 1:
            approx = minimal_right_approximation(cat, p)
            tops_rev.append(approx.domain)
            top_maps_rev.append(r @ approx)
            downs_rev.append(q @ approx)
            zero_leg = Morphism.zero(bottom.terms[i - 2], alpha.domain)
            pair = repcat.block_map(
                bottom.terms[i - 2], incl.codomain, [[bottom.maps[i - 2]], [zero_leg]]
            )
            delta = repcat.factor_through(pair, incl)
            if delta is None:
                raise InvalidMorphism("staircase step failed to land in the pullback")
            alpha = approx
        else:
            tops_rev.append(p)
            top_maps_rev.append(r)
            downs_rev.append(q)
            last_incl = incl
    top = DSequence(list(reversed(tops_rev)), list(reversed(top_maps_rev)))
    morphism = ComplexMorphism(top, bottom, list(reversed(downs_rev)))
    return morphism, last_incl, alpha.domain


def d_pullback(cat: AddCategory, bottom: DSequence, fmap: Morphism) -> ComplexMorphism:
    """Pull a (d+1)-term tail back along a map into its right end.

    The mapping cone of the returned morphism of complexes is left
    d-exact; the intermediate pullbacks are covered by minimal right
    approximations.
    """
    morphism, _, _ = _pullback_staircase(cat, bottom, fmap)
    return morphism


def d_pullback_complete(cat: AddCategory, seq: DSequence, fmap: Morphism):
    """Pull a full (d+2)-term sequence back, inducing the kernel row.

    Returns the completed morphism of complexes: its source keeps the
    original left term, mapped by the identity.
    """
    if len(seq.terms) != cat.d + 2:
        raise DimensionMismatch("the sequence must have d+2 terms")
    tail = DSequence(seq.terms[1:], seq.maps[1:], _skip_check=True)
    morphism, incl, next_obj = _pullback_staircase(cat, tail, fmap)
    left = seq.left_term
    zero_leg = Morphism.zero(left, next_obj)
    pair = repcat.block_map(left, incl.codomain, [[seq.maps[0]], [zero_leg]])
    induced = repcat.factor_through(pair, incl)
    if induced is None:
        raise InvalidMorphism("left term failed to land in the stage-one pullback")
    top = DSequence(
        [left] + list(morphism.src.terms),
        [induced] + list(morphism.src.maps),
    )
    chain = [Morphism.identity(left)] + list(morphism.maps)
    return ComplexMorphism(top, seq, chain)


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


def mapping_cone(src: DSequence, dst: DSequence, phis: Sequence[Morphism]) -> DSequence:
    """Cone of a chain map between complexes of equal length.

    Term i is (src term i) + (dst term i-1), with the source differential
    negated, matching the usual sign convention.
    """
    if not is_chain_map(src, dst, phis):
        raise InvalidMorphism("cone input is not a chain map")
    n = len(src.terms)
    zero = repcat.zero_module(src.terms[0].algebra)
    src_ext = list(src.terms) + [zero]
    dst_ext = [zero] + list(dst.terms)
    terms = [repcat.sum_module([s, t]) for s, t in zip(src_ext, dst_ext)]
    maps = []
    for i in range(n):
        top = -src.maps[i] if i < n - 1 else Morphism.zero(src_ext[i], zero)
        below = dst.maps[i - 1] if i > 0 else Morphism.zero(zero, dst_ext[i + 1])
        grid = [[top, Morphism.zero(dst_ext[i], src_ext[i + 1])], [phis[i], below]]
        maps.append(repcat.block_map(terms[i], terms[i + 1], grid))
    return DSequence(terms, maps)


# -- defects ----------------------------------------------------------------


def defect_contravariant(seq: DSequence, x: Module) -> exactlin.Quotient:
    """Hom(x, right end) modulo maps lifting along the end map."""
    ambient = repcat.hom_space_matrix(x, seq.right_term)
    return exactlin.quotient(ambient, repcat.hom_image(x, seq.right_map))


def defect_covariant(seq: DSequence, y: Module) -> exactlin.Quotient:
    """Hom(left end, y) modulo maps extending along the start map."""
    ambient = repcat.hom_space_matrix(seq.left_term, y)
    return exactlin.quotient(ambient, repcat.hom_coimage(seq.left_map, y))


def long_exact_extension_ok(seq: DSequence, x: Module) -> bool:
    """Dimension bookkeeping for the extension of the hom sequence by Ext^d.

    Checks hom-exactness of 0 -> (x, T_0) -> ... -> (x, T_n) away from
    the last spot, then that the leftover at the last spot matches the
    kernel of the induced map on Ext^d between the first two terms.
    """
    mats = [repcat.hom_composites(x, f) for f in seq.maps]
    if _first_inexact_position(mats) is not None:
        return False
    defect = defect_contravariant(seq, x).dim
    ext_mat = homological.ext_map_post(x, seq.left_map, seq.d)
    ext_kernel = ext_mat.cols - exactlin.rank(ext_mat)
    return defect == ext_kernel


# -- construction from the right end ----------------------------------------


def build_left_d_exact(cat: AddCategory, g: Morphism) -> DSequence:
    """The first d maps of the add M-resolution of g, then the last kernel.

    Starting from g: C -> N, `add_resolution` covers the kernel of each
    map by a minimal right approximation; the kernel of the d-th map is
    kept as the left term, giving d+2 terms in total.
    """
    maps = list(islice(add_resolution(cat, g), cat.d))
    maps = [repcat.kernel(maps[-1])[1]] + maps[::-1]
    return DSequence([f.domain for f in maps] + [g.codomain], maps)
