"""Cluster-tilting certificates, the higher translation, and almost-split data.

Everything here runs over a finite, explicitly enumerated universe of
indecomposables.  The certifier compares an additive subcategory against
both orthogonality conditions by brute force; the verification routines
re-check the structural identities (translation equivalence, defect
formula, duality of dimensions) numerically, with exact arithmetic and
zero tolerance.  Determined morphisms are produced by an eight-step
construction that mirrors the abstract existence argument but replaces
each existence quantifier with a finite search, and every output is
post-verified before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from . import approx, config, dexact, exactlin, homological, repcat
from .algebra import BoundQuiverAlgebra
from .approx import AddCategory
from .dexact import DSequence
from .errors import (
    CapExceeded,
    InvalidModule,
    InvalidSubmodule,
    VerificationFailed,
)
from .exactlin import Matrix
from .repcat import Module, Morphism


# -- exhaustive enumeration of indecomposables ------------------------------


def enumerate_indecomposables(
    algebra: BoundQuiverAlgebra, total_dim_bound: int, cap=None
) -> List[Module]:
    """All indecomposables of total dimension <= bound, up to isomorphism.

    Scans every dimension vector and every arrow-matrix assignment over
    the base field, keeps those satisfying the relations, filters to the
    indecomposable ones and deduplicates by isomorphism.  The first
    representative found (in scan order) is kept, so the output order is
    reproducible: by total dimension, then dimension vector, then matrix
    counter.
    """
    if total_dim_bound < 1:
        return []
    quiver = algebra.quiver
    field = algebra.field
    nv = quiver.n_vertices
    limit = config.scan_cap(cap)
    dim_vectors = sorted(
        (
            t
            for t in product(range(total_dim_bound + 1), repeat=nv)
            if 1 <= sum(t) <= total_dim_bound
        ),
        key=lambda t: (sum(t), t),
    )
    found: List[Module] = []
    budget = 0
    for dims in dim_vectors:
        exponent = sum(dims[a.target] * dims[a.source] for a in quiver.arrows)
        count = field.p**exponent
        budget += count
        if budget > limit:
            raise CapExceeded.over(
                "enumerate_indecomposables", dims, f"{budget}+ arrow-matrix assignments", limit
            )
        for counter in range(count):
            maps = []
            rem = counter
            for a in quiver.arrows:
                r, c = dims[a.target], dims[a.source]
                data = [[0] * c for _ in range(r)]
                for k in range(r * c):
                    data[k // c][k % c] = rem % field.p
                    rem //= field.p
                maps.append(Matrix(field, data, c))
            if not repcat.relations_hold(algebra, list(dims), maps):
                continue
            m = Module(algebra, list(dims), maps, _skip_check=True)
            if repcat.is_indecomposable(m):
                found.append(m)
    return repcat.iso_classes(found)[0]


# -- rigidity and the cluster-tilting certificate ----------------------------


@dataclass
class RigidityReport:
    """Self-extension table of an additive subcategory in degrees < d."""

    d: int
    ok: bool
    table: List[Dict[str, int]]

    def __bool__(self) -> bool:
        return self.ok


def is_d_rigid(cat: AddCategory) -> RigidityReport:
    """Whether all self-extensions vanish in degrees 1..d-1, with the table."""
    table: List[Dict[str, int]] = []
    ok = True
    for i in range(1, cat.d):
        for gi, g in enumerate(cat.generators):
            for gj, g2 in enumerate(cat.generators):
                dim = homological.ext_dim(g, g2, i)
                table.append(
                    {"degree": i, "source": gi, "target": gj, "dim": dim}
                )
                if dim != 0:
                    ok = False
    return RigidityReport(cat.d, ok, table)


@dataclass
class ClusterTiltingReport:
    """Certificate comparing an additive subcategory with both orthogonals."""

    d: int
    generator_dims: List[List[int]]
    universe_dims: List[List[int]]
    rigidity: RigidityReport
    rows: List[Dict[str, object]]
    generating: bool
    cogenerating: bool
    witnesses: List[str]
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def is_d_cluster_tilting(cat: AddCategory, universe: Sequence[Module]) -> ClusterTiltingReport:
    """Certify the defining property over a complete list of indecomposables.

    Three subsets of the universe are compared pointwise: membership in
    the additive closure, vanishing of extensions into the generators,
    and vanishing of extensions out of the generators (in all degrees
    1..d-1).  The verdict also requires every indecomposable projective
    and injective to be a member.
    """
    rigidity = is_d_rigid(cat)
    degrees = range(1, cat.d)
    rows: List[Dict[str, object]] = []
    witnesses: List[str] = []
    sets_match = True
    for idx, x in enumerate(universe):
        member = cat.contains(x)
        into = all(
            homological.ext_dim(x, g, i) == 0 for g in cat.generators for i in degrees
        )
        outof = all(
            homological.ext_dim(g, x, i) == 0 for g in cat.generators for i in degrees
        )
        rows.append(
            {
                "index": idx,
                "dims": list(x.dims),
                "in_category": member,
                "left_orthogonal": into,
                "right_orthogonal": outof,
            }
        )
        if not (member == into == outof):
            sets_match = False
            witnesses.append(
                f"universe[{idx}] dims {list(x.dims)}: member={member}, "
                f"kills-into={into}, killed-from={outof}"
            )
    algebra = cat.algebra
    generating = all(
        cat.contains(repcat.projective(algebra, v))
        for v in range(algebra.quiver.n_vertices)
    )
    cogenerating = all(
        cat.contains(repcat.injective(algebra, v))
        for v in range(algebra.quiver.n_vertices)
    )
    if not generating:
        witnesses.append("some indecomposable projective is missing")
    if not cogenerating:
        witnesses.append("some indecomposable injective is missing")
    ok = rigidity.ok and sets_match and generating and cogenerating
    return ClusterTiltingReport(
        d=cat.d,
        generator_dims=[list(g.dims) for g in cat.generators],
        universe_dims=[list(x.dims) for x in universe],
        rigidity=rigidity,
        rows=rows,
        generating=generating,
        cogenerating=cogenerating,
        witnesses=witnesses,
        ok=ok,
    )


# -- verification of the translation and the dimension formulas -------------


def _pool_translates(cat: AddCategory):
    """Pool members split by projectivity/injectivity, with cached translates."""
    pool = cat._summand_pool()
    nonproj = [i for i, x in enumerate(pool) if not homological.is_projective(x)]
    noninj = [i for i, x in enumerate(pool) if not homological.is_injective(x)]
    translate = {i: homological.tau_d(pool[i], cat.d) for i in nonproj}
    return pool, nonproj, noninj, translate


@dataclass
class TauEquivalenceReport:
    """Numerical check that the higher translation is an equivalence."""

    pairs: List[Dict[str, int]]
    bijection: bool
    inverses_ok: bool
    stable_rows: List[Dict[str, object]]
    stable_ok: bool
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_tau_d_equivalence(cat: AddCategory) -> TauEquivalenceReport:
    """Check translation bijectivity, two-sided inversion, and hom dimensions.

    (a) the translation sends each non-projective pool member to a
    non-injective pool member, hitting each exactly once; (b) composing
    with the inverse translation returns the original module up to
    isomorphism, from both sides; (c) hom spaces modulo projectives
    match hom spaces modulo injectives after translating both arguments.
    """
    pool, nonproj, noninj, translate = _pool_translates(cat)
    d = cat.d
    pairs: List[Dict[str, int]] = []
    targets: List[Optional[int]] = []
    for i in nonproj:
        match = None
        for j in noninj:
            if repcat.are_isomorphic(translate[i], pool[j]):
                match = j
                break
        targets.append(match)
        pairs.append({"source": i, "target": -1 if match is None else match})
    hit = [t for t in targets if t is not None]
    bijection = (
        all(t is not None for t in targets)
        and len(set(hit)) == len(hit)
        and len(hit) == len(noninj)
    )
    inverses_ok = True
    for i in nonproj:
        back = homological.tau_d_minus(translate[i], d)
        if not repcat.are_isomorphic(back, pool[i]):
            inverses_ok = False
    for j in noninj:
        forth = homological.tau_d(homological.tau_d_minus(pool[j], d), d)
        if not repcat.are_isomorphic(forth, pool[j]):
            inverses_ok = False
    stable_rows: List[Dict[str, object]] = []
    stable_ok = True
    for i in nonproj:
        for j in nonproj:
            s = homological.projectively_stable_dim(pool[i], pool[j])
            c = homological.injectively_stable_dim(translate[i], translate[j])
            good = s == c
            stable_rows.append(
                {"x": i, "y": j, "stable": s, "costable": c, "ok": good}
            )
            if not good:
                stable_ok = False
    ok = bijection and inverses_ok and stable_ok
    return TauEquivalenceReport(pairs, bijection, inverses_ok, stable_rows, stable_ok, ok)


@dataclass
class DefectFormulaReport:
    """Contravariant defect at X versus covariant defect at the translate."""

    rows: List[Dict[str, object]]
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_defect_formula(seq: DSequence, cat: AddCategory) -> DefectFormulaReport:
    """Compare both defect dimensions of a sequence over the whole pool."""
    pool, nonproj, _, translate = _pool_translates(cat)
    rows: List[Dict[str, object]] = []
    ok = True
    for i in nonproj:
        lhs = dexact.defect_contravariant(seq, pool[i]).dim
        rhs = dexact.defect_covariant(seq, translate[i]).dim
        good = lhs == rhs
        rows.append({"x": i, "contravariant": lhs, "covariant": rhs, "ok": good})
        if not good:
            ok = False
    return DefectFormulaReport(rows, ok)


@dataclass
class ARDualityReport:
    """Stable hom dimensions against top-degree extension dimensions."""

    rows: List[Dict[str, object]]
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_ar_duality(cat: AddCategory) -> ARDualityReport:
    """dim of stable Hom(X, Y) must equal dim of Ext^d(Y, translate of X)."""
    pool, nonproj, _, translate = _pool_translates(cat)
    d = cat.d
    rows: List[Dict[str, object]] = []
    ok = True
    for i in nonproj:
        for j, y in enumerate(pool):
            lhs = homological.projectively_stable_dim(pool[i], y)
            rhs = homological.ext_dim(y, translate[i], d)
            good = lhs == rhs
            rows.append({"x": i, "y": j, "stable_hom": lhs, "ext": rhs, "ok": good})
            if not good:
                ok = False
    return ARDualityReport(rows, ok)


# -- determined morphisms ----------------------------------------------------


@dataclass
class DeterminedReport:
    """Outcome of the brute-force determinedness test, with a witness."""

    ok: bool
    witness_index: Optional[int]
    witness: Optional[Morphism]

    def __bool__(self) -> bool:
        return self.ok


def is_right_X_determined(g: Morphism, x: Module, universe: Sequence[Module]) -> DeterminedReport:
    """Test determinedness of g by x against every test object in order.

    For each V the maps h: V -> cod(g) whose composites with every
    X -> V land in the image of postcomposition by g form a linear
    subspace; g passes at V when that subspace is contained in the image
    of Hom(V, g).  The first failing V yields the witness map.
    """
    n = g.codomain
    amb_xn = repcat.hom_space_matrix(x, n)
    img_xn = repcat.hom_image(x, g)
    _, q = exactlin.quotient(amb_xn, img_xn)
    for vi, v in enumerate(universe):
        m = repcat.hom_dim(v, n)
        if m == 0:
            continue
        blocks = [q @ repcat.hom_composites(phi, n) for phi in repcat.hom_basis(x, v)]
        condition = exactlin.kernel_basis(exactlin.vstack(blocks, field=n.field, cols=m))
        if condition.cols == 0:
            continue
        space_vn = repcat.hom_space_matrix(v, n)
        img_coords = exactlin.solve(space_vn, repcat.hom_image(v, g))
        for j in range(condition.cols):
            if not exactlin.contains(img_coords, condition.col(j)):
                flat = space_vn @ condition.col(j)
                witness = repcat.morphism_from_vec(v, n, flat.columns()[0])
                return DeterminedReport(False, vi, witness)
    return DeterminedReport(True, None, None)


@dataclass
class DeterminerReport:
    """Confirmation that the canonical objects determine a sequence's end map."""

    with_regular_ok: bool
    epi: bool
    translate_only_ok: Optional[bool]


def right_determiner_check(seq: DSequence, cat: AddCategory) -> DeterminerReport:
    """Assert the end map is determined by (regular module + inverse translate).

    When the end map is surjective, the inverse translate of the left
    term must determine it on its own.  Failures raise, since they
    contradict a theorem-backed guarantee.
    """
    universe = cat._summand_pool()
    g = seq.right_map
    t = homological.tau_d_minus(seq.left_term, cat.d)
    reg, _, _ = repcat.regular(cat.algebra)
    combined, _, _ = repcat.direct_sum([reg, t])
    rep = is_right_X_determined(g, combined, universe)
    if not rep.ok:
        raise VerificationFailed(
            f"regular-plus-translate fails to determine the end map at "
            f"pool index {rep.witness_index}"
        )
    epi = g.is_epi()
    translate_only: Optional[bool] = None
    if epi:
        rep_t = is_right_X_determined(g, t, universe)
        if not rep_t.ok:
            raise VerificationFailed(
                f"inverse translate alone fails to determine the surjective "
                f"end map at pool index {rep_t.witness_index}"
            )
        translate_only = True
    return DeterminerReport(True, epi, translate_only)


def factorization_check(seq: DSequence, x: Module) -> Tuple[bool, bool]:
    """Two factorization statements that must agree for a d-exact sequence.

    Returns (every map from the left term to x extends along the first
    map, every map from the inverse translate of x to the right term
    lifts along the last map) and raises when the two disagree.
    """
    f = seq.left_map
    g = seq.right_map
    first = repcat.hom_coimage(f, x).cols == repcat.hom_dim(seq.left_term, x)
    t = homological.tau_d_minus(x, seq.d)
    second = repcat.hom_image(t, g).cols == repcat.hom_dim(t, seq.right_term)
    if first != second:
        raise VerificationFailed(
            f"factorization statements disagree: through-first={first}, "
            f"through-last={second}"
        )
    return first, second


class EndSubmodule:
    """A subspace of Hom(x, n) closed under precomposing with End(x).

    The basis is stored in flat hom coordinates and canonicalized;
    closure and containment in the hom space are validated eagerly.
    """

    def __init__(self, x: Module, n: Module, basis: Matrix):
        flat = repcat.hom_flat_dim(x, n)
        if basis.rows != flat:
            raise InvalidSubmodule(
                f"basis lives in dimension {basis.rows}, hom space is {flat}"
            )
        space = repcat.hom_space_matrix(x, n)
        if basis.cols and exactlin.solve(space, basis) is None:
            raise InvalidSubmodule("basis vectors are not morphisms x -> n")
        self.x = x
        self.n = n
        self.basis = exactlin.canonical_basis(basis)
        for vec in self.basis.columns():
            h = repcat.morphism_from_vec(x, n, vec)
            if not exactlin.contains(self.basis, repcat.hom_composites(x, h)):
                raise InvalidSubmodule("subspace is not closed under precomposition")

    @property
    def dim(self) -> int:
        return self.basis.cols

    @classmethod
    def zero(cls, x: Module, n: Module) -> "EndSubmodule":
        return cls(x, n, Matrix.zeros(x.field, repcat.hom_flat_dim(x, n), 0))

    @classmethod
    def full(cls, x: Module, n: Module) -> "EndSubmodule":
        return cls(x, n, repcat.hom_space_matrix(x, n))

    @classmethod
    def radical(cls, x: Module, n: Module) -> "EndSubmodule":
        return cls(x, n, repcat.rad_hom_basis(x, n))

    def __repr__(self):
        return f"EndSubmodule(dim {self.dim} of Hom({self.x!r}, {self.n!r}))"


def _scan_space(field, count_exponent: int, cap, operation: str, dims) -> int:
    """Number of scan iterations p^count_exponent, guarded by the cap."""
    total = field.p ** count_exponent
    limit = config.scan_cap(cap)
    if total > limit:
        raise CapExceeded.over(operation, dims, f"a scan of {field.p}^{count_exponent}", limit)
    return total


def all_end_submodules(x: Module, n: Module, cap=None) -> List[EndSubmodule]:
    """Every subspace of Hom(x, n) closed under End(x)-precomposition.

    Enumerates all subspaces of the hom space (so the hom dimension and
    the field must be tiny) and keeps the closed ones, in the canonical
    subspace order.
    """
    m = repcat.hom_dim(x, n)
    field = x.field
    _scan_space(field, m * m, cap, "all_end_submodules of Hom(x, n)", n.dims)
    space = repcat.hom_space_matrix(x, n)
    out: List[EndSubmodule] = []
    for coords in exactlin.all_subspaces(field, m):
        try:
            out.append(EndSubmodule(x, n, space @ coords))
        except InvalidSubmodule:
            continue
    return out


def _largest_admissible_submodule(
    x: Module, n: Module, h: EndSubmodule, cap=None
) -> Tuple[Module, Morphism]:
    """Sum of all cyclic submodules U of n whose trace condition lands in h.

    A cyclic submodule passes when every map x -> n that factors through
    a projective and has image inside U already lies in h.  Generators
    supported at a single vertex suffice: a general cyclic submodule is
    the sum of the single-vertex cyclics it contains, and passing the
    test is inherited by submodules.
    """
    field = n.field
    quiver = n.algebra.quiver
    _, aug, _ = repcat.projective_cover(n)
    through_proj = repcat.hom_image(x, aug)
    spans = [Matrix.zeros(field, n.dims[v], 0) for v in range(quiver.n_vertices)]
    for v in range(quiver.n_vertices):
        dv = n.dims[v]
        if dv == 0:
            continue
        count = _scan_space(field, dv, cap, "determined_morphism", n.dims)
        for counter in range(1, count):
            vec = []
            rem = counter
            for k in range(dv):
                vec.append(rem % field.p)
                rem //= field.p
            seed = [
                Matrix.column(field, vec) if w == v else Matrix.zeros(field, n.dims[w], 0)
                for w in range(quiver.n_vertices)
            ]
            sub, incl = repcat.submodule_generated(n, seed)
            into_u = repcat.hom_image(x, incl)
            meet = exactlin.intersect(through_proj, into_u)
            if exactlin.subspace_leq(meet, h.basis):
                for w in range(quiver.n_vertices):
                    spans[w] = exactlin.subspace_sum(spans[w], incl.comps[w])
    return repcat.submodule(n, spans)


def _defect_cover_map(seq: DSequence, target: Module) -> Morphism:
    """Minimal cover of the covariant defect at the target, as a single map.

    Lifts a basis of (defect modulo its radical part) to maps out of the
    left term; gluing them gives a map into a multiple of the target
    whose induced transformation covers the defect functor minimally.
    """
    left = seq.left_term
    dc = dexact.defect_covariant(seq, target)
    if dc.dim == 0:
        return Morphism.zero(left, repcat.zero_module(left.algebra))
    field = left.field
    rad_end = repcat.rad_hom_basis(target, target)
    # r o (a map extending along the start map) extends too, so the radical
    # part of the defect is spanned by r o h over the whole of Hom(left, target)
    rad_cols = [
        dc.proj @ repcat.hom_composites(left, repcat.morphism_from_vec(target, target, vec))
        for vec in rad_end.columns()
    ]
    rad_part = exactlin.hstack(rad_cols, field=field, rows=dc.dim)
    gen_classes, _ = exactlin.quotient(Matrix.identity(field, dc.dim), rad_part)
    mors = [
        repcat.morphism_from_vec(left, target, vec)
        for vec in (dc.reps @ gen_classes).columns()
    ]
    _, hmap, _, _ = repcat.glue_rows(left, [target] * len(mors), mors)
    return hmap


def determined_morphism(
    cat: AddCategory, x: Module, n: Module, h: EndSubmodule, cap=None
) -> Morphism:
    """A morphism into n whose image under Hom(x, -) is exactly h.

    Construction: (1) approximate the largest admissible submodule of n,
    giving u; (2) pull h back along postcomposition with u; (3) glue a
    spanning set of the preimage with a projective cover; (4) resolve
    the glued surjection into a d-exact sequence; (5) cover the
    covariant defect at the translate of x minimally; (6) push the
    sequence out along that cover; (7) compose the pushed-out end map
    with u; (8) re-check both required properties by brute force and
    refuse to return an unverified map.
    """
    if h.x is not x or h.n is not n:
        raise InvalidSubmodule("the submodule must live in Hom(x, n)")
    if not cat.contains(x) or not cat.contains(n):
        raise InvalidModule("both modules must lie in the subcategory")
    universe = cat._summand_pool()

    # (1) largest admissible submodule, approximated from the subcategory
    ustar, ustar_incl = _largest_admissible_submodule(x, n, h, cap)
    u0 = approx.minimal_right_approximation(cat, ustar)
    u = ustar_incl @ u0
    n_h = u.domain

    # (2) preimage of h under postcomposition with u
    _, q_h = exactlin.quotient(repcat.hom_space_matrix(x, n), h.basis)
    pre_coords = exactlin.kernel_basis(q_h @ repcat.hom_composites(x, u))
    pre_flat = repcat.hom_space_matrix(x, n_h) @ pre_coords

    # (3) spanning set of the preimage plus a projective cover
    gens = [repcat.morphism_from_vec(x, n_h, vec) for vec in pre_flat.columns()]
    x_parts = repcat.split_summands(x)
    _, paug, _, p_incs, _ = repcat._projective_cover(n_h)
    summands = [z for _ in gens for z, _, _ in x_parts] + [inc.domain for inc in p_incs]
    pieces = [f @ inc for f in gens for _, inc, _ in x_parts] + [paug @ inc for inc in p_incs]
    gmin, _ = approx.minimal_cover(n_h, summands, pieces)

    # (4) resolve into a d-exact sequence
    seq = dexact.build_left_d_exact(cat, gmin)

    # (5) minimal cover of the covariant defect at the translate of x
    taux = homological.tau_d(x, cat.d)
    hmap = _defect_cover_map(seq, taux)

    # (6, 7) push out along the cover and come back through u
    push = dexact.d_pushout_complete(cat, seq, hmap)
    g_x = push.dst.maps[-1]
    g = u @ g_x

    # (8) mandatory post-verification
    if not exactlin.subspace_eq(repcat.hom_image(x, g), h.basis):
        raise VerificationFailed(
            "constructed morphism has the wrong image under Hom(x, -)"
        )
    rep = is_right_X_determined(g, x, universe)
    if not rep.ok:
        raise VerificationFailed(
            f"constructed morphism is not determined by x "
            f"(pool witness index {rep.witness_index})"
        )
    return g


# -- almost-split data -------------------------------------------------------


def _minimal_cover(cat: AddCategory, y: Module, flat: Matrix) -> Morphism:
    """Right-minimal version of the map M^k -> y glued from k flat columns.

    M^k is never built: each column is composed with the kept summands of M.
    """
    m = cat.additive_generator()
    parts = cat._generator_parts()
    mors = [repcat.morphism_from_vec(m, y, vec) for vec in flat.columns()]
    summands = [z for _ in mors for z, _, _ in parts]
    pieces = [f @ inc for f in mors for _, inc, _ in parts]
    g, _ = approx.minimal_cover(y, summands, pieces)
    return g


def right_almost_split(cat: AddCategory, n: Module) -> Morphism:
    """The minimal right almost split map onto an indecomposable member.

    Assembled from a basis of the radical maps out of the additive
    generator, then right-minimalized.  The almost-split property is
    verified exhaustively over the pool before returning.
    """
    if not repcat.is_indecomposable(n):
        raise InvalidModule("the target must be indecomposable")
    if not cat.contains(n):
        raise InvalidModule("the target must lie in the subcategory")
    g = _minimal_cover(cat, n, repcat.rad_hom_basis(cat.additive_generator(), n))
    if repcat.is_split_epi(g):
        raise VerificationFailed("the assembled radical map splits")
    for vi, v in enumerate(cat._summand_pool()):
        needed = repcat.rad_hom_basis(v, n)
        if not exactlin.subspace_leq(needed, repcat.hom_image(v, g)):
            raise VerificationFailed(
                f"a non-retraction from pool index {vi} does not factor"
            )
    return g


def d_almost_split(cat: AddCategory, n: Module) -> DSequence:
    """The d-almost-split sequence ending at an indecomposable non-projective.

    Builds the right almost split map, resolves it, and then checks the
    whole package: surjectivity, radical interior maps, left minimality,
    the left almost split property (exhaustively over the pool), module
    exactness, and that the left term is the translate of the end term.
    """
    if not repcat.is_indecomposable(n):
        raise InvalidModule("the end term must be indecomposable")
    if homological.is_projective(n):
        raise InvalidModule("no such sequence ends at a projective module")
    if not cat.contains(n):
        raise InvalidModule("the end term must lie in the subcategory")
    g = right_almost_split(cat, n)
    if not g.is_epi():
        raise VerificationFailed(
            "right almost split map onto a non-projective must be surjective"
        )
    built = dexact.build_left_d_exact(cat, g)
    seq = DSequence(built.terms, built.maps, category=cat, _skip_check=True)
    for i, mmap in enumerate(seq.maps[1:-1], start=1):
        if not repcat.is_radical_morphism(mmap):
            raise VerificationFailed(f"interior map {i} is not radical")
    f = seq.left_map
    if repcat.is_split_mono(f):
        raise VerificationFailed("the start map splits")
    if not approx.is_left_minimal(f):
        raise VerificationFailed("the start map is not left minimal")
    left = seq.left_term
    for vi, v in enumerate(cat._summand_pool()):
        needed = repcat.rad_hom_basis(left, v)
        if not exactlin.subspace_leq(needed, repcat.hom_coimage(f, v)):
            raise VerificationFailed(
                f"a non-section into pool index {vi} does not extend"
            )
    if not dexact.is_exact_complex(seq):
        raise VerificationFailed("the resolved sequence is not exact")
    translate = homological.tau_d(n, cat.d)
    if not repcat.are_isomorphic(left, translate):
        raise VerificationFailed(
            "the left term is not the translate of the end term"
        )
    return seq


# -- homological sizes of the endomorphism side ------------------------------


def _functor_pd(cat: AddCategory, nj: Module) -> int:
    """Projective dimension of the simple functor attached to a pool member.

    Walks the tower: cover the radical maps into nj minimally, then
    repeatedly cover the kernel of postcomposition (evaluated at the
    additive generator) until it vanishes, for at most RESOLUTION_CAP steps.
    """
    m = cat.additive_generator()
    rad_flat = repcat.rad_hom_basis(m, nj)
    if rad_flat.cols == 0:
        return 0
    r = _minimal_cover(cat, nj, rad_flat)
    limit = config.RESOLUTION_CAP
    for k in range(limit):
        ker = exactlin.kernel_basis(repcat.hom_composites(m, r))
        if ker.cols == 0:
            return k + 1
        r = _minimal_cover(cat, r.domain, repcat.hom_space_matrix(m, r.domain) @ ker)
    raise CapExceeded.over(
        "gldim_end", nj.dims, f"a functor resolution longer than {limit}", limit,
        "config.RESOLUTION_CAP",
    )


def gldim_end(cat: AddCategory) -> int:
    """Global dimension of the endomorphism algebra of the additive generator.

    Computed as the maximum projective dimension of the simple functors,
    one per pool member, via towers of minimal covers.
    """
    return max(_functor_pd(cat, nj) for nj in cat._summand_pool())


def domdim_end(cat: AddCategory):
    """Dominant dimension of the endomorphism algebra (external criterion).

    Uses the first non-vanishing self-extension degree of the additive
    generator plus one; this characterization of the dominant dimension
    of the endomorphism algebra of a generator-cogenerator is imported
    from outside the sequence calculus implemented here.  Returns
    math.inf when every self-extension vanishes and the algebra's global
    dimension certifies that no later degree can contribute.  Degrees
    are bounded by config.RESOLUTION_CAP.
    """
    m = cat.additive_generator()
    limit = config.RESOLUTION_CAP
    for i in range(1, limit + 1):
        if homological.ext_dim(m, m, i) != 0:
            return i + 1
    gd = homological.gldim(cat.algebra)
    if gd <= limit:
        return math.inf
    raise CapExceeded.over(
        "domdim_end", m.dims, f"Ext degrees past {limit} (gldim {gd})", limit,
        "config.RESOLUTION_CAP",
    )
