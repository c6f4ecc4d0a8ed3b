"""Cluster-tilting certificates, the higher translation, and almost-split data.

Ext between objects of add M is one table per degree over pairs of pool
members (`_ext_table`), computed at most once per category; Ext is
additive, so rigidity, the certificate and domdim End(M) read it and M is
never glued.  The verification routines re-check the structural
identities with exact arithmetic and zero tolerance.  Almost-split maps and gldim End(M) cover
rad(-, Z) by the summands of M, once per category and Z; for a projective Z,
rad(-, Z) = Hom(-, rad Z) is covered by the minimal right approximation of rad Z.  The
d-almost-split sequence and the resolutions of the simple functors are
then read off one add M-resolution, `approx.add_resolution`, whose steps
are kept on the modules they approximate.
Determined morphisms follow the eight steps of the existence argument;
only the largest admissible submodule still scans, under the scan cap.
Every output is post-verified before it is returned.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import mul
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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

    Keeps the first representative of each class in scan order: by total
    dimension, then dimension vector, then matrix counter.  Rescaling the
    basis vectors of the vertex spaces keeps a class, and a class's first
    member in counter order is its least, so only the least arrow-matrix
    assignment of each rescaling orbit is built (`_orbit_least`).  A
    candidate satisfying the relations is dropped when its support falls
    apart or every arrow acts on it as zero (it is a direct sum) or when a
    module kept before is a summand of it (`repcat.summand_map`): the scan
    goes by total dimension, so every direct sum has a smaller summand kept
    before, and every duplicate its class's module.  A candidate with a
    simple top or socle is indecomposable (`repcat._simple_top_or_socle`),
    so it is compared only with the classes kept at its own dimension
    vector, one hom system each.  End is computed only to post-verify each
    kept module.  The cap counts the assignments built, all counted before
    the first is built.
    """
    quiver = algebra.quiver
    field = algebra.field
    limit = config.scan_cap(cap)
    sizes = []
    budget = 0
    # the whole budget is counted, each vector only up to what is left of it, before any build
    for dims in _dimension_vectors(quiver.n_vertices, total_dim_bound):
        links = _rescaling_links(quiver, dims)
        for budget, _ in enumerate(_orbit_least(field.p, links), budget + 1):
            if budget > limit:
                raise CapExceeded.over("enumerate_indecomposables", dims,
                                       f"{budget}+ orbit-least arrow-matrix assignments", limit)
        sizes.append((dims, links))
    found: List[Module] = []
    for dims, links in sizes:
        shapes = [(dims[a.target], dims[a.source]) for a in quiver.arrows]
        kept: List[Module] = []
        for digits in _orbit_least(field.p, links):
            residues, at, maps = digits[::-1], 0, []
            for r, c in shapes:
                if r and c:
                    maps.append(Matrix(field, tuple([residues[at + i * c : at + (i + 1) * c]
                                                     for i in range(r)]), c, _reduced=True))
                else:
                    maps.append(Matrix.zeros(field, r, c))
                at += r * c
            m = Module(algebra, dims, maps, _skip_check=True)
            if not (repcat.support_is_connected(m) and repcat.relations_hold(m)):
                continue
            if sum(map(len, repcat._top_reps(m))) == m.total_dim > 1:
                continue  # every arrow acts as zero: a direct sum of simples
            # an indecomposable has no proper summand: it can only repeat a class of its dims
            classes = kept if repcat._simple_top_or_socle(m) else kept + found
            if all(repcat.summand_map(z, m) is None for z in classes):
                kept.append(m)
            else:  # the classes keep no hom basis into a rejected candidate alive
                for z in classes:
                    repcat._hom_data.forget(z, m)
        found += kept
    for m in found:
        if not repcat.is_indecomposable(m):
            raise VerificationFailed(f"the kept module of dimension vector {m.dims} decomposes")
    return found


def _rescaling_links(quiver, dims) -> List[Tuple[int, int]]:
    """The two basis vectors that each arrow-matrix entry links, most significant entry first.

    Basis vector i of vertex v is numbered by its place in the vertices'
    concatenated bases.  Entry (i, j) of the matrix of an arrow a is the
    coefficient of basis vector i at a's target in the image of basis
    vector j at its source.
    """
    offsets, links = [sum(dims[:v]) for v in range(len(dims))], []
    for a in quiver.arrows:
        s, t = offsets[a.source], offsets[a.target]
        links += [(s + j, t + i) for i in range(dims[a.target]) for j in range(dims[a.source])]
    return links[::-1]


def _orbit_least(p: int, links: Sequence[Tuple[int, int]]):
    """The assignments over F_p, digits most significant first, each the least of its orbit
    under rescaling, in counter order.

    Scaling basis vector k by t_k multiplies an entry linking source
    vector k to target vector l by t_k / t_l.  Read from the most
    significant entry, the rescalings that fix the entries read so far are
    those constant on each class of basis vectors that their nonzero
    entries join.  So the next nonzero entry can still be scaled to 1, the
    least nonzero digit, when it joins two classes, and is fixed otherwise
    (a loop's diagonal entry joins nothing).  The walk tries 0, then 1 or
    every nonzero digit, over a union-find it undoes on the way back.
    """
    root: Dict[int, int] = {}  # a union-find over the basis vectors: k's parent, if k has one
    digits = [0] * len(links)

    def find(k: int) -> int:
        while k in root:
            k = root[k]
        return k

    def walk(at: int):
        if at == len(links):
            yield tuple(digits)
            return
        yield from walk(at + 1)
        k, l = map(find, links[at])
        if k != l:
            root[k] = l
        for digits[at] in range(1, 2 if k != l else p):
            yield from walk(at + 1)
        root.pop(k, None)  # k is a root again; a no-op when the entry joined nothing
        digits[at] = 0

    return walk(0)


def _dimension_vectors(n: int, bound: int):
    """Dimension vectors of n >= 1 entries and total 1..bound, lazily, by (total, vector)."""

    def summing_to(k: int, total: int):
        if k == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in summing_to(k - 1, total - first):
                yield (first,) + rest

    return (t for total in range(1, bound + 1) for t in summing_to(n, total))


# -- rigidity and the cluster-tilting certificate ----------------------------


class RigidityReport(NamedTuple):
    """Self-extension table of an additive subcategory in degrees < d."""

    d: int
    ok: bool
    table: List[Dict[str, int]]

    def __bool__(self) -> bool:
        return self.ok


@repcat._kept("ext")
def _ext_table(cat: AddCategory, i: int) -> List[List[int]]:
    """dim Ext^i(z, w) over pairs (z, w) of pool members, computed once per category."""
    pool = cat._summand_pool()
    return [[homological.ext_dim(z, w, i) for w in pool] for z in pool]


def _ext_degrees(mods: Sequence[Module], d: int) -> range:
    """Degrees 1..d-1 up to the largest pd among mods, past which Ext out of them vanishes;
    each module is walked once, to its first projective syzygy (`homological._pd_within`)."""
    return range(1, max((homological._pd_within(z, d - 1) for z in mods), default=0) + 1)


def is_d_rigid(cat: AddCategory) -> RigidityReport:
    """Whether all self-extensions vanish in degrees 1..d-1: `_ext_table` summed over labels."""
    pool, labels = cat._split_generators()
    live = _ext_degrees(pool, cat.d)
    table: List[Dict[str, int]] = []
    for i in range(1, cat.d):
        ext = _ext_table(cat, i) if i in live else None  # past every resolution Ext is zero
        for gi, a in enumerate(labels):
            for gj, b in enumerate(labels):
                dim = 0 if ext is None else sum(ext[s][t] for s in a for t in b)
                table.append({"degree": i, "source": gi, "target": gj, "dim": dim})
    return RigidityReport(cat.d, all(row["dim"] == 0 for row in table), table)


class ClusterTiltingReport(NamedTuple):
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
    the additive closure, vanishing of extensions into M, and vanishing
    of extensions out of M (in degrees 1..d-1, up to the longest
    resolution among the pool and the universe).  Ext is additive and
    an isomorphism invariant, and every generator is a sum of pool
    members, so M may be replaced by the pool: a member reads both of its
    flags off the rows and columns of the pool tables `_ext_table` that
    rigidity fills, and only the other modules are resolved.  The verdict
    also requires every indecomposable projective and injective to be a
    member, read off the tops and socles of the pool members
    (`AddCategory.is_generating_cogenerating`).
    """
    rigidity = is_d_rigid(cat)
    pool = cat._summand_pool()
    degrees = _ext_degrees(pool + list(universe), cat.d)
    tables = [_ext_table(cat, i) for i in degrees]
    kills_into = [not any(any(t[c]) for t in tables) for c in range(len(pool))]
    killed_from = [not any(row[c] for t in tables for row in t) for c in range(len(pool))]
    rows: List[Dict[str, object]] = []
    witnesses: List[str] = []
    sets_match = True
    for idx, x in enumerate(universe):
        labels = cat._pool_labels(x)
        member = None not in labels
        if member:
            into = all(kills_into[c] for c in labels)
            outof = all(killed_from[c] for c in labels)
        else:
            into = all(homological.ext_dim(x, z, i) == 0 for z in pool for i in degrees)
            outof = all(homological.ext_dim(z, x, i) == 0 for z in pool for i in degrees)
        rows.append({"index": idx, "dims": list(x.dims), "in_category": member,
                     "left_orthogonal": into, "right_orthogonal": outof})
        if not (member == into == outof):
            sets_match = False
            witnesses.append(
                f"universe[{idx}] dims {list(x.dims)}: member={member}, "
                f"kills-into={into}, killed-from={outof}"
            )
    generating, cogenerating = cat._generating_cogenerating()
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
    """Pool members split by projectivity/injectivity, with the non-projectives' translates.

    `homological.tau_d` keeps each translate on its member.
    """
    pool = cat._summand_pool()
    nonproj = [i for i, x in enumerate(pool) if not homological.is_projective(x)]
    noninj = [i for i, x in enumerate(pool) if not homological.is_injective(x)]
    return pool, nonproj, noninj, {i: homological.tau_d(pool[i], cat.d) for i in nonproj}


class TauEquivalenceReport(NamedTuple):
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
    Each translate and round trip t is pool member j exactly when
    `repcat.iso_classes([t], reps=pool)` labels it j; t is never split.
    """
    pool, nonproj, noninj, translate = _pool_translates(cat)
    d = cat.d

    def match(t: Module) -> int:
        return repcat.iso_classes([t], reps=pool)[1][0]

    targets = [j if j in noninj else None for j in (match(translate[i]) for i in nonproj)]
    pairs = [{"source": i, "target": -1 if t is None else t} for i, t in zip(nonproj, targets)]
    hit = [t for t in targets if t is not None]
    bijection = None not in targets and len(set(hit)) == len(hit) == len(noninj)
    backs = [match(homological.tau_d_minus(translate[i], d)) == i for i in nonproj]
    forths = [match(homological.tau_d(homological.tau_d_minus(pool[j], d), d)) == j
              for j in noninj]
    inverses_ok = all(backs) and all(forths)
    stable_rows: List[Dict[str, object]] = []
    for i in nonproj:
        for j in nonproj:
            s = homological.projectively_stable_dim(pool[i], pool[j])
            c = homological.injectively_stable_dim(translate[i], translate[j])
            stable_rows.append({"x": i, "y": j, "stable": s, "costable": c, "ok": s == c})
    stable_ok = all(row["ok"] for row in stable_rows)
    ok = bijection and inverses_ok and stable_ok
    return TauEquivalenceReport(pairs, bijection, inverses_ok, stable_rows, stable_ok, ok)


class ComparisonReport(NamedTuple):
    """One row per compared pair, and whether every row agrees.

    verify_defect_formula compares the contravariant defect at X with the
    covariant defect at its translate; verify_ar_duality compares stable
    hom dimensions with top-degree extension dimensions.
    """

    rows: List[Dict[str, object]]
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def verify_defect_formula(seq: DSequence, cat: AddCategory) -> ComparisonReport:
    """Compare both defect dimensions of a sequence over the whole pool."""
    pool, nonproj, _, translate = _pool_translates(cat)
    rows: List[Dict[str, object]] = []
    for i in nonproj:
        lhs = dexact.defect_contravariant(seq, pool[i]).dim
        rhs = dexact.defect_covariant(seq, translate[i]).dim
        rows.append({"x": i, "contravariant": lhs, "covariant": rhs, "ok": lhs == rhs})
    return ComparisonReport(rows, all(row["ok"] for row in rows))


def verify_ar_duality(cat: AddCategory) -> ComparisonReport:
    """dim of stable Hom(X, Y) must equal dim of Ext^d(Y, translate of X)."""
    pool, nonproj, _, translate = _pool_translates(cat)
    d = cat.d
    rows: List[Dict[str, object]] = []
    for i in nonproj:
        for j, y in enumerate(pool):
            lhs = homological.projectively_stable_dim(pool[i], y)
            rhs = homological.ext_dim(y, translate[i], d)
            rows.append({"x": i, "y": j, "stable_hom": lhs, "ext": rhs, "ok": lhs == rhs})
    return ComparisonReport(rows, all(row["ok"] for row in rows))


# -- determined morphisms ----------------------------------------------------


class DeterminedReport(NamedTuple):
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


class DeterminerReport(NamedTuple):
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
    combined = repcat.sum_module([repcat.regular(cat.algebra), t])
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


def _largest_admissible_submodule(
    x: Module, n: Module, h: EndSubmodule, cap=None
) -> Tuple[Module, Morphism]:
    """Sum of all cyclic submodules U of n whose trace condition lands in h.

    A cyclic submodule passes when every map x -> n that factors through
    a projective and has image inside U already lies in h.  Generators
    supported at a single vertex suffice: a general cyclic submodule is
    the sum of the single-vertex cyclics it contains, and passing the
    test is inherited by submodules.  So a vector is tried only when its
    first nonzero coordinate is 1, since a nonzero multiple generates the
    same submodule, and only when it lies outside the sum accepted so far,
    since it then generates a submodule of that sum.  The cap counts every
    vector of each vertex, tried or not.
    """
    field = n.field
    quiver = n.algebra.quiver
    # every vertex is checked against the cap before any scan: a refusal costs nothing
    counts = [_scan_space(field, dv, cap, "determined_morphism", n.dims) if dv else 0
              for dv in n.dims]
    through_proj = repcat.hom_image(x, homological._cover_step(n).cover)
    spans = [Matrix.zeros(field, n.dims[v], 0) for v in range(quiver.n_vertices)]
    for v, count in enumerate(counts):
        dv = n.dims[v]
        outside = None  # rows of a projection whose kernel is the sum at v, made when read
        for counter in range(1, count):
            vec = []
            rem = counter
            for k in range(dv):
                vec.append(rem % field.p)
                rem //= field.p
            if next(filter(None, vec)) != 1:
                continue
            if outside is None:
                outside = exactlin.quotient(Matrix.identity(field, dv), spans[v]).proj.entries
            if not any(sum(map(mul, row, vec)) % field.p for row in outside):
                continue
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
                outside = None
    return repcat.submodule(n, spans)


def _defect_cover_map(seq: DSequence, target: Module) -> Morphism:
    """Minimal cover of the covariant defect at the target, as a single map.

    Lifts a basis of (defect modulo its radical part) to maps out of the
    left term; stacked, they give a map into a multiple of the target
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
    cod = repcat.sum_module([target] * len(mors), left.algebra)
    return repcat.block_map(left, cod, [[f] for f in mors])


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
    paug, verts, _ = homological._cover_step(n_h)
    algebra = n_h.algebra
    _, p_incs, _ = repcat.direct_sum([repcat.projective(algebra, v) for v in verts], algebra)
    pieces = [f @ inc for f in gens for _, inc in x_parts] + [paug @ inc for inc in p_incs]
    gmin, _ = approx.minimal_cover(n_h, pieces)

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


@repcat._kept("radical cover")
def _radical_cover(cat: AddCategory, n: Module) -> Tuple[Morphism, List[Matrix]]:
    """Minimal cover of rad(-, n) on add M, with rad_hom_basis(z, n) for each pool member z.

    rad is an ideal and every pool member is a summand of M, so the maps
    in rad_hom_basis(z, n), z in the pool, span rad(-, n) on add M.  Kept
    on the category per n, so gldim End(M) and the almost-split maps share it.
    """
    pool = cat._summand_pool()
    rads = [repcat.rad_hom_basis(z, n) for z in pool]
    pieces = [repcat.morphism_from_vec(z, n, vec) for z, rad in zip(pool, rads)
              for vec in rad.columns()]
    g, _ = approx.minimal_cover(n, pieces)
    return g, rads


def right_almost_split(cat: AddCategory, n: Module) -> Morphism:
    """The minimal right almost split map onto an indecomposable member.

    The minimal cover of rad(-, n) by the pool members.  The almost-split
    property is verified exhaustively over the pool before returning.  The
    checks on n read its kept split and, for a pool member, its pool label,
    so asking them again costs a lookup.
    """
    if not repcat.is_indecomposable(n):
        raise InvalidModule("the target must be indecomposable")
    if not cat.contains(n):
        raise InvalidModule("the target must lie in the subcategory")
    g, rads = _radical_cover(cat, n)
    if repcat.is_split_epi(g):
        raise VerificationFailed("the assembled radical map splits")
    for vi, (v, needed) in enumerate(zip(cat._summand_pool(), rads)):
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
    seq = dexact.build_left_d_exact(cat, g)
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

    Resolves it on add M: cover rad(-, nj) minimally, then, since
    Hom(M, -) is left exact, take the add M-resolution of that cover
    (`approx.add_resolution`, as `dexact.build_left_d_exact` does).  For
    a projective nj, a map into nj is a non-split epi exactly when its
    image lies in rad nj, so rad(-, nj) = Hom(-, rad nj): the cover is rad
    nj's minimal right approximation, and the resolution goes on from the
    steps kept on rad nj and its kernels.  The dimension is the number of
    maps before the first one out of zero, at most RESOLUTION_CAP.
    """
    limit = config.RESOLUTION_CAP
    if homological.is_projective(nj):
        kernels = approx._add_kernels(cat, *_radical_of_projective(nj))
        maps = (approx.minimal_right_approximation(cat, x) for x, _ in kernels)
    else:
        maps = approx.add_resolution(cat, _radical_cover(cat, nj)[0])
    for k, r in enumerate(islice(maps, limit + 1)):
        if r.domain.is_zero():
            return k
    raise CapExceeded.over(
        "gldim_end", nj.dims, f"a functor resolution longer than {limit}", limit,
        "config.RESOLUTION_CAP",
    )


def _radical_of_projective(p: Module) -> Tuple[Module, Morphism]:
    """rad p for an indecomposable projective p: the kernel of the one basis map p -> S_v, v its top."""
    (v,) = [v for v, js in enumerate(repcat._top_reps(p)) if js]
    return repcat.kernel(repcat.hom_basis(p, repcat.simple(p.algebra, v))[0])


def gldim_end(cat: AddCategory) -> int:
    """Global dimension of the endomorphism algebra of the additive generator.

    Computed as the maximum projective dimension of the simple functors,
    one per pool member, via their minimal add M-resolutions.
    """
    return max(_functor_pd(cat, nj) for nj in cat._summand_pool())


def domdim_end(cat: AddCategory):
    """Dominant dimension of the endomorphism algebra (external criterion).

    One more than the first degree i with Ext^i(M, M) nonzero, that is,
    with a nonzero entry in the pool table `_ext_table`; this
    characterization for a generator-cogenerator is imported from outside
    the sequence calculus implemented here.  Ext^i(z, -) vanishes once step
    i of the resolution of z is zero, so the answer is math.inf when Ext
    vanishes up to a degree past every pool member's resolution, at most
    config.RESOLUTION_CAP.
    """
    limit, running = config.RESOLUTION_CAP, cat._summand_pool()
    for i in range(1, limit + 1):
        if any(map(any, _ext_table(cat, i))):
            return i + 1
        running = [z for z in running if not homological.syzygy(z, i + 1).is_zero()]
        if not running:
            return math.inf
    raise CapExceeded.over("domdim_end", running[0].dims, f"a resolution longer than {limit}",
                           limit, "config.RESOLUTION_CAP")
