"""Cluster-tilting certificates, the translation, determined maps, almost-split data."""

import math
import pathlib
import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import (
    AddCategory,
    CapExceeded,
    EndSubmodule,
    InvalidModule,
    InvalidSubmodule,
    Matrix,
    Morphism,
    PrimeField,
    Quiver,
    VerificationFailed,
    build_algebra,
)
from dctkit import artheory, config, dexact, exactlin, homological, repcat, workspace
from dctkit.artheory import (
    d_almost_split,
    determined_morphism,
    domdim_end,
    enumerate_indecomposables,
    gldim_end,
    is_d_cluster_tilting,
    is_d_rigid,
    is_right_X_determined,
    right_almost_split,
    right_determiner_check,
    verify_ar_duality,
    verify_defect_formula,
    verify_tau_d_equivalence,
)
from scan_oracles import (
    all_end_submodules,
    factorization_check,
    flat_ext_dim,
    intertwining_kernel,
    radical,
    scan_admissible_submodule,
    scan_enumerate,
    summand_enumerate,
)
from test_gldim_end import build, orbit_pool
from type_a import higher_auslander, ka_rad2, nakayama

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = pathlib.Path(__file__).parent / "data"


# -- enumeration --------------------------------------------------------------


def test_enumerate_small_line(ka2):
    classes = enumerate_indecomposables(ka2, 2)
    assert [tuple(m.dims) for m in classes] == [(0, 1), (1, 0), (1, 1)]
    # no larger indecomposables exist over this quiver
    assert len(enumerate_indecomposables(ka2, 3, cap=1 << 20)) == 3


def test_the_flagship_scan_splits_no_class_through_end(fresh_flag, monkeypatch):
    """Work guard of the enumeration at bound 5 over F_2: every class is local, so none
    reaches the End route."""
    split = []
    real = repcat.nontrivial_idempotent

    def counting(x, cap=None):
        split.append(x)
        return real(x, cap)

    monkeypatch.setattr(repcat, "nontrivial_idempotent", counting)
    classes = enumerate_indecomposables(fresh_flag, 5)
    monkeypatch.undo()
    # 441 when every candidate that was not a known class had its End computed, and 5,
    # one per class, before a simple top certified a class indecomposable
    assert (len(split), len(classes)) == (0, 5)
    assert all(sum(map(len, repcat._top_reps(m))) == 1 for m in classes)
    scanned = scan_enumerate(fresh_flag, 5)
    assert [(m.dims, m.maps) for m in classes] == [(m.dims, m.maps) for m in scanned]


def _universe_cases():
    """(presentation or fixture file, p, bound) of the universes compared with the old scan."""
    cases = [(f, f, p, 2) for f in ("ka2.json", "ka3rad2.json") for p in (2, 3, 5, 7)]
    cases += [(f"KA_{n}-rad2", ka_rad2(n), p, 2) for n in (3, 4, 5) for p in (2, 3, 5, 7)]
    cases += [("ka3rad2.json", "ka3rad2.json", p, 3) for p in (5, 7)]
    cases += [("nakayama-3-2", nakayama(3, 2), p, 3) for p in (2, 3)]
    cases += [("A_3^(2)", higher_auslander(3, 2), p, 3) for p in (2, 3)]
    return [pytest.param(source, p, bound, id=f"{name}-p{p}-bound{bound}")
            for name, source, p, bound in cases]


def _fresh_algebra(source, p):
    if isinstance(source, str):
        return workspace.load(str(DATA / source), p).algebra
    vertices, arrows, relations, bound = source
    return build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(p))


@pytest.mark.parametrize("source, p, bound", _universe_cases())
def test_the_universe_is_the_one_the_two_sided_scan_keeps(source, p, bound):
    """Each candidate read against every class kept before, two-sided, keeps the same modules.

    Both scans run on an algebra of their own, so neither reads a hom basis
    the other kept.
    """
    classes = enumerate_indecomposables(_fresh_algebra(source, p), bound)
    oracle = summand_enumerate(_fresh_algebra(source, p), bound)
    key = [(m.dims, [f.entries for f in m.maps]) for m in classes]
    assert key == [(m.dims, [f.entries for f in m.maps]) for m in oracle]


def _rescaled_digits(quiver, dims, digits, scales, p):
    """The digits of an assignment over F_p after scaling basis vector k by scales[k]."""
    offsets = [sum(dims[:v]) for v in range(len(dims))]
    entries, at = list(digits[::-1]), 0
    for a in quiver.arrows:
        r, c = dims[a.target], dims[a.source]
        for i in range(r):
            for j in range(c):
                t, s = scales[offsets[a.target] + i], scales[offsets[a.source] + j]
                entries[at + i * c + j] = t * entries[at + i * c + j] * pow(s, -1, p) % p
        at += r * c
    return tuple(entries[::-1])


@st.composite
def rescaling_cases(draw):
    """A small quiver, loops allowed, a dimension vector of total <= 4, a prime and digits."""
    n = draw(st.integers(1, 3))
    dims = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda d: sum(d) <= 4))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    quiver = Quiver([str(v) for v in range(n)],
                    [(f"a{k}", str(s), str(t)) for k, (s, t) in enumerate(ends)])
    entries = sum(dims[t] * dims[s] for s, t in ends)
    p = draw(st.sampled_from([2, 3, 5]))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=entries, max_size=entries))
    return quiver, tuple(dims), p, tuple(digits)


@settings(max_examples=300, deadline=None)
@given(case=rescaling_cases())
def test_an_assignment_is_built_exactly_when_it_is_the_least_of_its_rescaling_orbit(case):
    """The union-find test agrees with the minimum over every rescaling of every basis vector."""
    quiver, dims, p, digits = case
    orbit = {_rescaled_digits(quiver, dims, digits, scales, p)
             for scales in product(range(1, p), repeat=sum(dims))}
    links = artheory._rescaling_links(quiver, dims)
    assert artheory._rescaling_least(digits, links) == (digits == min(orbit))


# (hom systems, summand tests) per KA_n/rad^2 enumeration at bound 2, n = 3..6, at every p
ENUMERATION_WORK = [(6, 6), (8, 10), (10, 15), (12, 21)]


@pytest.mark.parametrize("p", [2, 7])
def test_the_enumeration_solves_one_hom_system_per_comparison(p, monkeypatch):
    """Work guard of the benchmark's universe on KA_n/rad^2, n = 3..6, one fresh document each.

    Of equal dimension vectors one hom system decides a comparison, and a
    candidate with a simple top or socle is compared only with its own
    dimension vector's classes.  Only the least assignment of a rescaling
    orbit is built, so the work does not grow with p.
    """
    made = []
    hom_kernel, summand_map = repcat._hom_kernel, repcat.summand_map
    monkeypatch.setattr(repcat, "_hom_kernel", lambda *args: made.append("hom") or hom_kernel(*args))
    monkeypatch.setattr(repcat, "summand_map",
                        lambda *args: made.append("summand") or summand_map(*args))
    counts = []
    for n in (3, 4, 5, 6):
        algebra = _ka_workspace(n, p).algebra
        made.clear()
        assert len(enumerate_indecomposables(algebra, 2)) == 2 * n - 1
        counts.append((made.count("hom"), made.count("summand")))
    # (12.5, 43.5) at p = 2 and (47.5, 61) at p = 7 per document, on average, when
    # every equal-dimension pair solved Hom both ways and every candidate met every class,
    # and (26.5, 30.5) at p = 7 when every assignment of a rescaling orbit was built
    assert all(c <= bound for pair, pinned in zip(counts, ENUMERATION_WORK)
               for c, bound in zip(pair, pinned)), counts


def test_the_scan_keeps_no_rejected_candidate_alive(fresh_flag):
    import gc

    projectives = [repcat.projective(fresh_flag, v) for v in range(3)]  # kept on the algebra
    classes = enumerate_indecomposables(fresh_flag, 5)
    gc.collect()
    # 441 when the classes kept the hom bases into every candidate they were compared with
    assert len(fresh_flag._modules) == len(classes) == 5
    assert all(m in classes for m in fresh_flag._modules.values())
    assert all(p in classes for p in projectives)
    del classes
    gc.collect()
    assert len(fresh_flag._modules) < 5


def test_a_kept_module_that_decomposes_is_refused(flag, monkeypatch):
    # with no summand found, P1 + S1 (dims (2, 1, 0), the arrow a of rank 1) is kept
    monkeypatch.setattr(repcat, "summand_map", lambda x, y: None)
    with pytest.raises(VerificationFailed, match="decomposes"):
        enumerate_indecomposables(flag, 3)


def test_enumerate_flagship_universe(flag):
    classes = enumerate_indecomposables(flag, 2)
    assert [tuple(m.dims) for m in classes] == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (0, 1, 1),
        (1, 1, 0),
    ]
    for m in classes:
        assert repcat.is_indecomposable(m)


def test_enumerate_semisimple(semisimple):
    classes = enumerate_indecomposables(semisimple, 2)
    assert [tuple(m.dims) for m in classes] == [(0, 1), (1, 0)]


def test_enumerate_respects_cap(flag):
    with pytest.raises(CapExceeded):
        enumerate_indecomposables(flag, 6, cap=100)


# -- rigidity and cluster tilting ---------------------------------------------


def test_rigidity_positive_and_negative(flag_cat, flag_mods):
    assert is_d_rigid(flag_cat).ok
    bad = AddCategory([flag_mods["S2"], flag_mods["S3"]], 2)
    report = is_d_rigid(bad)
    assert not report.ok
    witness = [r for r in report.table if r["dim"] != 0]
    assert witness  # the one-step extension between the neighbouring simples


def test_cluster_tilting_certificates(ka2, ka2_cat, flag, flag_cat):
    uni2 = enumerate_indecomposables(ka2, 2)
    assert is_d_cluster_tilting(ka2_cat, uni2).ok
    uni3 = enumerate_indecomposables(flag, 2)
    report = is_d_cluster_tilting(flag_cat, uni3)
    assert report.ok
    assert not report.witnesses
    # the middle simple is outside the subcategory and both orthogonals
    s2_rows = [r for r in report.rows if r["dims"] == [0, 1, 0]]
    assert len(s2_rows) == 1
    row = s2_rows[0]
    assert not row["in_category"]
    assert not row["left_orthogonal"]
    assert not row["right_orthogonal"]


def test_cluster_tilting_fails_without_an_injective(flag, flag_mods):
    small = AddCategory([flag_mods["P1"], flag_mods["P2"], flag_mods["S3"]], 2)
    uni = enumerate_indecomposables(flag, 2)
    report = is_d_cluster_tilting(small, uni)
    assert not report.ok
    assert not report.cogenerating
    assert any("injective" in w for w in report.witnesses)


def test_mod_category_is_the_unique_classical_choice(ka2, ka2_cat):
    # with d=1 the orthogonality degrees are empty, so the whole module
    # category is the only candidate that generates and cogenerates
    uni = enumerate_indecomposables(ka2, 2)
    proper = AddCategory([ka2_cat.generators[2]], 1)  # only the big projective
    report = is_d_cluster_tilting(proper, uni)
    assert not report.ok


# -- translation equivalence ---------------------------------------------------


def test_translation_equivalence_reports(ka2_cat, flag_cat):
    for cat in (ka2_cat, flag_cat):
        report = verify_tau_d_equivalence(cat)
        assert report.bijection
        assert report.inverses_ok
        assert report.stable_ok
        assert report.ok
    flag_report = verify_tau_d_equivalence(flag_cat)
    # exactly one non-projective in the pool, pairing with one non-injective
    assert len(flag_report.pairs) == 1
    assert flag_report.pairs[0]["target"] >= 0


# -- defects and duality --------------------------------------------------------


def _suite_sequences(cat, mods):
    """A spread of honestly d-exact sequences for formula checks."""
    seqs = []
    pool = cat._summand_pool()
    for n in pool:
        if homological.is_projective(n):
            continue
        seqs.append(d_almost_split(cat, n))
    base = seqs[0]
    # identity builds give degenerate rows
    for g in cat.generators:
        seqs.append(dexact.build_left_d_exact(cat, Morphism.identity(g)))
    # pull the almost-split row back along every map into its right end
    for v in pool:
        for h in repcat.hom_basis(v, base.right_term):
            seqs.append(dexact.d_pullback_complete(cat, base, h).src)
        seqs.append(
            dexact.d_pullback_complete(cat, base, Morphism.zero(v, base.right_term)).src
        )
    # push it out along every map from its left end
    for w in pool:
        for h in repcat.hom_basis(base.left_term, w):
            seqs.append(dexact.d_pushout_complete(cat, base, h).dst)
        seqs.append(
            dexact.d_pushout_complete(cat, base, Morphism.zero(base.left_term, w)).dst
        )
    return seqs


def test_defect_formula_across_suite(ka2_cat, flag_cat, ka2_mods, flag_mods):
    total = 0
    for cat, mods in ((ka2_cat, ka2_mods), (flag_cat, flag_mods)):
        for seq in _suite_sequences(cat, mods):
            report = verify_defect_formula(seq, cat)
            assert report.ok, report.rows
            total += 1
    assert total >= 20


def test_base_changed_rows_stay_d_exact(flag_cat, flag_mods):
    base = d_almost_split(flag_cat, flag_mods["S1"])
    q = repcat.hom_basis(flag_mods["P1"], base.right_term)[0]
    top = dexact.d_pullback_complete(flag_cat, base, q).src
    assert dexact.is_d_exact(top, flag_cat)
    legs = repcat.hom_basis(base.left_term, flag_mods["P2"])
    bottom = dexact.d_pushout_complete(flag_cat, base, legs[0]).dst
    assert dexact.is_d_exact(bottom, flag_cat)


def test_ar_duality_all_pairs(ka2_cat, flag_cat):
    for cat in (ka2_cat, flag_cat):
        report = verify_ar_duality(cat)
        assert report.ok
        assert report.rows  # at least the non-projective pool entries
        for row in report.rows:
            assert row["stable_hom"] == row["ext"]


def test_the_verifiers_translate_each_pool_member_once(fresh_flag, monkeypatch):
    # a fresh algebra: over the session one, earlier tests have translated the pool
    # already, and a round trip tau_d tau_d^- returns the pool member itself
    p1, p2 = repcat.projective(fresh_flag, 0), repcat.projective(fresh_flag, 1)
    s1, s3 = repcat.simple(fresh_flag, 0), repcat.simple(fresh_flag, 2)
    computed = []
    real = homological.tr_d

    def counting(x, d):
        if ("tr", d) not in x._cache:
            computed.append(x)
        return real(x, d)

    monkeypatch.setattr(homological, "tr_d", counting)
    cat = AddCategory([p1, p2, s3, s1], 2)
    seq = d_almost_split(cat, s1)
    pool = cat._summand_pool()
    assert verify_tau_d_equivalence(cat).ok and verify_ar_duality(cat).ok
    assert verify_defect_formula(seq, cat).ok
    translated = [x for x in computed if any(x is z for z in pool)]
    assert len(translated) == sum(not homological.is_projective(z) for z in pool) == 1



# -- the comparison reports can say no -------------------------------------------


def flat_defects(seq, x, y):
    """(contravariant at x, covariant at y), read off whole intertwining systems.

    Each Hom is `intertwining_kernel`, and each defect is its dimension minus
    the rank of the maps that lift along the end map or extend along the start.
    """
    start, end, field = seq.left_map, seq.right_map, x.field

    def rank_of(maps, rows):
        return exactlin.rank(Matrix.from_columns(field, [repcat.hom_vec(f) for f in maps], rows))

    lifted = [end @ repcat.morphism_from_vec(x, end.domain, c)
              for c in intertwining_kernel(x, end.domain).columns()]
    extended = [repcat.morphism_from_vec(start.codomain, y, c) @ start
                for c in intertwining_kernel(start.codomain, y).columns()]
    right, left = seq.right_term, seq.left_term
    return (
        intertwining_kernel(x, right).cols - rank_of(lifted, repcat.hom_flat_dim(x, right)),
        intertwining_kernel(left, y).cols - rank_of(extended, repcat.hom_flat_dim(left, y)),
    )


def test_ar_duality_fails_on_the_flagship_at_d_3(flag, flag_cat):
    cat = AddCategory(flag_cat.generators, 3)
    report = verify_ar_duality(cat)
    assert not report.ok
    assert [row for row in report.rows if not row["ok"]] == [
        {"x": 3, "y": 3, "stable_hom": 1, "ext": 0, "ok": False}
    ]
    s1 = cat._summand_pool()[3]
    assert s1.dims == (1, 0, 0)
    # nothing S1 -> S1 factors through a projective, since Hom(S1, P_v) = 0 for every v
    assert intertwining_kernel(s1, s1).cols == 1
    assert all(intertwining_kernel(s1, repcat.projective(flag, v)).cols == 0 for v in range(3))
    assert flat_ext_dim(s1, homological.tau_d(s1, 3), 3) == 0


@pytest.mark.parametrize("which", ["flagship", "ka2"])
def test_defect_formula_fails_past_the_category_size(which, flag_cat, flag_mods, ka2_cat, ka2_mods):
    # the flagship M at d = 3 resolving cover1, and KA_2's M at d = 2 resolving quot
    base, mods, x = (flag_cat, flag_mods, 3) if which == "flagship" else (ka2_cat, ka2_mods, 0)
    cat = AddCategory(base.generators, 3 if which == "flagship" else 2)
    seq = dexact.build_left_d_exact(cat, repcat.hom_basis(mods["P1"], mods["S1"])[0])
    report = verify_defect_formula(seq, cat)
    assert not report.ok
    assert [row for row in report.rows if not row["ok"]] == [
        {"x": x, "contravariant": 1, "covariant": 0, "ok": False}
    ]
    z = cat._summand_pool()[x]
    assert flat_defects(seq, z, homological.tau_d(z, cat.d)) == (1, 0)


# -- determined morphisms --------------------------------------------------------


def test_end_submodule_validation(flag, flag_mods, f2):
    P1, S1 = flag_mods["P1"], flag_mods["S1"]
    both, _, _ = repcat.direct_sum([P1, S1])
    full = EndSubmodule.full(both, S1)
    assert full.dim == 2
    zero = EndSubmodule.zero(both, S1)
    assert zero.dim == 0
    # the projection to the second summand alone is not closed under
    # precomposition (an endomorphism can move the first summand into it)
    proj_leg = repcat.hom_basis(S1, S1)[0] @ repcat.direct_sum([P1, S1])[2][1]
    flat = repcat.hom_vec(proj_leg)
    col = Matrix(f2, [[int(t)] for t in flat])
    with pytest.raises(InvalidSubmodule):
        EndSubmodule(both, S1, col)


def test_all_end_submodules_counts(flag_mods):
    P1, S1 = flag_mods["P1"], flag_mods["S1"]
    both, _, _ = repcat.direct_sum([P1, S1])
    subs = all_end_submodules(both, S1)
    # of the five subspaces of the two-dimensional hom space, three survive
    assert len(subs) == 3
    assert sorted(s.dim for s in subs) == [0, 1, 2]


def test_every_end_submodule_is_realized(flag_cat, flag_mods):
    pool = flag_cat._summand_pool()
    both, _, _ = repcat.direct_sum([flag_mods["P1"], flag_mods["S1"]])
    sources = list(pool) + [both]
    checked = 0
    for x in sources:
        for n in pool:
            if repcat.hom_dim(x, n) > 4:
                continue
            for h in all_end_submodules(x, n):
                g = determined_morphism(flag_cat, x, n, h)
                assert exactlin.subspace_eq(repcat.hom_image(x, g), h.basis)
                assert is_right_X_determined(g, x, pool).ok
                checked += 1
    assert checked >= 25


def test_determined_morphism_covers_no_module_that_has_a_resolution(flag_cat, monkeypatch):
    """The trace condition reads the cover kept on n instead of covering n again."""
    again = []
    real = repcat.projective_cover

    def spy(x):
        if "cover" in x._cache:
            again.append(x)
        return real(x)

    pool = flag_cat._summand_pool()
    for n in pool:
        homological._cover_step(n)
    monkeypatch.setattr(repcat, "projective_cover", spy)
    for x in pool:
        for n in pool:
            for h in (EndSubmodule.full(x, n), EndSubmodule.radical(x, n)):
                determined_morphism(flag_cat, x, n, h)
    assert again == []


def test_zero_map_is_not_determined_by_the_end_simple(flag, flag_cat, flag_mods):
    S1 = flag_mods["S1"]
    z = Morphism.zero(repcat.zero_module(flag), S1)
    pool = flag_cat._summand_pool()
    report = is_right_X_determined(z, S1, pool)
    assert not report.ok
    assert report.witness is not None
    w = report.witness
    assert w.codomain is S1
    # the witness is a map that the empty image cannot absorb
    assert not w.is_zero()
    # the same zero map IS determined by a big enough object
    reg = repcat.regular(flag)
    t = homological.tau_d_minus(repcat.zero_module(flag), 2)
    assert is_right_X_determined(z, reg, pool).ok


def test_determined_morphism_validates_inputs(flag_cat, flag_mods, flag):
    S1, S2 = flag_mods["S1"], flag_mods["S2"]
    h = EndSubmodule.zero(S1, S1)
    with pytest.raises(InvalidSubmodule):
        determined_morphism(flag_cat, flag_mods["P1"], S1, h)
    h2 = EndSubmodule.zero(S2, S2)
    with pytest.raises(InvalidModule):
        determined_morphism(flag_cat, S2, S2, h2)


def test_determined_morphism_refuses_before_any_scan(flag_cat, flag_mods, monkeypatch):
    m = flag_mods
    x, n = m["S1"], repcat.direct_sum([m["P1"], m["P2"], m["S3"]])[0]
    assert n.dims == (1, 2, 2)
    scanned = []
    real = repcat.submodule_generated
    monkeypatch.setattr(repcat, "submodule_generated", lambda *args: scanned.append(args) or real(*args))
    with pytest.raises(CapExceeded) as err:
        determined_morphism(flag_cat, x, n, EndSubmodule.zero(x, n), cap=3)
    # the first vertex over the cap names the refusal: 2^2 at the second, 2^1 <= 3 at the first
    assert str(err.value) == (
        "determined_morphism on dimension vector (1,2,2) needs a scan of 2^2, "
        "over the cap 3; raise --cap"
    )
    # one call, the whole scan of the first vertex, when the cap was checked a vertex at a time
    assert scanned == []


def _a32_determined_case(p):
    """A_3^(2) over F_p, its tau_2 orbit category, x its first non-projective member and n their sum."""
    pool = orbit_pool(build(higher_auslander(3, 2), p), 2)
    x = next(m for m in pool if not homological.is_projective(m))
    return AddCategory(pool, 2), x, repcat.direct_sum(pool)[0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_determined_morphisms_are_the_ones_the_vector_scan_gives(p, monkeypatch):
    """One vector per line outside the accepted sum finds the submodule, and so the map,
    that the scan of every vector finds; each side works on an algebra of its own."""
    cat, x, n = _a32_determined_case(p)
    kinds = (EndSubmodule.zero, EndSubmodule.radical, EndSubmodule.full)
    found = [determined_morphism(cat, x, n, kind(x, n)) for kind in kinds]
    cat, x, n = _a32_determined_case(p)
    monkeypatch.setattr(artheory, "_largest_admissible_submodule", scan_admissible_submodule)
    scanned = [determined_morphism(cat, x, n, kind(x, n)) for kind in kinds]
    assert [(g.domain.dims, repcat.hom_vec(g)) for g in found] == [
        (g.domain.dims, repcat.hom_vec(g)) for g in scanned]


def test_the_admissible_submodule_scan_generates_as_many_submodules_at_every_p(monkeypatch):
    """Work guard: on A_3^(2) with h the radical, the cyclic submodules generated do not grow
    with p (66, 318, 2,244 and 8,226 at p = 2, 3, 5 and 7 when every vector was tried)."""
    made = []
    real = repcat.submodule_generated
    monkeypatch.setattr(repcat, "submodule_generated", lambda *args: made.append(1) or real(*args))
    counts = []
    for p in (2, 3, 5, 7):
        _, x, n = _a32_determined_case(p)
        h = EndSubmodule.radical(x, n)
        made.clear()
        artheory._largest_admissible_submodule(x, n, h)
        counts.append(len(made))
    assert counts == [counts[0]] * 4 and counts[0] <= 10, counts


@pytest.mark.parametrize("p", [2, 3, 5])
def test_determined_morphism_computes_idempotents_only_to_build_the_pool(p, monkeypatch):
    ws = workspace.load(str(DATA / "ka3rad2.json"), p)
    cat, s1 = ws.category("M"), ws.module("S1")
    calls = []
    real = repcat.nontrivial_idempotent

    def counting(x, cap=None):
        calls.append(x)
        return real(x, cap)

    monkeypatch.setattr(repcat, "nontrivial_idempotent", counting)
    determined_morphism(cat, s1, s1, EndSubmodule.zero(s1, s1))
    # none: every generator has a simple top or socle; one per generator when each was
    # split through End, and 7 when the split was not kept on the module
    assert calls == []


def test_determiner_check_on_almost_split_rows(ka2_cat, ka2_mods, flag_cat, flag_mods):
    for cat, name in ((ka2_cat, "S1"), (flag_cat, "S1")):
        mods = ka2_mods if cat is ka2_cat else flag_mods
        seq = d_almost_split(cat, mods["S1"])
        report = right_determiner_check(seq, cat)
        assert report.with_regular_ok
        assert report.epi
        assert report.translate_only_ok


def test_factorization_check_agrees_on_both_tests(flag_cat, flag_mods):
    seq = d_almost_split(flag_cat, flag_mods["S1"])
    for x in flag_cat._summand_pool():
        first, second = factorization_check(seq, x)
        assert first == second


# -- almost-split sequences -------------------------------------------------------


def test_right_almost_split_end_map(flag_cat, flag_mods):
    g = right_almost_split(flag_cat, flag_mods["S1"])
    assert g.codomain is flag_mods["S1"]
    assert g.is_epi()
    assert not repcat.is_split_epi(g)
    assert repcat.are_isomorphic(g.domain, flag_mods["P1"])


def test_right_almost_split_at_projective_is_radical_inclusion(flag_cat, flag_mods):
    g = right_almost_split(flag_cat, flag_mods["P1"])
    assert not g.is_epi()
    img, _ = repcat.image(g)
    r, _ = radical(flag_mods["P1"])
    assert repcat.are_isomorphic(img, r)


def test_d_almost_split_structure(flag_cat, flag_mods):
    seq = d_almost_split(flag_cat, flag_mods["S1"])
    assert [tuple(t.dims) for t in seq.terms] == [
        (0, 0, 1),
        (0, 1, 1),
        (1, 1, 0),
        (1, 0, 0),
    ]
    assert dexact.is_d_exact(seq, flag_cat)
    assert dexact.is_exact_complex(seq)
    for f in seq.maps:
        assert repcat.is_radical_morphism(f)
    assert repcat.are_isomorphic(
        seq.left_term, homological.tau_d(flag_mods["S1"], 2)
    )
    assert seq.category is flag_cat


def test_d_almost_split_classical_case(ka2_cat, ka2_mods):
    seq = d_almost_split(ka2_cat, ka2_mods["S1"])
    assert [tuple(t.dims) for t in seq.terms] == [(0, 1), (1, 1), (1, 0)]
    assert repcat.are_isomorphic(seq.left_term, ka2_mods["S2"])


def test_d_almost_split_rejects_bad_targets(flag_cat, flag_mods, flag):
    with pytest.raises(InvalidModule):
        d_almost_split(flag_cat, flag_mods["P1"])  # projective end
    with pytest.raises(InvalidModule):
        d_almost_split(flag_cat, flag_mods["S2"])  # not in the subcategory
    both, _, _ = repcat.direct_sum([flag_mods["S1"], flag_mods["S1"]])
    with pytest.raises(InvalidModule):
        d_almost_split(flag_cat, both)  # decomposable


def test_left_side_of_almost_split_row(flag_cat, flag_mods):
    seq = d_almost_split(flag_cat, flag_mods["S1"])
    f = seq.left_map
    from dctkit.approx import is_left_minimal

    assert is_left_minimal(f)
    assert not repcat.is_split_mono(f)
    # every radical map out of the left term factors through f
    for v in flag_cat._summand_pool():
        r = repcat.rad_hom_basis(seq.left_term, v)
        assert exactlin.subspace_leq(r, repcat.hom_coimage(f, v))


# -- endomorphism-side dimensions --------------------------------------------------


def test_end_dimensions_on_both_examples(ka2_cat, flag_cat):
    assert gldim_end(ka2_cat) == 2
    assert domdim_end(ka2_cat) == 2
    assert gldim_end(flag_cat) == 3
    assert domdim_end(flag_cat) == 3


def test_end_dimensions_bracket_the_size_parameter(ka2_cat, flag_cat):
    for cat in (ka2_cat, flag_cat):
        assert gldim_end(cat) <= cat.d + 1 <= domdim_end(cat)


def test_semisimple_end_dimensions(semisimple):
    cat = AddCategory(
        [repcat.simple(semisimple, 0), repcat.simple(semisimple, 1)], 1
    )
    assert gldim_end(cat) == 0
    assert domdim_end(cat) == math.inf


def test_domdim_end_degrees_do_not_follow_the_scan_cap(semisimple, monkeypatch):
    cat = AddCategory(
        [repcat.simple(semisimple, 0), repcat.simple(semisimple, 1)], 1
    )
    degrees = []
    real = homological.ext_dim

    def counting(x, y, i):
        degrees.append(i)
        return real(x, y, i)

    monkeypatch.setattr(homological, "ext_dim", counting)
    monkeypatch.setattr(config, "SCAN_CAP", 10**6)
    assert domdim_end(cat) == math.inf
    # the simples are projective, so no resolution runs past step 1
    assert set(degrees) == {1}


def test_domdim_end_is_refused_while_a_pool_resolution_runs_at_the_cap(flag_mods, monkeypatch):
    m = flag_mods
    cat = AddCategory([m["P1"], m["P2"], m["S3"], m["S1"]], 2)
    # Ext^1 vanishes on the pool, and S1 still resolves at step 2
    monkeypatch.setattr(config, "RESOLUTION_CAP", 1)
    with pytest.raises(CapExceeded) as err:
        domdim_end(cat)
    assert str(err.value) == (
        "domdim_end on dimension vector (1,0,0) needs a resolution longer than 1, "
        "over the cap 1; raise config.RESOLUTION_CAP"
    )


# -- cost in p ----------------------------------------------------------------


def _ka_workspace(n, p):
    """A seeded KA_n/rad^2 document of the benchmark family over F_p, parsed; the seed is n's alone."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import kafamily
    finally:
        sys.path.pop(0)
    return workspace.parse(kafamily.ka_document(n, p, random.Random(n)).doc)


def _run_workflow(kind, n, p):
    ws = _ka_workspace(n, p)
    cat = ws.category("M")
    if kind in ("dass", "verify_defect"):
        seq = d_almost_split(cat, ws.module("S1"))
        assert kind == "dass" or verify_defect_formula(seq, cat).ok
    elif kind == "verify_ar":
        assert verify_ar_duality(cat).ok
    elif kind == "verify_tau":
        assert verify_tau_d_equivalence(cat).ok
    elif kind == "gldim_end":
        assert gldim_end(cat) == n
    else:
        assert sum(mult for _, mult in repcat.decompose(ws.module("Xsum"))) == n + 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize(
    "kind", ["dass", "verify_defect", "verify_ar", "verify_tau", "gldim_end", "decompose"]
)
def test_the_p_free_workflows_solve_as_much_at_every_p(kind, n, monkeypatch):
    """Work guard: the same solves and hom systems on KA_n/rad^2 at a small and a large p.

    decompose is compared at two large primes only: at small p a hom-basis
    element of End(Xsum) is sometimes idempotent already and the split takes
    it first (12 against 28 solves at n = 3, p = 2 against 65,521).
    """
    made = []
    solve, hom_kernel = exactlin.solve, repcat._hom_kernel
    monkeypatch.setattr(exactlin, "solve", lambda *args: made.append("solve") or solve(*args))
    monkeypatch.setattr(repcat, "_hom_kernel", lambda *args: made.append("hom") or hom_kernel(*args))
    counts = []
    for p in (65_521, 1_048_573) if kind == "decompose" else (2, 65_521):
        made.clear()
        _run_workflow(kind, n, p)
        counts.append((made.count("solve"), made.count("hom")))
    assert counts[0] == counts[1]
