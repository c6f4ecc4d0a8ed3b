"""Cluster-tilting certificates, the translation, determined maps, almost-split data."""

import math
import pathlib

import pytest

from dctkit import (
    AddCategory,
    CapExceeded,
    EndSubmodule,
    InvalidModule,
    InvalidSubmodule,
    Matrix,
    Morphism,
    VerificationFailed,
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
    scan_enumerate,
)

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
    """The trace condition reads n's cover off its resolution instead of covering n again."""
    again = []
    real = repcat.projective_cover

    def spy(x):
        res = x._cache.get("resolution")
        if res is not None and res._steps:
            again.append(x)
        return real(x)

    pool = flag_cat._summand_pool()
    for n in pool:
        homological.resolution(n).augmentation
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
