"""Approximation theory of additive subcategories."""

import pathlib

import pytest

from dctkit import AddCategory, Matrix, Module, Quiver, build_algebra
from dctkit import config, exactlin, repcat, workspace
from dctkit.approx import (
    is_left_minimal,
    is_right_minimal,
    minimal_left_approximation,
    minimal_right_approximation,
    right_minimalize,
)
from dctkit.artheory import (
    EndSubmodule,
    d_almost_split,
    determined_morphism,
    domdim_end,
    enumerate_indecomposables,
    gldim_end,
    is_d_cluster_tilting,
    right_almost_split,
)
from dctkit.homological import is_projective
from dctkit.repcat import Morphism, are_isomorphic, block_map, direct_sum, hom_dim, rad_hom_basis
from scan_oracles import (
    is_right_approximation,
    pairwise_rad,
    right_approximation,
    scan_rad_between,
    scan_right_minimalize,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_category_membership_and_pool(flag_cat, flag_mods):
    assert flag_cat.contains(flag_mods["P1"])
    assert flag_cat.contains(flag_mods["S1"])
    assert not flag_cat.contains(flag_mods["S2"])
    both, _, _ = direct_sum([flag_mods["P1"], flag_mods["S1"]])
    assert flag_cat.contains(both)
    pool = flag_cat._summand_pool()
    assert len(pool) == 4


def test_a_category_needs_a_nonzero_generator(flag):
    for gens in ([], [repcat.zero_module(flag)] * 2):
        with pytest.raises(ValueError, match="nonzero generator"):
            AddCategory(gens, 1)


def test_generating_cogenerating(flag_cat, flag_mods, ka2_cat):
    assert flag_cat.is_generating_cogenerating()
    assert ka2_cat.is_generating_cogenerating()
    # a category missing an injective cannot cogenerate
    small = AddCategory([flag_mods["P1"], flag_mods["P2"], flag_mods["S3"]], 2)
    assert not small.is_generating_cogenerating()


def test_right_approximation_property(flag_cat, flag_mods):
    # approximate something outside the category
    s2 = flag_mods["S2"]
    f = right_approximation(flag_cat, s2)
    assert is_right_approximation(flag_cat, f)
    g = minimal_right_approximation(flag_cat, s2)
    assert is_right_approximation(flag_cat, g)
    assert is_right_minimal(g)
    # minimal version is a summand of the big glue
    assert hom_dim(g.domain, s2) <= hom_dim(f.domain, s2)


def test_left_approximation_property(flag_cat, flag_mods):
    s2 = flag_mods["S2"]
    f = minimal_left_approximation(flag_cat, s2)
    assert f.domain is s2
    assert is_left_minimal(f)
    # every map from s2 into a generator factors through f
    for gen in flag_cat.generators:
        for h in repcat.hom_basis(s2, gen):
            assert repcat.cofactor_through(h, f) is not None


def test_minimalize_strips_zero_summands(flag_cat, flag_mods, flag):
    s1, p1 = flag_mods["S1"], flag_mods["P1"]
    q = repcat.hom_basis(p1, s1)[0]
    # pad the cover with an irrelevant summand
    total, _, _ = direct_sum([p1, flag_mods["P2"]])
    out = block_map(total, s1, [[q, Morphism.zero(flag_mods["P2"], s1)]])
    gmin, incl = right_minimalize(out)
    assert is_right_minimal(gmin)
    assert are_isomorphic(gmin.domain, p1)
    # the inclusion splits the domain back into the padded sum
    assert (out @ incl).comps == gmin.comps
    # a second copy of the same piece is redundant too
    twice = block_map(direct_sum([p1, p1])[0], s1, [[q, q]])
    gmin, incl = right_minimalize(twice)
    assert is_right_minimal(gmin)
    assert are_isomorphic(gmin.domain, p1)
    assert (twice @ incl).comps == gmin.comps


def test_rad_hom_between_nonisomorphic_indecomposables_is_full(flag_mods):
    p2, s3 = flag_mods["P2"], flag_mods["S3"]
    r = rad_hom_basis(s3, p2)
    assert r.cols == hom_dim(s3, p2) == 1
    # self-radical of a simple is zero
    assert rad_hom_basis(s3, s3).cols == 0
    # self-radical of a projective with nontrivial endomorphisms
    assert rad_hom_basis(p2, p2).cols == 0  # End(P2) = k here


def test_rad_hom_respects_decomposable_inputs(flag_mods):
    p1, s1 = flag_mods["P1"], flag_mods["S1"]
    both, _, _ = direct_sum([p1, s1])
    r = rad_hom_basis(both, s1)
    # rad(P1+S1, S1) = rad(P1,S1) + rad(S1,S1) = Hom(P1,S1) + 0
    assert r.cols == 1


def test_approximation_of_zero_module(flag_cat, flag):
    z = repcat.zero_module(flag)
    f = minimal_right_approximation(flag_cat, z)
    assert f.domain.is_zero() and f.codomain is z


@pytest.mark.parametrize("fixture", ["ka2.json", "ka3rad2.json"])
@pytest.mark.parametrize("p", [2, 3])
def test_generator_radical_matches_scanning_oracle(fixture, p):
    ws = workspace.load(str(DATA / fixture), p)
    cat = ws.category("M")
    m = repcat.sum_module(cat.generators)
    for n in cat._summand_pool():
        kept = rad_hom_basis(m, n)
        assert kept.rows == repcat.hom_flat_dim(m, n)
        assert kept == pairwise_rad(m, n, scan_rad_between)


def test_additive_generator_is_kept_and_never_split(flag_cat, flag_mods, monkeypatch):
    """No workflow glues the generators into M: each reads the pool instead."""
    cat = AddCategory(list(flag_cat.generators), flag_cat.d)
    glued = []
    real = repcat.sum_module

    def spy(mods, algebra=None):
        glued.append(tuple(mods))
        return real(mods, algebra)

    monkeypatch.setattr(repcat, "sum_module", spy)
    d_almost_split(cat, flag_mods["S1"])
    gldim_end(cat)
    domdim_end(cat)
    is_d_cluster_tilting(cat, enumerate_indecomposables(cat.algebra, 2))
    assert glued
    generators = [id(g) for g in cat.generators]
    assert all([id(x) for x in mods] != generators for mods in glued)


def test_the_dual_category_is_an_involution_and_glues_no_generator(flag_cat, monkeypatch):
    glued = []
    real = repcat.sum_module

    def spy(mods, algebra):
        glued.append(tuple(mods))
        return real(mods, algebra)

    monkeypatch.setattr(repcat, "sum_module", spy)
    cat = AddCategory(list(flag_cat.generators), flag_cat.d)
    dual = cat.dual()
    assert dual.dual() is cat and cat.dual() is dual
    assert [g.dims for g in dual.generators] == [g.dims for g in cat.generators]
    assert not glued


@pytest.mark.parametrize("p", [2, 3])
def test_the_dual_category_takes_the_dual_pool_and_splits_nothing_over_the_opposite(
    p, monkeypatch
):
    ws = workspace.load(str(DATA / "ka3rad2.json"), p)
    cat, s1 = ws.category("M"), ws.module("S1")
    split = []
    real = repcat.split_summands

    def spy(x):
        split.append(x)
        return real(x)

    monkeypatch.setattr(repcat, "split_summands", spy)
    dual = cat.dual()
    assert dual.dual() is cat
    (pool, labels), (dual_pool, dual_labels) = cat._split_generators(), dual._split_generators()
    assert len(dual_pool) == len(pool)
    assert all(w is repcat.duality(z) for w, z in zip(dual_pool, pool))
    assert dual_labels == labels
    for x in pool:
        minimal_left_approximation(cat, x)
    determined_morphism(cat, s1, s1, EndSubmodule.zero(s1, s1))
    assert split and all(x.algebra is cat.algebra for x in split)


def test_category_answers_do_not_depend_on_the_cap(monkeypatch):
    # nothing in approx scans any more, so even a cap of 1 changes no answer
    answers = []
    for cap in (1, 4, config.SCAN_CAP):
        monkeypatch.setattr(config, "SCAN_CAP", cap)
        cat = workspace.load(str(DATA / "ka3rad2.json"), 2).category("M")
        s1 = cat.generators[3]
        g = minimal_right_approximation(cat, s1)
        answers.append(
            (cat.is_generating_cogenerating(), len(cat._summand_pool()), g.domain.dims,
             gldim_end(cat), [t.dims for t in d_almost_split(cat, s1).terms])
        )
    assert answers[0] == answers[1] == answers[2]
    assert answers[0][:2] == (True, 4)


def _same_minimal_map(g: Morphism, h: Morphism) -> None:
    def dims(m):
        return sorted(tuple(z.dims) for z, mult in repcat.decompose(m) for _ in range(mult))

    assert dims(g.domain) == dims(h.domain)
    assert repcat.factor_through(g, h) is not None
    assert repcat.factor_through(h, g) is not None


@pytest.mark.parametrize("fixture", ["ka2.json", "ka3rad2.json"])
@pytest.mark.parametrize("p", [2, 3])
def test_minimal_cover_matches_the_scan_oracle(fixture, p):
    ws = workspace.load(str(DATA / fixture), p)
    cat = ws.category("M")
    m = repcat.sum_module(cat.generators)
    for n in cat._summand_pool():
        if is_projective(n):
            continue
        mors = [repcat.morphism_from_vec(m, n, v) for v in rad_hom_basis(m, n).columns()]
        glued = block_map(direct_sum([m] * len(mors), cat.algebra)[0], n, [mors])
        _same_minimal_map(right_almost_split(cat, n), scan_right_minimalize(glued))
    for name in sorted(ws.modules):
        x = ws.module(name)
        oracle = scan_right_minimalize(right_approximation(cat, x))
        _same_minimal_map(minimal_right_approximation(cat, x), oracle)


def test_minimal_cover_drops_radical_composites(f2):
    # over k[x]/x^2, the piece x is a radical composite of the piece id
    loop = build_algebra(Quiver(["1"], [("a", "1", "1")]), [[(1, ["a", "a"])]], 2, f2)
    p = repcat.projective(loop, 0)
    x = Morphism(p, p, [p.maps[0]])
    g = block_map(direct_sum([p, p])[0], p, [[x, Morphism.identity(p)]])
    gmin, _ = right_minimalize(g)
    assert gmin.domain.dims == p.dims
    assert not is_right_minimal(g) and is_right_minimal(gmin)
    _same_minimal_map(gmin, scan_right_minimalize(g))


def test_minimal_cover_uses_whole_endomorphism_orbits(f2):
    # a Kronecker module with End = F_4: w is not a scalar, yet id and w
    # lie in one End-orbit, so one copy of z covers both pieces
    kronecker = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], 2, f2)
    c = Matrix(f2, [[0, 1], [1, 1]], 2)
    z = Module(kronecker, [2, 2], [Matrix.identity(f2, 2), c])
    assert repcat.is_indecomposable(z) and hom_dim(z, z) == 2
    w = Morphism(z, z, [c, c])
    g = block_map(direct_sum([z, z])[0], z, [[Morphism.identity(z), w]])
    gmin, _ = right_minimalize(g)
    assert gmin.domain.dims == z.dims
    assert not is_right_minimal(g) and is_right_minimal(gmin)
    _same_minimal_map(gmin, scan_right_minimalize(g))
