"""Modules, morphisms, and the additive structure of the representation category."""

import pathlib

import pytest

from dctkit import DimensionMismatch, InvalidModule, InvalidMorphism, Matrix, Module, Morphism
from dctkit import repcat, workspace
from dctkit.repcat import (
    are_isomorphic,
    cokernel,
    decompose,
    direct_sum,
    duality,
    find_isomorphism,
    glue_columns,
    glue_rows,
    hom_basis,
    hom_dim,
    hom_image,
    image,
    injective,
    injective_envelope,
    is_indecomposable,
    is_radical_morphism,
    kernel,
    projective,
    projective_cover,
    radical,
    simple,
    socle,
    submodule_generated,
    top,
    zero_module,
)


def test_module_validation_checks_relations(flag, f2):
    # dims allow a nonzero composite a then b, which the relation forbids
    with pytest.raises(InvalidModule):
        Module(
            flag,
            (1, 1, 1),
            [Matrix(f2, [[1]]), Matrix(f2, [[1]])],
        )


def test_morphism_validation_checks_intertwining(ka2, ka2_mods, f2):
    P1, S2 = ka2_mods["P1"], ka2_mods["S2"]
    # the only map P1 -> P1 fixing vertex 1 must respect the arrow action
    with pytest.raises(InvalidMorphism):
        Morphism(P1, P1, [Matrix(f2, [[1]]), Matrix(f2, [[0]])])
    # and a legal one goes through
    Morphism(P1, P1, [Matrix(f2, [[1]]), Matrix(f2, [[1]])])
    Morphism(S2, P1, [Matrix.zeros(f2, 1, 0), Matrix(f2, [[1]])])


def test_hom_dimension_table(flag_mods):
    order = ["P1", "P2", "S3", "S1"]
    expected = {
        "P1": [1, 0, 0, 1],
        "P2": [1, 1, 0, 0],
        "S3": [0, 1, 1, 0],
        "S1": [0, 0, 0, 1],
    }
    for src in order:
        got = [hom_dim(flag_mods[src], flag_mods[dst]) for dst in order]
        assert got == expected[src], src


def test_hom_basis_members_compose(flag_mods):
    P2, S3 = flag_mods["P2"], flag_mods["S3"]
    fs = hom_basis(S3, P2)
    assert len(fs) == 1
    gs = hom_basis(P2, P2)
    comp = gs[0] @ fs[0]
    assert comp.domain is S3 and comp.codomain is P2


def test_kernel_image_cokernel_are_exact(ka2_mods):
    P1, S1 = ka2_mods["P1"], ka2_mods["S1"]
    g = repcat.hom_basis(P1, S1)[0]
    k, incl = kernel(g)
    assert tuple(k.dims) == (0, 1)  # the radical of P1
    img, _ = image(incl)
    assert tuple(img.dims) == (0, 1)
    c, proj = cokernel(incl)
    assert tuple(c.dims) == (1, 0)
    assert proj.is_epi()


def test_simples_projectives_injectives(flag):
    assert tuple(simple(flag, 0).dims) == (1, 0, 0)
    assert tuple(projective(flag, 0).dims) == (1, 1, 0)
    assert tuple(projective(flag, 2).dims) == (0, 0, 1)
    assert tuple(injective(flag, 0).dims) == (1, 0, 0)
    assert tuple(injective(flag, 1).dims) == (1, 1, 0)
    assert tuple(injective(flag, 2).dims) == (0, 1, 1)


def test_duality_swaps_projective_and_injective(flag):
    P1 = projective(flag, 0)
    dp = duality(P1)
    # dual of the projective at 1 is the injective at 1 over the opposite algebra
    opp_inj = injective(flag.opposite(), 0)
    assert are_isomorphic(dp, opp_inj)


@pytest.mark.parametrize("fixture", ["ka2.json", "ka3rad2.json"])
def test_duality_is_a_strict_involution(fixture):
    ws = workspace.load(str(pathlib.Path(__file__).parent / "data" / fixture))
    for x in ws.modules.values():
        dx = duality(x)
        assert dx.algebra is x.algebra.opposite()
        assert duality(dx) is x
        assert duality(x) is dx
    for f in ws.morphisms.values():
        assert repcat.duality_morphism(repcat.duality_morphism(f)) == f


def test_direct_sum_and_glue_round_trip(ka2_mods, f2):
    S1, P1 = ka2_mods["S1"], ka2_mods["P1"]
    total, incs, projs = direct_sum([S1, P1])
    assert tuple(total.dims) == (2, 1)
    for i in range(2):
        assert (projs[i] @ incs[i]).is_mono() and (projs[i] @ incs[i]).is_epi()
    assert (projs[0] @ incs[1]).is_zero()
    # glue_rows: one source, a leg into each summand
    q = repcat.hom_basis(P1, S1)[0]
    ident = Morphism.identity(S1)
    tot, out, _, _ = glue_rows(S1, [S1, P1], [ident, Morphism.zero(S1, P1)])
    assert out.domain is S1 and out.codomain is tot
    assert out.is_mono()
    # glue_columns: one target, a leg out of each summand
    tot2, into, _, _ = glue_columns(S1, [P1, S1], [q, ident])
    assert into.codomain is S1
    assert into.is_epi()


def test_submodule_generated_closes_under_arrows(ka2_mods, f2):
    P1 = ka2_mods["P1"]
    # the vector at vertex 1 generates all of P1
    span = [Matrix(f2, [[1]]), Matrix.zeros(f2, 1, 0)]
    sub, incl = submodule_generated(P1, span)
    assert tuple(sub.dims) == (1, 1)
    assert incl.is_mono() and incl.is_epi()


def test_quotient_module_kills_submodule(ka2_mods, f2):
    P1 = ka2_mods["P1"]
    span = [Matrix.zeros(f2, 1, 0), Matrix(f2, [[1]])]
    sub, incl = repcat.submodule(P1, span)
    q, proj = cokernel(incl)
    assert tuple(q.dims) == (1, 0)
    assert (proj @ incl).is_zero()


def test_radical_top_socle(flag_mods):
    P1, P2 = flag_mods["P1"], flag_mods["P2"]
    r, _ = radical(P1)
    assert tuple(r.dims) == (0, 1, 0)
    t, _ = top(P1)
    assert tuple(t.dims) == (1, 0, 0)
    s, _ = socle(P2)
    assert tuple(s.dims) == (0, 0, 1)


def test_projective_cover_and_injective_envelope(flag_mods, flag):
    S2 = flag_mods["S2"]
    cover, aug, verts = projective_cover(S2)
    assert verts == [1]
    assert tuple(cover.dims) == (0, 1, 1)
    assert aug.is_epi()
    env, mono = injective_envelope(S2)
    assert mono.is_mono()
    assert tuple(env.dims) == (1, 1, 0)


def test_zero_module_cover_is_empty(flag):
    z = zero_module(flag)
    cover, aug, verts = projective_cover(z)
    assert cover.is_zero() and verts == []


def test_decompose_finds_multiplicities(ka2_mods):
    S1, P1 = ka2_mods["S1"], ka2_mods["P1"]
    big, _, _ = direct_sum([P1, S1, P1])
    parts = decompose(big)
    found = {}
    for rep, mult in parts:
        key = tuple(rep.dims)
        found[key] = mult
    assert found == {(1, 1): 2, (1, 0): 1}


def test_indecomposability_detects_splittings(ka2_mods, ka2, f2):
    S1, S2, P1 = ka2_mods["S1"], ka2_mods["S2"], ka2_mods["P1"]
    assert is_indecomposable(P1)
    assert is_indecomposable(S1)
    both, _, _ = direct_sum([S1, S2])
    assert not is_indecomposable(both)
    # (1,1) with zero arrow action = S1 + S2, not P1
    loose = Module(ka2, (1, 1), [Matrix.zeros(f2, 1, 1)])
    assert not is_indecomposable(loose)
    assert not are_isomorphic(loose, P1)


def test_find_isomorphism_returns_usable_map(ka2_mods, ka2, f2):
    P1 = ka2_mods["P1"]
    other = Module(ka2, (1, 1), [Matrix(f2, [[1]])])
    iso = find_isomorphism(P1, other)
    assert iso is not None
    assert iso.is_mono() and iso.is_epi()


def test_radical_morphism_detection(ka2_mods):
    S1, P1 = ka2_mods["S1"], ka2_mods["P1"]
    q = repcat.hom_basis(P1, S1)[0]
    assert is_radical_morphism(q)
    assert not is_radical_morphism(Morphism.identity(P1))


def test_hom_image_matches_composition_span(flag_mods):
    P1, P2, S1 = flag_mods["P1"], flag_mods["P2"], flag_mods["S1"]
    g = repcat.hom_basis(P1, S1)[0]
    img = hom_image(P2, g)
    # Hom(P2, P1) is one-dimensional and composes to a nonzero map P2 -> S1?
    # no: the only map P2 -> P1 lands in rad P1 = S2 which dies in S1.
    assert img.cols == 0
    img2 = hom_image(P1, g)
    assert img2.cols == 1


def test_composition_needs_the_same_middle_module(flag_mods):
    P1 = flag_mods["P1"]
    s12, _, _ = direct_sum([flag_mods["S1"], flag_mods["S2"]])
    assert P1.dims == s12.dims
    with pytest.raises(DimensionMismatch):
        Morphism.identity(P1) @ Morphism.identity(s12)
    # an entrywise-equal copy of the middle module is accepted
    copy = repcat.projective(P1.algebra, 0)
    assert (Morphism.identity(P1) @ Morphism.identity(copy)).codomain is P1


def test_addition_needs_the_same_modules(flag_mods):
    P1 = flag_mods["P1"]
    s12, incs, projs = direct_sum([flag_mods["S1"], flag_mods["S2"]])
    e = incs[0] @ projs[0]  # the idempotent of S1 + S2 onto S1
    assert e @ e == e and P1.dims == s12.dims
    # zero(P1, P1) + e would be a map P1 -> P1 that fails to intertwine the arrow
    for op in (Morphism.__add__, Morphism.__sub__):
        with pytest.raises(DimensionMismatch):
            op(Morphism.zero(P1, P1), e)
        with pytest.raises(DimensionMismatch):
            op(e, Morphism.zero(s12, P1))
    # an entrywise-equal copy of the modules is accepted
    copy = repcat.projective(P1.algebra, 0)
    total = Morphism.identity(P1) + Morphism.zero(copy, copy)
    assert total.domain is P1 and total == Morphism.identity(P1)


def test_hom_composites_columns_are_the_composites(flag_mods):
    def columns(m):
        return [list(c) for c in m.columns()]

    mods = list(flag_mods.values()) + [repcat.zero_module(flag_mods["P1"].algebra)]
    for a in mods:
        for b in mods:
            for g in repcat.hom_basis(a, b):
                for x in mods:
                    post = repcat.hom_composites(x, g)
                    assert post.rows == repcat.hom_flat_dim(x, b)
                    assert columns(post) == [
                        list(repcat.hom_vec(g @ h)) for h in repcat.hom_basis(x, a)
                    ]
                    pre = repcat.hom_composites(g, x)
                    assert pre.rows == repcat.hom_flat_dim(a, x)
                    assert columns(pre) == [
                        list(repcat.hom_vec(h @ g)) for h in repcat.hom_basis(b, x)
                    ]
