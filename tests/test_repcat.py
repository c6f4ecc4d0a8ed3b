"""Modules, morphisms, and the additive structure of the representation category."""

import functools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import DimensionMismatch, InvalidModule, InvalidMorphism, Matrix, Module, Morphism
from dctkit import exactlin, repcat, workspace
from dctkit.artheory import enumerate_indecomposables
from dctkit.repcat import (
    are_isomorphic,
    block_map,
    cokernel,
    decompose,
    direct_sum,
    duality,
    hom_basis,
    hom_dim,
    hom_image,
    image,
    injective_envelope,
    is_indecomposable,
    is_radical_morphism,
    kernel,
    projective,
    projective_cover,
    simple,
    submodule_generated,
    zero_module,
)
from scan_oracles import (
    find_isomorphism,
    injective,
    joint_kernel_socle,
    radical,
    socle,
    summed_block_map,
    top,
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
    # a column of blocks: one source, a leg into each summand
    q = repcat.hom_basis(P1, S1)[0]
    ident = Morphism.identity(S1)
    tot, _, _ = direct_sum([S1, P1])
    out = block_map(S1, tot, [[ident], [Morphism.zero(S1, P1)]])
    assert out.domain is S1 and out.codomain is tot
    assert out.is_mono()
    # a row of blocks: one target, a leg out of each summand
    tot2, _, _ = direct_sum([P1, S1])
    into = block_map(tot2, S1, [[q, ident]])
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


@pytest.mark.parametrize("fixture", ["ka2.json", "ka3rad2.json"])
@pytest.mark.parametrize("p", [2, 3])
def test_socle_is_the_joint_kernel_of_the_outgoing_arrows(fixture, p):
    alg = workspace.load(str(pathlib.Path(__file__).parent / "data" / fixture), p).algebra
    universe = enumerate_indecomposables(alg, 2)
    pairs = [direct_sum([x, y])[0] for i, x in enumerate(universe) for y in universe[i:]]
    for x in universe + pairs:
        s, incl = socle(x)
        assert incl.domain is s and incl.codomain is x and incl.is_mono()
        _, oracle = joint_kernel_socle(x)
        for v in range(len(x.dims)):
            assert exactlin.subspace_eq(incl.comps[v], oracle.comps[v]), (x, v)


def test_morphisms_need_one_algebra(flag_mods):
    for x in flag_mods.values():
        dx = duality(x)
        with pytest.raises(InvalidMorphism):
            Morphism.zero(x, dx)
        with pytest.raises(InvalidMorphism):
            Morphism(x, dx, [Matrix.identity(x.field, d) for d in x.dims])


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
    copy = Module(P1.algebra, P1.dims, P1.maps)
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
    copy = Module(P1.algebra, P1.dims, P1.maps)
    total = Morphism.identity(P1) + Morphism.zero(copy, copy)
    assert total.domain is P1 and total == Morphism.identity(P1)


def test_factoring_needs_the_same_module(ka2, ka2_mods):
    S1, S2, P1 = ka2_mods["S1"], ka2_mods["S2"], ka2_mods["P1"]
    # Z has P1's dimension vector, but its arrow acts by zero
    z = Module(ka2, P1.dims, [Matrix.zeros(ka2.field, 1, 1)])
    socle_map = repcat.hom_basis(S2, P1)[0]
    onto_top = repcat.hom_basis(P1, S1)[0]
    with pytest.raises(DimensionMismatch):
        repcat.factor_through(socle_map, Morphism.identity(z))
    with pytest.raises(DimensionMismatch):
        repcat.cofactor_through(onto_top, Morphism.identity(z))
    # an entrywise-equal copy is still the same module
    copy = Module(ka2, P1.dims, P1.maps)
    assert repcat.factor_through(socle_map, Morphism.identity(copy)) is not None
    assert repcat.cofactor_through(onto_top, Morphism.identity(copy)) is not None


def test_projectives_are_built_once_per_algebra(flag, flag_mods):
    for v in range(flag.quiver.n_vertices):
        assert projective(flag, v) is projective(flag, v)
        assert projective(flag, flag.quiver.vertices[v]) is projective(flag, v)
    assert flag_mods["P1"] is projective(flag, 0)
    # a cover with two summands at vertex 1 is the sum of the one projective twice
    total, _, _ = direct_sum([flag_mods["S1"], flag_mods["S1"], flag_mods["S2"]])
    cover, _, verts = projective_cover(total)
    assert verts == [0, 0, 1]
    glued = repcat.sum_module([projective(flag, 0)] * 2 + [projective(flag, 1)])
    assert (cover.dims, cover.maps) == (glued.dims, glued.maps)


# -- one object per module ------------------------------------------------------


def test_equal_content_is_one_object():
    ws = workspace.load(str(pathlib.Path(__file__).parent / "data" / "ka3rad2.json"), 2)
    alg, m = ws.algebra, ws.modules
    p1, s1, s2 = m["P1"], m["S1"], m["S2"]
    # parsed modules are the ones every constructor builds
    assert p1 is projective(alg, 0) is Module(alg, p1.dims, p1.maps)
    assert s1 is simple(alg, 0) and s2 is simple(alg, 1)
    onto_top, socle_map = hom_basis(p1, s1)[0], hom_basis(s2, p1)[0]
    assert kernel(onto_top)[0] is s2 and image(socle_map)[0] is s2
    assert cokernel(socle_map)[0] is s1
    # a sum of one module is that module, and its cover is one projective
    assert repcat.sum_module([p1]) is p1 and direct_sum([s1])[0] is s1
    assert repcat.sum_module([s1, s2]) is direct_sum([s1, s2])[0]
    assert projective_cover(s1)[0] is p1
    dual = Module(alg.opposite(), p1.dims, [a.transpose() for a in p1.maps])
    assert duality(p1) is dual and duality(dual) is p1
    # another algebra keeps its own modules
    assert workspace.parse(ws.doc).modules["P1"] is not p1


def test_trivial_shapes_return_what_the_general_path_builds(flag, flag_mods, fresh_flag):
    p1, s1, s2 = flag_mods["P1"], flag_mods["S1"], flag_mods["S2"]
    onto_top, socle_map = hom_basis(p1, s1)[0], hom_basis(s2, p1)[0]
    # a 1x1 grid of a map dom -> cod is that map
    assert block_map(p1, s1, [[onto_top]]) is onto_top
    # a block with another domain takes the general path: equal shapes give a new map
    split = repcat.sum_module([s1, s2])  # the dimension vector of P1, the arrow a zero
    moved = block_map(split, s1, [[onto_top]])
    assert moved is not onto_top and moved.domain is split and moved.comps == onto_top.comps
    with pytest.raises(InvalidMorphism):  # and other shapes are refused
        block_map(s2, s1, [[onto_top]])
    # a sum of one module over its own algebra is that module; over another, a new one
    assert repcat.sum_module([p1], flag) is p1
    other = repcat.sum_module([p1], fresh_flag)
    assert other.algebra is fresh_flag and (other.dims, other.maps) == (p1.dims, p1.maps)
    # the kernel of a mono is the zero module, with the zero inclusion
    k, incl = kernel(socle_map)
    assert k is zero_module(flag) and incl == Morphism.zero(k, s2)
    assert image(Morphism.zero(s1, p1))[0] is k


def test_a_table_hit_still_checks_shapes_and_relations(fresh_flag):
    f = fresh_flag.field
    p1 = projective(fresh_flag, 0)  # dims (1, 1, 0): the arrow b is 0 x 1
    # a 0 x 2 matrix has the raw entries of a 0 x 1 one, so shapes are checked first
    with pytest.raises(InvalidModule, match="shape 0x2"):
        Module(fresh_flag, p1.dims, [p1.maps[0], Matrix.zeros(f, 0, 2)])
    one = Matrix(f, [[1]])
    # the enumeration keeps candidates it has not checked; asking for the check refuses
    kept = Module(fresh_flag, [1, 1, 1], [one, one], _skip_check=True)
    with pytest.raises(InvalidModule, match="relation"):
        Module(fresh_flag, [1, 1, 1], [one, one])
    assert Module(fresh_flag, [1, 1, 1], [one, one], _skip_check=True) is kept


def test_the_table_keeps_no_module_alive(fresh_flag):
    import gc

    one = Matrix(fresh_flag.field, [[1]])
    x = Module(fresh_flag, [1, 1, 0], [one, Matrix.zeros(one.field, 0, 1)])
    assert list(fresh_flag._modules.values()) == [x]
    del x
    gc.collect()
    assert not fresh_flag._modules
    classes = enumerate_indecomposables(fresh_flag, 5)
    assert len(classes) == 5
    del classes
    gc.collect()
    # 441 candidates were built, none is referenced any more
    assert not fresh_flag._modules


@functools.lru_cache(maxsize=None)
def block_universe(p):
    """The bound-2 indecomposables of KA_3/rad^2 over F_p, and the zero module."""
    ws = workspace.load(str(pathlib.Path(__file__).parent / "data" / "ka3rad2.json"), p)
    return tuple(enumerate_indecomposables(ws.algebra, 2)) + (zero_module(ws.algebra),)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    rows=st.lists(st.integers(0, 10**6), max_size=3),
    cols=st.lists(st.integers(0, 10**6), max_size=3),
    seed=st.integers(0, 2**32),
)
def test_block_map_is_the_sum_of_its_blocks(p, rows, cols, seed):
    mods = block_universe(p)
    dom_mods = [mods[j % len(mods)] for j in cols]
    cod_mods = [mods[k % len(mods)] for k in rows]
    dom_sum = direct_sum(dom_mods, algebra=mods[0].algebra)
    cod_sum = direct_sum(cod_mods, algebra=mods[0].algebra)
    rng = random.Random(seed)

    def block(x, y):
        f = Morphism.zero(x, y)
        for b in hom_basis(x, y):
            f = f + b.scale(rng.randrange(p))
        return f

    grid = [[block(x, y) for x in dom_mods] for y in cod_mods]
    f = block_map(dom_sum[0], cod_sum[0], grid)
    assert f.domain is dom_sum[0] and f.codomain is cod_sum[0]
    assert f.comps == summed_block_map(dom_sum, cod_sum, grid).comps
    Morphism(f.domain, f.codomain, f.comps)  # intertwines the arrows


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
