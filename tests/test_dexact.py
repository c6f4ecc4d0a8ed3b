"""The longer-sequence calculus: exactness certificates, cones, base change."""

import pathlib

import pytest

from dctkit import AddCategory, DSequence, Matrix, Module, Morphism
from dctkit import dexact, exactlin, repcat, workspace
from dctkit.dexact import (
    ComplexMorphism,
    build_left_d_exact,
    d_pullback_complete,
    d_pushout_complete,
    defect_contravariant,
    defect_covariant,
    is_chain_map,
    is_contractible,
    is_d_exact,
    is_exact_complex,
    is_left_d_exact,
    is_right_d_exact,
    pullback,
)
from dctkit.errors import DimensionMismatch, InvalidMorphism
from scan_oracles import (
    contraction,
    generator_left_d_exact,
    generator_right_d_exact,
    identity_chain,
    long_exact_extension_ok,
    mapping_cone,
    null_homotopy,
    pushout,
)


@pytest.fixture(scope="module")
def ka2_ses(ka2_cat, ka2_mods):
    q = repcat.hom_basis(ka2_mods["P1"], ka2_mods["S1"])[0]
    return build_left_d_exact(ka2_cat, q)


@pytest.fixture(scope="module")
def flag_seq(flag_cat, flag_mods):
    q = repcat.hom_basis(flag_mods["P1"], flag_mods["S1"])[0]
    return build_left_d_exact(flag_cat, q)


def test_sequence_shape_and_accessors(flag_seq):
    assert flag_seq.d == 2
    assert len(flag_seq.terms) == 4
    assert flag_seq.left_term is flag_seq.terms[0]
    assert flag_seq.right_term is flag_seq.terms[-1]
    assert len(flag_seq.interior()) == 2


def test_sequence_rejects_mismatched_chain(ka2_mods):
    S1, P1 = ka2_mods["S1"], ka2_mods["P1"]
    q = repcat.hom_basis(P1, S1)[0]
    with pytest.raises(InvalidMorphism):
        DSequence([S1, S1], [q])


def test_build_left_d_exact_terms(ka2_ses, flag_seq):
    assert [tuple(t.dims) for t in ka2_ses.terms] == [(0, 1), (1, 1), (1, 0)]
    assert [tuple(t.dims) for t in flag_seq.terms] == [
        (0, 0, 1),
        (0, 1, 1),
        (1, 1, 0),
        (1, 0, 0),
    ]


def test_exactness_certificates(ka2_ses, ka2_cat, flag_seq, flag_cat):
    assert is_left_d_exact(ka2_ses, ka2_cat)
    assert is_right_d_exact(ka2_ses, ka2_cat)
    assert is_d_exact(ka2_ses, ka2_cat)
    assert is_d_exact(flag_seq, flag_cat)
    assert is_exact_complex(flag_seq)


def _fixture_sequences(p):
    """(category, sequence) for build_left_d_exact of every hom-basis map between the
    named modules of both fixtures."""
    for fixture in ("ka2.json", "ka3rad2.json"):
        ws = workspace.load(str(pathlib.Path(__file__).parent / "data" / fixture), p)
        cat = ws.category("M")
        for x in ws.modules.values():
            for y in ws.modules.values():
                for g in repcat.hom_basis(x, y):
                    yield cat, build_left_d_exact(cat, g)


@pytest.mark.parametrize("p", [2, 3])
def test_right_d_exactness_matches_the_rank_oracle(p):
    verdicts = []
    for cat, seq in _fixture_sequences(p):
        verdict = is_right_d_exact(seq, cat)
        assert verdict == generator_right_d_exact(seq, cat)
        verdicts.append(verdict)
    assert (verdicts.count(True), verdicts.count(False)) == (10, 5)


@pytest.mark.parametrize("p", [2, 3])
def test_pool_exactness_matches_the_generator_oracle_with_a_glued_generator(p):
    """Asked of the pool, both tests agree with every generator's, and with
    the same category given a generator glued from two.  Each built sequence
    is tested as it is and with its left term replaced by zero."""
    verdicts = []
    for cat, built in _fixture_sequences(p):
        gens = cat.generators
        glued = AddCategory([repcat.sum_module(gens[:2])] + list(gens[2:]), cat.d)
        zero = repcat.zero_module(cat.algebra)
        cut = DSequence([zero] + list(built.terms[1:]),
                        [Morphism.zero(zero, built.terms[1])] + list(built.maps[1:]))
        for seq in (built, cut):
            for c in (cat, glued):
                left, right = is_left_d_exact(seq, c), is_right_d_exact(seq, c)
                assert left == generator_left_d_exact(seq, c)
                assert right == generator_right_d_exact(seq, c)
                verdicts.append((left, right))
    assert verdicts[::2] == verdicts[1::2]
    assert {left for left, _ in verdicts} == {right for _, right in verdicts} == {True, False}


def test_non_exact_sequence_is_rejected(flag_cat, flag_mods):
    # P2 -> S3 -> 0 -> 0 padded into four terms is not exact in the middle
    P1, S1 = flag_mods["P1"], flag_mods["S1"]
    z1 = repcat.zero_module(flag_mods["P1"].algebra)
    z2 = repcat.zero_module(flag_mods["P1"].algebra)
    seq = DSequence(
        [P1, z1, z2, S1],
        [Morphism.zero(P1, z1), Morphism.zero(z1, z2), Morphism.zero(z2, S1)],
    )
    assert not is_left_d_exact(seq, flag_cat)
    assert not is_exact_complex(seq)


def test_a_complex_exact_at_its_ends_but_not_in_the_middle_is_not_exact(ka2_mods):
    # S2 -> P1 -0-> P1 -> S1: a mono, then an epi, but Ker 0 = P1 is not Im(S2 -> P1)
    S1, S2, P1 = ka2_mods["S1"], ka2_mods["S2"], ka2_mods["P1"]
    incl, quot = repcat.hom_basis(S2, P1)[0], repcat.hom_basis(P1, S1)[0]
    seq = DSequence([S2, P1, P1, S1], [incl, Morphism.zero(P1, P1), quot])
    assert incl.is_mono() and quot.is_epi()
    assert not is_exact_complex(seq)
    assert is_exact_complex(DSequence([S2, P1, S1], [incl, quot]))


def test_contractible_iff_split(ka2_mods, flag_mods, flag_cat, flag_seq):
    S1, S2 = ka2_mods["S1"], ka2_mods["S2"]
    total, incs, projs = repcat.direct_sum([S2, S1])
    split = DSequence([S2, total, S1], [incs[0], projs[1]])
    assert is_contractible(split)
    assert contraction(split) is not None
    assert not is_contractible(flag_seq)
    assert contraction(flag_seq) is None


def test_null_homotopy_of_zero_chain_map(flag_seq):
    zeros = [Morphism.zero(t, t) for t in flag_seq.terms]
    phi = ComplexMorphism(flag_seq, flag_seq, zeros)
    h = null_homotopy(phi)
    assert h is not None
    # identity on a non-contractible sequence is not null homotopic
    ident = ComplexMorphism(flag_seq, flag_seq, identity_chain(flag_seq))
    assert null_homotopy(ident) is None


def test_classical_pullback_square(ka2_mods):
    S1, P1 = ka2_mods["S1"], ka2_mods["P1"]
    q = repcat.hom_basis(P1, S1)[0]
    pb, to_x, to_y, _ = pullback(q, Morphism.identity(S1))
    assert to_x.codomain is P1
    # square commutes and the pullback of an epi along the identity is the domain
    assert (q @ to_x).comps == to_y.comps
    assert repcat.are_isomorphic(pb, P1)


def test_classical_pushout_square(ka2_mods):
    S2, P1 = ka2_mods["S2"], ka2_mods["P1"]
    inc = repcat.hom_basis(S2, P1)[0]
    po, from_x, from_y, _ = pushout(inc, Morphism.identity(S2))
    assert (from_x @ inc).comps == from_y.comps
    assert repcat.are_isomorphic(po, P1)


def test_d_pullback_complete_keeps_left_column(flag_cat, flag_seq, flag_mods):
    P1 = flag_mods["P1"]
    q = repcat.hom_basis(P1, flag_seq.right_term)[0]
    cm = d_pullback_complete(flag_cat, flag_seq, q)
    assert cm.dst is flag_seq
    top = cm.src
    assert len(top.terms) == 4
    assert top.terms[0] is flag_seq.left_term
    assert top.right_term is q.domain
    assert is_chain_map(top, flag_seq, cm.maps)
    assert is_d_exact(top, flag_cat)
    # last square commutes through the given leg
    assert (q @ top.maps[-1]).comps == (flag_seq.maps[-1] @ cm.maps[-2]).comps


def test_d_pullback_tail_cone_is_left_exact(flag_cat, flag_seq, flag_mods):
    q = repcat.hom_basis(flag_mods["P1"], flag_seq.right_term)[0]
    cm = d_pullback_complete(flag_cat, flag_seq, q)
    top_tail = DSequence(cm.src.terms[1:], cm.src.maps[1:])
    tail = DSequence(flag_seq.terms[1:], flag_seq.maps[1:])
    cone = mapping_cone(top_tail, tail, cm.maps[1:])
    assert is_left_d_exact(cone, flag_cat)


def test_d_pushout_complete_keeps_right_column(flag_cat, flag_seq, flag_mods):
    P2 = flag_mods["P2"]
    legs = repcat.hom_basis(flag_seq.left_term, P2)
    assert legs
    cm = d_pushout_complete(flag_cat, flag_seq, legs[0])
    assert cm.src is flag_seq
    bottom = cm.dst
    assert bottom.left_term is legs[0].codomain
    assert bottom.right_term is flag_seq.right_term
    assert is_chain_map(flag_seq, bottom, cm.maps)
    assert is_d_exact(bottom, flag_cat)


def test_d_pushout_complete_rejects_a_leg_from_a_copy(flag_cat, flag_seq, fresh_flag):
    # the left term is S3, the one module of its dimension vector over flag, and
    # an equal module is that module; a different one comes from a second algebra
    left = flag_seq.left_term
    copy = Module(fresh_flag, left.dims, left.maps)
    leg = repcat.hom_basis(copy, repcat.projective(fresh_flag, 1))[0]
    assert copy is not left and copy.dims == left.dims
    with pytest.raises(DimensionMismatch, match="left end"):
        d_pushout_complete(flag_cat, flag_seq, leg)


def test_d_pushout_along_identity_is_isomorphic_row(flag_cat, flag_seq):
    ident = Morphism.identity(flag_seq.left_term)
    cm = d_pushout_complete(flag_cat, flag_seq, ident)
    for a, b in zip(cm.src.terms, cm.dst.terms):
        assert repcat.are_isomorphic(a, b)


def test_mapping_cone_shape(flag_seq, flag_cat):
    ident = ComplexMorphism(flag_seq, flag_seq, identity_chain(flag_seq))
    cone = mapping_cone(ident.src, ident.dst, ident.maps)
    assert len(cone.terms) == len(flag_seq.terms) + 1
    # the cone over the identity is exact: it starts with a mono and ends with an epi
    assert is_exact_complex(cone)


def test_defect_dimensions_on_both_sides(flag_seq, flag_mods):
    # contravariant defect detects only the right end
    assert defect_contravariant(flag_seq, flag_mods["S1"]).dim == 1
    assert defect_contravariant(flag_seq, flag_mods["P1"]).dim == 0
    assert defect_contravariant(flag_seq, flag_mods["P2"]).dim == 0
    # covariant defect detects only the left end
    assert defect_covariant(flag_seq, flag_mods["S3"]).dim == 1
    assert defect_covariant(flag_seq, flag_mods["P2"]).dim == 0


def test_defect_of_contractible_sequence_vanishes(ka2_mods):
    S1, S2 = ka2_mods["S1"], ka2_mods["S2"]
    total, incs, projs = repcat.direct_sum([S2, S1])
    split = DSequence([S2, total, S1], [incs[0], projs[1]])
    for x in (S1, S2, total):
        assert defect_contravariant(split, x).dim == 0
        assert defect_covariant(split, x).dim == 0


def test_long_exact_extension(flag_seq, flag_cat):
    for gen in flag_cat.generators:
        assert long_exact_extension_ok(flag_seq, gen)


def test_membership_check(flag_seq, flag_cat, flag_mods):
    seq = DSequence(flag_seq.terms, flag_seq.maps, category=flag_cat)
    assert seq.check_membership()
    # a sequence through a non-member fails
    S2 = flag_mods["S2"]
    cover = repcat.hom_basis(flag_mods["P2"], S2)[0]
    k, incl = repcat.kernel(cover)
    bad = DSequence(
        [k, flag_mods["P2"], S2], [incl, cover], category=flag_cat
    )
    assert not bad.check_membership()
