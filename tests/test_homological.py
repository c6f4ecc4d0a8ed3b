"""Resolutions, extensions, the transpose, and the higher translate."""

import pathlib

import pytest

from dctkit import ext_dim, gldim, pd, tau_d, tau_d_minus
from dctkit import homological, repcat, workspace
from dctkit.artheory import enumerate_indecomposables
from dctkit.homological import (
    ext_map_post,
    ext_space,
    injectively_stable_dim,
    is_injective,
    is_projective,
    projectively_stable_dim,
    resolution,
    syzygy,
    tensor_dim,
    tensor_map,
    tor_dim,
    transpose,
    tr_d,
)
from dctkit.repcat import are_isomorphic, duality, hom_dim, simple

DATA = pathlib.Path(__file__).parent / "data"


def test_resolution_of_end_simple_walks_the_line(flag, flag_mods):
    res = resolution(flag_mods["S1"])
    assert tuple(res.projective(0).dims) == (1, 1, 0)
    assert tuple(res.projective(1).dims) == (0, 1, 1)
    assert tuple(res.projective(2).dims) == (0, 0, 1)
    assert res.projective(3).is_zero()
    # differentials compose to zero
    comp = res.differential(1) @ res.differential(2)
    assert comp.is_zero()
    assert (res.augmentation @ res.differential(1)).is_zero()


def test_pd_and_gldim(flag, ka2, flag_mods, ka2_mods):
    assert pd(flag_mods["P1"]) == 0
    assert pd(flag_mods["S2"]) == 1
    assert pd(flag_mods["S1"]) == 2
    assert gldim(flag) == 2
    assert gldim(ka2) == 1


def test_projectivity_and_injectivity_tests(flag_mods):
    assert is_projective(flag_mods["P1"])
    assert is_projective(flag_mods["S3"])  # vertex 3 is a sink
    assert not is_projective(flag_mods["S1"])
    assert is_injective(flag_mods["S1"])  # vertex 1 is a source
    assert not is_injective(flag_mods["S2"])


def test_ext_dimensions_against_resolution_count(flag_mods, ka2_mods):
    # one-step extension between neighbouring simples on the line
    assert ext_dim(flag_mods["S1"], flag_mods["S2"], 1) == 1
    assert ext_dim(flag_mods["S2"], flag_mods["S3"], 1) == 1
    assert ext_dim(flag_mods["S1"], flag_mods["S3"], 1) == 0
    # the length-two jump appears one degree up
    assert ext_dim(flag_mods["S1"], flag_mods["S3"], 2) == 1
    assert ext_dim(ka2_mods["S1"], ka2_mods["S2"], 1) == 1
    # nothing extends projectives
    assert ext_dim(flag_mods["P1"], flag_mods["S3"], 1) == 0


def test_ext_vanishes_beyond_global_dimension(flag, flag_mods):
    for name in ("S1", "S2", "S3", "P1", "P2"):
        for other in ("S1", "S2", "S3"):
            assert ext_dim(flag_mods[name], flag_mods[other], 3) == 0


def test_syzygy_is_kernel_of_cover(flag_mods):
    s = syzygy(flag_mods["S1"], 1)
    assert tuple(s.dims) == (0, 1, 0)
    s2 = syzygy(flag_mods["S1"], 2)
    assert tuple(s2.dims) == (0, 0, 1)


def test_transpose_swaps_sides(ka2, ka2_mods):
    tr = transpose(ka2_mods["S1"])
    # over the opposite algebra
    assert tr.algebra is ka2.opposite()
    assert not tr.is_zero()
    # transpose of a projective vanishes
    trp = transpose(ka2_mods["P1"])
    assert trp.is_zero()


def test_translate_pairs_on_both_examples(ka2_mods, flag_mods):
    assert are_isomorphic(tau_d(ka2_mods["S1"], 1), ka2_mods["S2"])
    assert are_isomorphic(tau_d_minus(ka2_mods["S2"], 1), ka2_mods["S1"])
    assert are_isomorphic(tau_d(flag_mods["S1"], 2), flag_mods["S3"])
    assert are_isomorphic(tau_d_minus(flag_mods["S3"], 2), flag_mods["S1"])


def test_translate_of_projective_vanishes(flag_mods):
    assert tau_d(flag_mods["P1"], 2).is_zero()
    assert tau_d(flag_mods["P2"], 2).is_zero()
    assert tau_d(flag_mods["S3"], 2).is_zero()


def test_stable_hom_dims_quotient_by_projectives(flag_mods):
    P1, S1 = flag_mods["P1"], flag_mods["S1"]
    # the cover P1 -> S1 factors through a projective by definition
    assert hom_dim(P1, S1) == 1
    assert projectively_stable_dim(P1, S1) == 0
    assert projectively_stable_dim(S1, S1) == 1
    # injectively stable: S1 is injective, so maps out of it die
    assert injectively_stable_dim(S1, S1) == 0
    assert injectively_stable_dim(flag_mods["S2"], flag_mods["S2"]) == 1


@pytest.mark.parametrize("fixture", ["ka2.json", "ka3rad2.json"])
@pytest.mark.parametrize("p", [2, 3])
def test_injectively_stable_dim_matches_the_envelope(fixture, p):
    # Hom(x, y) modulo the maps that extend along the injective envelope of x
    alg = workspace.load(str(DATA / fixture), p).algebra
    universe = enumerate_indecomposables(alg, 2)
    for x in universe:
        _, mono = repcat.injective_envelope(x)
        for y in universe:
            expected = hom_dim(x, y) - repcat.hom_coimage(mono, y).cols
            assert injectively_stable_dim(x, y) == expected


def test_tensor_dims_sum_over_vertices(flag, flag_mods):
    # tensoring with the dual of a module over the same algebra
    left = duality(flag_mods["P1"])  # left module seen as opposite-side right module
    assert tensor_dim(left, flag_mods["P1"]) >= 1


def test_tor_ext_pairing_on_the_line(flag_mods):
    # Tor_1 of the transpose against a module equals Ext^1 the other way
    x = flag_mods["S1"]
    tr2 = tr_d(x, 2)
    for name in ("S1", "S2", "S3", "P1", "P2"):
        m = flag_mods[name]
        assert tor_dim(m, tr2, 1) == ext_dim(x, m, 1), name


def test_ext_space_and_induced_map(flag_mods):
    S1, S2, S3 = flag_mods["S1"], flag_mods["S2"], flag_mods["S3"]
    e = ext_space(S1, S2, 1)
    assert e.dim == 1
    # postcomposition with zero map kills the class
    z = repcat.Morphism.zero(S2, S3)
    mat = ext_map_post(S1, z, 1)
    assert mat.is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_ext_dim_from_ranks_matches_ext_space(p):
    ws = workspace.load(str(DATA / "ka3rad2.json"), p)
    for x in ws.modules.values():
        for y in ws.modules.values():
            for i in range(4):
                assert ext_dim(x, y, i) == ext_space(x, y, i).dim
