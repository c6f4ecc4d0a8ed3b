"""gldim End(M) against the functor tower over M that it replaced.

`artheory.gldim_end` covers rad(-, Z) by the pool members and resolves by
minimal right add M-approximations of kernels.  `scan_oracles.tower_gldim_end`
keeps the old route: each step composes every flat column of Hom(M, y) with
every summand of M.  Both must agree on the fixtures, on KA_n/rad^2 with
M = proj + inj, on the tau_d^- orbit categories of the higher Auslander
algebras A_s^(d) and on those categories with one summand dropped.
`artheory.domdim_end` reads the pool's Ext tables; `scan_oracles.glued_domdim_end`
glues M and asks Ext^i(M, M).  On the orbit categories, tau_d and tau_d^-
are checked to be mutually inverse on the pool.
"""

import functools
import math
import pathlib
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import AddCategory, PrimeField, Quiver, build_algebra
from dctkit import homological, repcat, workspace
from dctkit.approx import add_resolution
from dctkit.artheory import d_almost_split, domdim_end, gldim_end, is_d_rigid, right_almost_split
from scan_oracles import glued_domdim_end, injective, tower_gldim_end
from type_a import higher_auslander, ka_rad2, nakayama

DATA = pathlib.Path(__file__).parent / "data"


def orbit_pool(algebra, d):
    """The indecomposables tau_d^-k P, one per isomorphism class, in orbit order."""
    pool = []
    todo = [repcat.projective(algebra, v) for v in range(algebra.quiver.n_vertices)]
    while todo:
        x = todo.pop(0)
        if x.is_zero() or any(repcat.are_isomorphic(x, y) for y in pool):
            continue
        pool.append(x)
        todo += [z for z, _ in repcat.decompose(homological.tau_d_minus(x, d))]
    return pool


def build(presentation, p):
    vertices, arrows, relations, bound = presentation
    return build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(p))


@pytest.mark.parametrize("fixture", ["ka2.json", "ka3rad2.json"])
@pytest.mark.parametrize("p", [2, 3])
def test_fixtures_match_the_tower(fixture, p):
    cat = workspace.load(str(DATA / fixture), p).category("M")
    assert gldim_end(cat) == tower_gldim_end(cat) == {"ka2.json": 2, "ka3rad2.json": 3}[fixture]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [2, 3])
def test_ka_rad2_proj_inj_matches_the_tower(n, p):
    # proj + inj is d-rigid for every d < n and (n-1)-cluster-tilting, so the
    # higher Auslander certificate (d-rigid, gldim End <= d + 1) holds only at d = n - 1
    algebra = build(ka_rad2(n), p)
    gens = [f(algebra, v) for f in (repcat.projective, injective) for v in range(n)]
    for d in range(1, n + 1):
        cat = AddCategory(gens, d)
        gldim = gldim_end(cat)
        assert gldim == tower_gldim_end(cat) == n
        rigid = is_d_rigid(cat).ok
        assert rigid == (d < n)
        assert (rigid and gldim <= d + 1) == (d == n - 1)


@pytest.mark.parametrize("s, d", [(3, 2), (2, 3), (3, 3), (4, 2)])
def test_orbit_categories_match_the_tower(s, d):
    algebra = build(higher_auslander(s, d), 2)
    pool = orbit_pool(algebra, d)
    cat = AddCategory(pool, d)
    assert gldim_end(cat) == tower_gldim_end(cat) == d + 1
    # dropping a summand that is neither projective nor injective keeps M a
    # generator-cogenerator but leaves it short of cluster tilting
    middle = [
        i for i, x in enumerate(pool)
        if not homological.is_projective(x) and not homological.is_injective(x)
    ]
    assert bool(middle) == (s > 2)
    for i in middle:
        dropped = AddCategory(pool[:i] + pool[i + 1:], d)
        assert dropped.is_generating_cogenerating()
        assert gldim_end(dropped) == tower_gldim_end(dropped) == 2 * d + 1


@functools.lru_cache(maxsize=None)
def orbit_category_pool(kind, which, p):
    """The tau_d^- orbit pool of A_s^(d), or of KA_n/rad^2 at d = n - 1, and its d."""
    if kind == "auslander":
        s, d = which
        return orbit_pool(build(higher_auslander(s, d), p), d), d
    return orbit_pool(build(ka_rad2(which), p), which - 1), which - 1


ORBIT_CASES = [("auslander", (s, d)) for s in (2, 3, 4) for d in (2, 3)]
ORBIT_CASES += [("ka_rad2", n) for n in (3, 4, 5, 6)]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(ORBIT_CASES), p=st.sampled_from([2, 3]), pick=st.integers(0, 10**6))
def test_tau_d_and_its_inverse_round_trip_on_orbit_categories(case, p, pick):
    """For d >= 2 on a d-cluster-tilting orbit category: tau_d tau_d^- z = z for a
    non-injective member z, and tau_d^- tau_d z = z for a non-projective one."""
    pool, d = orbit_category_pool(*case, p)
    z = pool[pick % len(pool)]
    if not homological.is_injective(z):
        assert repcat.are_isomorphic(homological.tau_d(homological.tau_d_minus(z, d), d), z)
    if not homological.is_projective(z):
        assert repcat.are_isomorphic(homological.tau_d_minus(homological.tau_d(z, d), d), z)


DOMDIM_CASES = [("fixture", name, p) for name in ("ka2.json", "ka3rad2.json") for p in (2, 3)]
DOMDIM_CASES += [("ka_rad2", n, 2) for n in (3, 4, 5, 6)]
DOMDIM_CASES += [("orbit", sd, 2) for sd in ((3, 2), (2, 3), (3, 3), (4, 2))]


@pytest.mark.parametrize("kind, which, p", DOMDIM_CASES, ids=str)
def test_domdim_end_matches_the_glued_generator(kind, which, p):
    if kind == "fixture":
        cat = workspace.load(str(DATA / which), p).category("M")
    elif kind == "ka_rad2":
        cat = _ka_rad2_category(which, p)
    else:
        s, d = which
        cat = AddCategory(orbit_pool(build(higher_auslander(s, d), p), d), d)
    glued = glued_domdim_end(cat)
    assert domdim_end(cat) == (math.inf if glued is None else glued)
    assert domdim_end(cat) >= cat.d + 1


@pytest.mark.parametrize("n, l", [(2, 2), (3, 2), (4, 3)])
@pytest.mark.parametrize("d", [1, 2])
def test_domdim_end_of_a_self_injective_algebra_is_infinite(n, l, d):
    # M = A: every pool member is projective, so no Ext is asked past degree 1,
    # although the simples of A have infinite projective dimension
    algebra = build(nakayama(n, l), 2)
    cat = AddCategory([repcat.projective(algebra, v) for v in range(n)], d)
    assert domdim_end(cat) == math.inf


def test_almost_split_data_never_reads_the_additive_generator(flag_mods, monkeypatch):
    m = flag_mods
    cat = AddCategory([m["P1"], m["P2"], m["S3"], m["S1"]], 2)
    real = repcat.sum_module

    def refuse(mods, algebra=None):
        if [id(x) for x in mods] == [id(g) for g in cat.generators]:
            raise AssertionError("the generators were glued into M")
        return real(mods, algebra)

    monkeypatch.setattr(repcat, "sum_module", refuse)
    assert gldim_end(cat) == 3
    assert list(right_almost_split(cat, m["S1"]).domain.dims) == [1, 1, 0]
    assert [list(t.dims) for t in d_almost_split(cat, m["S1"]).terms] == [
        [0, 0, 1], [0, 1, 1], [1, 1, 0], [1, 0, 0]
    ]


def test_d_almost_split_splits_its_end_term_once(monkeypatch):
    # the pool split each end term; its checks, repeated by right_almost_split, read that split
    cat = _ka_rad2_category(6, 2)
    ends = [z for z in cat._summand_pool() if not homological.is_projective(z)]
    calls = []
    real = repcat.nontrivial_idempotent

    def counting(x, cap=None):
        calls.append(x)
        return real(x, cap)

    monkeypatch.setattr(repcat, "nontrivial_idempotent", counting)
    for n in ends:
        d_almost_split(cat, n)
    # 2 per end term when the split was not kept on the module
    assert [sum(x is n for x in calls) for n in ends] == [0] * len(ends)


def _ka_rad2_category(n, p):
    """KA_n/rad^2 with M = proj + inj, which is (n-1)-cluster-tilting."""
    algebra = build(ka_rad2(n), p)
    gens = [f(algebra, v) for f in (repcat.projective, injective) for v in range(n)]
    return AddCategory(gens, n - 1)


def _flagship_and_ka_rad2():
    yield workspace.load(str(DATA / "ka3rad2.json"), 2).category("M")
    for n in (3, 4, 5):
        yield _ka_rad2_category(n, 2)


def test_right_almost_split_computes_each_radical_basis_once(monkeypatch):
    # every End is k on these categories, so rad(n, n) = 0 and the minimal
    # cover never asks for a radical basis into n itself
    calls = []
    original = repcat.rad_hom_basis

    def counting(x, y):
        calls.append((x, y))
        return original(x, y)

    monkeypatch.setattr(repcat, "rad_hom_basis", counting)
    for cat in _flagship_and_ka_rad2():
        pool = cat._summand_pool()
        for n in pool:
            calls.clear()
            right_almost_split(cat, n)
            into_n = [x for x, y in calls if y is n]
            assert sorted(map(id, into_n)) == sorted(map(id, pool)), n


def test_the_d_almost_split_sequence_ends_in_the_add_resolution():
    for cat in _flagship_and_ka_rad2():
        for n in cat._summand_pool():
            if homological.is_projective(n):
                continue
            seq = d_almost_split(cat, n)
            tail = list(seq.maps[::-1][: cat.d])
            resolution = islice(add_resolution(cat, right_almost_split(cat, n)), cat.d)
            assert [f.comps for f in tail] == [r.comps for r in resolution], n
