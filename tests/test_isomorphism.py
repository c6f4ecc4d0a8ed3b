"""One isomorphism test: summands sorted by ``iso_classes``.

``are_isomorphic`` and the tau_d report read isomorphism classes off
``repcat.iso_classes`` and build no isomorphism; it asks ``summand_map``
for an invertible map of Hom(x, y) between equal dimension vectors, and
for an invertible composite x -> y -> x otherwise, which is checked
against the known parts of rebased sums.  They are compared with
``scan_oracles.find_isomorphism``, which glues one from the summands
with the two-sided composite test, and with the pairwise tau_d report it
once drove.  The cases include indecomposables with equal dimension
vectors and Hom both ways that are not isomorphic, and sums whose
idempotent must be lifted over rad End.
"""

import collections
import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import AddCategory, Matrix, Module, Morphism, PrimeField, Quiver, build_algebra
from dctkit import repcat, workspace
from dctkit.artheory import enumerate_indecomposables, verify_tau_d_equivalence
from scan_oracles import (
    find_isomorphism,
    injective,
    pairwise_tau_d_report,
    scan_idempotent,
    scan_isomorphism,
    split_with_projections,
)
from test_end_engine import fixture_modules, rebase, rebased_sum
from type_a import ka_rad2

DATA = pathlib.Path(__file__).resolve().parent / "data"


def cyclic_algebra(p):
    """The cyclic quiver 1 -> 2 -> 1 with ab = ba = 0."""
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return build_algebra(quiver, [[(1, ["a", "b"])], [(1, ["b", "a"])]], 2, PrimeField(p))


def truncated_polynomials(n, p):
    """k[x]/(x^n) as one vertex with a loop."""
    return build_algebra(Quiver(["1"], [("a", "1", "1")]), [[(1, ["a"] * n)]], n, PrimeField(p))


@pytest.mark.parametrize("p", [2, 3])
def test_projectives_with_equal_dimensions_and_hom_both_ways_are_not_isomorphic(p):
    algebra = cyclic_algebra(p)
    p1, p2 = repcat.projective(algebra, 0), repcat.projective(algebra, 1)
    assert p1.dims == p2.dims == (1, 1)
    assert repcat.hom_dim(p1, p2) == repcat.hom_dim(p2, p1) == 1
    assert not repcat.are_isomorphic(p1, p2)
    assert find_isomorphism(p1, p2) is None
    assert repcat.iso_classes([p1, p2])[1] == [0, 1]
    assert len(repcat.decompose(repcat.direct_sum([p1, p2])[0])) == 2


def test_a_hidden_sum_over_a_truncated_polynomial_ring_needs_the_idempotent_lift(monkeypatch):
    # k + k[x]/(x^3) at p = 2: the idempotent read off End/rad is not yet one
    algebra = truncated_polynomials(3, 2)
    simple, proj = repcat.simple(algebra, 0), repcat.projective(algebra, 0)
    x = rebased_sum([simple, proj], random.Random(2))
    built = []
    morphism_from_vec = repcat.morphism_from_vec

    def record(dom, cod, vec, _skip_check=False):
        f = morphism_from_vec(dom, cod, vec, _skip_check=_skip_check)
        if dom is x and cod is x:
            built.append(f)
        return f

    monkeypatch.setattr(repcat, "morphism_from_vec", record)
    e = repcat.nontrivial_idempotent(x)
    monkeypatch.undo()
    lifted = built[-1]  # the last endomorphism built is the one the lift starts from
    assert lifted @ lifted != lifted
    assert e @ e == e and not e.is_zero() and e != Morphism.identity(x)
    assert scan_idempotent(x) is not None
    parts = repcat.split_summands(x)
    assert sorted(z.dims for z, _ in parts) == [(1,), (3,)]
    assert all(scan_idempotent(z) is None for z, _ in parts)
    split_with_projections(x)  # the glued inclusions are an isomorphism onto x


@pytest.mark.parametrize("p", [2, 3])
def test_a_nilpotent_composite_finds_no_summand(p):
    # over k[x]/(x^3), P -> k[x]/(x^2) -> P is x at best: nonzero, never invertible
    algebra = truncated_polynomials(3, p)
    proj, simple = repcat.projective(algebra, 0), repcat.simple(algebra, 0)
    short = Module(algebra, [2], [Matrix(algebra.field, [[0, 0], [1, 0]], 2)])
    rng = random.Random(p)
    y = rebased_sum([short, simple], rng)
    there, back = repcat.hom_basis(proj, y), repcat.hom_basis(y, proj)
    assert any(not (g @ f).is_zero() for g in back for f in there)
    assert repcat.summand_map(proj, y) is None
    assert repcat.summand_map(proj, rebased_sum([short, proj], rng)) is not None


# -- the tau_d report against the pairwise one ---------------------------------


def tau_cases(fixture, p):
    """The fixture's category at d and d + 1, with each generator dropped, and mod A."""
    ws = workspace.load(str(DATA / fixture), p)
    gens, d = ws.category("M").generators, ws.category("M").d
    cats = [AddCategory(gens, d), AddCategory(gens, d + 1)]
    cats += [AddCategory(gens[:k] + gens[k + 1 :], d) for k in range(len(gens))]
    return cats + [AddCategory([ws.modules[m] for m in sorted(ws.modules)], d)]


def ka_rad2_cases(p):
    """KA_n/rad^2, n = 3..5, with M = proj + inj at d = n - 2, n - 1 and n."""
    cats = []
    for n in (3, 4, 5):
        vertices, arrows, relations, bound = ka_rad2(n)
        algebra = build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(p))
        gens = [f(algebra, v) for f in (repcat.projective, injective) for v in range(n)]
        cats += [AddCategory(gens, d) for d in (n - 2, n - 1, n)]
    return cats


@pytest.mark.parametrize("p", [2, 3])
def test_the_tau_d_report_equals_the_pairwise_report(p):
    cats = tau_cases("ka2.json", p) + tau_cases("ka3rad2.json", p) + ka_rad2_cases(p)
    reports = []
    for cat in cats:
        report = verify_tau_d_equivalence(cat)
        oracle = pairwise_tau_d_report(AddCategory(cat.generators, cat.d))
        assert report._asdict() == oracle._asdict(), (cat.generators, cat.d)
        reports.append(report)
    # every failure branch is taken somewhere, and the right categories pass
    assert not all(r.bijection for r in reports)
    assert not all(r.inverses_ok for r in reports)
    assert not all(r.stable_ok for r in reports)
    assert [r.ok for r in reports[:2]] == [True, False]
    assert sum(r.ok for r in reports) == 9


@pytest.mark.parametrize("p", [2, 3])
def test_the_tau_d_report_splits_no_translate(p, monkeypatch):
    cat = workspace.load(str(DATA / "ka3rad2.json"), p).category("M")
    cat._summand_pool()
    split = []
    real = repcat.split_summands

    def counting(x):
        split.append(x)
        return real(x)

    monkeypatch.setattr(repcat, "split_summands", counting)
    assert verify_tau_d_equivalence(cat).ok
    # 3 when each translate and round trip was split to be matched against the pool
    assert split == []


# -- properties over random changes of basis ----------------------------------

FIXTURE_GROUPS = [fixture_modules(f, p) for f in ("ka2.json", "ka3rad2.json") for p in (2, 3)]


def oracle_classes(mods, reps):
    """The multiset of classes of mods among the pairwise non-isomorphic reps."""
    return collections.Counter(
        next(c for c, r in enumerate(reps) if find_isomorphism(z, r) is not None) for z in mods
    )


@settings(max_examples=25, deadline=None)
@given(
    parts=st.sampled_from(FIXTURE_GROUPS).flatmap(
        lambda group: st.lists(st.sampled_from(group), min_size=1, max_size=4)
    ),
    seed=st.integers(0, 2**32),
)
def test_decompose_keeps_the_classes_of_the_parts(parts, seed):
    x = rebased_sum(parts, random.Random(seed))
    reps = repcat.iso_classes(parts)[0]
    found = [z for z, mult in repcat.decompose(x) for _ in range(mult)]
    assert oracle_classes(found, reps) == oracle_classes(parts, reps)


@settings(max_examples=25, deadline=None)
@given(
    lists=st.sampled_from(FIXTURE_GROUPS).flatmap(
        lambda group: st.tuples(*[st.lists(st.sampled_from(group), min_size=1, max_size=3)] * 2)
    ),
    seed=st.integers(0, 2**32),
)
def test_are_isomorphic_agrees_with_the_glued_isomorphism(lists, seed):
    rng = random.Random(seed)
    x, y = (rebased_sum(parts, rng) for parts in lists)
    for a, b in ((x, y), (y, x), (x, rebased_sum(lists[0], rng))):
        assert repcat.are_isomorphic(a, b) == (find_isomorphism(a, b) is not None)


def ka_universes():
    """Per prime, the indecomposables of KA_n/rad^2, n = 2..5, and of the flagship."""
    out = []
    for p in (2, 3):
        for n in (2, 3, 4, 5):
            vertices, arrows, relations, bound = ka_rad2(n)
            algebra = build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(p))
            out.append(enumerate_indecomposables(algebra, 2))
        flagship = workspace.load(str(DATA / "ka3rad2.json"), p).algebra
        out.append(enumerate_indecomposables(flagship, 2))
    return out


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(ka_universes()).flatmap(
        lambda uni: st.tuples(
            st.sampled_from(uni), st.lists(st.sampled_from(uni), min_size=1, max_size=3)
        )
    ),
    seed=st.integers(0, 2**32),
)
def test_summand_map_finds_exactly_the_summands_of_a_rebased_sum(case, seed):
    z, parts = case
    rng = random.Random(seed)
    x, y = rebase(z, rng), rebased_sum(parts, rng)
    # the universe holds one module per class, so x's class occurs in y exactly when z is a part
    expected = any(part is z for part in parts)
    assert expected == any(scan_isomorphism(x, w) is not None for w, _ in repcat.decompose(y))
    f = repcat.summand_map(x, y)
    assert (f is not None) == expected
    if f is not None:
        assert f.domain is x and f.codomain is y
        assert repcat.cofactor_through(Morphism.identity(x), f) is not None


def equal_dimension_cases():
    """(z, parts): z an enumerated indecomposable, parts one or two members summing to z's dimensions.

    Over KA_n/rad^2 and the flagship a sum of two intervals shares the
    dimension vector of the longer interval; over the cyclic algebra the two
    projectives share theirs, with Hom both ways.
    """
    universes = ka_universes() + [enumerate_indecomposables(cyclic_algebra(p), 2) for p in (2, 3)]
    cases = []
    for uni in universes:
        shapes = [[w] for w in uni] + [list(pair) for pair in itertools.combinations_with_replacement(uni, 2)]
        cases += [(z, parts) for z in uni for parts in shapes
                  if tuple(map(sum, zip(*(w.dims for w in parts)))) == z.dims]
    return cases


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(equal_dimension_cases()), seed=st.integers(0, 2**32))
def test_of_equal_dimensions_summand_map_agrees_with_the_glued_isomorphism(case, seed):
    z, parts = case
    rng = random.Random(seed)
    x, y = rebase(z, rng), rebased_sum(parts, rng)
    f = repcat.summand_map(x, y)
    assert (f is not None) == (find_isomorphism(x, y) is not None) == (parts == [z])
    if f is not None:
        assert f.domain is x and f.codomain is y and f.is_iso()
