"""The cluster-tilting certificate against the routes it replaced.

The certificate matches each universe member against the pool once and
reads a member's Ext flags off its pool member; generating and
cogenerating are read off the tops and socles of the pool; the
enumeration drops candidates with a split support and duplicates before
computing their End.  Each is compared with the reference in
``scan_oracles``, which resolves every member, tests every P_v and I_v for
membership by isomorphism, and sorts the whole scan at the end.
Rigidity and the member flags read one table of Ext between pool
members; ``pairwise_rigidity`` asks every pair of generators instead,
also when a generator decomposes or two generators share a summand.
Work guards count the resolutions, hom bases and intertwining systems
that the certificate and ``gldim_end`` compute.
"""

import functools
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import AddCategory, Matrix, PrimeField, Quiver, build_algebra
from dctkit import homological, repcat, workspace
from dctkit.artheory import enumerate_indecomposables, gldim_end, is_d_cluster_tilting, is_d_rigid
from scan_oracles import (
    hom_generating_cogenerating,
    injective,
    pairwise_rigidity,
    resolving_ct_certificate,
    scan_enumerate,
    summed_relations_hold,
)
from type_a import higher_auslander, ka_rad2, nakayama

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def ka_workspace(n, p):
    """A seeded KA_n/rad^2 document of the benchmark family, parsed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import kafamily
    finally:
        sys.path.pop(0)
    return workspace.parse(kafamily.ka_document(n, p, random.Random(10 * n + p)).doc)


def proj_inj(algebra):
    """One module per class of indecomposable projectives and injectives."""
    n = algebra.quiver.n_vertices
    mods = [repcat.projective(algebra, v) for v in range(n)] + [injective(algebra, v) for v in range(n)]
    return repcat.iso_classes(mods)[0]


def three_categories(ws):
    """proj + inj (d-CT), the same without its first generator, and a non-rigid one.

    The non-rigid one adds the simple S2 at a vertex with arrows in and out;
    KA_2 has none, so there proj + inj = mod A is taken with d = 2 instead.
    """
    algebra, d = ws.algebra, ws.category("M").d
    gens = proj_inj(algebra)
    if algebra.quiver.n_vertices > 2:
        wrong = AddCategory(gens + [ws.module("S2")], d)
    else:
        wrong = AddCategory(gens, 2)
    return [AddCategory(gens, d), AddCategory(gens[1:], d), wrong]


CASES = [("fixture", name, p) for name in ("ka2.json", "ka3rad2.json") for p in (2, 3)]
CASES += [("family", n, p) for n in (3, 4, 5, 6) for p in (2, 3)]


def load(kind, which, p):
    return workspace.load(str(DATA / which), p) if kind == "fixture" else ka_workspace(which, p)


@pytest.mark.parametrize("kind, which, p", CASES)
def test_universe_and_reports_match_the_resolving_certificate(kind, which, p):
    ws = load(kind, which, p)
    bounds = (2, 3) if kind == "fixture" else (2,)
    for bound in bounds:
        universe = enumerate_indecomposables(ws.algebra, bound)
        scanned = scan_enumerate(ws.algebra, bound)
        assert [(m.dims, m.maps) for m in universe] == [(m.dims, m.maps) for m in scanned]
    universe = enumerate_indecomposables(ws.algebra, 2)
    # the reference runs on a fresh copy, so no cache is shared
    fresh = load(kind, which, p)
    reference = scan_enumerate(fresh.algebra, 2)
    verdicts = []
    for cat, twin in zip(three_categories(ws), three_categories(fresh)):
        got = is_d_cluster_tilting(cat, universe)
        assert got == resolving_ct_certificate(twin, reference)
        verdicts.append((got.ok, got.rigidity.ok))
    assert verdicts == [(True, True), (False, True), (False, False)]


def shared_and_decomposable(ws, d):
    """Categories on the fixture's generators: one glues two of them, one shares a summand.

    On the flagship the simple S2 joins, so that some Ext entries are nonzero.
    """
    gens = list(ws.category("M").generators)
    if "S3" in ws.modules:
        gens.append(ws.module("S2"))
    glue = repcat.sum_module
    return [
        AddCategory([glue(gens[:2])] + gens[2:], d),
        AddCategory([glue(gens[:2]), glue(gens[1:3])] + gens[3:], d),
    ]


@pytest.mark.parametrize("name", ["ka2.json", "ka3rad2.json"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("d", [2, 3])
def test_reports_on_glued_generators_match_the_pairwise_reports(name, p, d):
    ws = workspace.load(str(DATA / name), p)
    fresh = workspace.load(str(DATA / name), p)
    universe = enumerate_indecomposables(ws.algebra, 2)
    reference = scan_enumerate(fresh.algebra, 2)
    nonzero = 0
    for cat, twin in zip(shared_and_decomposable(ws, d), shared_and_decomposable(fresh, d)):
        rigidity = is_d_rigid(cat)
        assert rigidity == pairwise_rigidity(twin)
        assert is_d_cluster_tilting(cat, universe) == resolving_ct_certificate(twin, reference)
        nonzero += sum(row["dim"] != 0 for row in rigidity.table)
    assert nonzero


def test_a_certificate_asks_each_ext_once(monkeypatch):
    """ext_dim budget of one ct_check task on KA_6/rad^2 over F_2."""
    ws = ka_workspace(6, 2)
    asked = []
    real = homological.ext_dim

    def counting(x, y, i):
        asked.append((id(x), id(y), i))
        return real(x, y, i)

    monkeypatch.setattr(homological, "ext_dim", counting)
    universe = enumerate_indecomposables(ws.algebra, 2)
    assert is_d_cluster_tilting(ws.category("M"), universe).ok
    assert len(set(asked)) == len(asked)
    # 720 when each member's flags asked the generators again
    assert len(asked) <= 360


def fixture_universe(name, p):
    ws = workspace.load(str(DATA / name), p)
    return enumerate_indecomposables(ws.algebra, 2)


UNIVERSES = [fixture_universe(f, p) for f in ("ka2.json", "ka3rad2.json") for p in (2, 3)]
sums = st.sampled_from(UNIVERSES).flatmap(
    lambda uni: st.lists(st.sampled_from(uni), min_size=1, max_size=4)
)


@settings(max_examples=60, deadline=None)
@given(parts=sums)
def test_injectivity_by_socles_matches_projectivity_of_the_dual(parts):
    x = repcat.sum_module(parts)
    assert homological.is_injective(x) == homological.is_projective(repcat.duality(x))


@settings(max_examples=40, deadline=None)
@given(parts=sums, d=st.integers(1, 3))
def test_tops_and_socles_decide_generation_as_membership_does(parts, d):
    cat = AddCategory(parts, d)
    assert cat._generating_cogenerating() == hom_generating_cogenerating(cat)


def random_module(algebra, rng):
    """Random arrow matrices on a random dimension vector with entries 0..2, unchecked."""
    field = algebra.field
    dims = [rng.randrange(3) for _ in range(algebra.quiver.n_vertices)]
    maps = [
        Matrix(field, [[rng.randrange(field.p) for _ in range(dims[a.source])]
                       for _ in range(dims[a.target])], dims[a.source])
        for a in algebra.quiver.arrows
    ]
    return repcat.Module(algebra, dims, maps, _skip_check=True)


@pytest.mark.parametrize("p", [2, 3])
def test_relations_hold_matches_the_summed_relations(p):
    """One-term (KA_4/rad^2) and two-term (A_3^(2), commutativity) relations."""
    rng = random.Random(p)
    for vertices, arrows, relations, bound in (ka_rad2(4), higher_auslander(3, 2)):
        algebra = build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(p))
        held = set()
        for _ in range(300):
            m = random_module(algebra, rng)
            assert repcat.relations_hold(m) == summed_relations_hold(m)
            held.add(repcat.relations_hold(m))
        assert held == {True, False}


# cyclic Nakayama algebras (words of length 3), commutativity relations, monomial rad^2
RELATION_PRESENTATIONS = [nakayama(3, 3), nakayama(4, 3), higher_auslander(3, 2), ka_rad2(4)]


@functools.lru_cache(maxsize=None)
def relation_algebra(which, p):
    vertices, arrows, relations, bound = RELATION_PRESENTATIONS[which]
    return build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(p))


@st.composite
def unchecked_modules(draw):
    """Arrow matrices drawn freely on a dimension vector with entries 0..2, so some
    relation paths pass a vertex where the module is zero."""
    algebra = relation_algebra(draw(st.integers(0, len(RELATION_PRESENTATIONS) - 1)),
                               draw(st.sampled_from([2, 3, 5])))
    p, n = algebra.field.p, algebra.quiver.n_vertices
    dims = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    maps = [
        Matrix(algebra.field, draw(st.lists(
            st.lists(st.integers(0, p - 1), min_size=dims[a.source], max_size=dims[a.source]),
            min_size=dims[a.target], max_size=dims[a.target])), dims[a.source])
        for a in algebra.quiver.arrows
    ]
    return repcat.Module(algebra, dims, maps, _skip_check=True)


@settings(max_examples=400, deadline=None)
@given(m=unchecked_modules())
def test_relation_products_match_the_summed_path_actions(m):
    assert repcat.relations_hold(m) == summed_relations_hold(m)


def test_the_certificate_resolves_no_member_and_generates_without_hom(monkeypatch):
    """Work budget of one certificate on KA_6/rad^2 over F_2."""
    ws = ka_workspace(6, 2)
    cat = ws.category("M")
    universe = enumerate_indecomposables(ws.algebra, 2)
    covered, misses, generation_misses = [], [], []
    real_cover, real_hom = homological._cover_step, repcat._hom_data
    real_generation = AddCategory._generating_cogenerating

    def cover(m):
        if "cover" not in m._cache:
            covered.append(m)
        return real_cover(m)

    def hom(x, y):
        cached = x._cache.get(("hom", y))
        if cached is None:
            misses.append((x, y))
        return real_hom(x, y)

    def generation(self):
        before = len(misses)
        out = real_generation(self)
        generation_misses.append(len(misses) - before)
        return out

    monkeypatch.setattr(homological, "_cover_step", cover)
    monkeypatch.setattr(repcat, "_hom_data", hom)
    monkeypatch.setattr(AddCategory, "_generating_cogenerating", generation)
    report = is_d_cluster_tilting(cat, universe)
    assert report.ok and generation_misses == [0]
    members = [x for x, row in zip(universe, report.rows) if row["in_category"]]
    assert len(members) == len(cat._summand_pool()) == 7
    # a universe member is its pool member itself: no module is covered twice
    assert len({(x.dims, x.maps) for x in covered}) == len(covered)
    # the generators, the 4 universe members outside the category and the
    # zero module; every other syzygy is one of them
    assert len(covered) == len(cat.generators) + len(universe) - len(members) + 1 == 12
    # 21 when the guard was written; resolving every member took more
    assert len(misses) <= 21


def test_gldim_end_and_the_certificate_solve_only_nonzero_hom_systems(monkeypatch):
    """Work budget of the intertwining systems solved on KA_6/rad^2 over F_2.

    Tops and socles decide the zero Homs; every system left has a nonzero kernel.
    """
    solved = []
    real = repcat._hom_kernel

    def counting(x, y, n):
        solved.append((x, y))
        return real(x, y, n)

    monkeypatch.setattr(repcat, "_hom_kernel", counting)
    assert gldim_end(ka_workspace(6, 2).category("M")) == 6
    # 28 when the guard was written; solving every Hom asked took 196
    assert len(solved) <= 28
    assert all(repcat.hom_dim(x, y) for x, y in solved)
    ws = ka_workspace(6, 2)
    universe = enumerate_indecomposables(ws.algebra, 2)
    solved.clear()
    assert is_d_cluster_tilting(ws.category("M"), universe).ok
    # 21 when the guard was written, as many as its hom cache misses
    assert len(solved) <= 21
    assert all(repcat.hom_dim(x, y) for x, y in solved)


def test_no_ext_is_computed_past_the_longest_resolution(monkeypatch):
    """`ct-check --bound 2` on the flagship asks as many Ext at d = 10000 as at d = 6.

    The flagship has global dimension 2, so every Ext in degree 3 or more
    vanishes; the rigidity rows of those degrees still read zero.
    """
    ws = workspace.load(str(DATA / "ka3rad2.json"), 2)
    gens = ws.category("M").generators
    universe = enumerate_indecomposables(ws.algebra, 2)
    asked = []
    real = homological.ext_dim

    def counting(x, y, i):
        asked.append(i)
        return real(x, y, i)

    monkeypatch.setattr(homological, "ext_dim", counting)
    counts = []
    for d in (6, 10000):
        before = len(asked)
        report = is_d_cluster_tilting(AddCategory(gens, d), universe)
        counts.append(len(asked) - before)
        rows = report.rigidity.table
        assert len(rows) == (d - 1) * len(gens) ** 2 and rows[-1]["degree"] == d - 1
        assert all(row["dim"] == 0 for row in rows if row["degree"] > 2)
    # 209,981 at d = 10000 when every degree below d was computed
    assert counts[0] == counts[1] and max(asked) <= 2
