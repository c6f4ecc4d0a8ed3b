"""Resolutions, extensions, the transpose, and the higher translate."""

import functools
import itertools
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import CapExceeded, DimensionMismatch, Matrix, Module, PrimeField, Quiver
from dctkit import approx, build_algebra, config, exactlin, homological
from dctkit import ext_dim, gldim, pd, repcat, tau_d, tau_d_minus, workspace
from dctkit.artheory import (
    d_almost_split,
    enumerate_indecomposables,
    verify_defect_formula,
    verify_tau_d_equivalence,
)
from dctkit.homological import (
    ext_map_post,
    ext_space,
    injectively_stable_dim,
    is_injective,
    is_projective,
    projectively_stable_dim,
    syzygy,
    tr_d,
)
from dctkit.repcat import Morphism, are_isomorphic, duality, hom_basis, hom_dim, simple
from scan_oracles import ambient_tensor_dim, ambient_tensor_map, ambient_tor_dim, tensor_map
from scan_oracles import flat_ext_dim, flat_ext_map_post, flat_ext_space, glued_transpose, proj_hom
from scan_oracles import differential, injective, resolution_step, resolved_syzygy_tr_d
from type_a import higher_auslander, nakayama

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def test_resolution_of_end_simple_walks_the_line(flag, flag_mods):
    x = flag_mods["S1"]
    assert tuple(resolution_step(x, 0).cover.domain.dims) == (1, 1, 0)
    assert tuple(resolution_step(x, 1).cover.domain.dims) == (0, 1, 1)
    assert tuple(resolution_step(x, 2).cover.domain.dims) == (0, 0, 1)
    assert resolution_step(x, 3).cover.domain.is_zero()
    # differentials compose to zero
    comp = differential(x, 1) @ differential(x, 2)
    assert comp.is_zero()
    assert (resolution_step(x, 0).cover @ differential(x, 1)).is_zero()


def test_pd_and_gldim(flag, ka2, flag_mods, ka2_mods):
    assert pd(flag_mods["P1"]) == 0
    assert pd(flag_mods["S2"]) == 1
    assert pd(flag_mods["S1"]) == 2
    assert gldim(flag) == 2
    assert gldim(ka2) == 1


@pytest.mark.parametrize("n", [33, 34])
def test_pd_answers_at_exactly_the_resolution_cap(n):
    # S1 on the line with n vertices and rad^2 = 0 has a resolution of length n - 1
    names = [str(k) for k in range(1, n + 1)]
    arrows = [(f"a{k}", names[k - 1], names[k]) for k in range(1, n)]
    relations = [[(1, [f"a{k}", f"a{k + 1}"])] for k in range(1, n - 1)]
    algebra = build_algebra(Quiver(names, arrows), relations, 2, PrimeField(2))
    s1 = simple(algebra, 0)
    assert config.RESOLUTION_CAP == 32
    if n - 1 <= config.RESOLUTION_CAP:
        assert pd(s1) == n - 1
    else:
        with pytest.raises(CapExceeded, match="needs a resolution longer than 32"):
            pd(s1)


def test_hom_and_ext_refuse_modules_over_different_algebras(flag_mods):
    mods = list(flag_mods.values())
    for x in mods:
        for y in mods:
            dy = duality(y)
            assert dy.algebra is not x.algebra
            for call in (
                lambda: hom_dim(x, dy),
                lambda: ext_dim(x, dy, 1),
                lambda: ext_space(x, dy, 1),
                # tensor factors on the same side: m (x) n is D Hom(n, D m)
                lambda: hom_dim(y, duality(x)),
                lambda: ext_dim(y, duality(x), 1),
            ):
                with pytest.raises(DimensionMismatch):
                    call()


def test_projectivity_and_injectivity_tests(flag_mods):
    assert is_projective(flag_mods["P1"])
    assert is_projective(flag_mods["S3"])  # vertex 3 is a sink
    assert not is_projective(flag_mods["S1"])
    assert is_injective(flag_mods["S1"])  # vertex 1 is a source
    assert not is_injective(flag_mods["S2"])


def test_projectivity_counts_paths_and_builds_no_projective(fresh_flag):
    """dim P_v and dim I_v are read off one table of path ends kept on the algebra."""
    assert not is_projective(simple(fresh_flag, 0))
    assert is_projective(simple(fresh_flag, 2))
    assert not any(isinstance(key, tuple) and key[0] == "projective" for key in fresh_flag._cache)
    assert fresh_flag._cache["path ends"] == ((2, 2, 1), (1, 2, 2))  # ab = 0


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
    tr = tr_d(ka2_mods["S1"], 1)
    # over the opposite algebra
    assert tr.algebra is ka2.opposite()
    assert not tr.is_zero()
    # transpose of a projective vanishes
    trp = tr_d(ka2_mods["P1"], 1)
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
    # dim left (x) P1 = dim Hom(P1, D left)
    assert hom_dim(flag_mods["P1"], duality(left)) >= 1


def test_tor_ext_pairing_on_the_line(flag_mods):
    # Tor_1 of the transpose against a module equals Ext^1 the other way
    x = flag_mods["S1"]
    tr2 = tr_d(x, 2)
    for name in ("S1", "S2", "S3", "P1", "P2"):
        m = flag_mods[name]
        # D Tor_1(m, tr2) = Ext^1(tr2, D m)
        assert ext_dim(tr2, duality(m), 1) == ext_dim(x, m, 1), name


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
                assert ext_dim(x, y, i) == ext_space(x, y, i).dim == flat_ext_dim(x, y, i)


# -- Ext in Yoneda coordinates against the flat route -----------------------


def commutative_square(p):
    """1 -> 2 -> 4 and 1 -> 3 -> 4 with ab = ce: a relation that is not a path."""
    arrows = [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("e", "3", "4")]
    q = Quiver(["1", "2", "3", "4"], arrows)
    return build_algebra(q, [[(1, ["a", "b"]), (-1, ["c", "e"])]], 3, PrimeField(p))


@functools.lru_cache(maxsize=None)
def ext_group(name, p):
    """Modules to compare Ext on: a bound-2 universe with its two-summand sums,
    or the named modules (Xsum included) of a KA_n/rad^2 document."""
    if name.startswith("ka") and name[2:].isdigit():
        sys.path.insert(0, str(ROOT / "perfbench"))
        try:
            import kafamily
        finally:
            sys.path.pop(0)
        inst = kafamily.ka_document(int(name[2:]), p, random.Random(p))
        ws = workspace.parse(inst.doc)
        return tuple(ws.modules[k] for k in sorted(ws.modules))
    extra = []
    if name == "square":
        algebra = commutative_square(p)
    elif name == "kronecker":
        # and the brick (id, c) for c the companion matrix of an irreducible
        # t^2 + at + b: its presentation mixes both arrows, with signs
        f = PrimeField(p)
        kronecker = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
        algebra = build_algebra(kronecker, [], 2, f)
        a, b = next((a, b) for a, b in itertools.product(range(p), repeat=2)
                    if all((t * t + a * t + b) % p for t in range(p)))
        c = Matrix(f, [[0, -b], [1, -a]], 2)
        extra = [Module(algebra, [2, 2], [Matrix.identity(f, 2), c])]
    else:
        algebra = workspace.load(str(DATA / f"{name}.json"), p).algebra
    universe = enumerate_indecomposables(algebra, 2) + extra
    pairs = itertools.combinations_with_replacement(universe, 2)
    return tuple(universe + [repcat.direct_sum(list(pair))[0] for pair in pairs])


EXT_GROUPS = [
    (name, p) for name in ("ka2", "ka3rad2", "square", "kronecker") for p in (2, 3, 5)
] + [(f"ka{n}", p) for n in range(3, 7) for p in (2, 3, 7)]


@pytest.mark.parametrize("name, p", EXT_GROUPS)
def test_ext_matches_the_flat_oracle(name, p):
    mods = ext_group(name, p)
    for x in mods:
        for y in mods:
            for i in range(5):
                dim = flat_ext_dim(x, y, i)
                assert ext_dim(x, y, i) == dim, (x, y, i)
                assert ext_space(x, y, i).dim == dim, (x, y, i)


@pytest.mark.parametrize("name, p", EXT_GROUPS)
def test_tor_matches_the_ambient_oracle(name, p):
    mods = ext_group(name, p)
    for m in mods:
        for y in mods:
            n = duality(y)
            # by adjunction D(m (x) n) = Hom(n, D m) and D Tor_i(m, n) = Ext^i(n, D m)
            assert hom_dim(n, duality(m)) == ambient_tensor_dim(m, n), (m, y)
            for i in range(5):
                assert ext_dim(n, duality(m), i) == ambient_tor_dim(m, n, i), (m, y, i)


@settings(max_examples=80, deadline=None)
@given(group=st.sampled_from(EXT_GROUPS), picks=st.tuples(*[st.integers(0, 10**6)] * 6))
def test_tensor_map_matches_the_ambient_oracle(group, picks):
    def pick(seq, k):
        return seq[picks[k] % len(seq)]

    mods = ext_group(*group)
    duals = [duality(y) for y in mods]
    m, n1 = pick(mods, 0), pick(duals, 1)
    # targets with a nonzero map in, the source itself among them
    n2 = pick([n for n in duals if hom_dim(n1, n)], 2)
    n3 = pick([n for n in duals if hom_dim(n2, n)], 3)
    f, g = pick(hom_basis(n1, n2), 4), pick(hom_basis(n2, n3), 5)
    for h in (f, g, g @ f):
        assert exactlin.rank(tensor_map(m, h)) == exactlin.rank(ambient_tensor_map(m, h))
    assert tensor_map(m, g @ f) == tensor_map(m, g) @ tensor_map(m, f)


@pytest.mark.parametrize("name, p", [
    (name, p) for name in ("ka2", "ka3rad2", "ka3", "ka4", "ka5", "ka6") for p in (2, 3)
])
def test_projectivity_by_counting_matches_the_resolution(name, p):
    """x is projective exactly when its first syzygy is zero, and injective when D x is."""
    mods = ext_group(name, p)
    for x in mods + tuple(enumerate_indecomposables(mods[0].algebra, 2)):
        assert is_projective(x) == syzygy(x, 1).is_zero(), x
        assert is_injective(x) == syzygy(duality(x), 1).is_zero(), x


def test_resolutions_and_minimal_covers_need_no_direct_sum(monkeypatch):
    """Covers, Ext, Tr, tau_d and minimal_cover build their sums without structure maps."""

    def answers(ws):
        mods = [ws.modules[k] for k in sorted(ws.modules)]
        out = []
        for x in mods:
            out.append([ext_dim(x, y, i) for y in mods for i in range(3)])
            out.append((tr_d(x, 1).dims, tau_d(x, 2).dims))
            g, _ = approx.minimal_cover(x, [b for z in mods for b in hom_basis(z, x)])
            out.append((g.domain.dims, g.comps))
        return out

    before, after = (workspace.load(str(DATA / "ka3rad2.json"), 2) for _ in range(2))
    expected = answers(before)

    def refuse(*args, **kwargs):
        raise AssertionError("direct_sum was called")

    monkeypatch.setattr(repcat, "direct_sum", refuse)
    assert answers(after) == expected


@pytest.mark.parametrize("name, p", EXT_GROUPS)
def test_transpose_matches_the_glued_oracle(name, p):
    for x in ext_group(name, p):
        tr, glued = tr_d(x, 1), glued_transpose(x)
        assert tr.algebra is glued.algebra is x.algebra.opposite()
        assert (tr.dims, tr.maps) == (glued.dims, glued.maps), x


def tr_d_group(kind, which, p):
    """Modules to compare tr_d on: the named modules of a fixture or of a KA_n/rad^2
    document, or the simples, projectives and injectives of A_s^(d) or nakayama(n, l)."""
    if kind == "fixture":
        ws = workspace.load(str(DATA / which), p)
        return [ws.modules[k] for k in sorted(ws.modules)]
    if kind == "ka":
        return ext_group(f"ka{which}", p)
    present = higher_auslander if kind == "auslander" else nakayama
    vertices, arrows, relations, bound = present(*which)
    algebra = build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(p))
    return [f(algebra, v) for f in (simple, repcat.projective, injective) for v in range(len(vertices))]


TR_D_CASES = [("fixture", name) for name in ("ka2.json", "ka3rad2.json")]
TR_D_CASES += [("ka", n) for n in range(3, 7)]
TR_D_CASES += [("auslander", (s, d)) for s in range(2, 5) for d in range(1, 4)]
TR_D_CASES += [("nakayama", (3, 2))]


@pytest.mark.parametrize("kind, which", TR_D_CASES, ids=str)
@pytest.mark.parametrize("p", [2, 3])
def test_tr_d_matches_the_resolved_syzygy(kind, which, p):
    for x in tr_d_group(kind, which, p):
        for d in range(1, 5):
            tr, oracle = tr_d(x, d), resolved_syzygy_tr_d(x, d)
            assert tr.algebra is oracle.algebra is x.algebra.opposite()
            assert (tr.dims, tr.maps) == (oracle.dims, oracle.maps), (x, d)


def spy_cover_steps(monkeypatch):
    """Every module `_cover_step` is asked to cover from now on, kept or not."""
    asked = []
    real = homological._cover_step

    def spy(m):
        asked.append(m)
        return real(m)

    monkeypatch.setattr(homological, "_cover_step", spy)
    return asked


def spy_new_facts(monkeypatch):
    """(kind, module) for every cover, d_1 table and transpose computed from now on."""
    made = []
    for name, key in (("_cover_step", "cover"), ("_differential", "differential")):
        def spy(m, real=getattr(homological, name), key=key):
            if key not in m._cache:
                made.append((key, m))
            return real(m)

        monkeypatch.setattr(homological, name, spy)
    cokernel = repcat._cokernel

    def counting(y, images):
        made.append(("cokernel", y))
        return cokernel(y, images)

    monkeypatch.setattr(repcat, "_cokernel", counting)
    return made


@pytest.mark.parametrize("d", [2, 3])
def test_tau_d_resolves_only_its_argument(fresh_flag, d, monkeypatch):
    """tau_d covers only x's own syzygies, up to Omega^d x."""
    asked = spy_cover_steps(monkeypatch)
    x = simple(fresh_flag, 0)
    tau_d(x, d)
    seen = set(asked)
    assert seen and seen <= {syzygy(x, j) for j in range(d + 1)}


@pytest.mark.parametrize("n", [3, 6])
def test_ext_of_a_syzygy_reads_what_ext_of_the_module_kept(n, monkeypatch):
    """Ext^i(Omega x, y) reads the steps and tables Ext^{i+1}(x, y) kept on x's syzygies."""
    ws = workspace.parse(_ka_document(n))
    mods = [ws.modules[k] for k in sorted(ws.modules)]
    for x in mods:
        for y in mods:
            for i in range(4):
                ext_dim(x, y, i)
    made = spy_new_facts(monkeypatch)
    for x in mods:
        for y in mods:
            for i in range(3):
                ext_dim(syzygy(x, 1), y, i)
    assert made == []


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_tr_d_of_a_syzygy_is_the_one_kept(n, d, monkeypatch):
    """Tr_{d-1} Omega x is Tr_d x, kept on Omega^{d-1} x: no cokernel is built again."""
    ws = workspace.parse(_ka_document(n))
    mods = [ws.modules[k] for k in sorted(ws.modules)]
    trs = [tr_d(x, d) for x in mods]
    made = spy_new_facts(monkeypatch)
    assert all(tr_d(syzygy(x, 1), d - 1) is tr for x, tr in zip(mods, trs))
    assert made == []


@pytest.mark.parametrize("name, p", [(name, p) for name, p in EXT_GROUPS if p in (2, 3)])
def test_dimension_shifting_along_the_syzygy(name, p):
    """Ext^i(x, y) = Ext^{i-1}(Omega x, y) for i >= 2, and Tr_d x = Tr_{d-1} Omega x."""
    mods = ext_group(name, p)
    for x in mods:
        omega = syzygy(x, 1)
        for y in mods:
            for i in range(2, 5):
                assert ext_dim(x, y, i) == ext_dim(omega, y, i - 1), (x, y, i)
        for d in range(2, 5):
            assert tr_d(x, d) is tr_d(omega, d - 1), (x, d)


@pytest.mark.parametrize("name, p", EXT_GROUPS)
def test_ext_into_a_simple_counts_the_resolution(name, p):
    # a minimal resolution has Hom(d, S_v) = 0, so Ext^i(x, S_v) is Hom(P_i, S_v)
    mods = ext_group(name, p)
    algebra = mods[0].algebra
    simples = [simple(algebra, v) for v in range(algebra.quiver.n_vertices)]
    for x in mods:
        for v, s in enumerate(simples):
            for i in (0, 1, 2, 3, 4, 50):
                count = resolution_step(x, i).vertices.count(v)
                assert ext_dim(x, s, i) == count == ext_space(x, s, i).dim, (x, v, i)


@pytest.mark.parametrize("name, p", [("ka3rad2", 3), ("square", 3), ("kronecker", 5), ("ka5", 3)])
def test_differentials_are_rebuilt_from_their_tables(name, p):
    for x in ext_group(name, p):
        algebra = x.algebra
        for i in range(1, 4):
            us, vs = resolution_step(x, i).vertices, resolution_step(x, i - 1).vertices
            dom, _, projs = repcat.direct_sum(
                [repcat.projective(algebra, u) for u in us], algebra=algebra
            )
            cod, incs, _ = repcat.direct_sum(
                [repcat.projective(algebra, v) for v in vs], algebra=algebra
            )
            d = Morphism.zero(dom, cod)
            table = homological._differential(syzygy(x, i - 1))
            for k, (u, line) in enumerate(zip(us, table)):
                for j, (v, vec) in enumerate(zip(vs, line)):
                    d = d + incs[j] @ proj_hom(algebra, u, v, vec) @ projs[k]
            assert d.comps == differential(x, i).comps, (x, i)


def random_morphism(x, y, rng):
    f = Morphism.zero(x, y)
    for b in repcat.hom_basis(x, y):
        f = f + b.scale(rng.randrange(x.field.p))
    return f


@settings(max_examples=80, deadline=None)
@given(
    group=st.sampled_from([("ka3rad2", 3), ("square", 3), ("kronecker", 3), ("ka4", 2)]),
    picks=st.tuples(*[st.integers(0, 10**6)] * 4),
    i=st.integers(0, 3),
    seed=st.integers(0, 2**32),
)
def test_ext_map_post_is_a_functor(group, picks, i, seed):
    mods = ext_group(*group)
    x = mods[picks[0] % len(mods)]
    # targets with Ext^i(x, -) nonzero where there are any, so the maps are not all zero
    targets = [m for m in mods if ext_dim(x, m, i)] or mods
    y, y1, y2 = (targets[k % len(targets)] for k in picks[1:])
    rng = random.Random(seed)
    f, g = random_morphism(y, y1, rng), random_morphism(y1, y2, rng)
    field = x.field
    assert ext_map_post(x, Morphism.identity(y), i) == Matrix.identity(field, ext_dim(x, y, i))
    assert ext_map_post(x, g @ f, i) == ext_map_post(x, g, i) @ ext_map_post(x, f, i)
    for h in (f, g, g @ f):
        assert exactlin.rank(ext_map_post(x, h, i)) == exactlin.rank(flat_ext_map_post(x, h, i))
    reps, _ = flat_ext_space(x, y, i)
    assert reps.cols == ext_space(x, y, i).dim


def test_ext_far_past_the_resolution_stops_at_its_zero_term(monkeypatch):
    ws = workspace.load(str(DATA / "ka3rad2.json"), 2)
    x, y = ws.module("S1"), ws.module("S3")
    asked = spy_cover_steps(monkeypatch)
    assert ext_dim(x, y, 10**9) == 0
    assert ext_space(x, y, 10**9).dim == 0
    far = resolution_step(x, 10**9).cover.domain
    assert far is resolution_step(x, pd(x) + 1).cover.domain
    assert syzygy(x, 10**9).is_zero() and differential(x, 10**9).is_zero()
    # nothing is covered past the first zero syzygy
    assert set(asked) == {syzygy(x, j) for j in range(pd(x) + 2)}


def test_each_reader_is_refused_at_the_step_it_asks_for_first():
    """Over k[x]/x^2 the resolution of S never stops; past the cap each reader is refused
    at the first step it asks for: Ext^i at step i, then i + 1, and Tr_d at step d - 2, then d."""
    quiver = Quiver(["1"], [("x", "1", "1")])
    s = simple(build_algebra(quiver, [[(1, ["x", "x"])]], 2, PrimeField(2)), 0)
    assert ext_dim(s, s, 32) == ext_space(s, s, 32).dim == 1
    assert tr_d(s, 33) is duality(s)
    for call, step in [
        (lambda: ext_dim(s, s, 33), 34),
        (lambda: ext_space(s, s, 33), 34),
        (lambda: ext_dim(s, s, 10**9), 10**9),
        (lambda: tr_d(s, 34), 34),
        (lambda: tr_d(s, 35), 35),
        (lambda: tr_d(s, 10**9), 10**9 - 2),
        (lambda: syzygy(s, 34), 34),
    ]:
        with pytest.raises(CapExceeded, match=f"to step {step} on dimension vector "):
            call()
    with pytest.raises(CapExceeded, match="^pd on dimension vector"):
        pd(s)


def test_ext_into_an_injective_answers_where_the_resolution_never_stops():
    """nakayama(3, 2) is self-injective and S_1 resolves forever, so the walk to step 40 is
    refused; Ext^40(S_1, P_2) is 0 by the rule all the same, since P_2 is injective.  It was
    refused too before the rule; Ext^40(S_1, S_2) and `ext_space`, which has no rule, still are."""
    vertices, arrows, relations, bound = nakayama(3, 2)
    algebra = build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(2))
    s1, s2, p2 = simple(algebra, 0), simple(algebra, 1), repcat.projective(algebra, 1)
    assert is_injective(p2) and not is_injective(s2) and not is_projective(s1)
    assert ext_dim(s1, p2, 40) == 0
    for call in (lambda: ext_dim(s1, s2, 40), lambda: ext_space(s1, p2, 40)):
        with pytest.raises(CapExceeded, match="^projective resolution to step 40 on dimension vector"):
            call()


def _ka_document(n):
    """The seeded KA_n/rad^2 workspace document of the benchmark family over F_2."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import kafamily
    finally:
        sys.path.pop(0)
    return kafamily.ka_document(n, 2, random.Random(n)).doc


@pytest.mark.parametrize("n", [3, 6])
def test_each_transpose_is_computed_once_per_module_and_d(n, monkeypatch):
    ws = workspace.parse(_ka_document(n))
    cat, x = ws.category("M"), ws.module("S1")
    assert tau_d(x, cat.d) is tau_d(x, cat.d)
    made, tr = {}, homological.tr_d

    def spy(x, d):
        out = tr(x, d)
        made.setdefault((x, d), []).append(out)
        return out

    monkeypatch.setattr(homological, "tr_d", spy)
    ws = workspace.parse(_ka_document(n))
    cat = ws.category("M")
    seq = d_almost_split(cat, ws.module("S1"))
    assert verify_defect_formula(seq, cat).ok
    # the defect formula asks again for a transpose d_almost_split made, and gets it back
    assert max(map(len, made.values())) > 1
    assert all(len({id(out) for out in outs}) == 1 for outs in made.values())


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_tau_covers_and_solves_each_module_once(n, monkeypatch):
    """Work guard of verify_tau_d_equivalence on a fresh KA_n/rad^2 over F_2."""
    covers, systems = [], []
    cover, kernel = repcat.projective_cover, repcat._hom_kernel

    def covering(x):
        covers.append(x)
        return cover(x)

    def solving(x, y, flat):
        systems.append((x, y))
        return kernel(x, y, flat)

    monkeypatch.setattr(repcat, "projective_cover", covering)
    monkeypatch.setattr(repcat, "_hom_kernel", solving)
    assert verify_tau_d_equivalence(workspace.parse(_ka_document(n)).category("M")).ok
    # 4n covers and n + 8 systems when equal modules were separate objects, and n + 2
    # systems when End(x) was solved to split a module with a simple top or socle
    assert (len(covers), len(systems)) == (2 * n, 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_verify_tau_reduces_no_empty_system_and_copies_no_single_block(n, monkeypatch):
    """Trivial-shape guard of verify_tau_d_equivalence on a fresh KA_n/rad^2 over F_2."""
    empty, copies = [], []
    reduce_rows, block_diag = exactlin._reduce_rows, exactlin.block_diag

    def reducing(p, a, search):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension has a frame of its own
            frame = frame.f_back
        caller = frame.f_code.co_name
        if not (a and search) and caller in ("solve", "quotient", "_socle_dims"):
            empty.append((len(a), search, caller, frame.f_back.f_code.co_name))
        return reduce_rows(p, a, search)

    def gluing(field, ms):
        ms = list(ms)
        out = block_diag(field, ms)
        if len(ms) == 1 and out is not ms[0]:
            copies.append(out)
        return out

    monkeypatch.setattr(exactlin, "_reduce_rows", reducing)
    monkeypatch.setattr(exactlin, "block_diag", gluing)
    assert verify_tau_d_equivalence(workspace.parse(_ka_document(n)).category("M")).ok
    # at n = 6, 50 empty reductions under _submodule_from_bases and 80 copies when
    # trivial shapes took the general path, and 8 empty reductions from quotient (under
    # cokernel, at vertices where the codomain is zero) and 9 from _socle_dims (at sinks)
    assert (empty, copies) == ([], [])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decompose_of_the_hidden_sum_reaches_end_only_past_the_certificate(n, monkeypatch):
    """Work guard of decompose(Xsum) on a fresh KA_n/rad^2 over F_2: a module with a simple
    top or socle is indecomposable, and each of the n decomposable pieces is split by a
    hom-basis element (Fitting), so no End engine of dim > 1 is built."""
    fitted, split, ends = [], [], []
    real_fitting, real_split, real_end = (
        repcat._fitting_map, repcat.nontrivial_idempotent, repcat._end_algebra)

    def fitting(x):
        fitted.append((sum(map(len, repcat._top_reps(x))), sum(repcat._socle_dims(x))))
        return real_fitting(x)

    def end(x):
        if repcat.hom_dim(x, x) > 1:
            ends.append(x)
        return real_end(x)

    monkeypatch.setattr(repcat, "_fitting_map", fitting)
    monkeypatch.setattr(repcat, "nontrivial_idempotent", lambda x, cap=None: split.append(x)
                        or real_split(x, cap))
    monkeypatch.setattr(repcat, "_end_algebra", end)
    parts = repcat.decompose(workspace.parse(_ka_document(n)).module("Xsum"))
    assert sum(mult for _, mult in parts) == n + 1
    # 2n + 1 End-route splits when every piece, the n + 1 indecomposables too, took it,
    # and n before the Fitting split; over F_5 and F_7 those built End engines
    # (tests/test_fitting_split.py), over F_2 an idempotent basis element was found
    assert len(fitted) == n
    assert all(top >= 2 and socle >= 2 for top, socle in fitted)
    assert split == [] and ends == []
