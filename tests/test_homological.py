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
    resolution,
    tr_d,
)
from dctkit.repcat import Morphism, are_isomorphic, duality, hom_basis, hom_dim, simple
from scan_oracles import ambient_tensor_dim, ambient_tensor_map, ambient_tor_dim, tensor_map
from scan_oracles import flat_ext_dim, flat_ext_map_post, flat_ext_space, glued_transpose, proj_hom
from scan_oracles import injective, resolved_syzygy_tr_d
from type_a import higher_auslander, nakayama

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


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
    s = resolution(flag_mods["S1"]).syzygy(1)
    assert tuple(s.dims) == (0, 1, 0)
    s2 = resolution(flag_mods["S1"]).syzygy(2)
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
        assert is_projective(x) == resolution(x).syzygy(1).is_zero(), x
        assert is_injective(x) == resolution(duality(x)).syzygy(1).is_zero(), x


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


@pytest.mark.parametrize("d", [2, 3])
def test_tau_d_resolves_only_its_argument(fresh_flag, d, monkeypatch):
    resolved = []
    real_init = homological.ProjResolution.__init__

    def init(self, x):
        resolved.append(x)
        real_init(self, x)

    monkeypatch.setattr(homological.ProjResolution, "__init__", init)
    x = simple(fresh_flag, 0)
    tau_d(x, d)
    assert resolved == [x]


@pytest.mark.parametrize("name, p", EXT_GROUPS)
def test_ext_into_a_simple_counts_the_resolution(name, p):
    # a minimal resolution has Hom(d, S_v) = 0, so Ext^i(x, S_v) is Hom(P_i, S_v)
    mods = ext_group(name, p)
    algebra = mods[0].algebra
    simples = [simple(algebra, v) for v in range(algebra.quiver.n_vertices)]
    for x in mods:
        for v, s in enumerate(simples):
            for i in (0, 1, 2, 3, 4, 50):
                count = resolution(x).vertices(i).count(v)
                assert ext_dim(x, s, i) == count == ext_space(x, s, i).dim, (x, v, i)


@pytest.mark.parametrize("name, p", [("ka3rad2", 3), ("square", 3), ("kronecker", 5), ("ka5", 3)])
def test_differentials_are_rebuilt_from_their_tables(name, p):
    for x in ext_group(name, p):
        res = resolution(x)
        algebra = x.algebra
        for i in range(1, 4):
            dom, _, projs = repcat.direct_sum(
                [repcat.projective(algebra, u) for u in res.vertices(i)], algebra=algebra
            )
            cod, incs, _ = repcat.direct_sum(
                [repcat.projective(algebra, v) for v in res.vertices(i - 1)], algebra=algebra
            )
            d = Morphism.zero(dom, cod)
            for k, (u, line) in enumerate(zip(res.vertices(i), res.elements(i))):
                for j, (v, vec) in enumerate(zip(res.vertices(i - 1), line)):
                    d = d + incs[j] @ proj_hom(algebra, u, v, vec) @ projs[k]
            assert d.comps == res.differential(i).comps, (x, i)


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


def test_ext_far_past_the_resolution_stops_at_its_zero_term():
    ws = workspace.load(str(DATA / "ka3rad2.json"), 2)
    x, y = ws.module("S1"), ws.module("S3")
    assert ext_dim(x, y, 10**9) == 0
    assert ext_space(x, y, 10**9).dim == 0
    res = resolution(x)
    assert res.projective(10**9) is res.projective(pd(x) + 1)
    assert res.syzygy(10**9).is_zero() and res.differential(10**9).is_zero()
    # the stored terms stop at the first zero one
    assert len(res._steps) <= pd(x) + 2


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
    top or socle is indecomposable, so only the n decomposable pieces are split through End."""
    split = []
    real = repcat.nontrivial_idempotent

    def counting(x, cap=None):
        split.append((sum(map(len, repcat._top_reps(x))), sum(repcat._socle_dims(x))))
        return real(x, cap)

    monkeypatch.setattr(repcat, "nontrivial_idempotent", counting)
    parts = repcat.decompose(workspace.parse(_ka_document(n)).module("Xsum"))
    assert sum(mult for _, mult in parts) == n + 1
    # 2n + 1 when every piece, the n + 1 indecomposables too, was split through End
    assert len(split) == n
    assert all(top >= 2 and socle >= 2 for top, socle in split)
