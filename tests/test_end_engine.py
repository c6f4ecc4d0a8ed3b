"""The End engine: radical, splitting and isomorphism by linear algebra.

Each answer is compared with the exhaustive scans in ``scan_oracles`` on
the fixtures, on modules whose End has a radical or is not split, and on
random changes of basis of direct sums, where the summands are hidden.
"""

import itertools
import json
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import Matrix, Module, PrimeField, Quiver, build_algebra, exactlin, homological, repcat
from dctkit import workspace
from dctkit.repcat import Morphism
from scan_oracles import (
    combinations,
    find_isomorphism,
    glued_projective_cover,
    injective,
    pairwise_rad,
    scan_idempotent,
    scan_isomorphism,
    scan_rad_between,
    split_rule_is_radical,
    top,
    top_quotient_reps,
    top_quotients,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


def rebase(x: Module, rng: random.Random) -> Module:
    """x under a random change of basis at every vertex."""
    changes = []
    for d in x.dims:
        while True:
            g = Matrix(x.field, [[rng.randrange(x.field.p) for _ in range(d)] for _ in range(d)], d)
            inv = exactlin.solve(g, Matrix.identity(x.field, d))
            if inv is not None:
                changes.append((g, inv))
                break
    maps = [
        changes[a.target][0] @ m @ changes[a.source][1]
        for a, m in zip(x.algebra.quiver.arrows, x.maps)
    ]
    return Module(x.algebra, x.dims, maps)


def rebased_sum(parts, rng):
    return rebase(repcat.direct_sum(list(parts))[0], rng)


def radical_flat(x: Module) -> Matrix:
    return exactlin.canonical_basis(repcat.hom_space_matrix(x, x) @ repcat._end_algebra(x)[1])


def nilpotent_ideal_oracle(x: Module) -> Matrix:
    """rad End(x) as the set of a with a o b nilpotent for every b, by scanning."""
    elements = list(combinations(repcat.hom_basis(x, x)))

    def nilpotent(f):
        power = f
        for _ in range(x.total_dim):
            power = power @ f
        return power.is_zero()

    cols = [repcat.hom_vec(a) for a in elements if all(nilpotent(a @ b) for b in elements)]
    return exactlin.canonical_basis(Matrix.from_columns(x.field, cols, repcat.hom_flat_dim(x, x)))


def loop_algebra(p):
    """k[x]/x^2 as one vertex with a loop."""
    return build_algebra(Quiver(["1"], [("a", "1", "1")]), [[(1, ["a", "a"])]], 2, PrimeField(p))


def kronecker_field_module(p):
    """A Kronecker module (id, c) with c of irreducible characteristic polynomial: End = F_(p^2)."""
    f = PrimeField(p)
    kronecker = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], 2, f)
    c = Matrix(f, [[0, 1], [1, 1]] if p == 2 else [[0, 1], [p - 1, 0]], 2)
    return Module(kronecker, [2, 2], [Matrix.identity(f, 2), c])


def field_bricks(p):
    """Two non-isomorphic Kronecker modules (id, c) with End a field of degree 3 (p = 2) or 2."""
    f = PrimeField(p)
    kronecker = build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), [], 2, f)
    # companion matrices of x^3+x+1, x^3+x^2+1 over F_2 and of x^2+1, x^2+x+2 over F_3
    cs = ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], [[0, 0, 1], [1, 0, 0], [0, 1, 1]]) if p == 2 else (
        [[0, 2], [1, 0]], [[0, 1], [1, 2]])
    return [Module(kronecker, [len(c)] * 2, [Matrix.identity(f, len(c)), Matrix(f, c, len(c))])
            for c in cs]


def special_modules(p):
    """Modules whose End has a radical, is not split, or is a full matrix algebra."""
    loop = loop_algebra(p)
    proj, simple = repcat.projective(loop, 0), repcat.simple(loop, 0)
    z = kronecker_field_module(p)
    sums = [[proj], [proj, proj], [simple, simple], [proj, simple], [z, z]]
    return [proj, simple, z] + [repcat.direct_sum(s)[0] for s in sums]


def fixture_modules(fixture, p):
    ws = workspace.load(str(DATA / fixture), p)
    return [ws.modules[name] for name in sorted(ws.modules)]


@pytest.mark.parametrize("p", [2, 3])
def test_radical_is_the_largest_nilpotent_ideal(p):
    rng = random.Random(p)
    cases = special_modules(p)
    cases += [rebase(x, rng) for x in special_modules(p)]
    mods = fixture_modules("ka3rad2.json", p)
    cases += [rebased_sum(pair, rng) for pair in itertools.combinations_with_replacement(mods, 2)]
    for x in cases:
        if p ** (2 * repcat.hom_dim(x, x)) <= 1 << 16:
            assert exactlin.subspace_eq(radical_flat(x), nilpotent_ideal_oracle(x)), x


def test_named_endomorphism_rings():
    for p in (2, 3):
        proj, simple, z, _, pp, ss, ps, zz = special_modules(p)
        # k[x]/x^2: End(P) = k[x]/x^2, local with radical spanned by x
        assert repcat.is_indecomposable(proj) and radical_flat(proj).cols == 1
        x_map = repcat.hom_vec(Morphism(proj, proj, [proj.maps[0]]))
        assert exactlin.contains(radical_flat(proj), Matrix.column(proj.field, x_map))
        # End = F_(p^2): no radical, still indecomposable
        assert repcat.hom_dim(z, z) == 2 and radical_flat(z).cols == 0
        assert repcat.is_indecomposable(z)
        # End(S + S) = M_2(k), End(Z + Z) = M_2(F_(p^2)), End(P + P) = M_2(k[x]/x^2):
        # one class, twice
        for x, part in ((ss, simple), (zz, z), (pp, proj)):
            assert not repcat.is_indecomposable(x)
            [(rep, mult)] = repcat.decompose(x)
            assert mult == 2 and repcat.are_isomorphic(rep, part)
        assert sorted(m.dims for m, _ in repcat.decompose(ps)) == [(1,), (2,)]


@pytest.mark.parametrize("fixture", ["ka2.json", "ka3rad2.json"])
@pytest.mark.parametrize("p", [2, 3])
def test_splitting_and_isomorphism_match_the_scan_oracles(fixture, p):
    rng = random.Random(7 * p)
    mods = fixture_modules(fixture, p)
    cases = mods + special_modules(p)
    for r in (2, 3):
        cases += [rebased_sum(c, rng) for c in itertools.combinations_with_replacement(mods, r)]
    for x in cases:
        if p ** repcat.hom_dim(x, x) > 1 << 14:
            continue
        e = repcat.nontrivial_idempotent(x)
        assert (e is None) == (scan_idempotent(x) is None), x
        if e is not None:
            assert e @ e == e and not e.is_zero() and e != Morphism.identity(x)
        parts = repcat.split_summands(x)
        assert all(scan_idempotent(z) is None for z, _, _ in parts)
        total = Morphism.zero(x, x)
        for _, inc, proj in parts:
            total = total + inc @ proj
        assert total == Morphism.identity(x)
        for (i, (zi, _, proj)), (j, (zj, inc, _)) in itertools.product(enumerate(parts), repeat=2):
            expected = Morphism.identity(zi) if i == j else Morphism.zero(zj, zi)
            assert (proj @ inc).comps == expected.comps
    by_dims = {}
    for x in cases:
        by_dims.setdefault((id(x.algebra), x.dims), []).append(x)
    for group in by_dims.values():
        for x, y in itertools.product(group[:5], repeat=2):
            if p ** repcat.hom_dim(x, y) > 1 << 14:
                continue
            iso = find_isomorphism(x, y)
            assert (iso is None) == (scan_isomorphism(x, y) is None), (x, y)
            assert iso is None or iso.is_iso()
            if repcat.is_indecomposable(x) and repcat.is_indecomposable(y):
                assert exactlin.subspace_eq(
                    repcat.rad_hom_basis(x, y), scan_rad_between(x, y)
                )


@pytest.mark.parametrize("fixture", ["ka2.json", "ka3rad2.json"])
@pytest.mark.parametrize("p", [2, 3])
def test_top_projects_as_the_quotient_by_the_radical_spans(fixture, p):
    rng = random.Random(5 * p)
    mods = fixture_modules(fixture, p)
    for pair in itertools.combinations_with_replacement(mods, 2):
        x = rebased_sum(pair, rng)
        t, proj = top(x)
        quotients = top_quotients(x)
        assert list(proj.comps) == [q.proj for q in quotients]
        assert list(t.dims) == [q.dim for q in quotients]
        assert all(m.is_zero() for m in t.maps)


@pytest.mark.parametrize("p", [2, 3])
def test_the_centre_splits_a_sum_of_two_field_bricks(p):
    # End = F_q x F_q': no hom-basis element of a rebased sum need be an idempotent
    z1, z2 = field_bricks(p)
    assert find_isomorphism(z1, z2) is None
    rng = random.Random(p)
    for _ in range(6):
        x = rebased_sum([z1, z2], rng)
        e = repcat.nontrivial_idempotent(x)
        assert e is not None and e @ e == e and not e.is_zero()
        assert sorted(mult for _, mult in repcat.decompose(x)) == [1, 1]


@pytest.mark.parametrize("p", [2, 3])
def test_a_rebased_sum_of_k_copies_splits_into_k_parts(p):
    # End of k copies of a field brick is M_k(F_q), q = 8 or 9, so E/J = M_k(F_q) with
    # k >= 3; of a simple it is M_k(F_p), and of a projective M_k(End P), with a radical
    rng = random.Random(13 * p)
    flag = workspace.load(str(DATA / "ka3rad2.json"), p).modules
    for part in field_bricks(p) + [flag["S1"], flag["P1"]]:
        for k in (3, 4):
            x = rebased_sum([part] * k, rng)
            [(rep, mult)] = repcat.decompose(x)
            assert mult == k and repcat.are_isomorphic(rep, part), (part, k)
            parts = repcat.split_summands(x)
            assert len(parts) == k and all(repcat.are_isomorphic(z, part) for z, _, _ in parts)


def test_a_commutative_subalgebra_with_nilpotents_yields_one():
    # B = M_2(F_2) on the basis E11, E12, E21, E22; the subalgebra k[E12] is not reduced
    f = PrimeField(2)
    units = [(i, j) for i in range(2) for j in range(2)]
    quot = [
        Matrix.from_columns(f, [[int(units[k] == (a[0], b[1]) and a[1] == b[0]) for k in range(4)]
                                for b in units], 4)
        for a in units
    ]
    one = Matrix.column(f, [1, 0, 0, 1])
    sub = Matrix.from_columns(f, [[1, 0, 0, 1], [0, 1, 0, 0]], 4)
    z = repcat._commutative_zero_divisor(quot, sub, one)
    assert z is not None and not z.is_zero()
    assert (repcat._combine(quot, z.columns()[0]) @ z).is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_a_simple_algebra_yields_a_zero_divisor_from_z_of_a_basis_element(p, monkeypatch):
    # B = M_2(F_p) on the units I, I + E12, I + E21, [[1, 1], [1, 0]]: its centre is F_p, a
    # field, so the zero divisor must come from the search over Z[a]
    f = PrimeField(p)
    units = [(1, 0, 0, 1), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 0)]
    basis = Matrix.from_columns(f, units, 4)

    def times(a, b):
        return [sum(a[2 * r + k] * b[2 * k + c] for k in range(2)) for r in range(2) for c in range(2)]

    quot = [exactlin.solve(basis, Matrix.from_columns(f, [times(a, b) for b in units], 4))
            for a in units]
    calls = []
    real = repcat._commutative_zero_divisor
    monkeypatch.setattr(repcat, "_commutative_zero_divisor",
                        lambda *args: calls.append(args) or real(*args))
    z = repcat._zero_divisor(quot, Matrix.column(f, [1, 0, 0, 0]))
    assert len(calls) >= 2
    assert z is not None and not z.is_zero()
    assert exactlin.rank(repcat._combine(quot, z.columns()[0])) < 4


# -- the radical rad(x, y) ----------------------------------------------------


def check_radical(x: Module, y: Module, scan_limit: int = 1 << 12):
    """rad_hom_basis(x, y) against the pairwise oracle (and the scan, when small),
    and is_radical_morphism against the split rule on every hom-basis map."""
    rad = repcat.rad_hom_basis(x, y)
    assert rad == pairwise_rad(x, y), (x, y)
    small = x.field.p ** repcat.hom_dim(x, y) <= scan_limit
    if small and repcat.is_indecomposable(x) and repcat.is_indecomposable(y):
        assert exactlin.subspace_eq(rad, scan_rad_between(x, y)), (x, y)
    for f in repcat.hom_basis(x, y):
        assert repcat.is_radical_morphism(f) == split_rule_is_radical(f), (x, y)


def radical_cases(p):
    """Groups of modules over one algebra each: the fixtures with rebased sums
    of two, and the modules with nontrivial End with rebased copies and sums."""
    rng = random.Random(11 * p)
    groups = []
    for fixture in ("ka2.json", "ka3rad2.json"):
        mods = fixture_modules(fixture, p)
        pairs = itertools.combinations_with_replacement(mods, 2)
        groups.append(mods + [rebased_sum(pair, rng) for pair in pairs])
    proj, simple, z, *loop_sums, zz = special_modules(p)
    loop_mods = [proj, simple, *loop_sums]
    groups.append(loop_mods + [rebase(x, rng) for x in loop_mods])
    groups.append([z, zz, rebase(z, rng), rebased_sum([z, z], rng)])
    bricks = field_bricks(p)
    groups.append(bricks + [rebased_sum(bricks, rng), rebased_sum(bricks[:1] * 2, rng)])
    return groups


@pytest.mark.parametrize("p", [2, 3])
def test_rad_hom_basis_matches_the_oracles(p):
    for group in radical_cases(p):
        for x, y in itertools.product(group, repeat=2):
            check_radical(x, y)


# -- properties over random changes of basis --------------------------------

# per prime, groups of indecomposables over one algebra each
GROUPS = [
    group
    for p in (2, 3)
    for group in (
        fixture_modules("ka3rad2.json", p), special_modules(p)[:2], special_modules(p)[2:3]
    )
]
part_lists = st.sampled_from(GROUPS).flatmap(
    lambda group: st.lists(st.sampled_from(group), min_size=1, max_size=4)
)


@settings(max_examples=40, deadline=None)
@given(parts=part_lists, seed=st.integers(0, 2**32))
def test_decompose_returns_the_parts_of_a_rebased_sum(parts, seed):
    x = rebased_sum(parts, random.Random(seed))
    found = [z for z, mult in repcat.decompose(x) for _ in range(mult)]
    assert sorted(z.dims for z in found) == sorted(z.dims for z in parts)
    unmatched = list(parts)
    for z in found:
        k = next(i for i, w in enumerate(unmatched) if repcat.are_isomorphic(z, w))
        del unmatched[k]
    if x.field.p ** repcat.hom_dim(x, x) <= 1 << 12:
        assert (repcat.nontrivial_idempotent(x) is None) == (scan_idempotent(x) is None)


@settings(max_examples=20, deadline=None)
@given(
    lists=st.sampled_from(GROUPS).flatmap(
        lambda group: st.tuples(*[st.lists(st.sampled_from(group), min_size=1, max_size=3)] * 2)
    ),
    seed=st.integers(0, 2**32),
)
def test_the_radical_between_rebased_sums_matches_the_oracles(lists, seed):
    rng = random.Random(seed)
    x, y = (rebased_sum(parts, rng) for parts in lists)
    check_radical(x, y)
    check_radical(y, x)


@settings(max_examples=40, deadline=None)
@given(parts=part_lists, seed=st.integers(0, 2**32))
def test_a_rebased_module_is_isomorphic_to_itself(parts, seed):
    x = repcat.direct_sum(list(parts))[0]
    y = rebase(x, random.Random(seed))
    iso = find_isomorphism(x, y)
    assert iso is not None and iso.is_iso() and iso.domain is x and iso.codomain is y
    if x.field.p ** repcat.hom_dim(x, y) <= 1 << 12:
        assert scan_isomorphism(x, y) is not None


fixture_parts = st.sampled_from(
    [fixture_modules(f, p) for f in ("ka2.json", "ka3rad2.json") for p in (2, 3)]
).flatmap(lambda group: st.lists(st.sampled_from(group), min_size=1, max_size=3))
cuts = st.sampled_from(["sum", "submodule", "quotient"])


def random_module(parts, cut, seed):
    """A rebased sum of parts, or a random cyclic submodule of it, or the quotient by one."""
    rng = random.Random(seed)
    x = rebased_sum(parts, rng)
    if cut != "sum":
        field = x.field
        spans = [Matrix(field, [[rng.randrange(field.p)] for _ in range(d)], 1) for d in x.dims]
        sub, incl = repcat.submodule_generated(x, spans)
        x = sub if cut == "submodule" else repcat.cokernel(incl)[0]
    return Module(x.algebra, x.dims, x.maps)  # the relations hold


@settings(max_examples=40, deadline=None)
@given(parts=fixture_parts, cut=cuts, seed=st.integers(0, 2**32))
def test_hom_from_projectives_and_into_injectives_reads_vertex_dimensions(parts, cut, seed):
    """dim Hom(P_v, X) = dim X_v = dim Hom(X, I_v) at every vertex v."""
    x = random_module(parts, cut, seed)
    algebra = x.algebra
    for v in range(algebra.quiver.n_vertices):
        into = repcat.hom_dim(x, injective(algebra, v))
        assert repcat.hom_dim(repcat.projective(algebra, v), x) == x.dims[v] == into


@settings(max_examples=40, deadline=None)
@given(parts=fixture_parts, cut=cuts, seed=st.integers(0, 2**32))
def test_projective_cover_equals_the_glued_cover(parts, cut, seed):
    x = random_module(parts, cut, seed)
    for v, (js, reps) in enumerate(zip(repcat._top_reps(x), top_quotient_reps(x))):
        assert reps == exactlin._select_columns(Matrix.identity(x.field, x.dims[v]), js)
    cover, epi, verts = repcat.projective_cover(x)
    glued, glued_epi, glued_verts, _, _ = glued_projective_cover(x)
    assert verts == glued_verts
    assert (cover.dims, cover.maps) == (glued.dims, glued.maps)
    assert epi.comps == glued_epi.comps


@settings(max_examples=30, deadline=None)
@given(parts=fixture_parts, cut=cuts, seed=st.integers(0, 2**32))
def test_tau_and_its_inverse_round_trip(parts, cut, seed):
    """For d = 1: tau tau^- x = x when x has no injective summand, and dually.

    tau^- = Tr D and tau = D Tr, and Tr Tr y = y for y with no projective summand.
    """
    x = random_module(parts, cut, seed)
    summands = [z for z, _, _ in repcat.split_summands(x)]
    if not any(homological.is_injective(z) for z in summands):
        assert repcat.are_isomorphic(homological.tau_d(homological.tau_d_minus(x, 1), 1), x)
    if not any(homological.is_projective(z) for z in summands):
        assert repcat.are_isomorphic(homological.tau_d_minus(homological.tau_d(x, 1), 1), x)


# -- reach ------------------------------------------------------------------


def test_decompose_of_a_hidden_sum_answers_over_larger_fields(tmp_path):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import kafamily
    finally:
        sys.path.pop(0)
    inst = kafamily.ka_document(6, 2, random.Random(11))
    path = tmp_path / "ka6.json"
    path.write_text(inst.text)
    for q in ("3", "5", "7", "11"):
        r = subprocess.run(
            [sys.executable, "-m", "dctkit.cli", "decompose", "--workspace", str(path),
             "--module", kafamily.SUM_NAME, "--field", q],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, (q, r.stdout)
        names = [
            s["isomorphic_to"]
            for s in json.loads(r.stdout)["summands"]
            for _ in range(s["multiplicity"])
        ]
        assert sorted(names) == sorted(["P1", "P2", "P3", "P4", "P5", "S6", "S1"]), q
