import pytest

from dctkit import CapExceeded, NotAdmissible, PrimeField, Quiver, build_algebra, config


@pytest.fixture(scope="module")
def f2():
    return PrimeField(2)


def test_linear_quiver_basis_counts(f2):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    # no relation, bound 3: e1,e2,e3,a,b,ab
    free = build_algebra(q, [], 3, f2)
    assert free.dim == 6
    # kill the composite: e1,e2,e3,a,b
    short = build_algebra(q, [[(1, ["a", "b"])]], 2, f2)
    assert short.dim == 5


def test_bound_must_be_reached_by_relations(f2):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    # bound 2 without any relation: the length-2 path ab survives
    with pytest.raises(NotAdmissible) as exc:
        build_algebra(q, [], 2, f2)
    assert exc.value.witness is not None


def test_path_cap_refusal_on_an_acyclic_quiver(f2, monkeypatch):
    # the line 1 -> ... -> 8 has 8 + 7 + 6 = 21 paths up to length 2, and no cycle
    names = [str(k) for k in range(1, 9)]
    q = Quiver(names, [(f"a{k}", names[k - 1], names[k]) for k in range(1, 8)])
    monkeypatch.setattr(config, "PATH_CAP", 20)
    with pytest.raises(CapExceeded) as exc:
        build_algebra(q, [], 8, f2)
    assert str(exc.value) == (
        "path enumeration to length 8 needs 21+ paths, over the cap 20; raise config.PATH_CAP"
    )


def test_loop_algebra_truncation(f2):
    q = Quiver(["x"], [("t", "x", "x")])
    alg = build_algebra(q, [[(1, ["t", "t", "t", "t"])]], 4, f2)
    # e, t, t^2, t^3
    assert alg.dim == 4


def test_relations_with_coefficients():
    f3 = PrimeField(3)
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("c", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, [[(1, ["a", "b"]), (2, ["c", "b"])]], 3, f3)
    # ab + 2cb = 0 glues the two length-two paths into one basis class
    assert alg.dim == 7


def test_short_relation_paths_rejected(f2):
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(ValueError):
        build_algebra(q, [[(1, ["a"])]], 2, f2)


def test_unknown_arrow_name_rejected(f2):
    q = Quiver(["1", "2"], [("a", "1", "2")])
    with pytest.raises(ValueError):
        build_algebra(q, [[(1, ["zz"])]], 2, f2)


def test_quiver_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        Quiver(["1", "1"], [])
    with pytest.raises(ValueError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])


def test_opposite_is_involutive(f2):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, [[(1, ["a", "b"])]], 2, f2)
    opp = alg.opposite()
    assert opp.dim == alg.dim
    assert opp.opposite() is alg
    a = opp.quiver.arrows[opp.quiver.arrow_index("a")]
    assert opp.quiver.vertices[a.source] == "2"
    assert opp.quiver.vertices[a.target] == "1"


def test_path_targets_consistent(f2):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    free = build_algebra(q, [], 3, f2)
    for i, path in enumerate(free.path_basis):
        assert free.basis_target(i) == path.target(free.quiver)
    starts = free.basis_indices_from(0)
    # paths out of vertex 1: e1, a, ab
    assert len(starts) == 3


def test_multiply_is_exact_near_the_prime_bound():
    # Two Kronecker steps: every a_i b_j is c_ij times a3 b3, so one product
    # of full vectors piles fifteen terms of size about p^3 onto one
    # coordinate, well past the range of 64-bit integers.
    p = 1048573
    field = PrimeField(p)
    q = Quiver(
        ["1", "2", "3"],
        [(f"a{i}", "1", "2") for i in range(4)] + [(f"b{j}", "2", "3") for j in range(4)],
    )
    coeff = {(i, j): p - 1 - i - 4 * j for i in range(4) for j in range(4)}
    coeff[3, 3] = 1
    rels = [
        [(1, [f"a{i}", f"b{j}"]), (-coeff[i, j], ["a3", "b3"])]
        for (i, j) in coeff
        if (i, j) != (3, 3)
    ]
    alg = build_algebra(q, rels, 3, field)
    names = ["*".join(q.arrows[k].name for k in path.arrows) for path in alg.path_basis]
    x = [0] * alg.dim
    y = [0] * alg.dim
    for i in range(4):
        x[names.index(f"a{i}")] = p - 1 - i
        y[names.index(f"b{i}")] = p - 2 - i
    terms = [x[names.index(f"a{i}")] * y[names.index(f"b{j}")] * coeff[i, j] for i, j in coeff]
    assert len(terms) == 16 and sum(terms) > 2**63
    expected = [0] * alg.dim
    expected[names.index("a3*b3")] = sum(terms) % p
    assert list(alg.multiply(x, y)) == expected
