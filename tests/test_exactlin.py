"""Exact linear algebra over small prime fields, checked against brute force."""

import itertools
import random

import pytest

from dctkit.errors import DimensionMismatch
from dctkit.exactlin import (
    Matrix,
    PrimeField,
    canonical_basis,
    contains,
    hstack,
    image_basis,
    intersect,
    is_invertible,
    kernel_basis,
    quotient,
    rank,
    solve,
    subspace_eq,
    subspace_leq,
    subspace_sum,
    vstack,
)
from scan_oracles import all_subspaces, rref


def _random_matrix(field, rows, cols, rng):
    return Matrix(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)])


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_matrix_arithmetic_mod_p():
    f3 = PrimeField(3)
    a = Matrix(f3, [[1, 2], [4, -1]])
    assert a[0, 1] == 2
    assert a[1, 0] == 1  # 4 mod 3
    assert a[1, 1] == 2  # -1 mod 3
    b = a + a
    assert b[0, 0] == 2
    assert (a - a).is_zero()
    assert (a @ Matrix.identity(f3, 2)) == a


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scaling_by_one_returns_the_matrix_itself(p):
    field, rng = PrimeField(p), random.Random(p)
    m = _random_matrix(field, 3, 4, rng)
    assert m.scale(1) is m and m.scale(p + 1) is m and m.scale(1 - p) is m
    for c in range(2, 2 * p + 1):
        if c % p != 1:
            scaled = m.scale(c)
            assert scaled is not m
            assert scaled.entries == tuple(tuple(c * x % p for x in row) for row in m.entries)


def test_rref_is_idempotent_and_rank_agrees():
    rng = random.Random(11)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(25):
            m = _random_matrix(field, rng.randrange(5), rng.randrange(5), rng)
            r, pivots, rk = rref(m)
            r2, pivots2, rk2 = rref(r)
            assert r == r2 and pivots == pivots2 and rk == rk2
            assert rk == rank(m)
            assert rk == len(pivots)


def test_kernel_basis_annihilates_and_has_full_count():
    rng = random.Random(5)
    field = PrimeField(3)
    for _ in range(30):
        m = _random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        k = kernel_basis(m)
        assert (m @ k).is_zero()
        assert k.cols == m.cols - rank(m)
        assert rank(k) == k.cols


def test_solve_finds_exact_preimages():
    rng = random.Random(7)
    field = PrimeField(5)
    for _ in range(30):
        m = _random_matrix(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        x = _random_matrix(field, m.cols, 2, rng)
        b = m @ x
        sol = solve(m, b)
        assert sol is not None
        assert m @ sol == b


def test_solve_reports_unsolvable_systems():
    field = PrimeField(2)
    m = Matrix(field, [[1], [0]])
    b = Matrix(field, [[0], [1]])
    assert solve(m, b) is None


def test_inverse_round_trip():
    field = PrimeField(7)
    m = Matrix(field, [[1, 2, 0], [0, 1, 3], [0, 0, 1]])
    assert is_invertible(m)
    assert m @ solve(m, Matrix.identity(field, 3)) == Matrix.identity(field, 3)


def test_stacking_agrees_with_numpy_layout():
    field = PrimeField(2)
    a = Matrix(field, [[1], [0]])
    b = Matrix(field, [[0], [1]])
    h = hstack([a, b])
    assert h == Matrix.identity(field, 2)
    v = vstack([Matrix(field, [[1, 0]]), Matrix(field, [[0, 1]])])
    assert v == Matrix.identity(field, 2)
    assert hstack([], field=field, rows=3).rows == 3


def test_subspace_lattice_operations():
    field = PrimeField(2)
    e1 = Matrix(field, [[1], [0], [0]])
    e2 = Matrix(field, [[0], [1], [0]])
    plane = hstack([e1, e2])
    assert contains(plane, e1)
    assert subspace_leq(image_basis(e1), plane)
    assert not subspace_leq(plane, image_basis(e1))
    s = subspace_sum(image_basis(e1), image_basis(e2))
    assert subspace_eq(s, plane)
    meet = intersect(plane, image_basis(e2))
    assert subspace_eq(meet, image_basis(e2))


def test_quotient_projection_kills_exactly_the_submodule():
    field = PrimeField(3)
    u = Matrix(field, [[1], [1], [0]])
    v = Matrix(field, [[1, 0], [0, 1], [0, 1]])
    classes, proj = quotient(v, u)
    assert (proj @ u).is_zero()
    assert proj @ classes == Matrix.identity(field, classes.cols)
    # classes + u must span what v + u spanned
    assert subspace_eq(
        subspace_sum(classes, u), subspace_sum(canonical_basis(v), u)
    )


def test_all_subspaces_counts_match_gaussian_binomials():
    field = PrimeField(2)
    # Over F2: 1 + 7 + 7 + 1 subspaces of F2^3
    subs = all_subspaces(field, 3)
    assert len(subs) == 16
    by_dim = {}
    for s in subs:
        by_dim.setdefault(s.cols, []).append(s)
    assert [len(by_dim.get(r, [])) for r in range(4)] == [1, 7, 7, 1]
    # each listed once, in canonical form
    for s in subs:
        assert s == canonical_basis(s)
    f3 = PrimeField(3)
    assert len(all_subspaces(f3, 2)) == 1 + 4 + 1


def test_all_subspaces_pairwise_distinct():
    field = PrimeField(2)
    subs = all_subspaces(field, 4)
    seen = set()
    for s in subs:
        key = (s.cols, s.entries)
        assert key not in seen
        seen.add(key)
    assert len(subs) == 67  # 1+15+35+15+1


def test_matrix_shape_survives_empty_rows_and_columns():
    field = PrimeField(5)
    assert Matrix(field, [], 3).shape == (0, 3)
    assert Matrix(field, [[], []]).shape == (2, 0)
    assert Matrix.column(field, []).shape == (0, 1)
    m = Matrix(field, [[1, 7, -1]])
    assert m.data.shape == m.shape == (1, 3)
    assert m.entries == ((1, 2, 4),)
    assert m.columns() == [(1,), (2,), (4,)]
    assert Matrix.zeros(field, 0, 2).columns() == [(), ()]
    assert Matrix.from_columns(field, m.columns(), 1) == m
    with pytest.raises(DimensionMismatch):
        Matrix(field, [[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Matrix(field, [1, 2])
    with pytest.raises(DimensionMismatch):
        Matrix(field, [[1, 2]], 3)
    with pytest.raises(DimensionMismatch):
        Matrix.from_columns(field, [(1, 2)], 3)
