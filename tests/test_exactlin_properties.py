"""Property tests: the exactlin kernels against a numpy reference.

The reference is an int64 numpy implementation with the same pivot rule
(the one dctkit used before its kernels moved to plain integers), so
every result must agree entry for entry, shapes included (0 rows or 0
columns too).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit.exactlin import (
    Matrix,
    PrimeField,
    canonical_basis,
    intersect,
    kernel_basis,
    quotient,
    solve,
)
from scan_oracles import rref

PRIMES = [2, 3, 5, 7, 1048573]
SETTINGS = settings(max_examples=60, deadline=None)


# -- the reference --------------------------------------------------------


def ref_rref(p, a, limit_cols=None):
    a = a.copy() % p
    rows, cols = a.shape
    search = cols if limit_cols is None else limit_cols
    pivots = []
    r = 0
    for j in range(search):
        if r == rows:
            break
        nz = np.nonzero(a[r:, j])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, j]), p - 2, p)) % p
        for k in range(rows):
            if k != r and a[k, j]:
                a[k] = (a[k] - a[k, j] * a[r]) % p
        pivots.append(j)
        r += 1
    return a, pivots


def ref_kernel(p, m):
    a, pivots = ref_rref(p, m)
    free = [j for j in range(m.shape[1]) if j not in pivots]
    out = np.zeros((m.shape[1], len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        out[j, k] = 1
        for r, c in enumerate(pivots):
            out[c, k] = (-a[r, j]) % p
    return out


def ref_solve(p, m, b):
    a, pivots = ref_rref(p, np.hstack([m, b]), limit_cols=m.shape[1])
    if a[len(pivots):, m.shape[1]:].any():
        return None
    x = np.zeros((m.shape[1], b.shape[1]), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = a[i, m.shape[1]:]
    return x


def ref_canonical(p, u):
    a, pivots = ref_rref(p, u.T)
    return a[: len(pivots)].T.reshape(u.shape[0], len(pivots))


def ref_contains(p, u, v):
    return ref_solve(p, u, v) is not None


def ref_quotient(p, v, u):
    """The greedy construction: extend u by columns of v, then by standard vectors."""
    n = v.shape[0]
    ub, vb = ref_canonical(p, u), ref_canonical(p, v)
    span, comp = ub, []
    for j in range(vb.shape[1]):
        col = vb[:, j : j + 1]
        if not ref_contains(p, span, col):
            comp.append(col)
            span = np.hstack([span, col])
    c = np.hstack(comp) if comp else np.zeros((n, 0), dtype=np.int64)
    full = span
    for j in range(n):
        e = np.zeros((n, 1), dtype=np.int64)
        e[j, 0] = 1
        if full.shape[1] < n and not ref_contains(p, full, e):
            full = np.hstack([full, e])
    minv = ref_solve(p, full, np.eye(n, dtype=np.int64))
    return c, minv[ub.shape[1] : ub.shape[1] + c.shape[1]]


def ref_matmul(p, a, b):
    return (a @ b) % p


# -- strategies and helpers ----------------------------------------------


def entries(p):
    # zeros are drawn often, so that rank drops even for the large prime
    return st.one_of(st.just(0), st.integers(0, p - 1))


@st.composite
def matrices(draw, p=None, rows=None, cols=None):
    p = draw(st.sampled_from(PRIMES)) if p is None else p
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    data = [[draw(entries(p)) for _ in range(cols)] for _ in range(rows)]
    return p, np.array(data, dtype=np.int64).reshape(rows, cols)


def mat(p, arr):
    return Matrix(PrimeField(p), arr.tolist(), arr.shape[1])


def same(m, arr):
    return m.shape == arr.shape and [list(r) for r in m.entries] == arr.tolist()


# -- the properties -------------------------------------------------------


@SETTINGS
@given(matrices())
def test_rref_matches_reference(pm):
    p, a = pm
    reduced, pivots, rank = rref(mat(p, a))
    ref, ref_pivots = ref_rref(p, a)
    assert same(reduced, ref)
    assert pivots == tuple(ref_pivots) and rank == len(ref_pivots)


@SETTINGS
@given(matrices())
def test_kernel_basis_matches_reference(pm):
    p, a = pm
    assert same(kernel_basis(mat(p, a)), ref_kernel(p, a))


@SETTINGS
@given(st.data())
def test_solve_matches_reference(data):
    p, a = data.draw(matrices())
    _, b = data.draw(matrices(p=p, rows=a.shape[0]))
    if data.draw(st.booleans()):
        # a consistent right-hand side, so both answers are exercised
        _, x = data.draw(matrices(p=p, rows=a.shape[1], cols=b.shape[1]))
        b = ref_matmul(p, a, x)
    got, ref = solve(mat(p, a), mat(p, b)), ref_solve(p, a, b)
    assert (got is None) == (ref is None)
    if ref is not None:
        assert same(got, ref)


@SETTINGS
@given(st.data())
def test_solve_with_no_columns_or_no_rows_matches_reference(data):
    """The shapes solve answers without row reduction, drawn every time."""
    p = data.draw(st.sampled_from(PRIMES))
    if data.draw(st.booleans()):
        _, a = data.draw(matrices(p=p))
        _, b = data.draw(matrices(p=p, rows=a.shape[0], cols=0))
    else:
        _, a = data.draw(matrices(p=p, rows=0))
        _, b = data.draw(matrices(p=p, rows=0))
    got, ref = solve(mat(p, a), mat(p, b)), ref_solve(p, a, b)
    assert ref is not None and same(got, ref)


@SETTINGS
@given(st.data())
def test_inverse_matches_reference(data):
    n = data.draw(st.integers(0, 5))
    p, a = data.draw(matrices(rows=n, cols=n))
    got = solve(mat(p, a), Matrix.identity(PrimeField(p), n))
    ref = ref_solve(p, a, np.eye(n, dtype=np.int64))
    if ref is None:
        assert got is None
    else:
        assert same(got, ref)
        assert got @ mat(p, a) == Matrix.identity(PrimeField(p), n)


@SETTINGS
@given(matrices())
def test_canonical_basis_matches_reference(pm):
    p, u = pm
    assert same(canonical_basis(mat(p, u)), ref_canonical(p, u))


@SETTINGS
@given(st.data())
def test_intersect_matches_reference(data):
    p, u = data.draw(matrices())
    _, v = data.draw(matrices(p=p, rows=u.shape[0]))
    got = intersect(mat(p, u), mat(p, v))
    if u.shape[1] == 0 or v.shape[1] == 0:
        ref = np.zeros((u.shape[0], 0), dtype=np.int64)
    else:
        k = ref_kernel(p, np.hstack([u, v]))
        ref = ref_canonical(p, ref_matmul(p, u, k[: u.shape[1]]))
    assert same(got, ref)


@SETTINGS
@given(st.data())
def test_quotient_matches_reference(data):
    p, v = data.draw(matrices())
    _, u = data.draw(matrices(p=p, rows=v.shape[0]))
    if data.draw(st.booleans()) and v.shape[1]:
        # u inside v, the case the library relies on
        _, coeff = data.draw(matrices(p=p, rows=v.shape[1]))
        u = ref_matmul(p, v, coeff)
    reps, proj = quotient(mat(p, v), mat(p, u))
    ref_reps, ref_proj = ref_quotient(p, v, u)
    assert same(reps, ref_reps)
    assert same(proj, ref_proj)


@SETTINGS
@given(st.data())
def test_matmul_matches_reference(data):
    p, a = data.draw(matrices())
    _, b = data.draw(matrices(p=p, rows=a.shape[1]))
    assert same(mat(p, a) @ mat(p, b), ref_matmul(p, a, b))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_large_matmul_matches_reference(data):
    p = data.draw(st.sampled_from(PRIMES))
    rows, inner, cols = (data.draw(st.integers(5, 24)) for _ in range(3))
    _, a = data.draw(matrices(p=p, rows=rows, cols=inner))
    _, b = data.draw(matrices(p=p, rows=inner, cols=cols))
    assert same(mat(p, a) @ mat(p, b), ref_matmul(p, a, b))
