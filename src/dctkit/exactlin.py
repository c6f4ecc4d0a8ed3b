"""Exact dense linear algebra over a prime field F_p.

Matrices are immutable wrappers around int64 numpy arrays whose entries are
reduced residues.  Every routine is pure and deterministic: row reduction
always picks the first row with a nonzero entry in the current column, so
pivots, kernels and canonical bases are bit-for-bit reproducible.

Subspaces of F_p^n are represented by matrices whose columns span them.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch

# Keeps dim * (p-1)^2 comfortably inside int64 during matmul.
_MAX_PRIME = 1 << 20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The prime field F_p, p prime and small enough for int64 arithmetic."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not a prime")
        if p >= _MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds the supported bound {_MAX_PRIME}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class Matrix:
    """An immutable rows x cols matrix over a prime field.

    Zero-row and zero-column shapes are fully supported; they show up
    constantly as components of modules concentrated away from a vertex.
    """

    __slots__ = ("field", "data")

    def __init__(self, field: PrimeField, data):
        arr = np.array(data, dtype=np.int64)
        if arr.ndim != 2:
            if arr.size == 0:
                arr = arr.reshape((0, 0))
            else:
                raise DimensionMismatch(f"expected a 2-d array, got shape {arr.shape}")
        arr %= field.p
        arr.setflags(write=False)
        self.field = field
        self.data = arr

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Matrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Matrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def column(cls, field: PrimeField, entries: Sequence[int]) -> "Matrix":
        return cls(field, np.array(entries, dtype=np.int64).reshape(-1, 1))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def is_zero(self) -> bool:
        return not self.data.any()

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.data.T)

    def _check(self, other: "Matrix"):
        if self.field != other.field:
            raise DimensionMismatch("mixed fields")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Matrix(self.field, (self.data @ other.data) % self.field.p)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.data.shape != other.data.shape:
            raise DimensionMismatch("shape mismatch in addition")
        return Matrix(self.field, self.data + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.data.shape != other.data.shape:
            raise DimensionMismatch("shape mismatch in subtraction")
        return Matrix(self.field, self.data - other.data)

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, -self.data)

    def scale(self, c: int) -> "Matrix":
        return Matrix(self.field, self.data * (c % self.field.p))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool((self.data == other.data).all())
        )

    def __hash__(self):
        return hash((self.field.p, self.data.shape, self.data.tobytes()))

    def __getitem__(self, ij):
        return int(self.data[ij])

    def col(self, j: int) -> "Matrix":
        return Matrix(self.field, self.data[:, j : j + 1])

    def __repr__(self):
        return f"Matrix(F{self.field.p}, {self.data.tolist()})"


def hstack(ms: Sequence[Matrix], field: PrimeField = None, rows: int = None) -> Matrix:
    ms = list(ms)
    if not ms:
        return Matrix.zeros(field, rows, 0)
    return Matrix(ms[0].field, np.hstack([m.data for m in ms]))


def vstack(ms: Sequence[Matrix], field: PrimeField = None, cols: int = None) -> Matrix:
    ms = list(ms)
    if not ms:
        return Matrix.zeros(field, 0, cols)
    return Matrix(ms[0].field, np.vstack([m.data for m in ms]))


def block_diag(field: PrimeField, ms: Iterable[Matrix]) -> Matrix:
    ms = list(ms)
    rows = sum(m.rows for m in ms)
    cols = sum(m.cols for m in ms)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in ms:
        out[r : r + m.rows, c : c + m.cols] = m.data
        r += m.rows
        c += m.cols
    return Matrix(field, out)


def _rref_data(field: PrimeField, a: np.ndarray, limit_cols: int = None):
    """Row-reduce in place over F_p; returns (array, pivot column list).

    Pivot selection is "first nonzero in column order": columns are walked
    left to right and the first row at or below the current one with a
    nonzero entry wins.  Columns past limit_cols never become pivots (used
    for augmented solves).
    """
    p = field.p
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
        a[r] = (a[r] * field.inv(int(a[r, j]))) % p
        for k in range(rows):
            if k != r and a[k, j]:
                a[k] = (a[k] - a[k, j] * a[r]) % p
        pivots.append(j)
        r += 1
    return a, pivots


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns:
        (reduced Matrix, pivot column indices as a tuple, rank).
    """
    a, pivots = _rref_data(m.field, m.data)
    return Matrix(m.field, a), tuple(pivots), len(pivots)


def rank(m: Matrix) -> int:
    return rref(m)[2]


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of the null space, one column per free column of m.

    The basis vector for free column j has a 1 in coordinate j and the
    negated reduced entries in the pivot coordinates; columns are ordered
    by ascending free column index.
    """
    a, pivots = _rref_data(m.field, m.data)
    p = m.field.p
    free = [j for j in range(m.cols) if j not in pivots]
    out = np.zeros((m.cols, len(free)), dtype=np.int64)
    for k, j in enumerate(free):
        out[j, k] = 1
        for r, c in enumerate(pivots):
            out[c, k] = (-a[r, j]) % p
    return Matrix(m.field, out)


def solve(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve m @ x = b columnwise; None when any column is inconsistent.

    The returned solution is canonical: free variables are set to zero.
    """
    if m.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    aug = np.hstack([m.data, b.data])
    a, pivots = _rref_data(m.field, aug, limit_cols=m.cols)
    r = len(pivots)
    # any nonzero entry of the b-block below the pivot rows means inconsistency
    if a[r:, m.cols :].any():
        return None
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = a[i, m.cols :]
    return Matrix(m.field, x)


def inverse(m: Matrix) -> Optional[Matrix]:
    if not m.is_square():
        return None
    x = solve(m, Matrix.identity(m.field, m.rows))
    if x is None:
        return None
    if (x.data @ m.data % m.field.p != np.eye(m.rows, dtype=np.int64)).any():
        return None
    return x


def is_invertible(m: Matrix) -> bool:
    return m.is_square() and rank(m) == m.rows


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m itself: a deterministic basis of the column space."""
    _, pivots, _ = rref(m)
    return Matrix(m.field, m.data[:, list(pivots)])


def canonical_basis(u: Matrix) -> Matrix:
    """Reduced column echelon basis, identical for any spanning set of the space."""
    a, pivots = _rref_data(u.field, u.data.T)
    return Matrix(u.field, a[: len(pivots)].T)


def contains(u: Matrix, v: Matrix) -> bool:
    """True when every column of v lies in the column span of u."""
    return solve(u, v) is not None


def subspace_leq(u: Matrix, v: Matrix) -> bool:
    return contains(v, u)


def subspace_eq(u: Matrix, v: Matrix) -> bool:
    return canonical_basis(u) == canonical_basis(v)


def subspace_sum(u: Matrix, v: Matrix) -> Matrix:
    return canonical_basis(hstack([u, v]))


def intersect(u: Matrix, v: Matrix) -> Matrix:
    """Canonical basis of (col span u) meet (col span v)."""
    if u.rows != v.rows:
        raise DimensionMismatch("ambient dimensions differ")
    if u.cols == 0 or v.cols == 0:
        return Matrix.zeros(u.field, u.rows, 0)
    k = kernel_basis(hstack([u, v]))
    # first block of kernel coordinates combines columns of u
    coeff = Matrix(u.field, k.data[: u.cols, :])
    return canonical_basis(u @ coeff)


def all_subspaces(field: PrimeField, n: int) -> List[Matrix]:
    """Every subspace of field^n, each as its reduced echelon basis.

    Enumerated by rank, then pivot set, then the free entries; feasible
    only for very small n and p, which is all the callers need.
    """
    from itertools import combinations

    out = [Matrix.zeros(field, n, 0)]
    for r in range(1, n + 1):
        for pivots in combinations(range(n), r):
            free = [
                (j, c)
                for j in range(r)
                for c in range(pivots[j] + 1, n)
                if c not in pivots
            ]
            for counter in range(field.p ** len(free)):
                data = np.zeros((n, r), dtype=np.int64)
                for j in range(r):
                    data[pivots[j], j] = 1
                rem = counter
                for j, c in free:
                    data[c, j] = rem % field.p
                    rem //= field.p
                out.append(Matrix(field, data))
    return out


def quotient(v: Matrix, u: Matrix):
    """Quotient of span(v) by span(u).

    Returns (c, q) where the columns of c extend a basis of u meet v to one
    of v (representatives of the quotient) and q is a projection matrix from
    the ambient space onto the quotient coordinates with q @ u = 0 and
    q @ c = identity.  Vectors outside span(u) + span(v) are sent to zero.
    """
    if v.rows != u.rows:
        raise DimensionMismatch("ambient dimensions differ")
    field = v.field
    n = v.rows
    ub = canonical_basis(u)
    vb = canonical_basis(v)
    comp_cols = []
    span = ub
    for j in range(vb.cols):
        col = vb.col(j)
        if not contains(span, col):
            comp_cols.append(col)
            span = hstack([span, col])
    c = hstack(comp_cols, field=field, rows=n)
    # extend [u | c] to a full basis by standard vectors, deterministically
    full = span
    ext_cols = []
    for j in range(n):
        if full.cols == n:
            break
        e = Matrix.zeros(field, n, 1).data.copy()
        e[j, 0] = 1
        e = Matrix(field, e)
        if not contains(full, e):
            ext_cols.append(e)
            full = hstack([full, e])
    m = hstack([ub, c] + ext_cols, field=field, rows=n)
    minv = inverse(m)
    q = Matrix(field, minv.data[ub.cols : ub.cols + c.cols, :])
    return c, q
