"""Exact dense linear algebra over a prime field F_p.

Matrices are immutable: a Matrix holds its entries as a tuple of row
tuples of plain Python ints in [0, p).  The matrices met in this library
are tiny (most are empty or have a handful of entries), so plain integers
beat array libraries here, and they cannot overflow.  Every routine is
pure and deterministic: row reduction always picks the first row with a
nonzero entry in the current column, so pivots, kernels and canonical
bases are bit-for-bit reproducible.

Subspaces of F_p^n are represented by matrices whose columns span them.

Zero and identity blocks cost nothing: there is one PrimeField per p,
and `Matrix.zeros` and `Matrix.identity` return one shared matrix per
(p, rows, cols), which a product with an empty side returns too.  Most
blocks met here are of this kind (vertex components of modules that
vanish at a vertex, composites through such components).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DimensionMismatch

# Moduli are capped here.  Python ints never overflow, so this is no longer
# an arithmetic limit: it keeps the scan sizes p^k meaningful and is part of
# the command-line contract (`--field` above it is an input error).
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
    """The prime field F_p, p prime and below the supported bound.

    There is one instance per p: PrimeField(p) is PrimeField(p), so fields
    compare by identity.
    """

    __slots__ = ("p",)
    _instances: Dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not a prime")
        if p >= _MAX_PRIME:
            raise ValueError(f"modulus {p} exceeds the supported bound {_MAX_PRIME}")
        field = cls._instances.get(p)
        if field is None:
            field = cls._instances[p] = object.__new__(cls)
            field.p = int(p)
        return field

    def __reduce__(self):
        return PrimeField, (self.p,)

    def __repr__(self):
        return f"PrimeField({self.p})"


class Matrix:
    """An immutable rows x cols matrix over a prime field.

    `data` is a nested sequence of rows; its entries are reduced mod p.
    Zero-row and zero-column shapes are fully supported; they show up
    constantly as components of modules concentrated away from a vertex.
    A matrix with no rows needs its column count passed as `cols`.
    """

    __slots__ = ("field", "entries", "rows", "cols")

    def __init__(self, field: PrimeField, data, cols: int = None, _reduced=False):
        if _reduced:
            entries = data
        else:
            p = field.p
            try:
                entries = tuple([tuple([int(x) % p for x in row]) for row in data])
            except TypeError:
                raise DimensionMismatch("expected a nested sequence of rows") from None
            if entries and any(len(r) != len(entries[0]) for r in entries[1:]):
                raise DimensionMismatch("rows of unequal length")
            if entries and cols is not None and cols != len(entries[0]):
                raise DimensionMismatch(f"rows of length {len(entries[0])}, expected {cols}")
        self.field = field
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else (cols or 0)

    @staticmethod
    def zeros(field: PrimeField, rows: int, cols: int) -> "Matrix":
        """The rows x cols zero matrix, one shared instance per (p, rows, cols)."""
        key = (field.p, rows, cols)
        m = _ZEROS.get(key)
        if m is None:
            m = _ZEROS[key] = Matrix(field, ((0,) * cols,) * rows, cols, _reduced=True)
        return m

    @staticmethod
    def identity(field: PrimeField, n: int) -> "Matrix":
        """The n x n identity matrix, one shared instance per (p, n)."""
        key = (field.p, n)
        m = _IDENTITIES.get(key)
        if m is None:
            rows = tuple([(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)])
            m = _IDENTITIES[key] = Matrix(field, rows, n, _reduced=True)
        return m

    @classmethod
    def column(cls, field: PrimeField, entries: Sequence[int]) -> "Matrix":
        return cls(field, [(x,) for x in entries], 1)

    @classmethod
    def from_columns(cls, field: PrimeField, columns: Sequence[Sequence[int]], rows: int):
        """The matrix whose columns are the given vectors of length `rows`."""
        if any(len(c) != rows for c in columns):
            raise DimensionMismatch(f"columns must have length {rows}")
        if not columns:
            return cls.zeros(field, rows, 0)
        return cls(field, list(zip(*columns)) if rows else (), len(columns))

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def data(self) -> "Matrix":
        """The matrix itself, for code written against `m.data.shape` / `m.data[i, j]`."""
        return self

    def columns(self) -> List[tuple]:
        """The columns as tuples of ints, left to right."""
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.entries))

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        t = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return Matrix(self.field, t, self.rows, _reduced=True)

    def _check(self, other: "Matrix"):
        if self.field is not other.field:
            raise DimensionMismatch("mixed fields")

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n = other.cols
        if not (self.rows and n and self.cols):
            return Matrix.zeros(self.field, self.rows, n)
        out = _product_rows(self.field.p, self.entries, other.entries, n)
        return Matrix(self.field, out, n, _reduced=True)

    def _entrywise(self, other: "Matrix", sign: int, what: str) -> "Matrix":
        self._check(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape mismatch in {what}")
        p = self.field.p
        out = tuple([
            tuple([(x + sign * y) % p for x, y in zip(r, s)])
            for r, s in zip(self.entries, other.entries)
        ])
        return Matrix(self.field, out, self.cols, _reduced=True)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, 1, "addition")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, -1, "subtraction")

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c: int) -> "Matrix":
        """c times this matrix, which is returned itself when c = 1 in F_p."""
        p = self.field.p
        c %= p
        if c == 1:
            return self
        out = tuple([tuple([c * x % p for x in r]) for r in self.entries])
        return Matrix(self.field, out, self.cols, _reduced=True)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field.p, self.rows, self.cols, self.entries))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def col(self, j: int) -> "Matrix":
        return Matrix(self.field, tuple([(r[j],) for r in self.entries]), 1, _reduced=True)

    def __repr__(self):
        return f"Matrix(F{self.field.p}, {[list(r) for r in self.entries]})"


# The shared zero and identity matrices, keyed on p and the shape.
_ZEROS: Dict[Tuple[int, int, int], Matrix] = {}
_IDENTITIES: Dict[Tuple[int, int], Matrix] = {}


def _product_rows(p: int, a, b, n: int):
    """Rows of a @ b mod p, combining rows of b only for the nonzero entries of a.

    The matrices met here are mostly sparse (inclusions, projections, hom
    basis vectors), and skipping zeros is as fast as a dense dot product
    even on small dense factors.
    """
    zero = (0,) * n
    out = []
    for row in a:
        acc = None
        for x, brow in zip(row, b):
            if x:
                if acc is None:
                    acc = [x * y for y in brow]
                else:
                    acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(zero if acc is None else tuple([s % p for s in acc]))
    return tuple(out)


def hstack(ms: Sequence[Matrix], field: PrimeField = None, rows: int = None) -> Matrix:
    ms = list(ms)
    if not ms:
        return Matrix.zeros(field, rows, 0)
    if any(m.rows != ms[0].rows for m in ms):
        raise DimensionMismatch("hstack: row counts differ")
    entries = tuple([tuple(chain.from_iterable(rs)) for rs in zip(*[m.entries for m in ms])])
    return Matrix(ms[0].field, entries, sum(m.cols for m in ms), _reduced=True)


def vstack(ms: Sequence[Matrix], field: PrimeField = None, cols: int = None) -> Matrix:
    ms = list(ms)
    if not ms:
        return Matrix.zeros(field, 0, cols)
    if any(m.cols != ms[0].cols for m in ms):
        raise DimensionMismatch("vstack: column counts differ")
    entries = tuple(chain.from_iterable(m.entries for m in ms))
    return Matrix(ms[0].field, entries, ms[0].cols, _reduced=True)


def block_diag(field: PrimeField, ms: Iterable[Matrix]) -> Matrix:
    ms = list(ms)
    cols = sum(m.cols for m in ms)
    out = []
    left = 0
    for m in ms:
        pad_l, pad_r = (0,) * left, (0,) * (cols - left - m.cols)
        out.extend(pad_l + r + pad_r for r in m.entries)
        left += m.cols
    return Matrix(field, tuple(out), cols, _reduced=True)


def _reduce_rows(p: int, a: List[list], search: int) -> List[int]:
    """Row-reduce the list `a` of reduced-residue rows in place; returns the pivot columns.

    Rows may be tuples; a row that changes is replaced by a new list.

    Pivot selection is "first nonzero in column order": columns are walked
    left to right and the first row at or below the current one with a
    nonzero entry wins.  Only the first `search` columns can become pivots
    (the rest is an augmented block, as in solve).
    """
    rows = len(a)
    pivots = []
    r = 0
    for j in range(search):
        if r == rows:
            break
        for i in range(r, rows):
            if a[i][j]:
                break
        else:
            continue
        if i != r:
            a[r], a[i] = a[i], a[r]
        row = a[r]
        lead = row[j]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            row = a[r] = [x * inv % p for x in row]
        for k in range(rows):
            if k != r:
                c = a[k][j]
                if c:
                    a[k] = [(x - c * y) % p for x, y in zip(a[k], row)]
        pivots.append(j)
        r += 1
    return pivots


def _rref_lists(m: Matrix):
    a = [list(r) for r in m.entries]
    return a, _reduce_rows(m.field.p, a, m.cols)


def rank(m: Matrix) -> int:
    if not (m.rows and m.cols):
        return 0
    return len(_rref_lists(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Canonical basis of the null space, one column per free column of m.

    The basis vector for free column j has a 1 in coordinate j and the
    negated reduced entries in the pivot coordinates; columns are ordered
    by ascending free column index.
    """
    n = m.cols
    if not m.rows:
        return Matrix.identity(m.field, n)
    a, pivots = _rref_lists(m)
    p = m.field.p
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    out = [[0] * len(free) for _ in range(n)]
    for k, j in enumerate(free):
        out[j][k] = 1
        for r, c in enumerate(pivots):
            out[c][k] = -a[r][j] % p
    return Matrix(m.field, tuple(map(tuple, out)), len(free), _reduced=True)


def solve(m: Matrix, b: Matrix) -> Optional[Matrix]:
    """Solve m @ x = b columnwise; None when any column is inconsistent.

    The returned solution is canonical: free variables are set to zero.
    """
    if m.rows != b.rows:
        raise DimensionMismatch("solve: row counts differ")
    n, k = m.cols, b.cols
    a = [list(r + s) for r, s in zip(m.entries, b.entries)]
    pivots = _reduce_rows(m.field.p, a, n)
    # any nonzero entry of the b-block below the pivot rows means inconsistency
    if any(any(row[n:]) for row in a[len(pivots):]):
        return None
    x = [(0,) * k] * n
    for i, c in enumerate(pivots):
        x[c] = tuple(a[i][n:])
    return Matrix(m.field, tuple(x), k, _reduced=True)


def is_invertible(m: Matrix) -> bool:
    return m.is_square() and rank(m) == m.rows


def _select_columns(m: Matrix, js: Sequence[int]) -> Matrix:
    entries = tuple([tuple([r[j] for j in js]) for r in m.entries])
    return Matrix(m.field, entries, len(js), _reduced=True)


def image_basis(m: Matrix) -> Matrix:
    """The pivot columns of m itself: a deterministic basis of the column space."""
    if not (m.rows and m.cols):
        return Matrix.zeros(m.field, m.rows, 0)
    return _select_columns(m, _rref_lists(m)[1])


def canonical_basis(u: Matrix) -> Matrix:
    """Reduced column echelon basis, identical for any spanning set of the space."""
    if not (u.rows and u.cols):
        return Matrix.zeros(u.field, u.rows, 0)
    a = [list(c) for c in zip(*u.entries)]
    r = len(_reduce_rows(u.field.p, a, u.rows))
    entries = tuple(zip(*a[:r])) if r else ((),) * u.rows
    return Matrix(u.field, entries, r, _reduced=True)


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
    coeff = Matrix(u.field, k.entries[: u.cols], k.cols, _reduced=True)
    return canonical_basis(u @ coeff)


class Quotient(NamedTuple):
    """A space modulo an image: class representatives and the class projection."""

    reps: Matrix
    proj: Matrix

    @property
    def dim(self) -> int:
        return self.reps.cols


def quotient(v: Matrix, u: Matrix) -> Quotient:
    """Quotient of span(v) by span(u).

    Returns Quotient(reps, proj), which unpacks as a pair.  The columns of
    reps extend a basis of u meet v to one of v (representatives of the
    quotient), and proj is a projection matrix from the ambient space onto
    the quotient coordinates with proj @ u = 0 and proj @ reps = identity.
    Vectors outside span(u) + span(v) are sent to zero.  Ext spaces,
    defects and cokernels are all presented this way.

    The representatives are the columns of the canonical basis of v that
    are independent of u and of the earlier ones.  Standard vectors extend
    [u | c] to a basis m of the ambient space the same way, and q is the
    c-block of rows of m^-1.  One row reduction of [u | vb | I | I] finds
    all three column choices and, in its last block, m^-1 itself.
    """
    if v.rows != u.rows:
        raise DimensionMismatch("ambient dimensions differ")
    field = v.field
    n = v.rows
    vb = canonical_basis(v)
    ident = Matrix.identity(field, n).entries
    a = [list(r + s + e + e) for r, s, e in zip(u.entries, vb.entries, ident)]
    search = u.cols + vb.cols + n
    pivots = _reduce_rows(field.p, a, search)
    in_u = sum(1 for j in pivots if j < u.cols)
    picked = [j - u.cols for j in pivots if u.cols <= j < u.cols + vb.cols]
    c = _select_columns(vb, picked)
    q = tuple([tuple(row[search:]) for row in a[in_u : in_u + len(picked)]])
    return Quotient(c, Matrix(field, q, n, _reduced=True))
