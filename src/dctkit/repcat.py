"""Finite-dimensional right modules over a bound quiver algebra.

A module is a representation of the quiver: one F_p-space per vertex and
one matrix per arrow, mapping the source space to the target space, with
every relation evaluating to zero.  Morphisms are tuples of vertex
matrices intertwining the arrow actions.  There is one object per
module: a module equal in dimensions and arrow matrices to a live one
over the same algebra is that one, so what a module keeps is computed
once, whichever construction meets it again.  Trivial shapes cost
nothing: a sum of one module is that module, a 1x1 block map from dom to
cod is its block, and the kernel of a mono is the zero module, unsolved.

Hom spaces are computed exactly as kernels of the intertwining system and
always come back in the same canonical order, so everything downstream
(approximations, resolutions, splittings) is deterministic.  Zero Homs
solve no system: Hom(x, y) = 0 whenever y vanishes on the top of x or x
on the socle of y, and each module keeps its top and socle, its identity,
its hom bases and its split into indecomposables once computed.  Every
fact kept here and in the layers above goes through one memo, `_kept`.

A module with a simple top or a simple socle is indecomposable, read
off the kept top and socle (`_simple_top_or_socle`, which the
enumeration of indecomposables reads too).  Any other is split by linear
algebra on E = End(x) over its hom basis: the radical J = rad E by lifted
traces, then a zero divisor of the semisimple E/J, whose left ideal
yields an idempotent that is lifted over J.  x is indecomposable exactly
when E/J is a field, and a brick (E = k) needs no structure constants.
The split is kept as (summand, inclusion) pairs, and every summand
question reads it.  End(x) of an indecomposable x is local, so x is
isomorphic to a y of the same dimension vector exactly when some map of
hom_basis(x, y) is invertible: one hom system, and Hom(y, x) is not
solved.  Of smaller dimension vector, x is a summand of y exactly when
some composite of hom-basis maps x -> y -> x is invertible.  Both are
`summand_map`, which only `iso_classes` asks here.  The radical
rad(x, y) of the module category is read off J of y alone.  Nothing here
enumerates a space over F_p.
"""

from __future__ import annotations

from functools import reduce, wraps
from itertools import chain
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

from . import exactlin
from .algebra import BoundQuiverAlgebra, Path
from .errors import (
    CapExceeded,
    DimensionMismatch,
    InvalidModule,
    InvalidMorphism,
    InvalidSubmodule,
    VerificationFailed,
)
from .exactlin import Matrix


def _kept(name: str):
    """Keep f(owner, *args) in owner._cache under name, or (name, *args) with arguments.

    The owner is a module, a category or an algebra.  A key
    holds the objects it is about, which hash by identity, and a kept value
    may be falsy but never None.  `forget(owner, *args)` drops one entry.
    """

    def keep(f):
        @wraps(f)
        def kept(owner, *args):
            key = (name,) + args if args else name
            value = owner._cache.get(key)
            if value is None:
                value = owner._cache[key] = f(owner, *args)
            return value

        kept.forget = lambda owner, *args: owner._cache.pop((name,) + args if args else name, None)
        return kept

    return keep


class Module:
    """A right module, given by vertex dimensions and arrow matrices.

    Args:
        algebra: the bound quiver algebra acted by.
        dims: one dimension per vertex, in quiver vertex order.
        maps: one Matrix per arrow, in quiver arrow order; the matrix for
            an arrow a: s -> t has shape dims[t] x dims[s].

    Raises:
        InvalidModule: wrong shapes or a violated relation, checked also
            when the algebra's weak table holds an equal module.
    """

    def __new__(cls, algebra: BoundQuiverAlgebra, dims, maps, _skip_check=False):
        dims, maps = tuple(map(int, dims)), tuple(maps)
        quiver = algebra.quiver
        if len(dims) != quiver.n_vertices or len(maps) != len(quiver.arrows):
            raise InvalidModule("dimension vector or map list has wrong length")
        for a, m in zip(quiver.arrows, maps):
            if (m.rows, m.cols) != (dims[a.target], dims[a.source]):
                raise InvalidModule(
                    f"matrix for arrow {a.name} has shape {m.rows}x{m.cols}, "
                    f"expected {dims[a.target]}x{dims[a.source]}"
                )
        key = (dims, tuple([m.entries for m in maps]))
        self = algebra._modules.get(key)
        if self is None:
            self = algebra._modules[key] = object.__new__(cls)
            self.algebra, self.dims, self.maps, self._cache = algebra, dims, maps, {}
        if not _skip_check and not relations_hold(self):
            raise InvalidModule("a relation does not vanish on this representation")
        return self

    @property
    def field(self):
        return self.algebra.field

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    @_kept("path")
    def path_action(self, path: Path) -> Matrix:
        """The matrix of acting by a path, target-space x source-space; kept on the module."""
        if not path.arrows:
            return Matrix.identity(self.field, self.dims[path.source])
        return self.maps[path.arrows[-1]] @ self.path_action(Path(path.source, path.arrows[:-1]))

    def __repr__(self):
        return f"Module(dims={list(self.dims)})"


def relations_hold(x: Module) -> bool:
    """Whether every relation acts on x as zero, by the products of arrow matrices along
    its terms' words; a term whose path passes a vertex where x is zero adds nothing."""
    dims, maps, p = x.dims, x.maps, x.field.p
    for rel in x.algebra.relations:
        total = [0] * (dims[rel.target] * dims[rel.source])
        for c, path in rel.terms if total else ():
            rows = maps[path.arrows[0]].entries
            for i in path.arrows[1:]:
                rows = rows and exactlin._product_rows(p, maps[i].entries, rows, dims[rel.source])
            if rows:
                total = [s + c * e for s, e in zip(total, chain.from_iterable(rows))]
        if any(s % p for s in total):
            return False
    return True


def support_is_connected(x: Module) -> bool:
    """Whether the vertices where x is nonzero are joined by its nonzero arrow matrices.

    When they are not, x is the direct sum of its restrictions to the parts.
    """
    support = [v for v, d in enumerate(x.dims) if d]
    links = [(a.source, a.target) for a, m in zip(x.algebra.quiver.arrows, x.maps) if not m.is_zero()]
    reached, grew = set(support[:1]), True
    while grew:
        grew = False
        for s, t in links:
            if (s in reached) != (t in reached):
                reached |= {s, t}
                grew = True
    return len(reached) == len(support)


class Morphism:
    """A module morphism: one matrix per vertex, intertwining the arrows."""

    def __init__(self, domain: Module, codomain: Module, comps, _skip_check=False):
        self.domain = domain
        self.codomain = codomain
        self.comps: Tuple[Matrix, ...] = tuple(comps)
        if domain.algebra is not codomain.algebra:
            raise InvalidMorphism("domain and codomain lie over different algebras")
        if len(self.comps) != domain.algebra.quiver.n_vertices:
            raise InvalidMorphism("wrong number of vertex components")
        for v, c in enumerate(self.comps):
            if (c.rows, c.cols) != (codomain.dims[v], domain.dims[v]):
                raise InvalidMorphism(f"component at vertex {v} has wrong shape")
        if not _skip_check:
            for i, a in enumerate(domain.algebra.quiver.arrows):
                lhs = self.comps[a.target] @ domain.maps[i]
                rhs = codomain.maps[i] @ self.comps[a.source]
                if lhs != rhs:
                    raise InvalidMorphism(f"component fails to intertwine arrow {a.name}")

    @classmethod
    def zero(cls, domain: Module, codomain: Module) -> "Morphism":
        f = domain.field
        return cls(
            domain,
            codomain,
            [Matrix.zeros(f, codomain.dims[v], domain.dims[v]) for v in range(len(domain.dims))],
            _skip_check=True,
        )

    @staticmethod
    @_kept("identity")
    def identity(module: Module) -> "Morphism":
        """The identity of module, one object per module."""
        comps = [Matrix.identity(module.field, d) for d in module.dims]
        return Morphism(module, module, comps, _skip_check=True)

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Composition self after other.

        The middle modules must be one module, that is, one object;
        anything else raises DimensionMismatch.
        """
        if other.codomain is not self.domain:
            raise DimensionMismatch("composition of non-composable morphisms")
        return Morphism(
            other.domain,
            self.codomain,
            [a @ b for a, b in zip(self.comps, other.comps)],
            _skip_check=True,
        )

    def _entrywise(self, other: "Morphism", op) -> "Morphism":
        """op of two maps between the same modules, in the sense of __matmul__."""
        dom, cod = other.domain, other.codomain
        if self.domain is not dom or self.codomain is not cod:
            raise DimensionMismatch("sum of morphisms between different modules")
        return Morphism(
            self.domain, self.codomain, [op(a, b) for a, b in zip(self.comps, other.comps)],
            _skip_check=True,
        )

    def __add__(self, other: "Morphism") -> "Morphism":
        return self._entrywise(other, Matrix.__add__)

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self._entrywise(other, Matrix.__sub__)

    def __neg__(self) -> "Morphism":
        return Morphism(self.domain, self.codomain, [-a for a in self.comps], _skip_check=True)

    def scale(self, c: int) -> "Morphism":
        return Morphism(
            self.domain, self.codomain, [m.scale(c) for m in self.comps], _skip_check=True
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    def is_mono(self) -> bool:
        return all(exactlin.rank(c) == c.cols for c in self.comps)

    def is_epi(self) -> bool:
        return all(exactlin.rank(c) == c.rows for c in self.comps)

    def is_iso(self) -> bool:
        return all(exactlin.is_invertible(c) for c in self.comps)

    def __eq__(self, other):
        return (
            isinstance(other, Morphism)
            and self.domain is other.domain
            and self.codomain is other.codomain
            and all(a == b for a, b in zip(self.comps, other.comps))
        )

    def __hash__(self):
        return hash(tuple(self.comps))

    def __repr__(self):
        return f"Morphism({self.domain!r} -> {self.codomain!r})"


# -- hom spaces ---------------------------------------------------------


def hom_flat_dim(x: Module, y: Module) -> int:
    return sum(a * b for a, b in zip(x.dims, y.dims))


def hom_vec(f: Morphism) -> List[int]:
    """Flatten a morphism: vertex components row-major, vertex order."""
    return [t for c in f.comps for row in c.entries for t in row]


def morphism_from_vec(x: Module, y: Module, vec, _skip_check=False) -> Morphism:
    """The morphism whose flattening (see hom_vec) is vec, entries taken mod p."""
    field, p = x.field, x.field.p
    vec = tuple([t % p for t in vec])
    comps = []
    at = 0
    for v in range(len(x.dims)):
        r, c = y.dims[v], x.dims[v]
        if r and c:
            rows = tuple([vec[at + i * c : at + (i + 1) * c] for i in range(r)])
            comps.append(Matrix(field, rows, c, _reduced=True))
        else:
            comps.append(Matrix.zeros(field, r, c))
        at += r * c
    return Morphism(x, y, comps, _skip_check=_skip_check)


@_kept("hom")
def _hom_data(x: Module, y: Module) -> Tuple[Tuple[Morphism, ...], Matrix]:
    """Canonical basis of Hom(x, y) and its flat matrix, kept on the domain."""
    if x.algebra is not y.algebra:
        raise DimensionMismatch("Hom between modules over different algebras")
    n = hom_flat_dim(x, y)
    if not n or _hom_is_zero(x, y):
        return (), Matrix.zeros(x.field, n, 0)
    k = _hom_kernel(x, y, n)
    return tuple(morphism_from_vec(x, y, col, _skip_check=True) for col in k.columns()), k


def _hom_is_zero(x: Module, y: Module) -> bool:
    """Whether Hom(x, y) = 0 shows on tops and socles, with no system solved.

    The image of a nonzero map x -> y has a top, a quotient of top x, and
    a socle inside soc y; so y is nonzero at some top vertex of x and x
    at some socle vertex of y.
    """
    return not (any(js and n for js, n in zip(_top_reps(x), y.dims))
                and any(k and n for k, n in zip(_socle_dims(y), x.dims)))


def _hom_kernel(x: Module, y: Module, n: int) -> Matrix:
    """The canonical kernel of the intertwining system of Hom(x, y), n flat unknowns."""
    p = x.field.p
    offsets = []
    at = 0
    for v in range(len(x.dims)):
        offsets.append(at)
        at += y.dims[v] * x.dims[v]
    # f_t @ X_a - Y_a @ f_s = 0 on flattened row-major unknowns, one
    # equation per entry (r, c) of a y_t x x_s matrix
    rows = []
    for i, a in enumerate(x.algebra.quiver.arrows):
        s, t = a.source, a.target
        xa, ya = x.maps[i].entries, y.maps[i].entries
        xt, xs = x.dims[t], x.dims[s]
        for r in range(y.dims[t]):
            for c in range(xs):
                row = [0] * n
                for k in range(xt):
                    row[offsets[t] + r * xt + k] += xa[k][c]
                for k in range(y.dims[s]):
                    row[offsets[s] + k * xs + c] -= ya[r][k]
                if any(row):
                    rows.append(tuple([e % p for e in row]))
    return exactlin.kernel_basis(Matrix(x.field, tuple(rows), n, _reduced=True))


def hom_basis(x: Module, y: Module) -> Tuple[Morphism, ...]:
    """Canonical basis of Hom(x, y), cached on the domain module."""
    return _hom_data(x, y)[0]


def hom_dim(x: Module, y: Module) -> int:
    return len(hom_basis(x, y))


def hom_space_matrix(x: Module, y: Module) -> Matrix:
    """Columns are the flattened canonical hom basis (ambient flat coords)."""
    return _hom_data(x, y)[1]


def hom_composites(a, b) -> Matrix:
    """Matrix of composing with a morphism, from a hom basis to flat coordinates.

    hom_composites(x, g) is Hom(x, g): one column g @ h per element h of
    hom_basis(x, dom g), flattened in Hom(x, cod g).  hom_composites(g, y)
    is Hom(g, y): one column h @ g per element h of hom_basis(cod g, y),
    flattened in Hom(dom g, y).
    """
    pre = isinstance(a, Morphism)
    f = a if pre else b
    x, y = (f.codomain, b) if pre else (a, f.domain)
    x2, y2 = (f.domain, b) if pre else (a, f.codomain)
    p, product = x.field.p, exactlin._product_rows
    columns = []
    for h in hom_basis(x, y):
        factors = zip(h.comps, f.comps) if pre else zip(f.comps, h.comps)
        columns.append([t for left, right in factors
                        for row in product(p, left.entries, right.entries, right.cols) for t in row])
    return Matrix.from_columns(x.field, columns, hom_flat_dim(x2, y2))


def hom_image(x: Module, g: Morphism) -> Matrix:
    """Image of Hom(x, g): Hom(x, dom g) -> Hom(x, cod g), flat coordinates."""
    return exactlin.canonical_basis(hom_composites(x, g))


def hom_coimage(g: Morphism, y: Module) -> Matrix:
    """Image of Hom(g, y): Hom(cod g, y) -> Hom(dom g, y), flat coordinates."""
    return exactlin.canonical_basis(hom_composites(g, y))


def _solve_composite(composites: Matrix, g: Morphism, x: Module, y: Module):
    """The h in Hom(x, y) whose composite column equals g; None if none does."""
    sol = exactlin.solve(composites, Matrix.column(x.field, hom_vec(g)))
    if sol is None:
        return None
    flat = (hom_space_matrix(x, y) @ sol).entries
    return morphism_from_vec(x, y, [row[0] for row in flat], _skip_check=True)


def factor_through(g: Morphism, f: Morphism) -> Optional[Morphism]:
    """Find h with f @ h = g, where g: W -> N and f: M -> N; None if impossible."""
    if g.codomain is not f.codomain:
        raise DimensionMismatch("codomains differ")
    return _solve_composite(hom_composites(g.domain, f), g, g.domain, f.domain)


def cofactor_through(g: Morphism, f: Morphism) -> Optional[Morphism]:
    """Find h with h @ f = g, where g: L -> W and f: L -> M; None if impossible."""
    if g.domain is not f.domain:
        raise DimensionMismatch("domains differ")
    return _solve_composite(hom_composites(f, g.codomain), g, f.codomain, g.codomain)


def corestrict(f: Morphism, incl: Morphism) -> Optional[Morphism]:
    """The h with incl @ h = f, one solve per vertex; None if f leaves the image of the mono incl.

    h is unique, and it intertwines the arrows because incl @ h does.
    """
    comps = [exactlin.solve(i, c) for i, c in zip(incl.comps, f.comps)]
    if any(c is None for c in comps):
        return None
    return Morphism(f.domain, incl.domain, comps, _skip_check=True)


def is_split_epi(g: Morphism) -> bool:
    return factor_through(Morphism.identity(g.codomain), g) is not None


def is_split_mono(f: Morphism) -> bool:
    return cofactor_through(Morphism.identity(f.domain), f) is not None


# -- kernels, images, quotients -----------------------------------------


def kernel(f: Morphism) -> Tuple[Module, Morphism]:
    """Kernel submodule with its inclusion."""
    x = f.domain
    bases = [exactlin.kernel_basis(c) for c in f.comps]
    return _submodule_from_bases(x, bases)


def image(f: Morphism) -> Tuple[Module, Morphism]:
    """Image submodule of the codomain with its inclusion."""
    y = f.codomain
    bases = [exactlin.image_basis(c) for c in f.comps]
    return _submodule_from_bases(y, bases)


def cokernel(f: Morphism) -> Tuple[Module, Morphism]:
    """Cokernel with its projection from the codomain."""
    return _cokernel(f.codomain, f.comps)


def _cokernel(y: Module, images: Sequence[Matrix]) -> Tuple[Module, Morphism]:
    """Cokernel of a map into y given by its vertex components alone: no domain is read."""
    field = y.field
    comps = []
    projs = []
    secs = []
    for v, n in enumerate(y.dims):
        if n:
            c, q = exactlin.quotient(Matrix.identity(field, n), exactlin.image_basis(images[v]))
        else:  # nothing to quotient: no reduction
            c = q = Matrix.zeros(field, 0, 0)
        secs.append(c)
        projs.append(q)
        comps.append(c.cols)
    maps = []
    for i, a in enumerate(y.algebra.quiver.arrows):
        maps.append(projs[a.target] @ y.maps[i] @ secs[a.source])
    coker = Module(y.algebra, comps, maps, _skip_check=True)
    proj = Morphism(y, coker, projs, _skip_check=True)
    return coker, proj


def _submodule_from_bases(x: Module, bases: Sequence[Matrix]) -> Tuple[Module, Morphism]:
    """Wrap arrow-invariant vertex subspaces as a module with inclusion."""
    if not any(b.cols for b in bases):  # all zero, as in the kernel of a mono: no solve
        zero = zero_module(x.algebra)
        return zero, Morphism.zero(zero, x)
    maps = []
    for i, a in enumerate(x.algebra.quiver.arrows):
        rhs = x.maps[i] @ bases[a.source]
        sol = exactlin.solve(bases[a.target], rhs)
        if sol is None:
            raise InvalidSubmodule(
                f"subspaces are not invariant under arrow {a.name}"
            )
        maps.append(sol)
    sub = Module(x.algebra, [b.cols for b in bases], maps, _skip_check=True)
    incl = Morphism(sub, x, bases, _skip_check=True)
    return sub, incl


def submodule(x: Module, spans: Sequence[Matrix]) -> Tuple[Module, Morphism]:
    """The submodule spanned by the given vertex subspaces.

    Raises InvalidSubmodule when the spans are not arrow-invariant.
    """
    bases = [exactlin.canonical_basis(s) for s in spans]
    return _submodule_from_bases(x, bases)


def submodule_generated(x: Module, spans: Sequence[Matrix]) -> Tuple[Module, Morphism]:
    """Close the given vertex subspaces under the arrow action, then wrap."""
    field = x.field
    cur = [exactlin.canonical_basis(s) for s in spans]
    while True:
        changed = False
        for i, a in enumerate(x.algebra.quiver.arrows):
            pushed = x.maps[i] @ cur[a.source]
            if pushed.cols and not exactlin.contains(cur[a.target], pushed):
                cur[a.target] = exactlin.subspace_sum(cur[a.target], pushed)
                changed = True
        if not changed:
            break
    return _submodule_from_bases(x, cur)


# -- construction of the standard modules --------------------------------


def zero_module(algebra: BoundQuiverAlgebra) -> Module:
    n = algebra.quiver.n_vertices
    field = algebra.field
    maps = [
        Matrix.zeros(field, 0, 0) for _ in algebra.quiver.arrows
    ]
    return Module(algebra, [0] * n, maps, _skip_check=True)


def simple(algebra: BoundQuiverAlgebra, v) -> Module:
    quiver = algebra.quiver
    vi = quiver.vertex_index(v) if isinstance(v, str) else v
    dims = [1 if i == vi else 0 for i in range(quiver.n_vertices)]
    field = algebra.field
    maps = [
        Matrix.zeros(field, dims[a.target], dims[a.source]) for a in quiver.arrows
    ]
    return Module(algebra, dims, maps, _skip_check=True)


def projective(algebra: BoundQuiverAlgebra, v) -> Module:
    """The indecomposable projective at v: residue paths starting at v.

    Each arrow acts on the basis paths by the algebra's multiplication
    table.  Built once and kept on the algebra, so every call returns one object.
    """
    return _projective(algebra, algebra.quiver.vertex_index(v) if isinstance(v, str) else v)


@_kept("projective")
def _projective(algebra: BoundQuiverAlgebra, vi: int) -> Module:
    quiver = algebra.quiver
    by_vertex = [algebra.basis_indices_between(vi, w) for w in range(quiver.n_vertices)]
    row_of = {i: k for idx in by_vertex for k, i in enumerate(idx)}
    dims = [len(idx) for idx in by_vertex]
    maps = []
    for ai, a in enumerate(quiver.arrows):
        m = [[0] * dims[a.source] for _ in range(dims[a.target])]
        for k, i in enumerate(by_vertex[a.source]):
            for j, e in algebra._times.get((i, ai), ()):
                m[row_of[j]][k] = e
        maps.append(Matrix(algebra.field, tuple(map(tuple, m)), dims[a.source], _reduced=True))
    return Module(algebra, dims, maps, _skip_check=True)


def regular(algebra: BoundQuiverAlgebra) -> Module:
    """The algebra as a right module over itself: the sum of its projectives."""
    return sum_module([projective(algebra, v) for v in range(algebra.quiver.n_vertices)])


@_kept("dual")
def duality(x: Module) -> Module:
    """The vector-space dual as a module over the opposite algebra.

    Built once and kept on x, which the dual keeps in turn, so D is
    strictly involutive: duality(duality(x)) is x itself.
    """
    dual = Module(x.algebra.opposite(), x.dims, [m.transpose() for m in x.maps], _skip_check=True)
    dual._cache["dual"] = x
    return dual


def duality_morphism(f: Morphism) -> Morphism:
    """D is contravariant: a map X -> Y dualizes to D(Y) -> D(X)."""
    return Morphism(
        duality(f.codomain),
        duality(f.domain),
        [c.transpose() for c in f.comps],
        _skip_check=True,
    )


def sum_module(mods: Sequence[Module], algebra=None) -> Module:
    """The direct sum of mods: block-diagonal arrow matrices, or the one module itself."""
    if not mods and algebra is None:
        raise ValueError("empty direct sum needs an explicit algebra")
    alg = algebra if algebra is not None else mods[0].algebra
    if len(mods) == 1 and mods[0].algebra is alg:
        return mods[0]
    dims = [sum(m.dims[v] for m in mods) for v in range(alg.quiver.n_vertices)]
    maps = [exactlin.block_diag(alg.field, [m.maps[i] for m in mods])
            for i in range(len(alg.quiver.arrows))]
    return Module(alg, dims, maps, _skip_check=True)


def direct_sum(mods: Sequence[Module], algebra=None):
    """Finite direct sum.

    Returns:
        (sum module, inclusions, projections), all in the input order, each a
        `block_map` of one identity block and zero blocks.
    """
    total = sum_module(mods, algebra)
    ident, zero = Morphism.identity, Morphism.zero
    incs = [block_map(m, total, [[ident(m) if k == j else zero(m, z)] for k, z in enumerate(mods)])
            for j, m in enumerate(mods)]
    projs = [block_map(total, m, [[ident(m) if k == j else zero(z, m) for k, z in enumerate(mods)]])
             for j, m in enumerate(mods)]
    return total, incs, projs


def block_map(dom: Module, cod: Module, grid: Sequence[Sequence[Morphism]]) -> Morphism:
    """The map between direct sums dom -> cod whose (k, j) block is grid[k][j].

    grid[k][j] maps the j-th summand of dom to the k-th summand of cod; at
    each vertex the blocks are stacked side by side, then row on row.  A
    1x1 grid whose block already maps dom to cod is that block.
    """
    if len(grid) == 1 == len(grid[0]) and (f := grid[0][0]).domain is dom and f.codomain is cod:
        return f
    comps = []
    for v in range(len(dom.dims)):
        if all(grid):
            rows = [exactlin.hstack([f.comps[v] for f in row]) for row in grid]
            comps.append(exactlin.vstack(rows, field=dom.field, cols=dom.dims[v]))
        else:  # dom is a sum of nothing
            comps.append(Matrix.zeros(dom.field, cod.dims[v], 0))
    return Morphism(dom, cod, comps, _skip_check=True)


# -- tops, covers, envelopes ---------------------------------------------


@_kept("top")
def _top_reps(x: Module) -> Tuple[Tuple[int, ...], ...]:
    """Per vertex, the j with e_j outside the radical plus the earlier e_i; kept on x.

    These are the columns of quotient(I, radical).reps.  e_j lies inside exactly
    when a radical vector ends at j: a pivot of the arrow images read right to left.
    """
    p, into, maps = x.field.p, x.algebra.quiver.arrows_into, x.maps
    out = []
    for v, n in enumerate(x.dims):
        rows = [c[::-1] for i in into[v] for c in zip(*maps[i].entries)] if n else None
        if rows:
            ends = {n - 1 - j for j in exactlin._reduce_rows(p, rows, n)}
            out.append(tuple([j for j in range(n) if j not in ends]))
        else:
            out.append(tuple(range(n)))
    return tuple(out)


@_kept("socle")
def _socle_dims(x: Module) -> Tuple[int, ...]:
    """Per vertex v, dim soc(x)_v: dim x_v minus the rank of the arrows out of v; kept on x.

    Counted here, not read as the top of D x: the zero test asks the socle
    of every fresh kernel, and building D x costs several times the count
    (about 19 against 2.5 us per module on KA_n/rad^2).
    """
    p, out, maps = x.field.p, x.algebra.quiver.arrows_out, x.maps
    per_vertex = []
    for v, n in enumerate(x.dims):
        rows = [r for i in out[v] for r in maps[i].entries] if n else None
        per_vertex.append(n - len(exactlin._reduce_rows(p, rows, n)) if rows else n)
    return tuple(per_vertex)


def projective_cover(x: Module):
    """Minimal projective cover.

    Returns:
        (P, epi, vertices) where P is a direct sum of indecomposable
        projectives, epi: P -> x is the cover, and vertices lists the
        vertex (index) of each summand in order.

    P sums the algebra's projectives P_v, one per top generator e_j at v;
    the epi sends the basis path q: v -> w of that summand to x.q e_j.
    """
    algebra = x.algebra
    gens = [(v, j) for v, reps in enumerate(_top_reps(x)) for j in reps]
    total = sum_module([projective(algebra, v) for v, _ in gens], algebra)
    comps = []
    for w in range(len(x.dims)):
        cols = [[r[j] for r in x.path_action(algebra.path_basis[i]).entries]
                for v, j in gens for i in algebra.basis_indices_between(v, w)]
        comps.append(Matrix(x.field, tuple(zip(*cols)), len(cols), _reduced=True) if cols
                     else Matrix.zeros(x.field, x.dims[w], 0))
    epi = Morphism(total, x, comps, _skip_check=True)
    if not epi.is_epi():
        raise InvalidModule("projective cover failed to be surjective")
    return total, epi, [v for v, _ in gens]


def injective_envelope(x: Module) -> Tuple[Module, Morphism]:
    """Minimal injective envelope: the dual of the projective cover of D(x)."""
    _, epi, _ = projective_cover(duality(x))
    mono = duality_morphism(epi)
    if not mono.is_mono():
        raise InvalidModule("injective envelope failed to be injective")
    return mono.codomain, mono


# -- endomorphism rings: radical, splitting, isomorphism -------------------


def _int_power(rows, k: int, mod: int):
    """Rows of the square matrix rows^k, k >= 1, with entries taken mod `mod`."""
    out, n = None, len(rows)
    while True:
        if k & 1:
            out = rows if out is None else exactlin._product_rows(mod, out, rows, n)
        k >>= 1
        if not k:
            return out
        rows = exactlin._product_rows(mod, rows, rows, n)


def _combine(mats: Sequence[Matrix], vec) -> Matrix:
    """sum_i vec[i] * mats[i], for matrices of one shape."""
    field, rows, cols = mats[0].field, mats[0].rows, mats[0].cols
    acc = [0] * (rows * cols)
    for c, m in zip(vec, mats):
        if c:
            acc = [s + c * t for s, t in zip(acc, chain.from_iterable(m.entries))]
    return Matrix(field, [acc[r * cols : (r + 1) * cols] for r in range(rows)], cols)


def _lifted_trace(x: Module, vec, level: int) -> int:
    """g_level(a) = (Tr(a~^(p^level)) mod p^(level+1)) / p^level, for the endomorphism a
    of x with hom-basis coordinates vec and a~ its vertex matrices lifted to [0, p)."""
    p = x.field.p
    flat = (hom_space_matrix(x, x) @ Matrix.column(x.field, vec)).columns()[0]
    total = 0
    for c in morphism_from_vec(x, x, flat, _skip_check=True).comps:
        if c.rows:
            m = _int_power(c.entries, p**level, p ** (level + 1))
            total += sum(m[k][k] for k in range(c.rows))
    return total % p ** (level + 1) // p**level


@_kept("end")
def _end_algebra(x: Module) -> Tuple[List[Matrix], Matrix]:
    """E = End(x) on the basis b = hom_basis(x, x), kept on x: (mult, rad).

    mult[i] is the matrix of a -> b[i] o a in basis coordinates; rad spans
    J = rad E.  J ends the lifted-trace sequence (Ronyai; Cohen, Ivanyos
    and Wales): I_-1 = E, and I_i holds the a in I_(i-1) with g_i(a o c) = 0
    for all c, g_i as in _lifted_trace.  Each g_i is linear on the ideal
    I_(i-1), and I_l = J for the largest l with p^l <= dim x.  A brick,
    dim E = 1, needs none of it: E = k, its one canonical basis element is
    the identity, and J = 0.
    """
    field, e = x.field, hom_dim(x, x)
    if e == 1:
        return [Matrix.identity(field, 1)], Matrix.zeros(field, 1, 0)
    table = exactlin.solve(
        hom_space_matrix(x, x),
        exactlin.hstack([hom_composites(x, b) for b in hom_basis(x, x)], field, e),
    )
    mult = [Matrix(field, [r[i * e : (i + 1) * e] for r in table.entries], e) for i in range(e)]
    ideal, level = Matrix.identity(field, e), 0
    while ideal.cols and field.p**level <= x.total_dim:
        g = Matrix(field, [[_lifted_trace(x, a, level) for a in ideal.columns()]], ideal.cols)
        products = exactlin.hstack([_combine(mult, a) for a in ideal.columns()])
        values = (g @ exactlin.solve(ideal, products)).entries[0]
        cond = Matrix(field, [values[j::e] for j in range(e)], ideal.cols)
        ideal = ideal @ exactlin.kernel_basis(cond)
        level += 1
    return mult, ideal


def rad_hom_basis(x: Module, y: Module) -> Matrix:
    """Flat-coordinate canonical basis of the radical rad(x, y) of Hom(x, y).

    f: x -> y is radical exactly when f o g lies in J = rad End(y) for
    every g: y -> x (Auslander, Reiten and Smalo), so rad(x, y) is the
    kernel of f -> (f o g mod J) over g in hom_basis(y, x); rad(x, x) is J.
    """
    space, back = hom_space_matrix(x, y), hom_basis(y, x)
    if x is y:
        return exactlin.canonical_basis(space @ _end_algebra(x)[1])
    if not back:  # nothing comes back from y: all of Hom(x, y) is radical
        return exactlin.canonical_basis(space)
    ends = hom_space_matrix(y, y)
    _, mod_j = exactlin.quotient(ends, ends @ _end_algebra(y)[1])
    conds = exactlin.vstack([mod_j @ hom_composites(g, y) for g in back])
    return exactlin.canonical_basis(space @ exactlin.kernel_basis(conds))


def _root(quot: Sequence[Matrix], u: Matrix, one: Matrix) -> int:
    """The least root in F_p of the minimal polynomial of u, which splits over F_p."""
    left, powers, p = _combine(quot, u.columns()[0]), [one], one.field.p
    while (coeffs := exactlin.solve(exactlin.hstack(powers), left @ powers[-1])) is None:
        powers.append(left @ powers[-1])
    poly = [1] + [-row[0] for row in reversed(coeffs.entries)]
    return next(lam for lam in range(p) if not reduce(lambda v, c: (v * lam + c) % p, poly, 0))


def _commutative_zero_divisor(quot, sub: Matrix, one: Matrix) -> Optional[Matrix]:
    """A nonzero non-unit in the commutative subalgebra spanned by sub, or None.

    Frobenius c -> c^p is F_p-linear on it.  Its r-th power (r = dim)
    kills exactly the nilpotents, and its fixed points form F_p^s, s the
    number of simple factors.  With no nilpotents and s >= 2, a fixed
    non-scalar u minus a root of its minimal polynomial is a zero divisor.
    """
    field, r = one.field, sub.cols
    pth = []
    for c in sub.columns():
        left = _combine(quot, c).entries
        pth.append(Matrix(field, _int_power(left, field.p - 1, field.p)) @ Matrix.column(field, c))
    frob = exactlin.solve(sub, exactlin.hstack(pth))
    nil = exactlin.kernel_basis(Matrix(field, _int_power(frob.entries, r, field.p), r))
    if nil.cols:
        return sub @ nil.col(0)
    for u in (sub @ exactlin.kernel_basis(frob - Matrix.identity(field, r))).columns():
        u = Matrix.column(field, u)
        if not exactlin.contains(one, u):
            return u - one.scale(_root(quot, u, one))
    return None


def _zero_divisor(quot: Sequence[Matrix], one: Matrix) -> Optional[Matrix]:
    """A nonzero non-unit of a semisimple algebra B; None when B is a field.

    quot[s] is left multiplication by the s-th basis element.  Zero
    divisors are sought in commutative subalgebras: the centre Z first,
    which has one unless B is simple, and B is a field when Z is one and
    all of B.  For simple B = M_n(F_q), n >= 2, they are sought in Z[a]
    for a a basis element, then a product or a sum of two.
    """
    field, m = one.field, one.rows
    centre = exactlin.kernel_basis(
        exactlin.vstack(
            [exactlin.hstack([quot[t].col(s) - quot[s].col(t) for t in range(m)]) for s in range(m)]
        )
    )
    z = _commutative_zero_divisor(quot, centre, one)
    if z is not None or centre.cols == m:
        return z
    units = Matrix.identity(field, m).columns()
    products = (col for q in quot for col in q.columns())
    sums = (tuple(map(add, a, b)) for i, a in enumerate(units) for b in units[i + 1 :])
    for a in chain(units, products, sums):
        gens = exactlin.hstack([centre, Matrix.column(field, a)])
        span, grown = None, exactlin.canonical_basis(gens)
        while span is None or grown.cols > span.cols:  # close up to the subalgebra Z[a]
            span = grown
            grown = exactlin.subspace_sum(
                span, exactlin.hstack([_combine(quot, g) @ span for g in gens.columns()])
            )
        z = _commutative_zero_divisor(quot, span, one)
        if z is not None:
            return z
    raise VerificationFailed("no zero divisor found in End/rad of a repeated summand")


def nontrivial_idempotent(x: Module, cap=None) -> Optional[Morphism]:
    """An idempotent endomorphism of x other than 0 and 1; None if there is none.

    A hom-basis element that is one already is taken first.  Otherwise x
    is indecomposable exactly when B = End(x)/J is a field; if it is not,
    a zero divisor z of B gives the right identity of the left ideal Bz,
    an idempotent of B, which e -> 3e^2 - 2e^3 lifts over J.  Its one
    library caller is `split_summands`, which keeps the split on x and
    asks only when the top and the socle of x both have dimension at
    least 2; on any x it is the End-route answer that tests compare.  cap,
    when given, bounds the dim End(x)^2 structure constants the call may
    compute.  The library never passes it; the tracer test of `perfbench`
    does, to provoke a refusal.
    """
    basis = hom_basis(x, x)
    if cap is not None and len(basis) ** 2 > cap:
        needed = f"{len(basis) ** 2} End structure constants"
        raise CapExceeded.over("nontrivial_idempotent", x.dims, needed, cap, "cap")
    field, ident = x.field, Morphism.identity(x)
    e = next((b for b in basis if b != ident and b @ b == b), None)
    z = None
    if e is None and len(basis) > 1:
        mult, rad = _end_algebra(x)
        reps, proj = exactlin.quotient(Matrix.identity(field, len(basis)), rad)
        space = hom_space_matrix(x, x)
        if reps.cols > 1:  # End(x)/J = k has no zero divisor
            quot = [proj @ _combine(mult, r) @ reps for r in reps.columns()]
            z = _zero_divisor(quot, proj @ exactlin.solve(space, Matrix.column(field, hom_vec(ident))))
    if z is not None:
        ideal = exactlin.canonical_basis(exactlin.hstack([q @ z for q in quot]))
        cols = ideal.columns()
        ebar = exactlin.solve(
            exactlin.vstack([_combine(quot, c) @ ideal for c in cols]),
            Matrix.column(field, [t for c in cols for t in c]),
        )
        lift = space @ reps @ ideal @ ebar
        e = morphism_from_vec(x, x, [r[0] for r in lift.entries], _skip_check=True)
        while e @ e != e:
            sq = e @ e
            e = sq.scale(3) - (sq @ e).scale(2)
    return e


def is_indecomposable(x: Module) -> bool:
    return len(split_summands(x)) == 1


def _simple_top_or_socle(x: Module) -> bool:
    """Whether the top or the socle of x has dimension 1, read off the kept top and socle.

    A simple top gives x a unique maximal submodule, and a simple socle a
    unique minimal one, so either makes x indecomposable (Auslander, Reiten
    and Smalo).  The converse fails: this certifies, it does not decide.
    """
    return sum(map(len, _top_reps(x))) == 1 or sum(_socle_dims(x)) == 1


@_kept("split")
def split_summands(x: Module) -> Tuple[Tuple[Module, Morphism], ...]:
    """The indecomposable summands of x, each with its inclusion, split once and kept on x.

    Glued, the inclusions are an isomorphism onto x.  A module with a
    simple top or socle is indecomposable with no End(x) solved
    (`_simple_top_or_socle`).  Otherwise a nontrivial idempotent e splits x
    into Im e + Ker e, and each piece is split in turn.
    """
    if x.is_zero():
        return ()
    if _simple_top_or_socle(x) or (e := nontrivial_idempotent(x)) is None:
        return ((x, Morphism.identity(x)),)
    return tuple((z, inc @ inc_z) for piece, inc in (image(e), kernel(e))
                 for z, inc_z in split_summands(piece))


def decompose(x: Module) -> List[Tuple[Module, int]]:
    """Indecomposable summands grouped into (representative, multiplicity)."""
    reps, label = iso_classes([z for z, _ in split_summands(x)])
    return [(rep, label.count(c)) for c, rep in enumerate(reps)]


def iso_classes(
    mods: Sequence[Module], reps: Sequence[Module] = ()
) -> Tuple[List[Module], List[int]]:
    """Sort indecomposables into isomorphism classes.

    Returns (reps, label): reps holds the first member of each class in
    order of first appearance, and mods[j] lies in the class of
    reps[label[j]].  A module object met again is not compared again.
    Given reps, pairwise non-isomorphic indecomposables, the classes start
    from them, and they are not compared with each other.  m joins the
    class of r when their dimension vectors agree and `summand_map(r, m)`
    finds an invertible map in hom_basis(r, m): one hom system per pair,
    and a match is sound even when m decomposes.
    """
    reps = list(reps)
    label: List[int] = []
    seen: Dict[Module, int] = {r: c for c, r in enumerate(reps)}
    for m in mods:
        c = seen.get(m)
        if c is None:
            isos = (c for c, r in enumerate(reps)
                    if r.dims == m.dims and summand_map(r, m) is not None)
            c = seen[m] = next(isos, len(reps))
            if c == len(reps):
                reps.append(m)
        label.append(c)
    return reps, label


def summand_map(x: Module, y: Module) -> Optional[Morphism]:
    """A split mono x -> y, or None, which for an indecomposable x means x is no summand of y.

    End(x) is local (Auslander, Reiten and Smalo), so its non-units form a
    proper subspace and no basis lies inside it.  Of equal dimension
    vectors, x is isomorphic to y exactly when some f in hom_basis(x, y) is
    invertible: for an isomorphism h, Hom(x, y) = h o End(x) and its
    non-isomorphisms are h o rad End(x).  The first such f is returned, and
    Hom(y, x) is never solved.  Otherwise, if x is a summand, the
    composites g o f, f in hom_basis(x, y) and g in hom_basis(y, x), span
    End(x), so one is invertible; and an invertible g o f splits f, which
    is returned.
    """
    if x.dims == y.dims:
        return next((f for f in hom_basis(x, y) if f.is_iso()), None)
    if any(a > b for a, b in zip(x.dims, y.dims)):
        return None
    maps = hom_basis(x, y)
    back = hom_basis(y, x) if maps else ()
    return next((f for g in back for f in maps if (g @ f).is_iso()), None)


def are_isomorphic(x: Module, y: Module) -> bool:
    """Krull-Schmidt: whether the summands of x and y fill the same classes, as often each.

    One `iso_classes` call over the summands of both; no isomorphism is built.
    """
    if x.dims != y.dims:
        return False
    xs = [z for z, _ in split_summands(x)]
    _, label = iso_classes(xs + [z for z, _ in split_summands(y)])
    return sorted(label[: len(xs)]) == sorted(label[len(xs) :])


def is_radical_morphism(f: Morphism) -> bool:
    """Whether f lies in the radical rad(dom f, cod f)."""
    vec = Matrix.column(f.domain.field, hom_vec(f))
    return exactlin.contains(rad_hom_basis(f.domain, f.codomain), vec)
