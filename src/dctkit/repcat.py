"""Finite-dimensional right modules over a bound quiver algebra.

A module is a representation of the quiver: one F_p-space per vertex and
one matrix per arrow, mapping the source space to the target space, with
every relation evaluating to zero.  Morphisms are tuples of vertex
matrices intertwining the arrow actions.

Hom spaces are computed exactly as kernels of the intertwining system and
always come back in the same canonical order, so everything downstream
(approximations, resolutions, splittings) is deterministic.

Indecomposability, splitting and isomorphism are linear algebra on
E = End(x) over its hom basis: the radical J = rad E by lifted traces,
then a zero divisor of the semisimple E/J, whose left ideal yields an
idempotent that is lifted over J.  x is indecomposable exactly when E/J
is a field, and indecomposables x, y are isomorphic exactly when some
composite of hom-basis maps x -> y -> x lies outside J.  The radical
rad(x, y) of the module category is read off J of y alone.  Nothing here
enumerates a space over F_p.
"""

from __future__ import annotations

from functools import reduce
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


class Module:
    """A right module, given by vertex dimensions and arrow matrices.

    Args:
        algebra: the bound quiver algebra acted by.
        dims: one dimension per vertex, in quiver vertex order.
        maps: one Matrix per arrow, in quiver arrow order; the matrix for
            an arrow a: s -> t has shape dims[t] x dims[s].

    Raises:
        InvalidModule: wrong shapes or a violated relation.
    """

    def __init__(self, algebra: BoundQuiverAlgebra, dims, maps, _skip_check=False):
        self.algebra = algebra
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        self.maps: Tuple[Matrix, ...] = tuple(maps)
        quiver = algebra.quiver
        if len(self.dims) != quiver.n_vertices or len(self.maps) != len(quiver.arrows):
            raise InvalidModule("dimension vector or map list has wrong length")
        for a, m in zip(quiver.arrows, self.maps):
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise InvalidModule(
                    f"matrix for arrow {a.name} has shape {m.rows}x{m.cols}, "
                    f"expected {self.dims[a.target]}x{self.dims[a.source]}"
                )
        if not _skip_check and not relations_hold(algebra, self.dims, self.maps):
            raise InvalidModule("a relation does not vanish on this representation")
        self._cache: Dict = {}

    @property
    def field(self):
        return self.algebra.field

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_action(self, path: Path) -> Matrix:
        """The matrix of acting by a path, target-space x source-space."""
        m = Matrix.identity(self.field, self.dims[path.source])
        for a in path.arrows:
            m = self.maps[a] @ m
        return m

    def __repr__(self):
        return f"Module(dims={list(self.dims)})"


def relations_hold(algebra: BoundQuiverAlgebra, dims, maps) -> bool:
    dims = tuple(dims)
    for rel in algebra.relations:
        total = Matrix.zeros(algebra.field, dims[rel.target], dims[rel.source])
        for coeff, path in rel.terms:
            m = Matrix.identity(algebra.field, dims[path.source])
            for a in path.arrows:
                m = maps[a] @ m
            total = total + m.scale(coeff)
        if not total.is_zero():
            return False
    return True


def _same_module(a: Module, b: Module) -> bool:
    """One object, or equal dimensions and arrow matrices."""
    return a is b or (a.dims == b.dims and a.maps == b.maps)


class Morphism:
    """A module morphism: one matrix per vertex, intertwining the arrows."""

    def __init__(self, domain: Module, codomain: Module, comps, _skip_check=False):
        self.domain = domain
        self.codomain = codomain
        self.comps: Tuple[Matrix, ...] = tuple(comps)
        if len(self.comps) != domain.algebra.quiver.n_vertices:
            raise InvalidMorphism("wrong number of vertex components")
        for v, c in enumerate(self.comps):
            if (c.rows, c.cols) != (codomain.dims[v], domain.dims[v]):
                raise InvalidMorphism(f"component at vertex {v} has wrong shape")
        if not _skip_check:
            for a in domain.algebra.quiver.arrows:
                i = domain.algebra.quiver.arrow_index(a.name)
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

    @classmethod
    def identity(cls, module: Module) -> "Morphism":
        return cls(
            module,
            module,
            [Matrix.identity(module.field, d) for d in module.dims],
            _skip_check=True,
        )

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Composition self after other.

        The middle modules must be one object, or agree in dimensions and
        arrow matrices; anything else raises DimensionMismatch.
        """
        if not _same_module(other.codomain, self.domain):
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
        if not (_same_module(self.domain, dom) and _same_module(self.codomain, cod)):
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

    def inverse(self) -> "Morphism":
        comps = []
        for c in self.comps:
            inv = exactlin.inverse(c)
            if inv is None:
                raise InvalidMorphism("morphism is not invertible")
            comps.append(inv)
        return Morphism(self.codomain, self.domain, comps, _skip_check=True)

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
    p = x.field.p
    vec = tuple([t % p for t in vec])
    comps = []
    at = 0
    for v in range(len(x.dims)):
        r, c = y.dims[v], x.dims[v]
        rows = tuple([vec[at + i * c : at + (i + 1) * c] for i in range(r)])
        comps.append(Matrix(x.field, rows, c, _reduced=True))
        at += r * c
    return Morphism(x, y, comps, _skip_check=_skip_check)


def _hom_data(x: Module, y: Module) -> Tuple[Tuple[Morphism, ...], Matrix]:
    """Canonical basis of Hom(x, y) and its flat matrix, cached on the domain."""
    key = ("hom", id(y))
    cached = x._cache.get(key)
    if cached is not None and cached[0] is y:
        return cached[1:]
    field = x.field
    p = field.p
    n = hom_flat_dim(x, y)
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
    k = exactlin.kernel_basis(Matrix(field, tuple(rows), n, _reduced=True))
    basis = tuple(morphism_from_vec(x, y, col, _skip_check=True) for col in k.columns())
    x._cache[key] = (y, basis, k)
    return basis, k


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
    columns = []
    for h in hom_basis(x, y):
        parts = [hv @ c if pre else c @ hv for hv, c in zip(h.comps, f.comps)]
        columns.append([t for m in parts for row in m.entries for t in row])
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
    if g.codomain is not f.codomain and g.codomain.dims != f.codomain.dims:
        raise DimensionMismatch("codomains differ")
    return _solve_composite(hom_composites(g.domain, f), g, g.domain, f.domain)


def cofactor_through(g: Morphism, f: Morphism) -> Optional[Morphism]:
    """Find h with h @ f = g, where g: L -> W and f: L -> M; None if impossible."""
    if g.domain is not f.domain and g.domain.dims != f.domain.dims:
        raise DimensionMismatch("domains differ")
    return _solve_composite(hom_composites(f, g.codomain), g, f.codomain, g.codomain)


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
    y = f.codomain
    field = y.field
    comps = []
    projs = []
    secs = []
    for v in range(len(y.dims)):
        full = Matrix.identity(field, y.dims[v])
        c, q = exactlin.quotient(full, exactlin.image_basis(f.comps[v]))
        secs.append(c)
        projs.append(q)
        comps.append(c.cols)
    maps = []
    for a in y.algebra.quiver.arrows:
        i = y.algebra.quiver.arrow_index(a.name)
        maps.append(projs[a.target] @ y.maps[i] @ secs[a.source])
    coker = Module(y.algebra, comps, maps, _skip_check=True)
    proj = Morphism(y, coker, projs, _skip_check=True)
    return coker, proj


def _submodule_from_bases(x: Module, bases: Sequence[Matrix]) -> Tuple[Module, Morphism]:
    """Wrap arrow-invariant vertex subspaces as a module with inclusion."""
    maps = []
    for a in x.algebra.quiver.arrows:
        i = x.algebra.quiver.arrow_index(a.name)
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
        for a in x.algebra.quiver.arrows:
            i = x.algebra.quiver.arrow_index(a.name)
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
    """The indecomposable projective at v: residue paths starting at v."""
    quiver = algebra.quiver
    vi = quiver.vertex_index(v) if isinstance(v, str) else v
    idx = algebra.basis_indices_from(vi)
    by_vertex: List[List[int]] = [[] for _ in range(quiver.n_vertices)]
    for i in idx:
        by_vertex[algebra.basis_target(i)].append(i)
    pos = {i: (w, k) for w in range(quiver.n_vertices) for k, i in enumerate(by_vertex[w])}
    dims = [len(b) for b in by_vertex]
    field = algebra.field
    maps = []
    for a in quiver.arrows:
        m = [[0] * dims[a.source] for _ in range(dims[a.target])]
        for k, i in enumerate(by_vertex[a.source]):
            path = algebra.path_basis[i]
            word = path.arrows + (quiver.arrow_index(a.name),)
            if len(word) >= algebra.bound:
                continue
            vec = algebra._nf[Path(path.source, word)]
            for j, e in enumerate(vec):
                if e:
                    w, row = pos[j]
                    if w != a.target:
                        raise InvalidModule("normal form does not preserve path targets")
                    m[row][k] = e
        maps.append(Matrix(field, m, dims[a.source]))
    return Module(algebra, dims, maps, _skip_check=True)


def injective(algebra: BoundQuiverAlgebra, v) -> Module:
    """The indecomposable injective at v, dual of the opposite projective."""
    return duality(projective(algebra.opposite(), v))


def regular(algebra: BoundQuiverAlgebra):
    """The algebra as a right module over itself, with its projective summands."""
    return direct_sum(
        [projective(algebra, v) for v in range(algebra.quiver.n_vertices)]
    )


def duality(x: Module) -> Module:
    """The vector-space dual as a module over the opposite algebra.

    Built once and kept on x, which the dual keeps in turn, so D is
    strictly involutive: duality(duality(x)) is x itself.
    """
    dual = x._cache.get("dual")
    if dual is None:
        maps = [m.transpose() for m in x.maps]
        dual = Module(x.algebra.opposite(), x.dims, maps, _skip_check=True)
        dual._cache["dual"] = x
        x._cache["dual"] = dual
    return dual


def duality_morphism(f: Morphism) -> Morphism:
    """D is contravariant: a map X -> Y dualizes to D(Y) -> D(X)."""
    return Morphism(
        duality(f.codomain),
        duality(f.domain),
        [c.transpose() for c in f.comps],
        _skip_check=True,
    )


def direct_sum(mods: Sequence[Module], algebra=None):
    """Finite direct sum.

    Returns:
        (sum module, inclusions, projections), all in the input order.
    """
    if not mods and algebra is None:
        raise ValueError("empty direct sum needs an explicit algebra")
    alg = algebra if algebra is not None else mods[0].algebra
    field = alg.field
    quiver = alg.quiver
    dims = [sum(m.dims[v] for m in mods) for v in range(quiver.n_vertices)]
    maps = []
    for a in quiver.arrows:
        i = quiver.arrow_index(a.name)
        maps.append(exactlin.block_diag(field, [m.maps[i] for m in mods]))
    total = Module(alg, dims, maps, _skip_check=True)
    incs, projs = [], []
    offsets = [0] * quiver.n_vertices
    for m in mods:
        inc_comps, proj_comps = [], []
        for v in range(quiver.n_vertices):
            o, d = offsets[v], m.dims[v]
            inc = tuple([tuple([int(r == o + k) for k in range(d)]) for r in range(dims[v])])
            inc_comps.append(Matrix(field, inc, d, _reduced=True))
            proj_comps.append(inc_comps[-1].transpose())
        incs.append(Morphism(m, total, inc_comps, _skip_check=True))
        projs.append(Morphism(total, m, proj_comps, _skip_check=True))
        for v in range(quiver.n_vertices):
            offsets[v] += m.dims[v]
    return total, incs, projs


def glue_columns(cod: Module, summands: Sequence[Module], pieces: Sequence[Morphism]):
    """Assemble (sum of summands) -> cod from one morphism per summand."""
    total, incs, projs = direct_sum(list(summands), algebra=cod.algebra)
    out = Morphism.zero(total, cod)
    for piece, proj in zip(pieces, projs):
        out = out + (piece @ proj)
    return total, out, incs, projs


def glue_rows(dom: Module, summands: Sequence[Module], pieces: Sequence[Morphism]):
    """Assemble dom -> (sum of summands) from one morphism per summand."""
    total, incs, projs = direct_sum(list(summands), algebra=dom.algebra)
    out = Morphism.zero(dom, total)
    for piece, inc in zip(pieces, incs):
        out = out + (inc @ piece)
    return total, out, incs, projs


# -- radical series, covers, envelopes -----------------------------------


def _radical_spans(x: Module) -> List[Matrix]:
    """Per vertex, the canonical basis of the span of all incoming arrow images."""
    arrows = x.algebra.quiver.arrows
    return [
        exactlin.canonical_basis(
            exactlin.hstack(
                [x.maps[i] for i, a in enumerate(arrows) if a.target == v],
                field=x.field,
                rows=x.dims[v],
            )
        )
        for v in range(len(x.dims))
    ]


def radical(x: Module) -> Tuple[Module, Morphism]:
    """The radical x . rad(algebra): span of all arrow images."""
    return _submodule_from_bases(x, _radical_spans(x))


def _top_data(x: Module):
    """Vertexwise complements of the radical with their projections."""
    reps, projs = [], []
    for v, span in enumerate(_radical_spans(x)):
        c, q = exactlin.quotient(Matrix.identity(x.field, x.dims[v]), span)
        reps.append(c)
        projs.append(q)
    return reps, projs


def top(x: Module) -> Tuple[Module, Morphism]:
    """The largest semisimple quotient, with the projection onto it."""
    reps, projs = _top_data(x)
    field = x.field
    quiver = x.algebra.quiver
    dims = [c.cols for c in reps]
    maps = []
    for a in quiver.arrows:
        maps.append(Matrix.zeros(field, dims[a.target], dims[a.source]))
    t = Module(x.algebra, dims, maps, _skip_check=True)
    proj = Morphism(x, t, projs, _skip_check=True)
    # arrows land in the radical, so the projection really is a morphism
    for a in quiver.arrows:
        i = quiver.arrow_index(a.name)
        if not (projs[a.target] @ x.maps[i]).is_zero():
            raise InvalidModule("radical complement leaked through an arrow")
    return t, proj


def socle(x: Module) -> Tuple[Module, Morphism]:
    """The largest semisimple submodule: joint kernels of outgoing arrows."""
    field = x.field
    quiver = x.algebra.quiver
    spans = []
    for v in range(quiver.n_vertices):
        pieces = [
            x.maps[quiver.arrow_index(a.name)]
            for a in quiver.arrows
            if a.source == v
        ]
        stacked = exactlin.vstack(pieces, field=field, cols=x.dims[v])
        spans.append(exactlin.kernel_basis(stacked))
    return _submodule_from_bases(x, spans)


def projective_cover(x: Module):
    """Minimal projective cover.

    Returns:
        (P, epi, vertices) where P is a direct sum of indecomposable
        projectives, epi: P -> x is the cover, and vertices lists the
        vertex (index) of each summand in order.
    """
    return _projective_cover(x)[:3]


def _projective_cover(x: Module):
    """projective_cover, plus the inclusions and projections of its summands."""
    reps, _ = _top_data(x)
    quiver = x.algebra.quiver
    summand_vertices = []
    summands = []
    pieces = []
    for v in range(quiver.n_vertices):
        for k in range(reps[v].cols):
            gen = reps[v].col(k)
            pv = projective(x.algebra, v)
            comps = []
            for w in range(quiver.n_vertices):
                cols = []
                for i in x.algebra.basis_indices_between(v, w):
                    path = x.algebra.path_basis[i]
                    cols.append(x.path_action(path) @ gen)
                comps.append(
                    exactlin.hstack(cols, field=x.field, rows=x.dims[w])
                )
            summands.append(pv)
            summand_vertices.append(v)
            pieces.append(Morphism(pv, x, comps, _skip_check=True))
    total, epi, incs, projs = glue_columns(x, summands, pieces)
    if not epi.is_epi():
        raise InvalidModule("projective cover failed to be surjective")
    return total, epi, summand_vertices, incs, projs


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


def _end_algebra(x: Module) -> Tuple[List[Matrix], Matrix]:
    """E = End(x) on the basis b = hom_basis(x, x), kept on x: (mult, rad).

    mult[i] is the matrix of a -> b[i] o a in basis coordinates; rad spans
    J = rad E.  J ends the lifted-trace sequence (Ronyai; Cohen, Ivanyos
    and Wales): I_-1 = E, and I_i holds the a in I_(i-1) with g_i(a o c) = 0
    for all c, g_i as in _lifted_trace.  Each g_i is linear on the ideal
    I_(i-1), and I_l = J for the largest l with p^l <= dim x.
    """
    if "end" not in x._cache:
        field, e = x.field, hom_dim(x, x)
        table = exactlin.solve(
            hom_space_matrix(x, x),
            exactlin.hstack([hom_composites(x, b) for b in hom_basis(x, x)], field, e),
        )
        mult = [Matrix(field, [r[i * e : (i + 1) * e] for r in table.entries], e) for i in range(e)]
        # End(x) = k has no radical
        ideal, level = (Matrix.identity(field, e) if e > 1 else Matrix.zeros(field, e, 0)), 0
        while ideal.cols and field.p**level <= x.total_dim:
            g = Matrix(field, [[_lifted_trace(x, a, level) for a in ideal.columns()]], ideal.cols)
            products = exactlin.hstack([_combine(mult, a) for a in ideal.columns()])
            values = (g @ exactlin.solve(ideal, products)).entries[0]
            cond = Matrix(field, [values[j::e] for j in range(e)], ideal.cols)
            ideal = ideal @ exactlin.kernel_basis(cond)
            level += 1
        x._cache["end"] = (mult, ideal)
    return x._cache["end"]


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
    an idempotent of B, which e -> 3e^2 - 2e^3 lifts over J.  The answer is
    kept on x.  cap, when given, bounds the dim End(x)^2 structure
    constants the call may compute.
    """
    basis = hom_basis(x, x)
    if cap is not None and len(basis) ** 2 > cap:
        needed = f"{len(basis) ** 2} End structure constants"
        raise CapExceeded.over("nontrivial_idempotent", x.dims, needed, cap, "cap")
    if "idempotent" not in x._cache:
        x._cache["idempotent"] = _find_idempotent(x, basis)
    return x._cache["idempotent"]


def _find_idempotent(x: Module, basis) -> Optional[Morphism]:
    ident = Morphism.identity(x)
    for b in basis:
        if b != ident and b @ b == b and not b.is_zero():
            return b
    if len(basis) < 2:
        return None
    field = x.field
    mult, rad = _end_algebra(x)
    reps, proj = exactlin.quotient(Matrix.identity(field, len(basis)), rad)
    if reps.cols == 1:  # End(x)/J = k
        return None
    quot = [proj @ _combine(mult, r) @ reps for r in reps.columns()]
    space = hom_space_matrix(x, x)
    z = _zero_divisor(quot, proj @ exactlin.solve(space, Matrix.column(field, hom_vec(ident))))
    if z is None:
        return None
    ideal = exactlin.canonical_basis(exactlin.hstack([q @ z for q in quot]))
    cols = ideal.columns()
    ebar = exactlin.solve(
        exactlin.vstack([_combine(quot, c) @ ideal for c in cols]),
        Matrix.column(field, [t for c in cols for t in c]),
    )
    lift = space @ reps @ ideal @ ebar
    f = morphism_from_vec(x, x, [r[0] for r in lift.entries], _skip_check=True)
    while f @ f != f:
        sq = f @ f
        f = sq.scale(3) - (sq @ f).scale(2)
    return f


def is_indecomposable(x: Module) -> bool:
    if x.is_zero():
        return False
    return nontrivial_idempotent(x) is None


def split_summands(x: Module) -> List[Tuple[Module, Morphism, Morphism]]:
    """Split into indecomposable summands.

    Returns:
        list of (summand, inclusion, projection) with sum(inc @ proj) = id.
    """
    if x.is_zero():
        return []
    e = nontrivial_idempotent(x)
    if e is None:
        return [(x, Morphism.identity(x), Morphism.identity(x))]
    a, inc_a = image(e)
    b, inc_b = kernel(e)
    total, theta, _, projs = glue_columns(x, [a, b], [inc_a, inc_b])
    theta_inv = theta.inverse()
    out = []
    for piece, proj in ((a, projs[0]), (b, projs[1])):
        back = proj @ theta_inv
        for z, inc_z, proj_z in split_summands(piece):
            out.append((z, (inc_a if piece is a else inc_b) @ inc_z, proj_z @ back))
    return out


def decompose(x: Module) -> List[Tuple[Module, int]]:
    """Indecomposable summands grouped into (representative, multiplicity)."""
    reps, label = iso_classes([z for z, _, _ in split_summands(x)])
    return [(rep, label.count(c)) for c, rep in enumerate(reps)]


def iso_classes(mods: Sequence[Module]) -> Tuple[List[Module], List[int]]:
    """Sort indecomposables into isomorphism classes.

    Returns (reps, label): reps holds the first member of each class in
    order of first appearance, and mods[j] lies in the class of
    reps[label[j]].  A module object met again is not compared again.
    """
    reps: List[Module] = []
    label: List[int] = []
    seen: Dict[int, int] = {}
    for m in mods:
        c = seen.get(id(m))
        if c is None:
            isos = (c for c, r in enumerate(reps) if _iso_between_indecomposables(r, m) is not None)
            c = seen[id(m)] = next(isos, len(reps))
            if c == len(reps):
                reps.append(m)
        label.append(c)
    return reps, label


def _iso_between_indecomposables(x: Module, y: Module) -> Optional[Morphism]:
    """An isomorphism between indecomposables x and y, or None.

    x and y are isomorphic exactly when some g o f, f in hom_basis(x, y)
    and g in hom_basis(y, x), lies outside rad End(x); that f is one.
    """
    maps = hom_basis(x, y) if x.dims == y.dims else ()
    if not maps:
        return None
    rad = hom_space_matrix(x, x) @ _end_algebra(x)[1]
    for g in hom_basis(y, x):
        for f, col in zip(maps, hom_composites(x, g).columns()):
            if not exactlin.contains(rad, Matrix.column(x.field, col)):
                return f
    return None


def find_isomorphism(x: Module, y: Module) -> Optional[Morphism]:
    """An isomorphism x -> y glued from isomorphisms between summands; None if none."""
    if x.dims != y.dims:
        return None
    if x.is_zero():
        return Morphism.zero(x, y)
    if hom_dim(x, x) != hom_dim(y, y) or not hom_dim(x, y) or hom_dim(x, y) != hom_dim(y, x):
        return None
    targets = split_summands(y)
    out = Morphism.zero(x, y)
    for z, _, proj in split_summands(x):
        for k, (w, inc, _) in enumerate(targets):
            f = _iso_between_indecomposables(z, w)
            if f is not None:
                out = out + inc @ f @ proj
                del targets[k]
                break
        else:
            return None
    return out


def are_isomorphic(x: Module, y: Module) -> bool:
    return find_isomorphism(x, y) is not None


def is_radical_morphism(f: Morphism) -> bool:
    """Whether f lies in the radical rad(dom f, cod f)."""
    vec = Matrix.column(f.domain.field, hom_vec(f))
    return exactlin.contains(rad_hom_basis(f.domain, f.codomain), vec)
