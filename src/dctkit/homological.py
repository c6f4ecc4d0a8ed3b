"""Resolutions, Ext and Tor spaces, the transpose, and higher translates.

Everything is computed from minimal projective resolutions, built step by
step from projective covers, cached on the module, and stopped at their
first zero term.  Each differential is read once as a table of algebra
elements.  Hom out of a projective needs no hom basis: by Yoneda a map
P_v -> y is its value at e_v, so Hom(P_v, y) is y e_v, and Ext is cocycles
modulo coboundaries in those coordinates.  The transpose Tr x is the
cokernel of Hom(d_1, A), the same matrix in the Yoneda coordinates of Ext
read at every projective P_w of A at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import config, exactlin, repcat
from .algebra import BoundQuiverAlgebra
from .errors import CapExceeded, DimensionMismatch
from .exactlin import Matrix
from .repcat import Module, Morphism


class ProjResolution:
    """A minimal projective resolution, extended lazily to its first zero term.

    Index 0 is the cover of the module itself; `differential(i)` is the
    map from step i to step i-1 for i >= 1.  Once a kernel is zero the
    lists stop growing: every later term is that zero module, with zero maps.
    """

    def __init__(self, x: Module):
        self.module = x
        p0, aug, verts = repcat.projective_cover(x)
        self.augmentation = aug
        self._projs: List[Module] = [p0]
        self._verts: List[List[int]] = [verts]
        self._diffs: List[Optional[Morphism]] = [None]
        self._kernels: List[Tuple[Module, Morphism]] = [repcat.kernel(aug)]
        self._elements: dict = {}

    def extend_to(self, n: int) -> None:
        while len(self._projs) <= n and not self._projs[-1].is_zero():
            k, incl = self._kernels[-1]
            if k.is_zero():  # the first zero term itself: it needs no cover
                p, epi, verts = k, Morphism.identity(k), []
            else:
                p, epi, verts = repcat.projective_cover(k)
            self._projs.append(p)
            self._verts.append(verts)
            self._diffs.append(incl @ epi)
            self._kernels.append(repcat.kernel(epi))

    def _step(self, i: int) -> int:
        """Where step i is stored: past the first zero term, at that term."""
        self.extend_to(i)
        return min(i, len(self._projs) - 1)

    def projective(self, i: int) -> Module:
        return self._projs[self._step(i)]

    def vertices(self, i: int) -> List[int]:
        return self._verts[self._step(i)]

    def differential(self, i: int) -> Morphism:
        if i < 1:
            raise ValueError("differentials start at index 1")
        if self._step(i) < i:
            return Morphism.zero(self._projs[-1], self._projs[-1])
        return self._diffs[i]

    def elements(self, i: int) -> List[List[Tuple[int, ...]]]:
        """The differential d_i as a table of algebra elements (i >= 1).

        Entry (k, j) holds the algebra coordinates of the image of the
        trivial path e_u, u the k-th vertex of step i, in the j-th summand
        P_v of step i - 1: a combination of the paths from v to u, read
        off the trivial-path column.  Cached; empty once step i is zero.
        """
        if self._step(i) < i:
            return []
        table = self._elements.get(i)
        if table is None:
            algebra = self.module.algebra
            between = algebra.basis_indices_between
            us, vs, d = self._verts[i], self._verts[i - 1], self._diffs[i]
            table = []
            for k, u in enumerate(us):
                col = sum(len(between(w, u)) for w in us[:k])
                column = [row[col] for row in d.comps[u].entries]
                line, at = [], 0
                for v in vs:
                    vec = [0] * algebra.dim
                    for q in between(v, u):
                        vec[q] = column[at]
                        at += 1
                    line.append(tuple(vec))
                table.append(line)
            self._elements[i] = table
        return table

    def syzygy(self, k: int) -> Module:
        """The k-th syzygy; k = 0 gives the module back."""
        if k == 0:
            return self.module
        return self._kernels[self._step(k - 1)][0]


def resolution(x: Module) -> ProjResolution:
    res = x._cache.get("resolution")
    if res is None:
        res = ProjResolution(x)
        x._cache["resolution"] = res
    return res


def syzygy(x: Module, k: int) -> Module:
    return resolution(x).syzygy(k)


def is_projective(x: Module) -> bool:
    return resolution(x).syzygy(1).is_zero()


def is_injective(x: Module) -> bool:
    return is_projective(repcat.duality(x))


def pd(x: Module) -> int:
    """Projective dimension; -1 for the zero module.

    Raises CapExceeded when the minimal resolution does not stop within
    config.RESOLUTION_CAP.
    """
    if x.is_zero():
        return -1
    cap = config.RESOLUTION_CAP
    res = resolution(x)
    for i in range(cap + 1):
        if res.projective(i).is_zero():
            return i - 1
    raise CapExceeded.over(
        "pd", x.dims, f"a resolution longer than {cap}", cap, "config.RESOLUTION_CAP"
    )


def gldim(algebra: BoundQuiverAlgebra) -> int:
    """Global dimension as the maximum over the simple modules."""
    return max(pd(repcat.simple(algebra, v)) for v in range(algebra.quiver.n_vertices))


# -- Ext spaces and induced maps -----------------------------------------


def _hom_out(res: ProjResolution, i: int, y: Module) -> Matrix:
    """Hom(d_i, y) in Yoneda coordinates, from (+)_j y_{v_j} to (+)_k y_{u_k}.

    A map P_v -> y is its value at e_v, so Hom(P_v, y) is y e_v, and the
    (k, j) block is the action on y of entry (k, j) of d_i's table.
    """
    field, paths = y.field, y.algebra.path_basis
    vs = res.vertices(i - 1)
    rows = []
    for u, line in zip(res.vertices(i), res.elements(i)):
        blocks = []
        for v, vec in zip(vs, line):
            block = Matrix.zeros(field, y.dims[u], y.dims[v])
            for q, c in enumerate(vec):
                if c:
                    block = block + y.path_action(paths[q]).scale(c)
            blocks.append(block)
        rows.append(exactlin.hstack(blocks, field=field, rows=y.dims[u]))
    return exactlin.vstack(rows, field=field, cols=sum(y.dims[v] for v in vs))


@dataclass
class ExtSpace:
    """An Ext space in the Yoneda coordinates (+)_j y_{v_j} of Hom(P_i, y).

    P_i is step i of the resolution of x, with summands P_{v_j}.
    `cocycles` and `coboundaries` are column spans in those coordinates,
    `reps` lists class representatives and `proj` sends a cocycle vector
    to its class coordinates.
    """

    x: Module
    y: Module
    degree: int
    cocycles: Matrix
    coboundaries: Matrix
    reps: Matrix
    proj: Matrix

    @property
    def dim(self) -> int:
        return self.reps.cols


def ext_space(x: Module, y: Module, i: int) -> ExtSpace:
    """Ext^i(x, y) presented by cocycles modulo coboundaries (i >= 0)."""
    if i < 0:
        raise ValueError("negative Ext degree")
    res = resolution(x)
    cocycles = exactlin.kernel_basis(_hom_out(res, i + 1, y))
    if i == 0:
        coboundaries = Matrix.zeros(y.field, cocycles.rows, 0)
    else:
        coboundaries = exactlin.canonical_basis(_hom_out(res, i, y))
    reps, proj = exactlin.quotient(cocycles, coboundaries)
    return ExtSpace(x, y, i, cocycles, coboundaries, reps, proj)


def ext_dim(x: Module, y: Module, i: int) -> int:
    """dim Ext^i(x, y): dim Hom(P_i, y) minus two ranks (i >= 0)."""
    if i < 0:
        raise ValueError("negative Ext degree")
    res = resolution(x)
    cochains = sum(y.dims[v] for v in res.vertices(i))
    if cochains == 0:
        return 0
    cocycles = cochains - exactlin.rank(_hom_out(res, i + 1, y))
    if i == 0:
        return cocycles
    return cocycles - exactlin.rank(_hom_out(res, i, y))


def ext_map_post(x: Module, f: Morphism, i: int) -> Matrix:
    """Matrix of Ext^i(x, f): Ext^i(x, dom f) -> Ext^i(x, cod f)."""
    src = ext_space(x, f.domain, i)
    dst = ext_space(x, f.codomain, i)
    post = exactlin.block_diag(x.field, [f.comps[v] for v in resolution(x).vertices(i)])
    return dst.proj @ post @ src.reps


# -- transpose and higher translates --------------------------------------


def transpose(x: Module) -> Module:
    """Tr x, the cokernel of Hom(d_1, A) over the opposite algebra.

    Hom(P_v, A) = A e_v is the opposite projective at v, and its part at
    a vertex w is e_w A e_v = P_w e_v, in the same path-basis order.  So
    the component at w of Hom(d_1, A) is Hom(d_1, P_w) in Yoneda coordinates.
    """
    algebra, opp, res = x.algebra, x.algebra.opposite(), resolution(x)
    dom, cod = (
        repcat.direct_sum([repcat.projective(opp, v) for v in res.vertices(i)], algebra=opp)[0]
        for i in (0, 1)
    )
    n = algebra.quiver.n_vertices
    comps = [_hom_out(res, 1, repcat.projective(algebra, w)) for w in range(n)]
    coker, _ = repcat.cokernel(Morphism(dom, cod, comps, _skip_check=True))
    return coker


def tr_d(x: Module, d: int) -> Module:
    """Transpose of the (d-1)-th syzygy; a module over the opposite algebra."""
    if d < 1:
        raise ValueError("the dimension parameter must be at least 1")
    return transpose(syzygy(x, d - 1))


def tau_d(x: Module, d: int) -> Module:
    """Higher translate: dual of tr_d."""
    return repcat.duality(tr_d(x, d))


def tau_d_minus(x: Module, d: int) -> Module:
    """Inverse higher translate: tr_d over the opposite algebra after dualizing."""
    return tr_d(repcat.duality(x), d)


# -- stable hom spaces -----------------------------------------------------


def projectively_stable_dim(x: Module, y: Module) -> int:
    """Dimension of Hom(x, y) modulo maps that factor through a projective."""
    through = repcat.hom_image(x, resolution(y).augmentation)
    return repcat.hom_dim(x, y) - through.cols


def injectively_stable_dim(x: Module, y: Module) -> int:
    """Dimension of Hom(x, y) modulo maps that factor through an injective.

    Computed as the projectively stable Hom(D y, D x); the resolution of
    D x it needs stays cached on the dual of x.
    """
    return projectively_stable_dim(repcat.duality(y), repcat.duality(x))


# -- tensor products and Tor ----------------------------------------------


@dataclass
class TensorSpace:
    """m (x) n over the algebra, as a quotient of the vertexwise products.

    Ambient coordinates run over the vertices in order, each block listing
    the products of basis vectors row-major (m index outer, n index inner).
    `reps` are class representatives, `proj` the class projection.
    """

    m: Module
    n: Module
    offsets: Tuple[int, ...]
    total: int
    reps: Matrix
    proj: Matrix

    @property
    def dim(self) -> int:
        return self.reps.cols


def tensor_space(m: Module, n: Module) -> TensorSpace:
    """Tensor of a module with one over the opposite algebra."""
    algebra = m.algebra
    if n.algebra is not algebra.opposite():
        raise DimensionMismatch("tensor factors live over mismatched algebras")
    field = m.field
    quiver = algebra.quiver
    offsets, at = [], 0
    for v in range(quiver.n_vertices):
        offsets.append(at)
        at += m.dims[v] * n.dims[v]
    total = at
    rel_cols = []
    for a in quiver.arrows:
        ai = quiver.arrow_index(a.name)
        s, t = a.source, a.target
        ma = m.maps[ai].entries  # m dims: s -> t
        na = n.maps[ai].entries  # op arrow runs t -> s on n
        for i in range(m.dims[s]):
            for j in range(n.dims[t]):
                col = [0] * total
                for r in range(m.dims[t]):
                    col[offsets[t] + r * n.dims[t] + j] += ma[r][i]
                for k in range(n.dims[s]):
                    col[offsets[s] + i * n.dims[s] + k] -= na[k][j]
                rel_cols.append(col)
    rel = exactlin.canonical_basis(Matrix.from_columns(field, rel_cols, total))
    reps, proj = exactlin.quotient(Matrix.identity(field, total), rel)
    return TensorSpace(m, n, tuple(offsets), total, reps, proj)


def tensor_dim(m: Module, n: Module) -> int:
    return tensor_space(m, n).dim


def _tensor_ambient_map(m: Module, f: Morphism) -> Matrix:
    """Vertexwise matrix of id_m (x) f on ambient tensor coordinates."""
    field = m.field
    blocks = []
    for v in range(len(m.dims)):
        # id (x) f_v: one copy of f_v per basis vector of m at v
        blocks.extend([f.comps[v]] * m.dims[v])
    return exactlin.block_diag(field, blocks)


def tensor_map(m: Module, f: Morphism) -> Matrix:
    """Matrix of id_m (x) f between tensor quotient spaces."""
    src = tensor_space(m, f.domain)
    dst = tensor_space(m, f.codomain)
    amb = _tensor_ambient_map(m, f)
    return dst.proj @ amb @ src.reps


def tor_dim(m: Module, n: Module, i: int) -> int:
    """Tor_i of a module and one over the opposite algebra (i >= 0)."""
    if i < 0:
        raise ValueError("negative Tor degree")
    if i == 0:
        return tensor_dim(m, n)
    res = resolution(n)
    res.extend_to(i + 1)
    d_i = res.differential(i)
    d_next = res.differential(i + 1)
    inner = tensor_map(m, d_i)
    outer = tensor_map(m, d_next)
    ker_dim = inner.cols - exactlin.rank(inner)
    return ker_dim - exactlin.rank(outer)
