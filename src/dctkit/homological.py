"""Resolutions, Ext, the transpose, and higher translates.

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
    Covers stop at step config.RESOLUTION_CAP + 1, the last one Ext in
    degree RESOLUTION_CAP reads; a resolution still running there is refused.
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
        cap = config.RESOLUTION_CAP
        while len(self._projs) <= n and not self._projs[-1].is_zero():
            k, incl = self._kernels[-1]
            if k.is_zero():  # the first zero term itself: it needs no cover
                p, epi, verts = k, Morphism.identity(k), []
            elif len(self._projs) > cap + 1:
                raise CapExceeded.over(
                    f"projective resolution to step {n}", self.module.dims,
                    f"a resolution longer than {cap}", cap, "config.RESOLUTION_CAP",
                )
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
    """Whether x is its own projective cover: sum_v dim (top x)_v * dim P_v = dim x."""
    tops = enumerate(repcat._top_reps(x))
    return sum(len(js) * repcat.projective(x.algebra, v).total_dim for v, js in tops) == x.total_dim


def is_injective(x: Module) -> bool:
    """Whether x is its own injective envelope: sum_v dim soc(x)_v * dim I_v = dim x.

    dim I_v is the number of basis paths ending at v.
    """
    algebra = x.algebra
    ends = [0] * len(x.dims)
    for i in range(algebra.dim):
        ends[algebra.basis_target(i)] += 1
    return sum(s * e for s, e in zip(repcat._socle_dims(x), ends)) == x.total_dim


def pd(x: Module) -> int:
    """Projective dimension; -1 for the zero module.

    Raises CapExceeded when the minimal resolution is longer than
    config.RESOLUTION_CAP.
    """
    if x.is_zero():
        return -1
    cap = config.RESOLUTION_CAP
    res = resolution(x)
    for i in range(cap + 1):
        if res.syzygy(i + 1).is_zero():
            return i
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


def ext_space(x: Module, y: Module, i: int) -> exactlin.Quotient:
    """Ext^i(x, y) as cocycles modulo coboundaries (i >= 0).

    The coordinates are the Yoneda ones, (+)_j y_{v_j} = Hom(P_i, y) for
    P_i step i of the resolution of x with summands P_{v_j}: `reps` lists
    class representatives there and `proj` sends a cocycle vector to its
    class coordinates.
    """
    if i < 0:
        raise ValueError("negative Ext degree")
    if x.algebra is not y.algebra:
        raise DimensionMismatch("Ext between modules over different algebras")
    res = resolution(x)
    cocycles = exactlin.kernel_basis(_hom_out(res, i + 1, y))
    if i == 0:
        coboundaries = Matrix.zeros(y.field, cocycles.rows, 0)
    else:
        coboundaries = exactlin.canonical_basis(_hom_out(res, i, y))
    return exactlin.quotient(cocycles, coboundaries)


def ext_dim(x: Module, y: Module, i: int) -> int:
    """dim Ext^i(x, y): dim Hom(P_i, y) minus two ranks (i >= 0)."""
    if i < 0:
        raise ValueError("negative Ext degree")
    if x.algebra is not y.algebra:
        raise DimensionMismatch("Ext between modules over different algebras")
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
        repcat.sum_module([repcat.projective(opp, v) for v in res.vertices(i)], opp)
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
