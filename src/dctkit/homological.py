"""Resolutions, Ext and Tor spaces, the transpose, and higher translates.

Everything is computed from minimal projective resolutions, built step by
step from projective covers and cached on the module.  The transpose of a
module is the cokernel of the dualized minimal presentation, realized
concretely over the opposite algebra through path reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import config, exactlin, repcat
from .algebra import BoundQuiverAlgebra
from .errors import CapExceeded, DimensionMismatch
from .exactlin import Matrix
from .repcat import Module, Morphism


class ProjResolution:
    """A minimal projective resolution, extended lazily.

    Index 0 is the cover of the module itself; `differential(i)` is the
    map from step i to step i-1 for i >= 1.
    """

    def __init__(self, x: Module):
        self.module = x
        p0, aug, verts, incs, projs = repcat._projective_cover(x)
        self.augmentation = aug
        self._projs: List[Module] = [p0]
        self._verts: List[List[int]] = [verts]
        self._splits: List[Tuple[List[Morphism], List[Morphism]]] = [(incs, projs)]
        self._diffs: List[Optional[Morphism]] = [None]
        self._kernels: List[Tuple[Module, Morphism]] = [repcat.kernel(aug)]

    def extend_to(self, n: int) -> None:
        while len(self._projs) <= n:
            k, incl = self._kernels[-1]
            p, epi, verts, incs, projs = repcat._projective_cover(k)
            self._projs.append(p)
            self._verts.append(verts)
            self._splits.append((incs, projs))
            self._diffs.append(incl @ epi)
            self._kernels.append(repcat.kernel(epi))

    def projective(self, i: int) -> Module:
        self.extend_to(i)
        return self._projs[i]

    def vertices(self, i: int) -> List[int]:
        self.extend_to(i)
        return self._verts[i]

    def summand_maps(self, i: int) -> Tuple[List[Morphism], List[Morphism]]:
        """Inclusions and projections of the indecomposable summands of step i."""
        self.extend_to(i)
        return self._splits[i]

    def differential(self, i: int) -> Morphism:
        if i < 1:
            raise ValueError("differentials start at index 1")
        self.extend_to(i)
        return self._diffs[i]

    def syzygy(self, k: int) -> Module:
        """The k-th syzygy; k = 0 gives the module back."""
        if k == 0:
            return self.module
        self.extend_to(k - 1)
        return self._kernels[k - 1][0]


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


@dataclass
class ExtSpace:
    """An Ext space in flat coordinates on Hom(step-i projective, y).

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
    p_i = res.projective(i)
    hom_i = repcat.hom_space_matrix(p_i, y)
    coords = exactlin.kernel_basis(repcat.hom_composites(res.differential(i + 1), y))
    cocycles = exactlin.canonical_basis(hom_i @ coords)
    if i == 0:
        coboundaries = Matrix.zeros(y.field, hom_i.rows, 0)
    else:
        coboundaries = repcat.hom_coimage(res.differential(i), y)
    reps, proj = exactlin.quotient(cocycles, coboundaries)
    return ExtSpace(x, y, i, cocycles, coboundaries, reps, proj)


def ext_dim(x: Module, y: Module, i: int) -> int:
    """dim Ext^i(x, y) from two ranks: cocycles minus coboundaries (i >= 0)."""
    if i < 0:
        raise ValueError("negative Ext degree")
    res = resolution(x)
    post = repcat.hom_composites(res.differential(i + 1), y)
    cocycles = post.cols - exactlin.rank(post)
    if i == 0:
        return cocycles
    return cocycles - exactlin.rank(repcat.hom_composites(res.differential(i), y))


def ext_map_post(x: Module, f: Morphism, i: int) -> Matrix:
    """Matrix of Ext^i(x, f): Ext^i(x, dom f) -> Ext^i(x, cod f)."""
    src = ext_space(x, f.domain, i)
    dst = ext_space(x, f.codomain, i)
    p_i = resolution(x).projective(i)
    cols = []
    for vec in src.reps.columns():
        rep = repcat.morphism_from_vec(p_i, f.domain, vec, _skip_check=True)
        cols.append(dst.proj @ Matrix.column(x.field, repcat.hom_vec(f @ rep)))
    if not cols:
        return Matrix.zeros(x.field, dst.dim, 0)
    return exactlin.hstack(cols, field=x.field, rows=dst.dim)


# -- transpose and higher translates --------------------------------------


def _generator_element(algebra: BoundQuiverAlgebra, block: Morphism, v: int, u: int) -> List[int]:
    """Coordinates in the algebra of the image of the u-projective generator.

    `block` maps the projective at u into the projective at v; the element
    it corresponds to is read off the trivial-path column at vertex u.
    """
    vec = [0] * algebra.dim
    comp = block.comps[u]
    if comp.cols == 0:
        return vec
    idx = algebra.basis_indices_between(v, u)
    for row, i in enumerate(idx):
        vec[i] = comp[row, 0]
    return vec


def proj_hom(algebra: BoundQuiverAlgebra, u, v, xvec: Sequence[int]) -> Morphism:
    """Left multiplication by an element as a map of projectives at u -> at v.

    xvec holds algebra coordinates of an element supported on paths from
    v to u; the map sends a residue path q to (element * q).
    """
    pu = repcat.projective(algebra, u)
    pv = repcat.projective(algebra, v)
    quiver = algebra.quiver
    comps = []
    for w in range(quiver.n_vertices):
        src_idx = algebra.basis_indices_between(u, w)
        dst_idx = algebra.basis_indices_between(v, w)
        dst_pos = {i: k for k, i in enumerate(dst_idx)}
        m = [[0] * len(src_idx) for _ in dst_idx]
        for col, i in enumerate(src_idx):
            unit = [0] * algebra.dim
            unit[i] = 1
            for j, e in enumerate(algebra.multiply(xvec, unit)):
                if e:
                    m[dst_pos[j]][col] = e
        comps.append(Matrix(algebra.field, m, len(src_idx)))
    return Morphism(pu, pv, comps)


def transpose(x: Module) -> Module:
    """Cokernel of the dualized minimal presentation, over the opposite algebra."""
    algebra = x.algebra
    opp = algebra.opposite()
    res = resolution(x)
    verts0, verts1 = res.vertices(0), res.vertices(1)
    d1 = res.differential(1)
    incs1, _ = res.summand_maps(1)
    _, projs0 = res.summand_maps(0)
    # dual side: one op-projective per original summand
    dom, _, dom_projs = repcat.direct_sum(
        [repcat.projective(opp, v) for v in verts0], algebra=opp
    )
    cod, cod_incs, _ = repcat.direct_sum(
        [repcat.projective(opp, u) for u in verts1], algebra=opp
    )
    t = Morphism.zero(dom, cod)
    for l, u in enumerate(verts1):
        for k, v in enumerate(verts0):
            block = projs0[k] @ d1 @ incs1[l]
            xvec = _generator_element(algebra, block, v, u)
            if not any(xvec):
                continue
            # the reversal of an element has the same coordinates over the
            # reversed-path basis, so xvec can be reused verbatim
            piece = proj_hom(opp, v, u, xvec)
            t = t + (cod_incs[l] @ piece @ dom_projs[k])
    coker, _ = repcat.cokernel(t)
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
