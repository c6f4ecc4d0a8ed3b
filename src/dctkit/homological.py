"""Resolutions, Ext, the transpose, and higher translates.

A module's minimal projective resolution is its chain of syzygies.  Step
i, the projective cover of Omega^i x and its kernel, is kept on Omega^i x,
so resolutions that meet one syzygy share it; `syzygy(x, k)` walks the
chain and stops at its first zero term.  d_{i+1} of x is d_1 of Omega^i x,
read once as a table of algebra elements kept on that syzygy.  Hom out of
a projective needs no hom basis: by Yoneda a map P_v -> y is its value at
e_v, so Hom(P_v, y) is y e_v, and Ext^i(x, y) is cocycles modulo
coboundaries in those coordinates, read off Omega^{i-1} x and Omega^i x.
Tr_d x = Tr Omega^{d-1} x is kept on the syzygy it transposes: the
cokernel of Hom(d_1, A) in those coordinates at every projective P_w of A
at once.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

from . import config, exactlin, repcat
from .algebra import BoundQuiverAlgebra
from .errors import CapExceeded, DimensionMismatch
from .exactlin import Matrix
from .repcat import Module, Morphism


class _Step(NamedTuple):
    """Step i: the cover P_i -> Omega^i x, the vertices of its summands, and its kernel."""

    cover: Morphism
    vertices: List[int]
    inclusion: Morphism  # Omega^{i+1} x -> P_i


def syzygy(x: Module, k: int) -> Module:
    """Omega^k x, with step k, its projective cover, kept on it; k = 0 gives x.

    The walk covers x, Omega x, ..., Omega^k x in turn (`_cover_step`)
    and stops at the first zero syzygy: every later one is that zero
    module.  Covers stop at step config.RESOLUTION_CAP + 1, the last one
    Ext in degree RESOLUTION_CAP reads; a resolution still running there
    is refused at step k.
    """
    if k < 0:
        raise ValueError("negative syzygy index")
    m, cap = x, config.RESOLUTION_CAP
    for j in range(k + 1):
        if j > cap + 1 and not m.is_zero():
            raise CapExceeded.over(
                f"projective resolution to step {k}", x.dims,
                f"a resolution longer than {cap}", cap, "config.RESOLUTION_CAP",
            )
        step = _cover_step(m)
        if j == k or not step.vertices:
            break
        m = step.inclusion.domain
    return m


@repcat._kept("cover")
def _cover_step(m: Module) -> _Step:
    """m's projective cover and its kernel, kept on m: every resolution through m reads it."""
    _, epi, verts = repcat.projective_cover(m)
    return _Step(epi, verts, repcat.kernel(epi)[1])


@repcat._kept("differential")
def _differential(m: Module) -> List[List[Tuple[int, ...]]]:
    """d_1: P_1 -> P_0 of m's resolution as a table of algebra elements, kept on m.

    Entry (k, j) holds the algebra coordinates of the image of the
    trivial path e_u, u the k-th vertex of P_1, in the j-th summand P_v
    of P_0: a combination of the paths from v to u, read off the cover
    of Omega m and the kernel inclusion of m's cover.  Empty when
    Omega m is zero.  d_{i+1} of x is d_1 of Omega^i x.
    """
    algebra = m.algebra
    between = algebra.basis_indices_between
    top = _cover_step(m)
    cover, us, _ = _cover_step(syzygy(m, 1))
    table = []
    for k, u in enumerate(us):
        col = sum(len(between(w, u)) for w in us[:k])
        image = iter((top.inclusion.comps[u] @ cover.comps[u].col(col)).columns()[0])
        line = []
        for v in top.vertices:
            vec = [0] * algebra.dim
            for q in between(v, u):
                vec[q] = next(image)
            line.append(tuple(vec))
        table.append(line)
    return table


def is_projective(x: Module) -> bool:
    """Whether x is its own projective cover: sum_v dim (top x)_v * dim P_v = dim x."""
    tops = enumerate(repcat._top_reps(x))
    return sum(len(js) * repcat.projective(x.algebra, v).total_dim for v, js in tops) == x.total_dim


def is_injective(x: Module) -> bool:
    """Whether x is its own injective envelope: sum_v dim soc(x)_v * dim I_v = dim x.

    dim I_v is the number of basis paths ending at v.  The socle is counted
    (`repcat._socle_dims`), not read through D: building D x would cost
    several times the count.
    """
    ends = _paths_ending(x.algebra)
    return sum(s * e for s, e in zip(repcat._socle_dims(x), ends)) == x.total_dim


@repcat._kept("path ends")
def _paths_ending(algebra: BoundQuiverAlgebra) -> Tuple[int, ...]:
    """Per vertex v, the number of basis paths ending at v, that is dim I_v; kept on the algebra."""
    ends = [0] * algebra.quiver.n_vertices
    for i in range(algebra.dim):
        ends[algebra.basis_target(i)] += 1
    return tuple(ends)


def pd(x: Module) -> int:
    """Projective dimension; -1 for the zero module.

    Raises CapExceeded when the minimal resolution is longer than
    config.RESOLUTION_CAP.
    """
    if x.is_zero():
        return -1
    cap = config.RESOLUTION_CAP
    for i in range(cap + 1):
        if is_projective(syzygy(x, i)):
            return i
    raise CapExceeded.over(
        "pd", x.dims, f"a resolution longer than {cap}", cap, "config.RESOLUTION_CAP"
    )


def gldim(algebra: BoundQuiverAlgebra) -> int:
    """Global dimension as the maximum over the simple modules."""
    return max(pd(repcat.simple(algebra, v)) for v in range(algebra.quiver.n_vertices))


# -- Ext spaces and induced maps -----------------------------------------


def _hom_out(m: Module, y: Module) -> Matrix:
    """Hom(d_1, y) for d_1 of m's resolution, in Yoneda coordinates.

    It maps (+)_j y_{v_j} to (+)_k y_{u_k}, the v_j the vertices of P_0
    and the u_k those of P_1.  A map P_v -> y is its value at e_v, so
    Hom(P_v, y) is y e_v, and the (k, j) block is the action on y of
    entry (k, j) of `_differential(m)`.  The rows are laid out as
    integers block by block; a vertex where y vanishes adds no row or
    column.
    """
    dims, paths, p = y.dims, y.algebra.path_basis, y.field.p
    vs = _cover_step(m).vertices
    rows = []
    for u, line in zip(_cover_step(syzygy(m, 1)).vertices, _differential(m)):
        if not dims[u]:
            continue
        out = [[] for _ in range(dims[u])]
        for v, vec in zip(vs, line):
            if not dims[v]:
                continue
            block = [[0] * dims[v]] * dims[u]
            for q, c in enumerate(vec):
                if c:
                    block = [[a + c * t for a, t in zip(acc, row)]
                             for acc, row in zip(block, y.path_action(paths[q]).entries)]
            for o, b in zip(out, block):
                o += b
        rows += [tuple([t % p for t in o]) for o in out]
    return Matrix(y.field, tuple(rows), sum(dims[v] for v in vs), _reduced=True)


def ext_space(x: Module, y: Module, i: int) -> exactlin.Quotient:
    """Ext^i(x, y) as cocycles modulo coboundaries (i >= 0).

    The coordinates are the Yoneda ones, (+)_j y_{v_j} = Hom(P_i, y) for
    P_i step i of the resolution of x with summands P_{v_j}: `reps` lists
    class representatives there and `proj` sends a cocycle vector to its
    class coordinates.  The cocycles are the kernel of Hom(d_{i+1}, y),
    d_{i+1} being d_1 of Omega^i x, and the coboundaries the image of
    Hom(d_i, y).
    """
    if i < 0:
        raise ValueError("negative Ext degree")
    if x.algebra is not y.algebra:
        raise DimensionMismatch("Ext between modules over different algebras")
    m = syzygy(x, i)
    syzygy(x, i + 1)  # d_{i+1} reads step i + 1, refused after step i
    cocycles = exactlin.kernel_basis(_hom_out(m, y))
    if i == 0:
        coboundaries = Matrix.zeros(y.field, cocycles.rows, 0)
    else:
        coboundaries = exactlin.canonical_basis(_hom_out(syzygy(x, i - 1), y))
    return exactlin.quotient(cocycles, coboundaries)


def ext_dim(x: Module, y: Module, i: int) -> int:
    """dim Ext^i(x, y): dim Hom(P_i, y) minus two ranks (i >= 0)."""
    if i < 0:
        raise ValueError("negative Ext degree")
    if x.algebra is not y.algebra:
        raise DimensionMismatch("Ext between modules over different algebras")
    m = syzygy(x, i)
    cochains = sum(y.dims[v] for v in _cover_step(m).vertices)
    if cochains == 0:
        return 0
    syzygy(x, i + 1)  # d_{i+1} reads step i + 1, refused after step i
    cocycles = cochains - exactlin.rank(_hom_out(m, y))
    if i == 0:
        return cocycles
    return cocycles - exactlin.rank(_hom_out(syzygy(x, i - 1), y))


def ext_map_post(x: Module, f: Morphism, i: int) -> Matrix:
    """Matrix of Ext^i(x, f): Ext^i(x, dom f) -> Ext^i(x, cod f)."""
    src = ext_space(x, f.domain, i)
    dst = ext_space(x, f.codomain, i)
    post = exactlin.block_diag(x.field, [f.comps[v] for v in _cover_step(syzygy(x, i)).vertices])
    return dst.proj @ post @ src.reps


# -- transpose and higher translates --------------------------------------


@repcat._kept("tr")
def tr_d(x: Module, d: int) -> Module:
    """Tr Omega^{d-1} x over the opposite algebra, kept on x once per d.

    For d > 1 it is tr_d(Omega^{d-1} x, 1), so Tr is kept on the syzygy
    it transposes and x's resolution is walked, never resolved again.
    Tr x is the cokernel of Hom(d_1, A).  Hom(P_v, A) = A e_v is the
    opposite projective at v, and its part at a vertex w is
    e_w A e_v = P_w e_v, in the same path-basis order.  So the component
    at w of Hom(d_1, A) is Hom(d_1, P_w) in Yoneda coordinates.  The
    cokernel reads only the codomain of Hom(d_1, A) and these
    components, so the sum of opposite projectives over P_0 is never
    built.
    """
    if d < 1:
        raise ValueError("the dimension parameter must be at least 1")
    if d > 1:
        syzygy(x, d - 2)  # a resolution too long for Omega^{d-1} x is refused at step d-2,
        syzygy(x, d)  # or at step d, which Tr Omega^{d-1} x reads
        return tr_d(syzygy(x, d - 1), 1)
    algebra, opp = x.algebra, x.algebra.opposite()
    below = _cover_step(syzygy(x, 1)).vertices
    cod = repcat.sum_module([repcat.projective(opp, v) for v in below], opp)
    comps = [_hom_out(x, repcat.projective(algebra, w)) for w in range(algebra.quiver.n_vertices)]
    return repcat._cokernel(cod, comps)[0]


def tau_d(x: Module, d: int) -> Module:
    """Higher translate: dual of tr_d."""
    return repcat.duality(tr_d(x, d))


def tau_d_minus(x: Module, d: int) -> Module:
    """Inverse higher translate: tr_d over the opposite algebra after dualizing."""
    return tr_d(repcat.duality(x), d)


# -- stable hom spaces -----------------------------------------------------


def projectively_stable_dim(x: Module, y: Module) -> int:
    """Dimension of Hom(x, y) modulo maps that factor through a projective."""
    through = repcat.hom_image(x, _cover_step(y).cover)
    return repcat.hom_dim(x, y) - through.cols


def injectively_stable_dim(x: Module, y: Module) -> int:
    """Dimension of Hom(x, y) modulo maps that factor through an injective.

    Computed as the projectively stable Hom(D y, D x); the cover of D x
    it reads stays kept on the dual of x.
    """
    return projectively_stable_dim(repcat.duality(y), repcat.duality(x))
