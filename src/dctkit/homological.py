"""Resolutions, Ext, the transpose, and higher translates.

Everything is read off the minimal projective resolution of a module: one
list of steps, each a projective cover and its kernel, stopped at its first
zero term.  A step is kept on the module it covers, so resolutions that
meet one syzygy share it.  Each differential is read once as a
table of algebra elements.  Hom out of a projective needs no hom basis: by
Yoneda a map P_v -> y is its value at e_v, so Hom(P_v, y) is y e_v, and Ext
is cocycles modulo coboundaries in those coordinates.  Tr_d x, the
transpose of Omega^{d-1} x, is the cokernel of Hom(d_d, A), read off x's own
resolution in those coordinates at every projective P_w of A at once.
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


class ProjResolution:
    """A minimal projective resolution, extended lazily to its first zero term.

    Step 0 covers the module itself; `differential(i)` is the map from
    step i to step i-1 for i >= 1.  Once a kernel is zero the steps stop
    growing: every later term is that zero module, with zero maps.
    Covers stop at step config.RESOLUTION_CAP + 1, the last one Ext in
    degree RESOLUTION_CAP reads; a resolution still running there is refused.
    """

    def __init__(self, x: Module):
        self.module = x
        self._steps: List[_Step] = []
        self._cache: dict = {}

    @property
    def augmentation(self) -> Morphism:
        return self._steps[self._step(0)].cover

    def _step(self, i: int) -> int:
        """Where step i is stored, once covered: past the first zero term, at that term."""
        cap, steps = config.RESOLUTION_CAP, self._steps
        while len(steps) <= i and (not steps or steps[-1].vertices):
            m = steps[-1].inclusion.domain if steps else self.module
            if len(steps) > cap + 1 and not m.is_zero():
                raise CapExceeded.over(
                    f"projective resolution to step {i}", self.module.dims,
                    f"a resolution longer than {cap}", cap, "config.RESOLUTION_CAP",
                )
            steps.append(_cover_step(m))
        return min(i, len(steps) - 1)

    def projective(self, i: int) -> Module:
        return self._steps[self._step(i)].cover.domain

    def vertices(self, i: int) -> List[int]:
        return self._steps[self._step(i)].vertices

    def differential(self, i: int) -> Morphism:
        if i < 1:
            raise ValueError("differentials start at index 1")
        at = self._step(i)  # past the first zero term, whose cover and inclusion are identities
        return self._steps[min(i - 1, at)].inclusion @ self._steps[at].cover

    @repcat._kept("elements")
    def elements(self, i: int) -> List[List[Tuple[int, ...]]]:
        """The differential d_i as a table of algebra elements (i >= 1).

        Entry (k, j) holds the algebra coordinates of the image of the
        trivial path e_u, u the k-th vertex of step i, in the j-th summand
        P_v of step i - 1: a combination of the paths from v to u, read
        off the cover's trivial-path column and the kernel inclusion of
        step i - 1.  Kept on the resolution; empty once step i is zero.
        """
        if self._step(i) < i:
            return []
        algebra = self.module.algebra
        between = algebra.basis_indices_between
        (cover, us, _), prev = self._steps[i], self._steps[i - 1]
        table = []
        for k, u in enumerate(us):
            col = sum(len(between(w, u)) for w in us[:k])
            image = iter((prev.inclusion.comps[u] @ cover.comps[u].col(col)).columns()[0])
            line = []
            for v in prev.vertices:
                vec = [0] * algebra.dim
                for q in between(v, u):
                    vec[q] = next(image)
                line.append(tuple(vec))
            table.append(line)
        return table

    def syzygy(self, k: int) -> Module:
        """The k-th syzygy; k = 0 gives the module back."""
        if k == 0:
            return self.module
        return self._steps[self._step(k - 1)].inclusion.domain


@repcat._kept("cover")
def _cover_step(m: Module) -> _Step:
    """m's projective cover and its kernel, kept on m: every resolution through m reads it."""
    _, epi, verts = repcat.projective_cover(m)
    return _Step(epi, verts, repcat.kernel(epi)[1])


@repcat._kept("resolution")
def resolution(x: Module) -> ProjResolution:
    return ProjResolution(x)


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


@repcat._kept("tr")
def tr_d(x: Module, d: int) -> Module:
    """Tr Omega^{d-1} x over the opposite algebra, from steps d-1 and d of x's resolution.

    Hom(P_v, A) = A e_v is the opposite projective at v, and its part at a
    vertex w is e_w A e_v = P_w e_v, in the same path-basis order.  So the
    component at w of Hom(d_d, A) is Hom(d_d, P_w) in Yoneda coordinates.
    Kept on x once per d, as its resolution is.
    """
    if d < 1:
        raise ValueError("the dimension parameter must be at least 1")
    res = resolution(x)
    res.syzygy(d - 1)  # a resolution too long for Omega^{d-1} x is refused at step d-2
    algebra, opp = x.algebra, x.algebra.opposite()
    dom, cod = (
        repcat.sum_module([repcat.projective(opp, v) for v in res.vertices(i)], opp)
        for i in (d - 1, d)
    )
    comps = [_hom_out(res, d, repcat.projective(algebra, w))
             for w in range(algebra.quiver.n_vertices)]
    return repcat.cokernel(Morphism(dom, cod, comps, _skip_check=True))[0]


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
