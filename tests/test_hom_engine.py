"""Zero Homs read off tops and socles, and the shared zero and identity blocks.

`repcat._hom_data` returns the empty basis, solving no intertwining system,
when y vanishes on the top of x or x on the socle of y.  On random modules
every Hom is compared with the Yoneda route `homological.ext_dim(x, y, 0)`,
which builds no system, and with the whole system of
`scan_oracles.intertwining_kernel`; wherever the zero test fires, that
kernel is empty.  There is one PrimeField per p, one zero and one identity
matrix per shape, and one identity morphism per module.
"""

import copy
import functools
import pathlib
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import Matrix, Module, PrimeField, Quiver, build_algebra, exactlin, homological, repcat
from dctkit import workspace
from dctkit.artheory import enumerate_indecomposables
from dctkit.repcat import Morphism
from scan_oracles import intertwining_kernel
from type_a import ka_rad2

DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("p", [2, 3, 7])
def test_one_field_one_zero_and_one_identity_per_shape(p):
    field = PrimeField(p)
    assert PrimeField(p) is field
    assert copy.deepcopy(field) is field and pickle.loads(pickle.dumps(field)) is field
    with pytest.raises(ValueError):
        PrimeField(p * p)
    for rows, cols in [(0, 0), (0, 3), (3, 0), (2, 5)]:
        zero = Matrix.zeros(field, rows, cols)
        assert Matrix.zeros(PrimeField(p), rows, cols) is zero
        assert (zero.field, zero.shape, zero.is_zero()) == (field, (rows, cols), True)
    ident = Matrix.identity(field, 3)
    assert Matrix.identity(PrimeField(p), 3) is ident
    assert ident == Matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # keyed on p: another field has its own blocks
    other = PrimeField(5 if p != 5 else 2)
    assert Matrix.zeros(other, 2, 5) is not Matrix.zeros(field, 2, 5)
    # a product with an empty side is the shared zero
    m = Matrix(field, [[1, 2], [3, 4], [5, 6]])
    assert m @ Matrix.zeros(field, 2, 0) is Matrix.zeros(field, 3, 0)
    assert Matrix.zeros(field, 0, 3) @ m is Matrix.zeros(field, 0, 2)
    assert Matrix.zeros(field, 4, 0) @ Matrix.zeros(field, 0, 2) is Matrix.zeros(field, 4, 2)


def test_one_identity_morphism_per_module(flag_mods):
    for x in flag_mods.values():
        ident = Morphism.identity(x)
        assert Morphism.identity(x) is ident
        assert ident.domain is x and ident.codomain is x
        assert all(c is Matrix.identity(x.field, d) for c, d in zip(ident.comps, x.dims))


def _flagship(p):
    return workspace.load(str(DATA / "ka3rad2.json"), p).algebra


@functools.lru_cache(maxsize=None)
def _algebra(which, p):
    """The flagship KA_3/rad^2 document's algebra, or KA_n/rad^2 built from its presentation."""
    if which == "flagship":
        return _flagship(p)
    vertices, arrows, relations, bound = ka_rad2(which)
    return build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(p))


@pytest.mark.parametrize("which", ["flagship", 3, 4, 5, 6])
def test_the_zero_test_decides_every_zero_hom_between_indecomposables(which):
    """On KA_n/rad^2 the tops and socles of indecomposables decide Hom = 0 exactly."""
    universe = enumerate_indecomposables(_algebra(which, 2), 2)
    fired = set()
    for x in universe:
        for y in universe:
            zero = repcat._hom_is_zero(x, y)
            assert zero == (repcat.hom_dim(x, y) == 0) == (intertwining_kernel(x, y).cols == 0)
            if zero and repcat.hom_flat_dim(x, y):
                tops = [v for v, js in enumerate(repcat._top_reps(x)) if js]
                fired.add("top" if not any(y.dims[v] for v in tops) else "socle")
    assert fired == {"top", "socle"}


def random_rad2_module(algebra, rng) -> Module:
    """A random module over an algebra whose paths of length two vanish.

    At each vertex v the first k_v coordinates span a subspace that holds
    the images of the arrows into v and is killed by the arrows out of v;
    a random change of basis at every vertex hides it.
    """
    field, p = algebra.field, algebra.field.p
    dims = [rng.randrange(3) for _ in algebra.quiver.vertices]
    low = [rng.randint(0, d) for d in dims]
    changes = []
    for d in dims:
        while True:
            g = Matrix(field, [[rng.randrange(p) for _ in range(d)] for _ in range(d)], d)
            inv = exactlin.solve(g, Matrix.identity(field, d))
            if inv is not None:
                changes.append((g, inv))
                break
    maps = []
    for a in algebra.quiver.arrows:
        s, t = a.source, a.target
        m = Matrix(field, [[rng.randrange(p) if r < low[t] and c >= low[s] else 0
                            for c in range(dims[s])] for r in range(dims[t])], dims[s])
        maps.append(changes[t][0] @ m @ changes[s][1])
    return Module(algebra, dims, maps)


@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(["flagship", 2, 3, 4, 5]), p=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32))
def test_hom_dimension_matches_yoneda_and_the_whole_system(which, p, seed):
    algebra, rng = _algebra(which, p), random.Random(seed)
    mods = [random_rad2_module(algebra, rng) for _ in range(3)]
    mods += [repcat.simple(algebra, v) for v in range(algebra.quiver.n_vertices)]
    for x in mods:
        for y in mods:
            whole = intertwining_kernel(x, y)
            if repcat._hom_is_zero(x, y):
                assert whole.cols == 0
            assert repcat.hom_space_matrix(x, y) == whole
            assert repcat.hom_dim(x, y) == homological.ext_dim(x, y, 0)
