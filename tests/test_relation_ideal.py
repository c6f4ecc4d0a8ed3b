"""The blockwise relation ideal against the dense reduction it replaced.

BoundQuiverAlgebra reduces the relation multiples u*r*w of each (source,
target) block of paths on its own.  ``scan_oracles.dense_presentation``
reduces them all over every path at once.  Both must give the same path
basis, the same normal forms and the same NotAdmissible witness and
message.
"""

import json
import pathlib
import random

import pytest

from dctkit import NotAdmissible, PrimeField, Quiver, algebra, build_algebra
from scan_oracles import dense_presentation
from type_a import higher_auslander, higher_auslander_dim, ka_rad2, nakayama

DATA = pathlib.Path(__file__).parent / "data"
SMALL_TYPE_A = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (4, 3), (5, 2), (3, 4), (6, 2)]
NAKAYAMA = [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3), (5, 3), (7, 4)]


def _outcome(build, quiver, relations, bound, field):
    """(path basis, normal forms) or (witness, message) of one presentation."""
    try:
        return build(quiver, relations, bound, field)
    except NotAdmissible as exc:
        return exc.witness, str(exc)


def _library(quiver, relations, bound, field):
    """The library's basis, with every short path's sparse normal form expanded to a dense tuple.

    The normal form of a path is its source vertex walked along the path's
    arrows in the algebra's multiplication table.
    """
    alg = build_algebra(quiver, relations, bound, field)
    dense = {}
    for path in algebra._enumerate_paths(quiver, bound - 1):
        pairs = alg._walk(alg.path_basis.index(algebra.Path(path.source, ())), path.arrows)
        indices = [i for i, _ in pairs]
        assert indices == sorted(set(indices)) and all(c for _, c in pairs)
        vec = [0] * alg.dim
        for i, c in pairs:
            vec[i] = c
        dense[path] = tuple(vec)
    return alg.path_basis, dense


def assert_matches_oracle(quiver, relations, bound, field):
    got = _outcome(_library, quiver, relations, bound, field)
    assert got == _outcome(dense_presentation, quiver, relations, bound, field)
    return got


def _fixture(name):
    doc = json.loads((DATA / name).read_text())
    q = doc["quiver"]
    quiver = Quiver(q["vertices"], [(a["name"], a["source"], a["target"]) for a in q["arrows"]])
    return quiver, doc["relations"], doc["bound"]


def _ka_rad2(n):
    vertices, arrows, relations, bound = ka_rad2(n)
    return Quiver(vertices, arrows), relations, bound


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", ["ka2.json", "ka3rad2.json"])
def test_fixtures_match_the_dense_reduction(name, p):
    basis, _ = assert_matches_oracle(*_fixture(name), PrimeField(p))
    assert len(basis) == {"ka2.json": 3, "ka3rad2.json": 5}[name]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_normal_forms_of_several_terms_match_the_dense_reduction(p):
    # a*d + b*d + c*d = 0 makes a*d a combination of two basis paths at every p
    arrows = [("a", "1", "2"), ("b", "1", "2"), ("c", "1", "2"), ("d", "2", "3"), ("e", "2", "3")]
    relations = [
        [(1, ["a", "d"]), (1, ["b", "d"]), (1, ["c", "d"])],
        [(1, ["a", "e"]), (2, ["b", "e"]), (3, ["c", "e"])],
    ]
    quiver = Quiver(["1", "2", "3"], arrows)
    _, nf = assert_matches_oracle(quiver, relations, 3, PrimeField(p))
    assert max(sum(map(bool, vec)) for vec in nf.values()) == 2


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ka_rad2_matches_the_dense_reduction(n):
    for p in (2, 3):
        basis, _ = assert_matches_oracle(*_ka_rad2(n), PrimeField(p))
        assert len(basis) == 2 * n - 1


@pytest.mark.parametrize("s, d", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)])
def test_type_a_matches_the_dense_reduction(s, d):
    vertices, arrows, relations, bound = higher_auslander(s, d)
    for p in (2, 3):
        basis, _ = assert_matches_oracle(Quiver(vertices, arrows), relations, bound, PrimeField(p))
        assert len(basis) == higher_auslander_dim(s, d)


@pytest.mark.parametrize("s, d", SMALL_TYPE_A)
def test_type_a_dimension_is_the_closed_form(s, d):
    vertices, arrows, relations, bound = higher_auslander(s, d)
    alg = build_algebra(Quiver(vertices, arrows), relations, bound, PrimeField(2))
    assert alg.dim == higher_auslander_dim(s, d)


@pytest.mark.parametrize("n, l", NAKAYAMA)
def test_nakayama_matches_the_dense_reduction(n, l):
    vertices, arrows, relations, bound = nakayama(n, l)
    quiver = Quiver(vertices, arrows)
    for p in (2, 3):
        basis, _ = assert_matches_oracle(quiver, relations, bound, PrimeField(p))
        assert len(basis) == n * l
        # relations one arrow longer leave the paths of length l outside the ideal
        witness, message = assert_matches_oracle(quiver, nakayama(n, l + 1)[2], l, PrimeField(p))
        assert len(witness) == l and "does not lie in the relation ideal" in message


def _presentations():
    yield _fixture("ka2.json")
    yield _fixture("ka3rad2.json")
    for n in (3, 4, 5, 6):
        yield _ka_rad2(n)
    for s in (3, 4):
        vertices, arrows, relations, bound = higher_auslander(s, 2)
        yield Quiver(vertices, arrows), relations, bound
    for n, l in NAKAYAMA:
        vertices, arrows, relations, bound = nakayama(n, l)
        yield Quiver(vertices, arrows), relations, bound


def test_each_build_enumerates_once_and_reduces_once(monkeypatch):
    calls = {"enumerate": 0, "reduce": 0}
    enumerate_paths = algebra._enumerate_paths
    reduce_ideal = algebra.BoundQuiverAlgebra._reduce_ideal

    def counted_enumerate(*args, **kwargs):
        calls["enumerate"] += 1
        return enumerate_paths(*args, **kwargs)

    def counted_reduce(*args, **kwargs):
        calls["reduce"] += 1
        return reduce_ideal(*args, **kwargs)

    monkeypatch.setattr(algebra, "_enumerate_paths", counted_enumerate)
    monkeypatch.setattr(algebra.BoundQuiverAlgebra, "_reduce_ideal", counted_reduce)
    for quiver, relations, bound in _presentations():
        calls.update(enumerate=0, reduce=0)
        alg = build_algebra(quiver, relations, bound, PrimeField(2))
        assert calls == {"enumerate": 1, "reduce": 1}, (quiver, bound)
        alg.opposite()
        assert calls == {"enumerate": 1, "reduce": 1}, (quiver, bound)


def _random_presentation(rng):
    """A small presentation: loops, non-homogeneous relations, bounds that may be too small.

    Three loops at one vertex already give 1093 paths up to the certificate's
    degree, which the dense oracle crawls through, so one vertex gets two arrows.
    """
    vertices = [str(v) for v in range(rng.randint(1, 3))]
    arrows = [
        (f"x{i}", rng.choice(vertices), rng.choice(vertices))
        for i in range(rng.randint(1, min(3, len(vertices) + 1)))
    ]
    words, layer = [], [[a] for a in arrows]
    for _ in range(3):
        words += layer
        layer = [w + [a] for w in layer for a in arrows if a[1] == w[-1][2]]
    parallel = {}
    for w in words:
        if len(w) >= 2:
            parallel.setdefault((w[0][1], w[-1][2]), []).append([a[0] for a in w])
    relations = []
    for _ in range(rng.randint(0, 4) if parallel else 0):
        terms = parallel[rng.choice(sorted(parallel))]
        if rng.random() < 0.5:
            terms = [w for w in terms if len(w) == len(terms[0])]
        chosen = rng.sample(terms, min(rng.randint(1, 3), len(terms)))
        relations.append([(rng.choice([-3, -2, -1, 1, 2, 3]), w) for w in chosen])
    bound = rng.randint(1, 3)
    if bound > 1 and rng.random() < 0.5:
        # kill every path of length N, so that the shorter relations shape the normal forms
        relations += [[(1, [a[0] for a in w])] for w in words if len(w) == bound]
    return Quiver(vertices, arrows), relations, bound


def _two_loop_presentation(rng):
    """Two loops at one vertex, N = 3, and three-term relations among the paths of length 2.

    `_random_presentation` never draws a normal form of two or more terms;
    two such relations among the four paths of length 2 often do.
    """
    words = [[a, b] for a in ("x", "y") for b in ("x", "y")]
    relations = [
        [(rng.choice([1, -1, 2]), w) for w in rng.sample(words, 3)]
        for _ in range(rng.randint(1, 3))
    ]
    return Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")]), relations, 3


def test_random_presentations_match_the_dense_reduction():
    refused = 0
    for seed in range(240):
        rng = random.Random(seed)
        field = PrimeField(rng.choice([2, 3, 5]))
        outcome = assert_matches_oracle(*_random_presentation(rng), field)
        refused += isinstance(outcome[1], str)
    # both kinds of outcome are exercised
    assert 40 <= refused <= 200
    several = 0
    for seed in range(240, 280):
        rng = random.Random(seed)
        field = PrimeField(rng.choice([2, 3, 5]))
        _, nf = assert_matches_oracle(*_two_loop_presentation(rng), field)
        several += not isinstance(nf, str) and max(sum(map(bool, v)) for v in nf.values()) >= 2
    assert several
