import pathlib

import pytest

from dctkit import AddCategory, PrimeField, Quiver, build_algebra
from dctkit import repcat

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def f2():
    return PrimeField(2)


@pytest.fixture(scope="session")
def ka2(f2):
    """Two vertices, one arrow, no relations (nilpotency bound 2)."""
    q = Quiver(["1", "2"], [("a", "1", "2")])
    return build_algebra(q, [], 2, f2)


@pytest.fixture(scope="session")
def ka2_mods(ka2):
    return {
        "S1": repcat.simple(ka2, 0),
        "S2": repcat.simple(ka2, 1),
        "P1": repcat.projective(ka2, 0),
    }


@pytest.fixture(scope="session")
def ka2_cat(ka2_mods):
    m = ka2_mods
    return AddCategory([m["S1"], m["S2"], m["P1"]], 1)


def _flagship(field):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return build_algebra(q, [[(1, ["a", "b"])]], 2, field)


@pytest.fixture(scope="session")
def flag(f2):
    """Three vertices in a line, composite of the two arrows killed."""
    return _flagship(f2)


@pytest.fixture
def fresh_flag(f2):
    """The flagship algebra built anew: no module over it has computed anything yet.

    Equal modules are one object, so a module over the session algebra
    carries what earlier tests computed on it.
    """
    return _flagship(f2)


@pytest.fixture(scope="session")
def flag_mods(flag):
    return {
        "S1": repcat.simple(flag, 0),
        "S2": repcat.simple(flag, 1),
        "S3": repcat.simple(flag, 2),
        "P1": repcat.projective(flag, 0),
        "P2": repcat.projective(flag, 1),
    }


@pytest.fixture(scope="session")
def flag_cat(flag_mods):
    m = flag_mods
    return AddCategory([m["P1"], m["P2"], m["S3"], m["S1"]], 2)


@pytest.fixture(scope="session")
def semisimple(f2):
    """Two isolated vertices: every module is a sum of the two simples."""
    q = Quiver(["u", "v"], [])
    return build_algebra(q, [], 1, f2)
