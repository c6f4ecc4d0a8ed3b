"""The Fitting split, checked against the End route.

For an endomorphism f of x and N >= dim x, x = Im f^N + Ker f^N (Fitting's
lemma), so a hom-basis element whose power is neither zero nor invertible
splits x with no End engine built.  The oracle splits by
`nontrivial_idempotent` alone, as `split_summands` did before.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctkit import repcat, workspace
from scan_oracles import split_with_projections
from test_end_engine import GROUPS, ROOT, fixture_modules, rebased_sum, special_modules


def idempotent_split(x):
    """The summands of x split by `repcat.nontrivial_idempotent` alone, into Im e + Ker e."""
    if x.is_zero():
        return []
    e = repcat.nontrivial_idempotent(x)
    if e is None:
        return [x]
    return [z for piece in (repcat.image(e)[0], repcat.kernel(e)[0]) for z in idempotent_split(piece)]


def same_classes(xs, ys):
    """Whether two lists of indecomposables fill the same isomorphism classes, as often each."""
    _, label = repcat.iso_classes(list(xs) + list(ys))
    return sorted(label[: len(xs)]) == sorted(label[len(xs) :])


def check_split(x):
    split_with_projections(x)  # the glued inclusions are an isomorphism onto x
    assert all(repcat.nontrivial_idempotent(z) is None for z, _ in repcat.split_summands(x))
    found = [z for z, mult in repcat.decompose(x) for _ in range(mult)]
    assert same_classes(found, idempotent_split(x)), x


# per prime, groups of indecomposables over one algebra each
FIXTURE_GROUPS = GROUPS + [
    [z for m in fixture_modules("ka2.json", p) for z, _ in repcat.split_summands(m)] for p in (2, 3)
]


@settings(max_examples=40, deadline=None)
@given(
    parts=st.sampled_from(FIXTURE_GROUPS).flatmap(
        lambda group: st.lists(st.sampled_from(group), min_size=1, max_size=4)
    ),
    seed=st.integers(0, 2**32),
)
def test_the_fitting_split_matches_the_end_route(parts, seed):
    check_split(rebased_sum(parts, random.Random(seed)))


@pytest.mark.parametrize("p", [5, 7])
def test_sums_over_the_dual_numbers_split_by_a_power_that_is_no_idempotent(p, monkeypatch):
    """Rebased sums of P and S over k[x]/x^2, 100 seeds: where no hom-basis element is an
    idempotent, the first non-invertible one is often not Fitting-stable (Im b meets Ker b),
    and its power b^(2^k) is what splits x."""
    powers, real = [], repcat._fitting_map

    def fitting(x):
        f = real(x)
        if f is not None and f @ f != f:
            powers.append(f)
        return f

    monkeypatch.setattr(repcat, "_fitting_map", fitting)
    parts = special_modules(p)[:2]
    for seed in range(100):
        rng = random.Random(seed)
        check_split(rebased_sum([rng.choice(parts) for _ in range(rng.randint(2, 4))], rng))
    assert powers


def _hidden_sum(n, p, seed):
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import kafamily
    finally:
        sys.path.pop(0)
    return workspace.parse(kafamily.ka_document(n, p, random.Random(seed)).doc).module("Xsum")


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("p", [5, 7])
def test_decompose_of_the_hidden_sum_builds_no_end_engine_over_larger_fields(p, n, monkeypatch):
    """Work guard of decompose(Xsum) on KA_n/rad^2 over F_5 and F_7, five documents each."""
    ends, real = [], repcat._end_algebra

    def end(x):
        if repcat.hom_dim(x, x) > 1:
            ends.append(x)
        return real(x)

    monkeypatch.setattr(repcat, "_end_algebra", end)
    xs = [_hidden_sum(n, p, seed) for seed in range(n, n + 5)]
    for x in xs:
        assert sum(mult for _, mult in repcat.decompose(x)) == n + 1
    # 2 to 4 End engines of dim > 1 per (p, n) when pieces with no idempotent
    # basis element went to the End route
    assert ends == []
    monkeypatch.undo()
    for x in xs:
        check_split(x)
