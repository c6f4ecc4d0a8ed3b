"""Top-level acceptance run: ten checks, one verdict line each.

Each check prints ``[PASS] NN <caption>`` (or ``[FAIL] NN <caption>`` before
the traceback) directly to the terminal, bypassing pytest's capture, so a
``pytest -v`` run shows a readable scoreboard.  Every numeric comparison in
this file is exact — the arithmetic is over prime fields, so there is no
tolerance anywhere.
"""

import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager

from dctkit import (
    AddCategory,
    Morphism,
    build_left_d_exact,
    d_almost_split,
    defect_contravariant,
    defect_covariant,
    determined_morphism,
    enumerate_indecomposables,
    ext_dim,
    domdim_end,
    gldim_end,
    is_d_cluster_tilting,
    is_right_X_determined,
    right_determiner_check,
    tau_d,
    verify_ar_duality,
    verify_defect_formula,
    verify_tau_d_equivalence,
)
from dctkit import dexact, exactlin, homological, repcat
from dctkit.homological import tr_d
from scan_oracles import (
    all_end_submodules,
    contraction,
    find_isomorphism,
    identity_chain,
    long_exact_extension_ok,
    null_homotopy,
    tensor_map,
)

DATA = pathlib.Path(__file__).parent / "data"
KA2_WS = str(DATA / "ka2.json")
FLAG_WS = str(DATA / "ka3rad2.json")


@contextmanager
def verdict(capsys, code, caption):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {code} {caption}")
        raise
    with capsys.disabled():
        print(f"[PASS] {code} {caption}")


def _iso(a, b):
    return find_isomorphism(a, b) is not None


def _all_maps(src, dst):
    """Every element of the hom space, not just a basis."""
    basis = repcat.hom_basis(src, dst)
    p = src.field.p
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        out = Morphism.zero(src, dst)
        for c, h in zip(coeffs, basis):
            if c:
                out = out + h.scale(c)
        yield out


def _suite_sequences(cat):
    """Almost-split rows plus identity builds plus all base changes of one."""
    pool = cat._summand_pool()
    seqs = [
        d_almost_split(cat, n)
        for n in pool
        if not homological.is_projective(n)
    ]
    base = seqs[0]
    for g in cat.generators:
        seqs.append(build_left_d_exact(cat, Morphism.identity(g)))
    for v in pool:
        for h in repcat.hom_basis(v, base.right_term):
            seqs.append(dexact.d_pullback_complete(cat, base, h).src)
        seqs.append(
            dexact.d_pullback_complete(cat, base, Morphism.zero(v, base.right_term)).src
        )
    for w in pool:
        for h in repcat.hom_basis(base.left_term, w):
            seqs.append(dexact.d_pushout_complete(cat, base, h).dst)
        seqs.append(
            dexact.d_pushout_complete(cat, base, Morphism.zero(base.left_term, w)).dst
        )
    return seqs


def test_01_classical_almost_split_row(capsys, ka2_cat, ka2_mods):
    with verdict(capsys, "01", "classical almost-split row on the two-vertex line"):
        S1, S2, P1 = ka2_mods["S1"], ka2_mods["S2"], ka2_mods["P1"]
        seq = d_almost_split(ka2_cat, S1)
        assert seq.d == 1 and len(seq.terms) == 3
        assert _iso(seq.terms[0], S2)
        assert _iso(seq.terms[1], P1)
        assert seq.terms[2] is S1
        assert dexact.is_d_exact(seq, ka2_cat)
        assert _iso(tau_d(S1, 1), S2)
        assert defect_contravariant(seq, S1).dim == 1
        assert defect_covariant(seq, seq.left_term).dim == 1


def test_02_flagship_row_and_cluster_tilting(capsys, flag, flag_cat, flag_mods):
    with verdict(capsys, "02", "flagship category certified and its 4-term row"):
        S1, S2, S3 = flag_mods["S1"], flag_mods["S2"], flag_mods["S3"]
        P1, P2 = flag_mods["P1"], flag_mods["P2"]
        universe = enumerate_indecomposables(flag, 2)
        assert len(universe) == 5
        assert sorted(m.dims for m in universe) == [
            (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0),
        ]
        report = is_d_cluster_tilting(flag_cat, universe)
        assert report.ok
        (s2_row,) = [r for r in report.rows if tuple(r["dims"]) == (0, 1, 0)]
        assert not s2_row["in_category"]
        assert not s2_row["left_orthogonal"]
        assert not s2_row["right_orthogonal"]
        assert ext_dim(S2, S3, 1) == 1
        assert _iso(tau_d(S1, 2), S3)

        seq = d_almost_split(flag_cat, S1)
        assert [t.dims for t in seq.terms] == [
            (0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0),
        ]
        assert dexact.is_d_exact(seq, flag_cat)
        assert all(repcat.is_radical_morphism(m) for m in seq.maps)

        # the end map absorbs every non-retraction into the target
        g = seq.right_map
        assert not repcat.is_split_epi(g)
        for v in flag_cat._summand_pool():
            for h in _all_maps(v, S1):
                if repcat.is_split_epi(h):
                    continue
                assert repcat.factor_through(h, g) is not None

        # the start map extends along every non-section out of the source
        f = seq.left_map
        assert not repcat.is_split_mono(f)
        for w in flag_cat._summand_pool():
            for h in _all_maps(seq.left_term, w):
                if repcat.is_split_mono(h):
                    continue
                assert repcat.cofactor_through(h, f) is not None


def test_03_defect_formula_suite(capsys, ka2_cat, flag_cat):
    with verdict(capsys, "03", "defect formula over every suite sequence"):
        total = 0
        for cat in (ka2_cat, flag_cat):
            for seq in _suite_sequences(cat):
                assert dexact.is_d_exact(seq, cat)
                report = verify_defect_formula(seq, cat)
                assert report.ok, report.rows
                total += len(report.rows)
        assert total >= 20


def test_04_translation_duality(capsys, ka2_cat, flag_cat):
    with verdict(capsys, "04", "stable-hom/extension duality on all pairs"):
        for cat in (ka2_cat, flag_cat):
            pool = cat._summand_pool()
            nonproj = [x for x in pool if not homological.is_projective(x)]
            report = verify_ar_duality(cat)
            assert report.ok
            assert len(report.rows) == len(nonproj) * len(pool)
            for row in report.rows:
                assert row["stable_hom"] == row["ext"]


def test_05_translation_equivalence(capsys, ka2_cat, flag_cat):
    with verdict(capsys, "05", "higher translation is a stable equivalence"):
        for cat in (ka2_cat, flag_cat):
            pool = cat._summand_pool()
            nonproj = [x for x in pool if not homological.is_projective(x)]
            report = verify_tau_d_equivalence(cat)
            assert report.ok
            assert report.bijection and report.inverses_ok and report.stable_ok
            assert len(report.pairs) == len(nonproj)


def test_06_tensor_pairing(capsys, ka2, flag, ka2_cat, flag_cat):
    with verdict(capsys, "06", "transpose pairing and tensor right-exactness"):
        nonzero = 0
        for alg, cat in ((ka2, ka2_cat), (flag, flag_cat)):
            d = cat.d
            pool = cat._summand_pool()
            universe = enumerate_indecomposables(alg, 2)
            for x in pool:
                if homological.is_projective(x):
                    continue
                tr = tr_d(x, d)
                for m in universe:
                    for i in range(1, d + 1):
                        # D Tor_j(m, tr) = Ext^j(tr, D m)
                        t = ext_dim(tr, repcat.duality(m), d - i)
                        assert t == ext_dim(x, m, i)
                        nonzero += bool(t)
            # dualized almost-split rows stay exact at the end under tensoring
            for n in pool:
                if homological.is_projective(n):
                    continue
                seq = d_almost_split(cat, n)
                dual_maps = [repcat.duality_morphism(mm) for mm in reversed(seq.maps)]
                for m in universe:
                    last = tensor_map(m, dual_maps[-1])
                    prev = tensor_map(m, dual_maps[-2])
                    # D(m (x) n) = Hom(n, D m)
                    tensor_dim = repcat.hom_dim(dual_maps[-1].codomain, repcat.duality(m))
                    assert exactlin.rank(last) == tensor_dim
                    assert (last @ prev).is_zero()
                    assert last.cols - exactlin.rank(last) == exactlin.rank(prev)
        assert nonzero >= 1


def test_07_determined_morphisms(capsys, flag_cat, flag_mods):
    with verdict(capsys, "07", "every admissible hom subspace is realized"):
        pool = flag_cat._summand_pool()
        both, _, _ = repcat.direct_sum([flag_mods["P1"], flag_mods["S1"]])
        checked = 0
        for x in list(pool) + [both]:
            for n in pool:
                if repcat.hom_dim(x, n) > 4:
                    continue
                for h in all_end_submodules(x, n):
                    g = determined_morphism(flag_cat, x, n, h)
                    assert exactlin.subspace_eq(repcat.hom_image(x, g), h.basis)
                    assert is_right_X_determined(g, x, pool).ok
                    seq = build_left_d_exact(flag_cat, g)
                    report = right_determiner_check(seq, flag_cat)
                    assert report.with_regular_ok
                    if report.epi:
                        assert report.translate_only_ok
                    checked += 1
        assert checked >= 25


def test_08_endomorphism_dimensions(capsys, ka2_cat, flag_cat):
    with verdict(capsys, "08", "endomorphism ring global and dominant dimensions"):
        for cat, expected in ((ka2_cat, 2), (flag_cat, 3)):
            g = gldim_end(cat)
            dd = domdim_end(cat)
            assert g == expected
            assert dd == expected
            assert g <= cat.d + 1
            assert dd == math.inf or dd >= cat.d + 1


def test_09_structural_suite(capsys, ka2_cat, flag_cat):
    with verdict(capsys, "09", "splitting, homotopies, cones, long sequences"):
        for cat in (ka2_cat, flag_cat):
            d = cat.d
            pool = cat._summand_pool()
            gens = cat.generators

            # split rows are contractible and admit contractions, for every
            # choice of generator entries
            for picks in itertools.product(gens, repeat=d + 1):
                terms = [picks[0]]
                maps = []
                for i in range(d):
                    total, incs, projs = repcat.direct_sum([picks[i], picks[i + 1]])
                    terms.append(total)
                    maps.append(
                        incs[0] if i == 0 else incs[0] @ prev_proj
                    )
                    prev_proj = projs[1]
                terms.append(picks[d])
                maps.append(prev_proj)
                split_row = dexact.DSequence(terms, maps, cat)
                assert dexact.is_contractible(split_row)
                assert repcat.is_split_epi(split_row.right_map)
                assert contraction(split_row) is not None
                assert dexact.is_d_exact(split_row, cat)

            base = next(
                d_almost_split(cat, n)
                for n in pool
                if not homological.is_projective(n)
            )
            # the non-split row: no contraction, no section, but the zero
            # chain endomorphism still bounds
            assert not dexact.is_contractible(base)
            assert contraction(base) is None
            zero_chain = dexact.ComplexMorphism(
                base, base, [Morphism.zero(t, t) for t in base.terms]
            )
            assert null_homotopy(zero_chain) is not None
            ident = dexact.ComplexMorphism(base, base, identity_chain(base))
            assert null_homotopy(ident) is None

            # every base change keeps the one-sided exactness of its cone
            for v in pool:
                legs = list(repcat.hom_basis(v, base.right_term))
                legs.append(Morphism.zero(v, base.right_term))
                for h in legs:
                    cm = dexact.d_pullback_complete(cat, base, h)
                    assert dexact.is_chain_map(cm.src, cm.dst, cm.maps)
                    assert dexact.is_left_d_exact(cm.src, cat)
                legs = list(repcat.hom_basis(base.left_term, v))
                legs.append(Morphism.zero(base.left_term, v))
                for h in legs:
                    cm = dexact.d_pushout_complete(cat, base, h)
                    assert dexact.is_chain_map(cm.src, cm.dst, cm.maps)
                    assert dexact.is_right_d_exact(cm.dst, cat)

            # hom long sequences extend correctly for every generator
            for seq in _suite_sequences(cat):
                for x in gens:
                    assert long_exact_extension_ok(seq, x)


def test_10_cli_determinism(capsys, tmp_path):
    with verdict(capsys, "10", "command line byte-determinism across thread caps"):
        commands = [
            ("check-algebra", "--workspace", FLAG_WS),
            ("hom", "--workspace", FLAG_WS, "--from", "P2", "--to", "P1"),
            ("ext", "--workspace", FLAG_WS, "--from", "S1", "--to", "S2", "--degree", "1"),
            ("resolve", "--workspace", FLAG_WS, "--module", "S2", "--length", "3"),
            ("tau-d", "--workspace", FLAG_WS, "--module", "S1"),
            ("decompose", "--workspace", FLAG_WS, "--module", "P2"),
            ("enumerate", "--workspace", FLAG_WS, "--bound", "2"),
            ("d-rigid", "--workspace", FLAG_WS, "--category", "M"),
            ("ct-check", "--workspace", FLAG_WS, "--category", "M", "--bound", "2"),
            ("build-d-exact", "--workspace", FLAG_WS, "--category", "M", "--map", "cover1"),
            ("defect", "--workspace", FLAG_WS, "--category", "M",
             "--target", "S1", "--x", "P1"),
            ("verify-defect-formula", "--workspace", FLAG_WS, "--category", "M",
             "--target", "S1"),
            ("verify-ar-duality", "--workspace", FLAG_WS, "--category", "M"),
            ("determined", "--workspace", FLAG_WS, "--category", "M",
             "--x", "S1", "--target", "S1", "--submodule", "full"),
            ("dass", "--workspace", FLAG_WS, "--category", "M", "--target", "S1"),
            ("gldim-end", "--workspace", FLAG_WS, "--category", "M"),
            ("emit-dot", "--workspace", FLAG_WS, "--category", "M", "--target", "S1"),
            ("check-algebra", "--workspace", KA2_WS),
            ("ct-check", "--workspace", KA2_WS, "--category", "M", "--bound", "2"),
            ("dass", "--workspace", KA2_WS, "--category", "M", "--target", "S1"),
            ("verify-ar-duality", "--workspace", KA2_WS, "--category", "M"),
            ("gldim-end", "--workspace", KA2_WS, "--category", "M"),
        ]
        for cmd in commands:
            runs = []
            for threads in ("1", "16"):
                env = dict(os.environ)
                env["DCT_THREADS"] = threads
                runs.append(
                    subprocess.run(
                        [sys.executable, "-m", "dctkit.cli", *cmd],
                        capture_output=True,
                        text=True,
                        env=env,
                    )
                )
            first, second = runs
            assert first.returncode == second.returncode == 0, cmd
            assert first.stdout == second.stdout, cmd
            json.loads(first.stdout)
