"""Tests of the benchmark itself: ranking, span arithmetic, inputs, checks.

Run from the repository root:  python -m pytest -q perfbench
"""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import kafamily as ka  # noqa: E402
import ranking  # noqa: E402
import run  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402

FLAGSHIP = HERE.parent / "tests" / "data" / "ka3rad2.json"


@pytest.fixture(scope="module")
def dctkit():
    return run.import_dctkit()


# -- ranking ------------------------------------------------------------------


def test_nearest_rank_percentiles():
    values = [float(v) for v in range(1, 101)]
    assert ranking.nearest_rank(values, 0.5) == 50.0
    assert ranking.nearest_rank(values, 0.9) == 90.0
    assert ranking.nearest_rank(values, 1.0) == 100.0
    assert ranking.beyond(values, 0.9) == 10
    assert ranking.nearest_rank([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        ranking.nearest_rank([], 0.5)


def test_refused_tasks_rank_as_infinitely_slow():
    assert ranking.ranked([0.3, 0.1], 2) == [0.1, 0.3, math.inf, math.inf]
    # 3 answered, 1 refused: the median is the 2nd of 4.
    s = ranking.summarize([0.1, 0.2, 0.3], 1, 0.95, ceiling=9.0)
    assert s["p50"] == 0.2 and not s["p50_refused"]
    # 1 answered, 3 refused: the median lands on a refusal.
    s = ranking.summarize([0.1], 3, 0.95, ceiling=9.0)
    assert s["p50"] == 9.0 and s["p50_refused"]
    # The tail ranks the answered tasks only.
    lat = [i / 100 for i in range(1, 201)]
    s = ranking.summarize(lat, 50, 0.95, ceiling=99.0)
    assert s["tail"] == 1.9 and s["tail_beyond"] == 10
    assert ranking.summarize(lat, 50, 0.95, 99.0)["p50"] == 1.25


# -- host-speed scaling --------------------------------------------------------


def test_local_slowdown_is_the_median_of_the_probes_around_a_task():
    ref = hostspeed.REFERENCE_S
    probes = [ref * x for x in (1.0, 1.0, 9.0, 2.0, 2.0, 2.0)]
    # Task i sees probes i-2 .. i+1: the two before it and the two after it.
    assert hostspeed.local_slowdowns(probes) == pytest.approx([1.0, 1.0, 1.5, 2.0, 2.0, 2.0])


def test_tally_scales_each_attempt_to_reference_speed(monkeypatch):
    ref = hostspeed.REFERENCE_S
    speeds = iter([2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    monkeypatch.setattr(hostspeed, "probe", lambda: ref * next(speeds))
    tally = run.Tally()
    attempts = [(0.2, True), (0.4, True), (0.2, False), (0.15, True), (0.1, True), (0.1, True)]
    for seconds, answered in attempts:
        tally.add(seconds, answered)
    scaled, median = tally.at_reference_speed()
    assert scaled == pytest.approx([0.1, 0.2, 0.1, 0.1, 0.1, 0.1])
    # The slow-downs are 2, 2, 2, 1.5, 1, 1.
    assert median == pytest.approx(1.75)
    assert (tally.attempted, tally.refused) == (6, 1)
    assert tally.wall == pytest.approx(1.15)


# -- spans ---------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    durations = [10.0, 3.0, 1.0, 4.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(durations, parents) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(durations, parents)) == 10.0


def test_take_pass_folds_layers_and_totals():
    tr = tracing.Tracer()
    outer = tr._name_id("artheory.f", "artheory")
    inner = tr._name_id("exactlin.g", "exactlin")
    tr.span_name.extend([outer, inner, inner, outer])
    tr.start.extend([0.0, 1.0, 1.5, 20.0])
    tr.end.extend([10.0, 3.0, 2.0, 21.0])
    tr.parent.extend([-1, 0, 1, -1])
    summary = tr.take_pass()
    assert summary["layer_self"] == pytest.approx({"artheory": 9.0, "exactlin": 2.0})
    # A nested call of the same function is not counted twice in its total.
    assert summary["total"]["exactlin.g"] == pytest.approx(2.0)
    assert summary["calls"] == {"artheory.f": 2, "exactlin.g": 2}
    assert len(tr.start) == 0


def test_patching_records_spans_attributes_caps_and_restores(dctkit, tmp_path):
    from dctkit import repcat

    ws = dctkit.workspace.parse(json.loads(FLAGSHIP.read_text()))
    big, _, _ = repcat.direct_sum([ws.module("P1")] * 3)
    original = repcat.hom_basis
    tr = tracing.Tracer()
    with tr.patched(dctkit):
        assert repcat.hom_basis is not original
        tr.begin_task()
        with pytest.raises(dctkit.CapExceeded):
            repcat.nontrivial_idempotent(big, cap=4)
        repcat.hom_basis(big, big)
    assert repcat.hom_basis is original
    assert dctkit.repcat.hom_basis is original
    tracing.write_spans(tmp_path / "spans.npz", tr)
    with np.load(tmp_path / "spans.npz") as saved:
        names = [str(saved["names"][i]) for i in saved["span_name"]]
        assert names.count("repcat.nontrivial_idempotent") == 1
        assert saved["parent"][0] == -1 and saved["start"][0] == 0.0
    summary = tr.take_pass()
    assert summary["counts"]["repcat.cap_exceeded"] == 1
    assert summary["calls"]["repcat.nontrivial_idempotent"] == 1
    # The second hom_basis call on the same pair is a repeat.
    assert summary["counts"]["repcat.hom_basis.calls"] == 2
    assert summary["counts"]["repcat.hom_basis.repeats"] == 1
    assert summary["layer_self"]["exactlin"] > 0


# -- inputs and closed forms -------------------------------------------------


def test_generator_reproduces_flagship_dass_dims(dctkit):
    flag = dctkit.workspace.parse(json.loads(FLAGSHIP.read_text()))
    seq = dctkit.d_almost_split(flag.category("M"), flag.module("S1"))
    flag_dims = [tuple(t.dims) for t in seq.terms]
    assert flag_dims == ka.dass_dims(3)
    for seed in range(3):
        inst = ka.ka_document(3, 2, random.Random(seed))
        assert tasks.run_task(dctkit, "dass", inst) == flag_dims


def test_documents_are_distinct_and_deterministic():
    a = ka.DistinctDocuments(5)
    texts = [a.draw(3, 2).text for _ in range(40)]
    assert len(set(texts)) == 40
    b = ka.DistinctDocuments(5)
    assert [b.draw(3, 2).text for _ in range(40)] == texts


def test_documents_hold_over_every_field(dctkit):
    inst = ka.ka_document(4, 2, random.Random(0))
    for p in (2, 3, 5, 7):
        # Parsing re-checks every relation on every module over F_p.
        ws = dctkit.workspace.parse(inst.doc, field_override=p)
        if p <= 3:
            parts = dctkit.repcat.decompose(ws.module(ka.SUM_NAME))
            got = sorted(inst.by_label(m.dims) for m, k in parts for _ in range(k))
            assert got == sorted(ka.generator_dims(4).values())


def test_expected_dot_matches_flagship_rendering():
    doc = json.loads(FLAGSHIP.read_text())
    inst = ka.Instance(3, 2, doc, json.dumps(doc))
    text = tasks.expected_dot(inst)
    assert 'n0 [label="S3 (0,0,1)"]' in text
    assert 'n2 -> n3 [label="epi,radical"]' in text


def test_every_task_kind_checks_on_small_n(dctkit):
    docs = ka.DistinctDocuments(11)
    for kind in tasks.KINDS:
        inst = docs.draw(3, 2)
        tasks.check_task(kind, inst, tasks.run_task(dctkit, kind, inst))


def test_wrong_answer_is_detected():
    with pytest.raises(tasks.WrongAnswer):
        tasks.check_task("gldim_end", ka.ka_document(3, 2, random.Random(0)), 4)
    with pytest.raises(tasks.WrongAnswer):
        tasks.classify_cli(1, {"error": {"kind": "verification"}})
    assert tasks.classify_cli(2, {"error": {"kind": "cap"}}) == "refused"


def test_wrong_expected_answer_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "median_of_fresh_setups", lambda workload, seed: 0.5)
    good = tasks.expected_answer
    monkeypatch.setattr(
        tasks, "expected_answer",
        lambda kind, n: [(0,) * n] if kind == "dass" else good(kind, n),
    )
    code = run.main(["--workload", "family-p2", "--seed", "1", "--seconds", "0.01"])
    out = capsys.readouterr()
    assert code == 1
    assert "wrong answer" in out.err
    assert '"correct"' not in out.out
