"""The benchmark's tasks and the closed-form checks of their answers.

An in-process task parses a generated workspace document and runs one
workflow; a CLI task is one ``dct`` command on a generated workspace
file.  Every answer is compared with the closed form in ``kafamily`` and a
mismatch raises ``WrongAnswer``, which aborts the run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import kafamily as ka

KINDS = (
    "dass",
    "verify_defect",
    "verify_ar",
    "verify_tau",
    "gldim_end",
    "ct_check",
    "decompose",
)


class WrongAnswer(AssertionError):
    """A task returned something other than its closed-form answer."""


def expect(got, want, what: str) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {got!r}, expected {want!r}")


# -- in-process tasks ---------------------------------------------------------


def run_task(dctkit, kind: str, inst: ka.Instance):
    """Parse the document and run one workflow; return a basis-free answer."""
    art = dctkit.artheory
    ws = dctkit.workspace.parse(inst.doc)
    cat = ws.category("M")
    if kind in ("dass", "verify_defect"):
        seq = art.d_almost_split(cat, ws.module("S1"))
        dims = [inst.by_label(t.dims) for t in seq.terms]
        if kind == "dass":
            return dims
        return dims, art.verify_defect_formula(seq, cat).ok
    if kind == "verify_ar":
        return art.verify_ar_duality(cat).ok
    if kind == "verify_tau":
        return art.verify_tau_d_equivalence(cat).ok
    if kind == "gldim_end":
        return art.gldim_end(cat)
    if kind == "ct_check":
        universe = art.enumerate_indecomposables(ws.algebra, 2)
        report = art.is_d_cluster_tilting(cat, universe)
        return sorted(inst.by_label(m.dims) for m in universe), report.ok
    if kind == "decompose":
        parts = dctkit.repcat.decompose(ws.module(ka.SUM_NAME))
        return sorted(inst.by_label(m.dims) for m, mult in parts for _ in range(mult))
    raise ValueError(f"unknown task kind {kind!r}")


def expected_answer(kind: str, n: int):
    """The closed-form answer of a task on KA_n/rad^2."""
    if kind == "dass":
        return ka.dass_dims(n)
    if kind == "verify_defect":
        return ka.dass_dims(n), True
    if kind in ("verify_ar", "verify_tau"):
        return True
    if kind == "gldim_end":
        return n
    if kind == "ct_check":
        return sorted(ka.universe_dims(n)), True
    if kind == "decompose":
        return sorted(ka.generator_dims(n).values())
    raise ValueError(f"unknown task kind {kind!r}")


def check_task(kind: str, inst: ka.Instance, answer) -> None:
    expect(answer, expected_answer(kind, inst.n), f"{kind} n={inst.n} p={inst.p}")


# -- CLI tasks ----------------------------------------------------------------


Check = Callable[[dict, ka.Instance, str], None]


def _check_algebra(doc, inst, _):
    n = inst.n
    expect(doc["admissible"], True, "check-algebra admissible")
    expect(doc["dimension"], 2 * n - 1, "check-algebra dimension")
    expect(doc["n_vertices"], n, "check-algebra n_vertices")
    basis = [f"e_{v}" for v in range(1, n + 1)] + list(ka.ARROW_NAMES[: n - 1])
    expect(sorted(doc["path_basis"]), sorted(basis), "check-algebra path_basis")


def _check_hom(doc, inst, _):
    expect(doc["dim"], 1, "hom P1 -> S1")


def _check_ext(doc, inst, _):
    expect(doc["dim"], 1, f"ext^{inst.n - 1}(S1, S{inst.n})")


def _check_tau(doc, inst, _):
    expect(inst.by_label(doc["dims"]), ka.unit_vector(inst.n, inst.n), "tau-d S1 dims")
    expect(doc["isomorphic_to"], f"S{inst.n}", "tau-d S1 name")


def _check_decompose(doc, inst, _):
    names = {dims: name for name, dims in ka.generator_dims(inst.n).items()}
    got = sorted(
        (inst.by_label(s["dims"]), s["isomorphic_to"])
        for s in doc["summands"]
        for _ in range(s["multiplicity"])
    )
    expect(got, sorted(names.items()), "decompose Xsum")


def _ct_checker(bound):
    def check(doc, inst, _):
        n = inst.n
        expect(doc["ok"], True, "ct-check ok")
        expect(doc["bound"], 2 * n - 1 if bound is None else bound, "ct-check bound")
        expect(doc["universe_size"], 2 * n - 1, "ct-check universe size")
        expect(
            sorted(inst.by_label(d) for d in doc["universe_dims"]),
            sorted(ka.universe_dims(n)),
            "ct-check universe",
        )
    return check


def _check_ok(doc, inst, _):
    expect(doc["ok"], True, "verification report ok")


def _check_determined(doc, inst, _):
    expect(doc["ok"], True, "determined ok")
    expect(doc["image_dim"], 0, "determined image_dim")
    expect(doc["epi"], True, "determined epi")
    expect(doc["domain"]["label"], "P1", "determined domain label")
    expect(inst.by_label(doc["domain"]["dims"]), ka.unit_vector(inst.n, 1, 2), "determined domain")


def _check_gldim(doc, inst, _):
    expect(doc["gldim_end"], inst.n, "gldim-end")
    expect(doc["bounds_ok"], True, "gldim-end bounds_ok")


def _check_dass(doc, inst, _):
    n = inst.n
    expect(doc["d"], n - 1, "dass d")
    expect([inst.by_label(t["dims"]) for t in doc["terms"]], ka.dass_dims(n), "dass dims")
    expect([t["label"] for t in doc["terms"]], ka.dass_labels(n), "dass labels")
    maps = doc["maps"]
    expect(len(maps), n, "dass map count")
    expect(maps[0]["mono"] and maps[-1]["epi"], True, "dass ends mono and epi")
    expect(all(m["radical"] for m in maps), True, "dass maps radical")


def expected_dot(inst: ka.Instance) -> str:
    """The dot rendering of the almost-split sequence ending at S1."""
    n = inst.n
    lines = ["digraph sequence {", "  rankdir=LR;"]
    for i, (label, dims) in enumerate(zip(ka.dass_labels(n), ka.dass_dims(n))):
        shown = ",".join(str(x) for x in inst.in_quiver_order(dims))
        lines.append(f'  n{i} [label="{label} ({shown})"];')
    for i in range(n):
        kind = "mono" if i == 0 else "epi" if i == n - 1 else "map"
        lines.append(f'  n{i} -> n{i + 1} [label="{kind},radical"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _check_dot(doc, inst, dot_path):
    want = expected_dot(inst)
    expect(doc["dot"], want, "emit-dot text")
    with open(dot_path, encoding="utf-8") as fh:
        expect(fh.read(), want, "emit-dot file")


def _check_enumerate(doc, inst, _):
    n = inst.n
    expect(doc["bound"], 2 * n - 1, "enumerate bound")
    expect(doc["count"], 2 * n - 1, "enumerate count")
    expect(
        sorted(inst.by_label(c["dims"]) for c in doc["classes"]),
        sorted(ka.universe_dims(n)),
        "enumerate classes",
    )


def cli_commands(n: int, dot_path: str) -> List[Tuple[List[str], Check]]:
    """The flagship command list for KA_n/rad^2 (argv after ``--workspace``)."""
    return [
        (["check-algebra"], _check_algebra),
        (["hom", "--from", "P1", "--to", "S1"], _check_hom),
        (["ext", "--from", "S1", "--to", f"S{n}", "--degree", str(n - 1)], _check_ext),
        (["tau-d", "--module", "S1"], _check_tau),
        (["decompose", "--module", ka.SUM_NAME], _check_decompose),
        (["ct-check", "--category", "M", "--bound", "2"], _ct_checker(2)),
        (["verify-ar-duality", "--category", "M"], _check_ok),
        (["verify-defect-formula", "--category", "M", "--target", "S1"], _check_ok),
        (
            ["determined", "--category", "M", "--x", "S1", "--target", "S1",
             "--submodule", "zero"],
            _check_determined,
        ),
        (["gldim-end", "--category", "M"], _check_gldim),
        (["dass", "--category", "M", "--target", "S1"], _check_dass),
        (["dass", "--category", "M", "--target", "S1", "--field", "3"], _check_dass),
        (["emit-dot", "--category", "M", "--target", "S1", "--dot", dot_path], _check_dot),
        # The paper's own examples; refused at the default cap on n = 3 today.
        (["enumerate"], _check_enumerate),
        (["ct-check", "--category", "M"], _ct_checker(None)),
        (["dass", "--category", "M", "--target", "S1", "--field", "5"], _check_dass),
    ]


def classify_cli(code: int, doc: dict) -> str:
    """'answered' for exit 0, 'refused' for an exhausted scan budget.

    Any other outcome (a verification failure, an input error) is a wrong
    answer: the closed forms say every command here succeeds.
    """
    if code == 0 and "error" not in doc:
        return "answered"
    if code == 2 and doc.get("error", {}).get("kind") == "cap":
        return "refused"
    raise WrongAnswer(f"dct exited {code}: {doc.get('error')}")


CLI_SIZES: Dict[str, int] = {"ka3rad2": 3, "ka2": 2}
