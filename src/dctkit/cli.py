"""Command-line front end.

Every command reads one workspace file, runs one computation, and
prints exactly one JSON document to stdout (sorted keys, two-space
indent).  All computation is single-threaded and deterministic, so the
same invocation produces byte-identical output on every run.  The
DCT_THREADS environment variable is accepted and ignored.

Exit codes:
  0  the command ran and produced its result (including negative
     verdicts of query commands such as ``d-rigid`` or ``ct-check``)
  1  a verification command found a failure, or a mandatory post-hoc
     check on a constructed object failed
  2  bad input: unreadable or invalid workspace, unknown names,
     malformed flags, non-admissible presentations, or an exhausted
     scan budget (raise ``--cap``)
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import TYPE_CHECKING, Optional, Tuple

from . import repcat, workspace
from .approx import AddCategory
from .errors import (
    CapExceeded,
    DctError,
    VerificationFailed,
    WorkspaceError,
)
from .repcat import Module, Morphism
from .workspace import Workspace

# Only the runners that need homological, dexact or artheory import them, so
# a command loads just the layers it runs.
if TYPE_CHECKING:
    from .dexact import DSequence


class UsageError(WorkspaceError):
    """Malformed command line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The `dct` parser, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", required=True, help="path to a workspace JSON file")
    common.add_argument("--d", type=int, default=None, help="override the workspace size parameter")
    common.add_argument("--field", type=int, default=None, help="override the coefficient prime")
    common.add_argument("--bound", type=int, default=None,
                        help="total-dimension bound for enumeration commands, at least 1 "
                             "(default: the algebra dimension)")
    common.add_argument("--cap", type=int, default=None,
                        help="scan budget override (at least 1)")
    common.add_argument("--dot", default=None, help="also write dot output to this path (emit-dot)")

    parser = _Parser(prog="dct", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    sub.add_parser("check-algebra", parents=[common],
                   help="validate the presentation and print its basic data")

    p = sub.add_parser("hom", parents=[common], help="dimension of a hom space")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)

    p = sub.add_parser("ext", parents=[common], help="dimension of an extension space")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("resolve", parents=[common], help="projective resolution terms")
    p.add_argument("--module", required=True)
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("tau-d", parents=[common], help="higher translate of a module")
    p.add_argument("--module", required=True)
    p.add_argument("--minus", action="store_true", help="apply the inverse translate instead")

    p = sub.add_parser("decompose", parents=[common], help="indecomposable decomposition")
    p.add_argument("--module", required=True)

    sub.add_parser("enumerate", parents=[common],
                   help="all indecomposables up to the dimension bound")

    p = sub.add_parser("d-rigid", parents=[common], help="self-orthogonality certificate")
    p.add_argument("--category", required=True)

    p = sub.add_parser("ct-check", parents=[common],
                       help="cluster-tilting certificate against the enumerated universe")
    p.add_argument("--category", required=True)

    p = sub.add_parser("build-d-exact", parents=[common],
                       help="extend a morphism to a left d-exact sequence")
    p.add_argument("--category", required=True)
    p.add_argument("--map", dest="map_name", required=True)

    p = sub.add_parser("defect", parents=[common], help="defect dimensions of a sequence at a module")
    p.add_argument("--category", required=True)
    p.add_argument("--map", dest="map_name", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--x", dest="x_name", required=True)

    p = sub.add_parser("verify-defect-formula", parents=[common],
                       help="check the defect pairing on one sequence")
    p.add_argument("--category", required=True)
    p.add_argument("--map", dest="map_name", default=None)
    p.add_argument("--target", default=None)

    p = sub.add_parser("verify-ar-duality", parents=[common],
                       help="check the stable-hom/extension duality on all generator pairs")
    p.add_argument("--category", required=True)

    p = sub.add_parser("determined", parents=[common],
                       help="build the morphism with a prescribed induced image")
    p.add_argument("--category", required=True)
    p.add_argument("--x", dest="x_name", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--submodule", choices=["zero", "full", "radical"], required=True)

    p = sub.add_parser("dass", parents=[common],
                       help="the d-almost-split sequence ending at a module")
    p.add_argument("--category", required=True)
    p.add_argument("--target", required=True)

    p = sub.add_parser("gldim-end", parents=[common],
                       help="homological dimensions of the generator's endomorphism side")
    p.add_argument("--category", required=True)

    p = sub.add_parser("emit-dot", parents=[common], help="render a sequence as a dot digraph")
    p.add_argument("--category", required=True)
    p.add_argument("--map", dest="map_name", default=None)
    p.add_argument("--target", default=None)

    return parser


def _load(args) -> Workspace:
    return workspace.load(args.workspace, args.field, args.d)


def _dim_bound(ws: Workspace, args) -> int:
    return args.bound if args.bound is not None else ws.algebra.dim


def _dims_str(m: Module) -> str:
    return "(" + ",".join(map(str, m.dims)) + ")"


def _match_name(ws: Workspace, m: Module) -> Optional[str]:
    for name in sorted(ws.modules):
        if repcat.are_isomorphic(m, ws.modules[name]):
            return name
    return None


def _label_module(ws: Workspace, m: Module) -> str:
    """Human label: named summands with multiplicities, dims otherwise."""
    if m.is_zero():
        return "0"
    parts = []
    for rep, mult in repcat.decompose(m):
        name = _match_name(ws, rep)
        base = name if name is not None else _dims_str(rep)
        parts.append(base if mult == 1 else f"{base}^{mult}")
    return "+".join(parts)


def _edge_label(f: Morphism) -> str:
    if f.is_mono() and f.is_epi():
        kind = "iso"
    elif f.is_mono():
        kind = "mono"
    elif f.is_epi():
        kind = "epi"
    elif f.is_zero():
        kind = "zero"
    else:
        kind = "map"
    if repcat.is_radical_morphism(f):
        status = "radical"
    elif repcat.is_split_mono(f) or repcat.is_split_epi(f):
        status = "split"
    else:
        status = "plain"
    return f"{kind},{status}"


def emit_dot(ws: Workspace, seq: Optional[DSequence]) -> str:
    """Deterministic dot rendering of a sequence (or the empty digraph), labels escaped."""
    lines = ["digraph sequence {"]
    if seq is not None and seq.terms:
        lines.append("  rankdir=LR;")
        for i, term in enumerate(seq.terms):
            label = f"{_label_module(ws, term)} {_dims_str(term)}"
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{i} [label="{label}"];')
        for i, f in enumerate(seq.maps):
            lines.append(f'  n{i} -> n{i + 1} [label="{_edge_label(f)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _doc(report) -> dict:
    """A report record as a JSON object, with the records inside it as objects too."""
    return {k: _doc(v) if hasattr(v, "_asdict") else v for k, v in report._asdict().items()}


def _sequence_doc(ws: Workspace, seq: DSequence) -> dict:
    return {
        "d": seq.d,
        "terms": [
            {"label": _label_module(ws, t), "dims": list(t.dims)} for t in seq.terms
        ],
        "maps": [
            {
                "mono": f.is_mono(),
                "epi": f.is_epi(),
                "radical": repcat.is_radical_morphism(f),
            }
            for f in seq.maps
        ],
    }


def _sequence_from_args(ws: Workspace, cat: AddCategory, args) -> DSequence:
    has_map = getattr(args, "map_name", None) is not None
    has_target = getattr(args, "target", None) is not None
    if has_map == has_target:
        raise UsageError("give exactly one of --map and --target")
    if has_map:
        from . import dexact

        return dexact.build_left_d_exact(cat, ws.morphism(args.map_name))
    from . import artheory

    return artheory.d_almost_split(cat, ws.module(args.target))


def _render_path(ws: Workspace, path) -> str:
    quiver = ws.algebra.quiver
    if not path.arrows:
        return "e_" + quiver.vertices[path.source]
    return "*".join(quiver.arrows[i].name for i in path.arrows)


def _run_check_algebra(ws: Workspace, args) -> Tuple[dict, int]:
    return (
        {
            "admissible": True,
            "dimension": ws.algebra.dim,
            "n_vertices": ws.algebra.quiver.n_vertices,
            "path_basis": [_render_path(ws, p) for p in ws.algebra.path_basis],
        },
        0,
    )


def _run_hom(ws: Workspace, args) -> Tuple[dict, int]:
    x, y = ws.module(args.src), ws.module(args.dst)
    return {"from": args.src, "to": args.dst, "dim": repcat.hom_dim(x, y)}, 0


def _run_ext(ws: Workspace, args) -> Tuple[dict, int]:
    from . import homological

    if args.degree < 0:
        raise UsageError("--degree must be non-negative")
    x, y = ws.module(args.src), ws.module(args.dst)
    dim = homological.ext_dim(x, y, args.degree)
    return {"from": args.src, "to": args.dst, "degree": args.degree, "dim": dim}, 0


def _run_resolve(ws: Workspace, args) -> Tuple[dict, int]:
    from . import homological

    if args.length < 0:
        raise UsageError("--length must be non-negative")
    x = ws.module(args.module)
    res = homological.resolution(x)
    quiver = ws.algebra.quiver
    terms = []
    for i in range(args.length + 1):
        proj = res.projective(i)
        terms.append(
            {
                "vertices": [quiver.vertices[v] for v in res.vertices(i)],
                "dims": list(proj.dims),
            }
        )
        if proj.is_zero():
            break
    return {"module": args.module, "terms": terms}, 0


def _run_tau_d(ws: Workspace, args) -> Tuple[dict, int]:
    from . import homological

    x = ws.module(args.module)
    out = homological.tau_d_minus(x, ws.d) if args.minus else homological.tau_d(x, ws.d)
    return (
        {
            "module": args.module,
            "minus": bool(args.minus),
            "dims": list(out.dims),
            "isomorphic_to": _match_name(ws, out) if not out.is_zero() else None,
        },
        0,
    )


def _run_decompose(ws: Workspace, args) -> Tuple[dict, int]:
    x = ws.module(args.module)
    summands = []
    for rep, mult in repcat.decompose(x):
        summands.append(
            {
                "dims": list(rep.dims),
                "multiplicity": mult,
                "isomorphic_to": _match_name(ws, rep),
            }
        )
    return {"module": args.module, "summands": summands}, 0


def _run_enumerate(ws: Workspace, args) -> Tuple[dict, int]:
    from . import artheory

    bound = _dim_bound(ws, args)
    classes = artheory.enumerate_indecomposables(ws.algebra, bound, args.cap)
    return (
        {
            "bound": bound,
            "count": len(classes),
            "classes": [
                {"dims": list(m.dims), "isomorphic_to": _match_name(ws, m)}
                for m in classes
            ],
        },
        0,
    )


def _run_d_rigid(ws: Workspace, args) -> Tuple[dict, int]:
    from . import artheory

    report = artheory.is_d_rigid(ws.category(args.category))
    doc = _doc(report)
    doc["category"] = args.category
    return doc, 0


def _run_ct_check(ws: Workspace, args) -> Tuple[dict, int]:
    from . import artheory

    cat = ws.category(args.category)
    bound = _dim_bound(ws, args)
    universe = artheory.enumerate_indecomposables(ws.algebra, bound, args.cap)
    report = artheory.is_d_cluster_tilting(cat, universe)
    doc = _doc(report)
    doc["category"] = args.category
    doc["bound"] = bound
    doc["universe_size"] = len(universe)
    return doc, 0


def _run_build_d_exact(ws: Workspace, args) -> Tuple[dict, int]:
    from . import dexact

    cat = ws.category(args.category)
    seq = dexact.build_left_d_exact(cat, ws.morphism(args.map_name))
    doc = _sequence_doc(ws, seq)
    doc["category"] = args.category
    doc["map"] = args.map_name
    return doc, 0


def _run_defect(ws: Workspace, args) -> Tuple[dict, int]:
    from . import dexact

    cat = ws.category(args.category)
    seq = _sequence_from_args(ws, cat, args)
    x = ws.module(args.x_name)
    return (
        {
            "x": args.x_name,
            "contravariant": dexact.defect_contravariant(seq, x).dim,
            "covariant": dexact.defect_covariant(seq, x).dim,
        },
        0,
    )


def _run_verify_defect_formula(ws: Workspace, args) -> Tuple[dict, int]:
    from . import artheory

    cat = ws.category(args.category)
    seq = _sequence_from_args(ws, cat, args)
    report = artheory.verify_defect_formula(seq, cat)
    doc = _doc(report)
    doc["category"] = args.category
    return doc, 0 if report.ok else 1


def _run_verify_ar_duality(ws: Workspace, args) -> Tuple[dict, int]:
    from . import artheory

    report = artheory.verify_ar_duality(ws.category(args.category))
    doc = _doc(report)
    doc["category"] = args.category
    return doc, 0 if report.ok else 1


def _run_determined(ws: Workspace, args) -> Tuple[dict, int]:
    from . import artheory

    cat = ws.category(args.category)
    x = ws.module(args.x_name)
    n = ws.module(args.target)
    if args.submodule == "zero":
        h = artheory.EndSubmodule.zero(x, n)
    elif args.submodule == "full":
        h = artheory.EndSubmodule.full(x, n)
    else:
        h = artheory.EndSubmodule.radical(x, n)
    g = artheory.determined_morphism(cat, x, n, h, args.cap)
    return (
        {
            "x": args.x_name,
            "target": args.target,
            "submodule": args.submodule,
            "image_dim": h.dim,
            "domain": {
                "label": _label_module(ws, g.domain),
                "dims": list(g.domain.dims),
            },
            "epi": g.is_epi(),
            "ok": True,
        },
        0,
    )


def _run_dass(ws: Workspace, args) -> Tuple[dict, int]:
    from . import artheory

    cat = ws.category(args.category)
    seq = artheory.d_almost_split(cat, ws.module(args.target))
    doc = _sequence_doc(ws, seq)
    doc["category"] = args.category
    doc["target"] = args.target
    return doc, 0


def _run_gldim_end(ws: Workspace, args) -> Tuple[dict, int]:
    from . import artheory

    cat = ws.category(args.category)
    gl = artheory.gldim_end(cat)
    dom = artheory.domdim_end(cat)
    bounds_ok = gl <= ws.d + 1 and (dom == math.inf or ws.d + 1 <= dom)
    return (
        {
            "category": args.category,
            "d": ws.d,
            "gldim_end": gl,
            "domdim_end": "infinite" if dom == math.inf else dom,
            "criterion": "external",
            "bounds_ok": bounds_ok,
        },
        0,
    )


def _run_emit_dot(ws: Workspace, args) -> Tuple[dict, int]:
    cat = ws.category(args.category)
    has_map = args.map_name is not None
    has_target = args.target is not None
    if has_map and has_target:
        raise UsageError("give at most one of --map and --target")
    seq = _sequence_from_args(ws, cat, args) if (has_map or has_target) else None
    text = emit_dot(ws, seq)
    if args.dot is not None:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise WorkspaceError(f"cannot write dot file: {e}") from None
    return {"dot": text}, 0


_RUNNERS = {
    "check-algebra": _run_check_algebra,
    "hom": _run_hom,
    "ext": _run_ext,
    "resolve": _run_resolve,
    "tau-d": _run_tau_d,
    "decompose": _run_decompose,
    "enumerate": _run_enumerate,
    "d-rigid": _run_d_rigid,
    "ct-check": _run_ct_check,
    "build-d-exact": _run_build_d_exact,
    "defect": _run_defect,
    "verify-defect-formula": _run_verify_defect_formula,
    "verify-ar-duality": _run_verify_ar_duality,
    "determined": _run_determined,
    "dass": _run_dass,
    "gldim-end": _run_gldim_end,
    "emit-dot": _run_emit_dot,
}


def _emit(payload: dict) -> None:
    sys.stdout.write(workspace.dumps(payload))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for flag in ("cap", "bound"):
            value = getattr(args, flag)
            if value is not None and value < 1:
                parser.error(f"argument --{flag}: must be at least 1, got {value}")
        ws = _load(args)
        payload, code = _RUNNERS[args.command](ws, args)
    except VerificationFailed as e:
        _emit({"error": {"code": 1, "kind": "verification", "message": str(e)}})
        return 1
    except CapExceeded as e:
        _emit({"error": {"code": 2, "kind": "cap", "message": str(e)}})
        return 2
    except DctError as e:
        _emit({"error": {"code": 2, "kind": "input", "message": str(e)}})
        return 2
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
