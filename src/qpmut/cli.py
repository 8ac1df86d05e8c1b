"""Command-line interface.

Subcommands: mutate-quiver, mutate-qp, mutate-rep, dualize, probe-nondeg,
verify.  Exit codes: 0 ok, 1 verification failure, 2 input error,
3 mutation undefined (2-cycle at the chosen vertex).  Identical inputs and
seeds produce byte-identical output.  QPMUT_TRUNC overrides the default
truncation order.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from . import docio
from .cycles import cyclic_normalize
from .duality import duality_witness, dualize_qp, dualize_rep
from .errors import MutationNotDefined, QpmutError
from .fields import field_from_name
from .homs import YES, is_isomorphic
from .jets import JetSpace
from .mutation import (
    check_beta_alpha,
    constructions_agree,
    involution_pullback,
    mutate_rep,
    premutate_rep,
)
from .qp import QP, mutate_qp, mutate_quiver, premutate_quiver, probe_nondegeneracy
from .quiver import Quiver
from .reps import DecRep, build_triangle, check_module

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_UNDEFINED = 3

_CONSTRUCTION_NAMES = {
    "keralpha": "ker_alpha",
    "cokerbeta": "coker_beta",
    "amalgam": "amalgam",
    "pushout": "pushout",
}


def _default_trunc() -> int:
    env = os.environ.get("QPMUT_TRUNC")
    if not env:
        return docio.DEFAULT_TRUNC
    try:
        return _positive(env)
    except (ValueError, argparse.ArgumentTypeError):
        raise QpmutError(f"QPMUT_TRUNC={env!r} is not a positive integer") from None


def _out(args, doc: dict | str) -> None:
    """Write a document, chunk by chunk, or a report's text to --out or
    stdout.  Callers build the document tree first, so a failure to build
    it leaves no file."""
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            docio.dump(doc, fh)


def _parse_seq(raw: str) -> list[int]:
    try:
        seq = [int(x) for x in raw.split(",") if x.strip() != ""]
    except ValueError as e:
        raise QpmutError(f"bad mutation sequence {raw!r}: {e}") from None
    if not seq:
        raise QpmutError(f"mutation sequence {raw!r} names no vertex")
    return seq


def _load(path: str, want: str):
    obj = docio.load_path(path)
    kinds = {Quiver: "quiver", QP: "qp", DecRep: "decrep"}
    got = kinds.get(type(obj), "unknown")
    if got != want:
        raise QpmutError(f"expected a {want} document, got {got}")
    return obj


def cmd_mutate_quiver(args) -> int:
    obj = docio.load_path(args.infile)
    if isinstance(obj, QP):
        q = obj.quiver
    elif isinstance(obj, Quiver):
        q = obj
    else:
        raise QpmutError("mutate-quiver expects a quiver or qp document")
    out = premutate_quiver(q, args.at) if args.pre else mutate_quiver(q, args.at)
    # the CLI spells field tags q and fp:<p>; documents use Q and Fp:<p>
    tag = args.field
    field = field_from_name({"q": "Q"}.get(tag.lower(), tag.replace("fp:", "Fp:")))
    trunc = _default_trunc() if args.trunc is None else args.trunc
    _out(args, docio.emit_quiver(out, field, trunc))
    return EXIT_OK


def _seq_from_args(args) -> list[int]:
    """The vertices to mutate at: argparse lets exactly one of --at and
    --seq through."""
    return [args.at] if args.at is not None else _parse_seq(args.seq)


def cmd_mutate_qp(args) -> int:
    qp = _load(args.infile, "qp")
    if args.trunc is not None and args.trunc != qp.order:
        longest = max((p.length for p in qp.potential.jet.terms), default=0)
        if longest > args.trunc:
            raise QpmutError(
                f"potential has a term of length {longest}, longer than "
                f"the truncation order {args.trunc}"
            )
        space = JetSpace(qp.quiver, args.trunc, qp.field)
        qp = QP(qp.quiver, cyclic_normalize(space.from_terms(dict(qp.potential.jet.terms))))
    steps = []
    cur = qp
    for k in _seq_from_args(args):
        red, phi, triv = mutate_qp(cur, k)
        steps.append(
            {
                "vertex": k,
                "trivial": docio.emit_qp(triv)["payload"],
                "splitting": docio.emit_substitution(phi),
            }
        )
        cur = red
    doc = docio.emit_qp(cur)
    doc["steps"] = steps
    _out(args, doc)
    return EXIT_OK


def cmd_mutate_rep(args) -> int:
    rep = _load(args.infile, "decrep")
    construction = _CONSTRUCTION_NAMES[args.construction]
    cur = rep
    for k in _seq_from_args(args):
        cur = mutate_rep(cur, k, construction)
    _out(args, docio.emit_decrep(cur))
    return EXIT_OK


def cmd_dualize(args) -> int:
    obj = docio.load_path(args.infile)
    if isinstance(obj, QP):
        out = docio.emit_qp(dualize_qp(obj))
    elif isinstance(obj, DecRep):
        out = docio.emit_decrep(dualize_rep(obj))
    else:
        raise QpmutError("dualize expects a qp or decrep document")
    _out(args, out)
    return EXIT_OK


def cmd_probe_nondeg(args) -> int:
    qp = _load(args.infile, "qp")
    report = probe_nondegeneracy(qp, depth=args.depth, trials=args.trials, seed=args.seed)
    doc = {
        "kind": "nondegeneracy-report",
        "seed": report.seed,
        "depth": report.depth,
        "trials": report.trials,
        "witnesses": report.witnesses,
        "degenerate": report.degenerate,
    }
    _out(args, doc)
    return EXIT_OK


def _admissible_vertices(rep: DecRep) -> list[int]:
    q = rep.qp.quiver
    return [k for k in q.vertices if not q.has_two_cycle_at(k)]


def cmd_verify(args) -> int:
    suite = args.suite
    if args.seed is not None and suite != "involution":
        raise QpmutError(f"--seed is read only by the involution suite, not by suite {suite}")
    seed = 0 if args.seed is None else args.seed
    rep = _load(args.infile, "decrep")
    lines: list[str] = []
    ok = True

    def note(name: str, passed: bool, extra: str = ""):
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}{(' ' + extra) if extra else ''}")

    if suite == "module":
        rpt = check_module(rep)
        note("module: nilpotent and annihilated by all cyclic derivatives", rpt.ok,
             "; ".join(rpt.failures))
    elif suite == "triangle":
        for k in _admissible_vertices(rep):
            t = build_triangle(rep, k)
            note(f"triangle at {k}: compositions vanish",
                 (t.alpha @ t.gamma).is_zero() and (t.gamma @ t.beta).is_zero())
            pm = premutate_rep(rep, k)
            note(f"triangle at {k}: reversed composition is minus the derivative map",
                 check_beta_alpha(pm).ok)
    elif suite == "fourway":
        for k in _admissible_vertices(rep):
            rpt = constructions_agree(rep, k)
            note(f"four constructions agree at {k}", rpt.ok, "; ".join(rpt.failures))
    elif suite == "duality":
        for k in _admissible_vertices(rep):
            try:
                rpt = duality_witness(rep, k)
                note(f"duality commutes at {k}", rpt.ok, "; ".join(rpt.failures))
            except QpmutError as e:
                note(f"duality commutes at {k}", False, str(e))
    elif suite == "involution":
        if not rep.qp.quiver.is_2_acyclic():
            raise QpmutError("involution suite needs a 2-acyclic quiver")
        for k in _admissible_vertices(rep):
            try:
                w = involution_pullback(rep, k)
                res = is_isomorphic(w, rep, seed=seed)
                note(f"double mutation pulls back to the original at {k}",
                     res.verdict == YES, f"verdict={res.verdict} seed={res.seed}")
            except QpmutError as e:
                note(f"double mutation pulls back to the original at {k}", False, str(e))
    else:  # pragma: no cover - argparse restricts choices
        raise QpmutError(f"unknown suite {suite!r}")

    lines.append(f"{'OK' if ok else 'FAILED'} suite={suite} seed={seed}")
    _out(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY


def _count(raw: str) -> int:
    n = int(raw)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def _positive(raw: str) -> int:
    n = int(raw)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not positive")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qpmut", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", required=True, help="input document")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def vertices(p):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--seq", default=None, help="comma-separated vertices")
        g.add_argument("--at", type=int, default=None, help="single vertex")

    p = sub.add_parser("mutate-quiver", help="mutate a quiver at one vertex")
    common(p)
    p.add_argument("--field", default="q", help="q or fp:<p>")
    p.add_argument("--trunc", type=_positive, default=None)
    p.add_argument("--at", type=int, required=True)
    p.add_argument("--pre", action="store_true", help="premutation only")
    p.set_defaults(func=cmd_mutate_quiver)

    p = sub.add_parser("mutate-qp", help="mutate a QP along a vertex sequence")
    common(p)
    p.add_argument("--trunc", type=_positive, default=None)
    vertices(p)
    p.set_defaults(func=cmd_mutate_qp)

    p = sub.add_parser("mutate-rep", help="mutate a decorated representation")
    common(p)
    vertices(p)
    p.add_argument(
        "--construction",
        choices=sorted(_CONSTRUCTION_NAMES),
        default="keralpha",
    )
    p.set_defaults(func=cmd_mutate_rep)

    p = sub.add_parser("dualize", help="opposite QP / transposed representation")
    common(p)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("probe-nondeg", help="random mutation sequences looking for 2-cycles")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=_count, default=4)
    p.add_argument("--trials", type=_count, default=16)
    p.set_defaults(func=cmd_probe_nondeg)

    p = sub.add_parser("verify", help="run an invariant suite on a representation")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="involution suite only (default 0)")
    p.add_argument(
        "--suite",
        required=True,
        choices=["module", "triangle", "fourway", "duality", "involution"],
    )
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except MutationNotDefined as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (QpmutError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
