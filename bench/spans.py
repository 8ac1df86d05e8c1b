"""Traced runs: spans around the public functions of each qpmut layer.

The wrappers are installed from the benchmark, not from the library.  A
function is replaced in every ``qpmut.*`` namespace that binds it, because
``from .x import f`` copies the binding into the importing module; methods
are replaced on their class.  Spans stay in memory as lists
``[name, start, end, parent, item, attrs, probe_s]``; ``probe_s`` is the time
this span spent measuring its children's inputs, which is left out of its
self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from qpmut.jets import JetPoly
from qpmut.linalg import Mat

ITEM = "bench.item"


class Tracer:
    """Spans of one traced pass; ``parent`` is an index into ``spans``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.rref_seen: dict[tuple[int, int, int], list] = {}
        self.on = True

    @contextmanager
    def paused(self):
        """Calls in this block run unwrapped and leave no span."""
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.item, None, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def begin_item(self, idx: int) -> None:
        self.item = idx
        self.rref_seen = {}
        self.open(ITEM)

    def end_item(self) -> None:
        self.close(self.spans[self.stack[-1]])
        self.item = -1
        self.rref_seen = {}

    def probe(self, fn, *args):
        """Measure a call's input, charging the time to no span's self time."""
        t0 = perf_counter()
        out = fn(*args)
        if self.stack:
            self.spans[self.stack[-1]][6] += perf_counter() - t0
        return out

    def rref_input(self, m: Mat) -> dict:
        """Cells, nonzeros, and whether this item already eliminated the same
        matrix.  Candidates are bucketed by shape and nonzero count, then
        compared entry by entry, so a repeat is exact."""
        nnz = sum(sum(map(bool, row)) for row in m.data)
        rows = [r[:] for r in m.data]
        bucket = self.rref_seen.setdefault((m.rows, m.cols, nnz), [])
        repeat = rows in bucket
        if not repeat:
            bucket.append(rows)
        return {"cells": m.rows * m.cols, "nnz": nnz, "repeat": int(repeat)}


def _hom_system_cells(_tracer: Tracer, m, n) -> dict:
    verts = m.qp.quiver.vertices
    cols = sum(n.dims[v] * m.dims[v] for v in verts)
    rows = sum(n.dims[a.head] * m.dims[a.tail] for a in m.qp.quiver.arrows)
    return {"cells": rows * cols}


def _terms_out(result) -> dict:
    return {"terms_out": len(result.terms)}


def _kept_terms(sr) -> dict:
    return {"kept": len(sr.reduced.potential.terms()) + len(sr.trivial.potential.terms())}


def _text_bytes(text: str) -> dict:
    return {"bytes": len(text.encode())}


# (span name, owner, attribute, input probe, output probe).  The owner is a
# class for methods and a module name for functions.  An input probe gets the
# tracer and the call's arguments; an output probe gets the result.
TRACED = (
    ("linalg.rref", Mat, "rref", Tracer.rref_input, None),
    ("linalg.kernel_basis", Mat, "kernel_basis", None, None),
    ("linalg.subspace_package", "qpmut.linalg", "subspace_package", None, None),
    ("jets.mul", JetPoly, "__mul__", None, _terms_out),
    ("cycles.cyclic_normalize", "qpmut.cycles", "cyclic_normalize", None, None),
    ("subst.apply_substitution", "qpmut.subst", "apply_substitution", None, _terms_out),
    ("qp.premutate_qp", "qpmut.qp", "premutate_qp", None, None),
    ("qp.split_reduce", "qpmut.qp", "split_reduce", None, _kept_terms),
    ("qp.mutate_qp", "qpmut.qp", "mutate_qp", None, None),
    ("reps.check_module", "qpmut.reps", "check_module", None, None),
    ("reps.component_action", "qpmut.reps", "component_action", None, None),
    ("reps.build_triangle", "qpmut.reps", "build_triangle", None, None),
    ("mutation.premutate_rep", "qpmut.mutation", "premutate_rep", None, None),
    ("mutation.pullback_reduction", "qpmut.mutation", "pullback_reduction", None, None),
    ("mutation.mutate_rep", "qpmut.mutation", "mutate_rep", None, None),
    ("mutation.constructions_agree", "qpmut.mutation", "constructions_agree", None, None),
    ("homs.hom_space", "qpmut.homs", "hom_space", _hom_system_cells, None),
    ("homs.is_isomorphic", "qpmut.homs", "is_isomorphic", None, None),
    ("docio.load_path", "qpmut.docio", "load_path", None, None),
    ("docio.loads", "qpmut.docio", "loads", None, None),
    ("docio.emit_decrep", "qpmut.docio", "emit_decrep", None, None),
    ("docio.dumps", "qpmut.docio", "dumps", None, _text_bytes),
)


def _wrap(tracer: Tracer, name: str, fn, probe_in, probe_out):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        attrs = tracer.probe(probe_in, tracer, *args) if probe_in else None
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if probe_out:
            out = tracer.probe(probe_out, result)
            attrs = out if attrs is None else attrs | out
        span[5] = attrs
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block; yields the number
    of bindings replaced per span name."""
    modules = [m for k, m in sys.modules.items() if k == "qpmut" or k.startswith("qpmut.")]
    undo = []
    bindings = {}
    try:
        for name, owner, attr, probe_in, probe_out in TRACED:
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                setattr(owner, attr, _wrap(tracer, name, fn, probe_in, probe_out))
                undo.append((owner, attr, fn))
                bindings[name] = 1
                continue
            fn = getattr(sys.modules[owner], attr)
            wrapper = _wrap(tracer, name, fn, probe_in, probe_out)
            bindings[name] = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, fn))
                        bindings[name] += 1
        yield bindings
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)


# -- per-layer metrics -------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its children's durations and its probes."""
    out = [s[2] - s[1] - s[6] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _under(spans: list[list], ancestor: str) -> list[int | None]:
    """For each span, the index of its nearest enclosing span named ``ancestor``."""
    out: list[int | None] = [None] * len(spans)
    for i, s in enumerate(spans):
        p = s[3]
        if p >= 0:
            out[i] = p if spans[p][0] == ancestor else out[p]
    return out


# Spans reported with call counts and self time, and with self time only.
COUNTED = (
    "linalg.rref", "linalg.subspace_package", "linalg.kernel_basis",
    "homs.hom_space", "homs.is_isomorphic", "jets.mul", "subst.apply_substitution",
    "cycles.cyclic_normalize", "qp.split_reduce", "reps.check_module", "reps.build_triangle",
)
TIMED_ONLY = (
    "reps.component_action", "mutation.premutate_rep", "mutation.pullback_reduction",
    "mutation.constructions_agree", "docio.load_path", "docio.dumps",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (spans of that pass only)."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for s, st in zip(spans, selfs):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + st
        for k, v in (s[5] or {}).items():
            attr_sum[(s[0], k)] = attr_sum.get((s[0], k), 0) + v

    def count_under(name: str, ancestor: str) -> int:
        under = _under(spans, ancestor)
        return sum(1 for s, u in zip(spans, under) if s[0] == name and u is not None)

    # terms created by substitutions inside each split_reduce call
    created = [0] * len(spans)
    under_split = _under(spans, "qp.split_reduce")
    for s, u in zip(spans, under_split):
        if s[0] == "subst.apply_substitution" and u is not None:
            created[u] += (s[5] or {}).get("terms_out", 0)
    kept = sum(
        (s[5] or {}).get("kept", 0)
        for i, s in enumerate(spans)
        if s[0] == "qp.split_reduce" and created[i]
    )

    steps = calls.get("mutation.mutate_rep", 0)

    def attr(name: str, key: str) -> float:
        return attr_sum.get((name, key), 0)

    out: dict[str, float] = {f"{n}.calls": calls.get(n, 0) for n in COUNTED}
    out |= {f"{n}.self_s": self_s.get(n, 0.0) for n in COUNTED + TIMED_ONLY}
    out |= {
        "linalg.rref.cells": attr("linalg.rref", "cells"),
        "linalg.rref.nnz_frac": _ratio(attr("linalg.rref", "nnz"), attr("linalg.rref", "cells")),
        "linalg.rref.repeat_frac": _ratio(attr("linalg.rref", "repeat"), calls.get("linalg.rref", 0)),
        "linalg.subspace_package.rref_per_call": _ratio(
            count_under("linalg.rref", "linalg.subspace_package"),
            calls.get("linalg.subspace_package", 0),
        ),
        "homs.hom_space.system_cells": attr("homs.hom_space", "cells"),
        "homs.is_isomorphic.hom_calls_per_call": _ratio(
            count_under("homs.hom_space", "homs.is_isomorphic"),
            calls.get("homs.is_isomorphic", 0),
        ),
        "jets.mul.terms_out": attr("jets.mul", "terms_out"),
        "subst.apply_substitution.terms_out": attr("subst.apply_substitution", "terms_out"),
        "qp.split_reduce.terms_kept_frac": _ratio(kept, sum(created)),
        "qp.premutate_qp.per_step": _ratio(count_under("qp.premutate_qp", "mutation.mutate_rep"), steps),
        "reps.check_module.per_step": _ratio(count_under("reps.check_module", "mutation.mutate_rep"), steps),
        "docio.dumps.bytes": attr("docio.dumps", "bytes"),
    }
    return out


def item_rows(spans: list[list]) -> dict[int, dict[str, float]]:
    """Self time per span name, summed per item (-1: outside any item)."""
    rows: dict[int, dict[str, float]] = {}
    for s, st in zip(spans, self_times(spans)):
        row = rows.setdefault(s[4], {})
        row[s[0]] = row.get(s[0], 0.0) + st
    return rows


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
