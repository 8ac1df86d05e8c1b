"""JSON document format: quivers, QPs and decorated representations.

One self-describing format with top-level ``kind``, format ``version``,
``field`` tag ("Q" or "Fp:<p>") and ``trunc``; matrices are row-major.  Every
scalar is a JSON string, a rational in canonical lowest terms; any other JSON
value in a scalar slot is a ``SchemaError``.  loads(dumps(emit_qp(x))) == x
and loads(dumps(emit_decrep(x))) == x bit-exactly, and every parsed object
is re-validated.  ``parse`` takes JSON-native dicts, such as ``json.loads``
returns; an ``emit_decrep`` tree is not one, so parse(emit_decrep(x)) is not
a supported call.

Writing: ``emit_*`` build a document tree in which each matrix of a decrep
is a row writer holding the ``Mat``, not its cells.  One generator writes
every tree: dicts in sorted-key order with the separators "," and ":", each
subtree that holds no matrix whole through ``json.dumps``, and each matrix
row by row from its nonzeros (runs of the zero literal with the nonzeros'
literals written in), ending in "\n".  ``dumps`` joins its chunks and
``dump`` writes them to a file, so the two agree byte for byte and emitting
costs a document's nonzeros and its bytes, never a list of its cells; writing
to a file holds one row of text at a time.

Conversion costs a document's distinct scalars, not its cells: ``parse``
keeps one dict per document from each scalar string to its value, so each
distinct string goes through ``Field.parse`` once, and a decrep's writers
share one memo per document, so each distinct value goes through
``Field.to_str`` once and its JSON literal is made once.  Parsing still
costs a document's cells: ``json.loads`` builds every one.
"""

from __future__ import annotations

import json
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any

from .cycles import Potential, cyclic_normalize
from .errors import InvariantError, SchemaError
from .fields import Field, field_from_name
from .jets import JetSpace
from .linalg import Mat
from .qp import QP
from .quiver import Arrow, Quiver
from .reps import DecRep, check_module
from .subst import ArrowSubstitution

FORMAT_VERSION = 1
DEFAULT_TRUNC = 12


def _require(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def _is_int(x: Any) -> bool:
    """A JSON integer: ``bool`` is a subclass of ``int`` but not one."""
    return isinstance(x, int) and not isinstance(x, bool)


def _scalar(field: Field, raw: Any, where: str, values: dict):
    """The value of the scalar string ``raw``, parsed once per document:
    ``values`` maps each string parsed so far to its value."""
    if not isinstance(raw, str):
        raise SchemaError(f"{where}: a {field.name} scalar is a string, not {raw!r}")
    x = values.get(raw)
    if x is None:
        try:
            x = values[raw] = field.parse(raw)
        except (ValueError, ZeroDivisionError) as e:
            raise SchemaError(f"{where}: bad {field.name} scalar {raw!r}: {e}") from e
    return x


class _Memo:
    """One document's strings, each made once: the scalar string of each
    value (``Field.to_str`` runs once per distinct value), its JSON literal,
    and the row of zeros of each width."""

    __slots__ = ("field", "strs", "literals", "zero_rows")

    def __init__(self, field: Field):
        self.field, self.strs, self.literals, self.zero_rows = field, {}, {}, {}

    def scalar(self, x) -> str:
        s = self.strs.get(x)
        if s is None:
            s = self.strs[x] = self.field.to_str(x)
        return s

    def literal(self, x) -> str:
        q = self.literals.get(x)
        if q is None:
            q = self.literals[x] = encode_basestring_ascii(self.scalar(x))
        return q

    def zero_row(self, cols: int) -> str:
        """A comma, then the row of ``cols`` zero literals."""
        r = self.zero_rows.get(cols)
        if r is None:
            r = self.zero_rows[cols] = ",[" + ",".join([self.literal(self.field.zero)] * cols) + "]"
        return r


# -- emit ----------------------------------------------------------------

def emit_quiver_payload(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"id": a.id, "tail": a.tail, "head": a.head} for a in q.arrows],
    }


def _emit_potential(pot: Potential, memo: _Memo) -> list[dict]:
    out = []
    for p, c in sorted(pot.terms().items(), key=lambda t: (t[0].length, t[0].arrows)):
        out.append({"cycle": list(p.arrows), "coeff": memo.scalar(c)})
    return out


def emit_quiver(q: Quiver, field: Field, trunc: int) -> dict:
    return {
        "kind": "quiver",
        "version": FORMAT_VERSION,
        "field": field.name,
        "trunc": trunc,
        "payload": emit_quiver_payload(q),
    }


def _emit_qp_payload(qp: QP, memo: _Memo) -> dict:
    payload = emit_quiver_payload(qp.quiver)
    payload["potential"] = _emit_potential(qp.potential, memo)
    return payload


def emit_qp(qp: QP) -> dict:
    payload = _emit_qp_payload(qp, _Memo(qp.field))
    return {
        "kind": "qp",
        "version": FORMAT_VERSION,
        "field": qp.field.name,
        "trunc": qp.order,
        "payload": payload,
    }


class _MatrixWriter:
    """A matrix in an emitted document, written as JSON rows from its
    nonzeros when the document is written."""

    __slots__ = ("mat", "memo")

    def __init__(self, mat: Mat, memo: _Memo):
        self.mat, self.memo = mat, memo

    def chunks(self):
        """The matrix's text, one row per chunk."""
        if not self.mat.rows:
            yield "[]"
            return
        rows = self._rows()
        yield "[" + next(rows)[1:]
        yield from rows
        yield "]"

    def _rows(self):
        """Each row's text after a comma: a row with no nonzero is the shared
        row of zeros, any other is runs of the zero literal with the
        nonzeros' literals written in."""
        m, memo = self.mat, self.memo
        cols = m.cols
        blank = memo.zero_row(cols)
        zlit = memo.literal(m.field.zero)
        zero = zlit + ","
        lit = memo.literals.get  # no literal is "", so a miss is the only falsy result
        done = 0
        for i, cells in groupby(m.nonzeros(), itemgetter(0)):
            yield from repeat(blank, i - done)
            parts = [",["]
            j0 = 0
            for _, j, x in sorted(cells, key=itemgetter(1)):
                parts += (zero * (j - j0), lit(x) or memo.literal(x), ",")
                j0 = j + 1
            if j0 < cols:
                parts += (zero * (cols - j0 - 1), zlit, "]")
            else:
                parts[-1] = "]"
            yield "".join(parts)
            done = i + 1
        yield from repeat(blank, m.rows - done)


def emit_decrep(rep: DecRep) -> dict:
    """The decrep's document tree; each matrix is a row writer, so write the
    tree with ``dumps`` or ``dump``, not ``json``."""
    fld = rep.field
    memo = _Memo(fld)
    payload = {
        "qp": _emit_qp_payload(rep.qp, memo),
        "dims": {str(v): rep.dims[v] for v in rep.qp.quiver.vertices},
        "decDims": {str(v): rep.dec_dims[v] for v in rep.qp.quiver.vertices},
        "matrices": {a.id: _MatrixWriter(rep.maps[a.id], memo) for a in rep.qp.quiver.arrows},
    }
    return {
        "kind": "decrep",
        "version": FORMAT_VERSION,
        "field": fld.name,
        "trunc": rep.qp.order,
        "payload": payload,
    }


def emit_substitution(phi: ArrowSubstitution) -> dict:
    fld = phi.field
    images = {}
    for aid in sorted(phi.images):
        jet = phi.images[aid]
        images[aid] = [
            {"path": list(p.arrows), "coeff": fld.to_str(c)}
            for p, c in jet.sorted_terms()
        ]
    return {"images": images}


def _holds_matrix(x) -> bool:
    """Whether ``x`` is a matrix writer or a dict with one inside.  Matrices
    are dict values, so lists are not searched."""
    return isinstance(x, _MatrixWriter) or (
        isinstance(x, dict) and any(map(_holds_matrix, x.values())))


def _value_chunks(x):
    if isinstance(x, _MatrixWriter):
        yield from x.chunks()
    elif _holds_matrix(x):
        sep = "{"
        for k in sorted(x):
            yield sep + encode_basestring_ascii(k) + ":"
            yield from _value_chunks(x[k])
            sep = ","
        yield "}"
    else:
        yield json.dumps(x, sort_keys=True, separators=(",", ":"))


def _chunks(doc: dict):
    """The text of ``doc``: compact JSON with sorted keys, then a newline."""
    yield from _value_chunks(doc)
    yield "\n"


def dumps(doc: dict) -> str:
    return "".join(_chunks(doc))


def dump(doc: dict, fh) -> None:
    """Write ``dumps(doc)`` to the text file ``fh`` chunk by chunk, never
    holding the whole text."""
    fh.writelines(_chunks(doc))


# -- parse ---------------------------------------------------------------

def _parse_header(doc: Any) -> tuple[str, Field, int]:
    _require(isinstance(doc, dict), "document must be an object")
    kind = doc.get("kind")
    _require(kind in ("quiver", "qp", "decrep"), f"unknown kind {kind!r}")
    version = doc.get("version")
    _require(_is_int(version) and version == FORMAT_VERSION, "unsupported format version")
    field = field_from_name(doc.get("field", "Q"))
    trunc = doc.get("trunc", DEFAULT_TRUNC)
    _require(_is_int(trunc) and trunc >= 1, "trunc must be a positive integer")
    _require("payload" in doc, "missing payload")
    return kind, field, trunc


def _parse_quiver_payload(payload: Any) -> Quiver:
    _require(isinstance(payload, dict), "payload must be an object")
    verts = payload.get("vertices")
    _require(isinstance(verts, list) and all(_is_int(v) for v in verts),
             "payload.vertices must be a list of integers")
    arrows_raw = payload.get("arrows")
    _require(isinstance(arrows_raw, list), "payload.arrows must be a list")
    arrows = []
    for i, a in enumerate(arrows_raw):
        _require(isinstance(a, dict), f"payload.arrows[{i}] must be an object")
        _require(
            isinstance(a.get("id"), str)
            and _is_int(a.get("tail"))
            and _is_int(a.get("head")),
            f"payload.arrows[{i}] needs string id and integer tail/head",
        )
        arrows.append(Arrow(a["id"], a["tail"], a["head"]))
    return Quiver(tuple(verts), tuple(arrows))


def _parse_potential(payload: Any, space: JetSpace, values: dict) -> Potential:
    terms = payload.get("potential", [])
    _require(isinstance(terms, list), "payload.potential must be a list")
    jet = space.zero()
    q = space.quiver
    for i, t in enumerate(terms):
        _require(
            isinstance(t, dict)
            and isinstance(t.get("cycle"), list)
            and all(isinstance(x, str) for x in t["cycle"]),
            f"payload.potential[{i}] needs a cycle of arrow ids",
        )
        w = t["cycle"]
        # each arrow's tail is the head of the next one, the last's of the first
        _require(w and all(map(q.has_arrow, w))
                 and all(q.tail(a) == q.head(b) for a, b in zip(w, w[1:] + w[:1])),
                 f"payload.potential[{i}] is not a cycle of the quiver's arrows")
        _require(len(w) <= space.order,
                 f"payload.potential[{i}] is longer than the truncation order")
        coeff = _scalar(space.field, t.get("coeff", "1"), f"payload.potential[{i}]", values)
        jet = jet + space.path(tuple(w)).scale(coeff)
    return cyclic_normalize(jet)


def _parse_dims(payload: dict, key: str, q: Quiver) -> dict[int, int]:
    """A dimension table: keys name vertices, values are integers >= 0."""
    raw = payload.get(key, {})
    _require(isinstance(raw, dict), f"{key} must be an object")
    vertex = {str(v): v for v in q.vertices}
    for k, v in raw.items():
        _require(k in vertex, f"{key} names no vertex {k!r}")
        _require(_is_int(v) and v >= 0, f"{key}[{k!r}] must be an integer >= 0, not {v!r}")
    return {vertex[k]: v for k, v in raw.items()}


def _parse_matrix(rows: Any, aid: str, shape: tuple[int, int], field: Field,
                  values: dict) -> Mat:
    want_r, want_c = shape
    where = f"matrix for {aid!r}"
    _require(isinstance(rows, list), f"{where} must be a list of rows")
    _require(len(rows) == want_r, f"{where} has wrong row count")
    get = values.get
    nz = []
    for row in rows:
        _require(isinstance(row, list) and len(row) == want_c, f"{where} has a wrong-length row")
        cells = [(j, raw) for j, raw in enumerate(row) if raw != "0"]
        if len(cells) < want_c:  # "0" is parsed once per document, like any scalar
            _scalar(field, "0", where, values)
        r = {}
        for j, raw in cells:
            # only a string may be looked up: True, 1 and 1.0 are one dict key
            x = get(raw) if type(raw) is str else None
            if x is None:
                x = _scalar(field, raw, where, values)
            if x:
                r[j] = x
        nz.append(r)
    return Mat.from_rows(field, nz, want_c)


def parse(doc: dict):
    """Parse a document into a Quiver, QP or DecRep, re-validating all
    structural invariants."""
    kind, field, trunc = _parse_header(doc)
    payload = doc["payload"]
    values: dict = {}
    if kind == "quiver":
        return _parse_quiver_payload(payload)
    if kind == "qp":
        q = _parse_quiver_payload(payload)
        space = JetSpace(q, trunc, field)
        return QP(q, _parse_potential(payload, space, values))
    # decrep
    _require(isinstance(payload, dict) and isinstance(payload.get("qp"), dict),
             "decrep payload needs a qp object")
    q = _parse_quiver_payload(payload["qp"])
    space = JetSpace(q, trunc, field)
    qp = QP(q, _parse_potential(payload["qp"], space, values))
    dims = _parse_dims(payload, "dims", q)
    dec = _parse_dims(payload, "decDims", q)
    mats_raw = payload.get("matrices", {})
    _require(isinstance(mats_raw, dict), "matrices must be an object")
    maps = {}
    for aid, rows in mats_raw.items():
        _require(q.has_arrow(aid), f"matrix for unknown arrow {aid!r}")
        a = q.arrow(aid)
        shape = (dims.get(a.head, 0), dims.get(a.tail, 0))
        maps[aid] = _parse_matrix(rows, aid, shape, field, values)
    rep = DecRep(qp, dims, maps, dec)
    rpt = check_module(rep)
    if not rpt.ok:
        raise InvariantError(f"parsed representation is not a valid module: {rpt.failures}")
    return rep


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"not valid JSON: {e}") from e
    return parse(doc)


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
