"""The document writer: the text it writes against the stdlib encoder and
against the dense rendering it replaced, and the memory it writes in."""

import io
import json
import os
import random
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import markov_qp
from qpmut import GF, DecRep, docio
from qpmut.cli import main
from qpmut.generate import random_valid_module
from qpmut.mutation import mutate_rep
from qpmut.qp import mutate_qp

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
MARKOV_REP = os.path.join(FIXTURES, "markov_rep.json")
WALK = (3, 1, 2) * 3


def _reference_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _dense_matrix(m) -> list[list[str]]:
    """Every cell's scalar string, the rendering the writer replaced."""
    return [[m.field.to_str(x) for x in row] for row in m.data]


def _dense_text(rep: DecRep) -> str:
    """The decrep's text from dense lists of cells and ``json.dumps``."""
    doc = docio.emit_decrep(rep)
    doc["payload"]["matrices"] = {a: _dense_matrix(m) for a, m in rep.maps.items()}
    return _reference_dumps(doc)


def _walk(steps):
    rep = docio.load_path(MARKOV_REP)
    out = []
    for k in steps:
        rep = mutate_rep(rep, k)
        out.append(rep)
    return out


def _modules_over(p: int) -> list[DecRep]:
    qp = markov_qp(field=GF(p))
    rng = random.Random(p)
    mods = [random_valid_module(qp, rng, max_dim=4) for _ in range(6)]
    return mods + [mutate_rep(m, 3) for m in mods]


def _zero_modules() -> list[DecRep]:
    """Zero maps of every shape: 0 x n, n x 0, n x m, and all dims 0."""
    qp = markov_qp()
    return [DecRep(qp, dims, {}, {1: 0, 2: 1, 3: 2})
            for dims in ({1: 0, 2: 3, 3: 2}, {1: 4, 2: 0, 3: 0}, {1: 2, 2: 3, 3: 1}, {})]


@pytest.mark.parametrize("kind", ["walk", "GF(2)", "GF(7)", "zero"])
def test_decrep_text_equals_the_dense_rendering(kind):
    mods = {
        "walk": lambda: _walk(WALK),
        "GF(2)": lambda: _modules_over(2),
        "GF(7)": lambda: _modules_over(7),
        "zero": _zero_modules,
    }[kind]()
    for rep in mods:
        text = _dense_text(rep)
        assert docio.dumps(docio.emit_decrep(rep)) == text
        fh = io.StringIO()
        docio.dump(docio.emit_decrep(rep), fh)
        assert fh.getvalue() == text


_KEYS = st.text(max_size=5) | st.sampled_from(["", "é", "☃", '"', "\\", "\n", "\x00", "a\ud800"])
_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=5)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(_KEYS, kids, max_size=3),
    max_leaves=12,
)


@given(st.dictionaries(_KEYS, _JSON, max_size=4))
@settings(max_examples=200, deadline=None)
def test_matrix_free_documents_match_json_dumps(doc):
    assert docio.dumps(doc) == _reference_dumps(doc)


# a module whose maps hold zero rows, nonzero rows and fractions
_REP = _walk((3, 1, 2, 3))[-1]
_MATRIX = object()


def _place(x, writers, dense):
    """``x`` with each ``_MATRIX`` marker replaced, in turn, by the next
    arrow's writer and by its dense rows."""
    if x is _MATRIX:
        aid = sorted(_REP.maps)[len(writers) % len(_REP.maps)]
        writers.append(docio.emit_decrep(_REP)["payload"]["matrices"][aid])
        dense.append(_dense_matrix(_REP.maps[aid]))
        return writers[-1], dense[-1]
    if isinstance(x, dict):
        pairs = {k: _place(v, writers, dense) for k, v in x.items()}
        return {k: a for k, (a, _) in pairs.items()}, {k: b for k, (_, b) in pairs.items()}
    return x, x


_WITH_MATRICES = st.recursive(
    st.just(_MATRIX),
    lambda kids: st.dictionaries(_KEYS, kids | _JSON, min_size=1, max_size=3),
    max_leaves=6,
)


@given(st.dictionaries(_KEYS, _WITH_MATRICES | _JSON, max_size=4))
@settings(max_examples=200, deadline=None)
def test_documents_with_matrices_match_json_dumps_of_the_dense_rows(doc):
    """Dicts around a matrix are written key by key, everything else whole:
    the text equals the stdlib's for the dense rows at any nesting."""
    tree, dense = _place(doc, [], [])
    assert docio.dumps(tree) == _reference_dumps(dense)


def test_real_documents_match_json_dumps(tmp_path):
    qp = markov_qp()
    red, _, _ = mutate_qp(qp, 3)
    docs = [
        docio.emit_qp(qp),
        docio.emit_qp(red),
        docio.emit_quiver(qp.quiver, GF(7), 9),
    ]
    for doc in docs:
        assert docio.dumps(doc) == _reference_dumps(doc)
    for argv, key in ((["mutate-qp", "--seq", "3,1,2,3"], "steps"),
                      (["probe-nondeg", "--depth", "3", "--trials", "4"], "witnesses")):
        out = tmp_path / "out.json"
        assert main([argv[0], "--in", os.path.join(FIXTURES, "markov.json"), *argv[1:], "--out", str(out)]) == 0
        text = out.read_text()
        assert key in json.loads(text)
        assert text == _reference_dumps(json.loads(text))


def test_streaming_a_document_holds_one_row_at_a_time():
    """The depth-12 walk's document is 38 MB; streaming it into a sink that
    drops each chunk peaks under 2 MB."""
    rep = _walk((3, 1, 2) * 4)[-1]
    doc = docio.emit_decrep(rep)
    size = []
    sink = SimpleNamespace(writelines=lambda chunks: size.append(sum(map(len, chunks))))
    tracemalloc.start()
    try:
        docio.dump(doc, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == [38255052]
    assert peak < 2 * 2**20
