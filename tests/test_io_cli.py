"""Serialization round trips and the command-line interface."""

import copy
import json
import os
import re
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import markov_qp, MARKOV_K
from qpmut import DecRep, InvariantError, QQ, QpmutError, SchemaError, GF, check_module
from qpmut import docio
from qpmut.cli import main
from qpmut.generate import random_valid_module
from qpmut.mutation import mutate_rep

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def test_markov_fixture_parses_to_golden_qp(markov):
    qp = docio.load_path(fixture("markov.json"))
    assert qp == markov


def test_qp_round_trip_bit_exact(markov):
    text = docio.dumps(docio.emit_qp(markov))
    qp = docio.loads(text)
    assert docio.dumps(docio.emit_qp(qp)) == text


def test_decrep_round_trip_bit_exact(markov):
    rng = random.Random(77)
    m = random_valid_module(markov, rng, max_dim=3)
    text = docio.dumps(docio.emit_decrep(m))
    back = docio.loads(text)
    assert docio.dumps(docio.emit_decrep(back)) == text
    assert back.dims == m.dims and back.dec_dims == m.dec_dims
    for aid in m.maps:
        assert back.maps[aid] == m.maps[aid]


def test_fp_round_trip():
    f7 = GF(7)
    qp = markov_qp(field=f7)
    text = docio.dumps(docio.emit_qp(qp))
    back = docio.loads(text)
    assert back.field == f7
    assert docio.dumps(docio.emit_qp(back)) == text


def test_empty_quiver_document():
    doc = {
        "kind": "quiver", "version": 1, "field": "Q", "trunc": 12,
        "payload": {"vertices": [], "arrows": []},
    }
    q = docio.parse(doc)
    assert q.vertices == () and q.arrows == ()


def test_loop_arrow_rejected():
    doc = {
        "kind": "quiver", "version": 1, "field": "Q", "trunc": 12,
        "payload": {"vertices": [1], "arrows": [{"id": "a", "tail": 1, "head": 1}]},
    }
    with pytest.raises(InvariantError):
        docio.parse(doc)


def test_schema_error_on_garbage():
    with pytest.raises(SchemaError):
        docio.loads("{not json")
    with pytest.raises(SchemaError):
        docio.parse({"kind": "nope", "version": 1, "payload": {}})


def test_invalid_module_rejected_on_parse(markov):
    bad = {
        "kind": "decrep", "version": 1, "field": "Q", "trunc": 12,
        "payload": {
            "qp": docio.emit_qp(markov)["payload"],
            "dims": {"1": 1, "2": 1, "3": 1},
            "decDims": {"1": 0, "2": 0, "3": 0},
            "matrices": {"a1": [["1"]], "b1": [["1"]]},
        },
    }
    with pytest.raises(InvariantError):
        docio.parse(bad)


# -- CLI -----------------------------------------------------------------

def test_cli_mutate_qp_markov_golden(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = main([
        "mutate-qp", "--in", fixture("markov.json"), "--at", str(MARKOV_K),
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    red = docio.parse({k: v for k, v in doc.items() if k != "steps"})
    assert {a.id for a in red.quiver.arrows} == {
        "a1*", "a2*", "b1*", "b2*", "[b1a2]", "[b2a1]"
    }
    step = doc["steps"][0]
    trivial_arrows = {a["id"] for a in step["trivial"]["arrows"]}
    assert trivial_arrows == {"c1", "c2", "[b1a1]", "[b2a2]"}
    images = step["splitting"]["images"]
    assert images["c1"] == [
        {"path": ["c1"], "coeff": "1"},
        {"path": ["a1*", "b1*"], "coeff": "1"},
    ]
    assert images["c2"] == [
        {"path": ["c2"], "coeff": "1"},
        {"path": ["a2*", "b2*"], "coeff": "1"},
    ]


def test_cli_determinism(tmp_path):
    out1 = tmp_path / "o1.json"
    out2 = tmp_path / "o2.json"
    for out in (out1, out2):
        assert main([
            "mutate-rep", "--in", fixture("markov_rep.json"), "--seq", f"{MARKOV_K}",
            "--out", str(out),
        ]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_mutated_rep_revalidates(tmp_path):
    out = tmp_path / "rep.json"
    assert main([
        "mutate-rep", "--in", fixture("markov_rep.json"), "--seq", str(MARKOV_K),
        "--out", str(out),
    ]) == 0
    rep = docio.load_path(str(out))
    assert isinstance(rep, DecRep)


def test_cli_two_cycle_exit_code(tmp_path):
    doc = {
        "kind": "quiver", "version": 1, "field": "Q", "trunc": 12,
        "payload": {
            "vertices": [1, 2],
            "arrows": [
                {"id": "a", "tail": 1, "head": 2},
                {"id": "b", "tail": 2, "head": 1},
            ],
        },
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    assert main(["mutate-quiver", "--in", str(path), "--at", "1"]) == 3


def test_cli_input_error_exit_code(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{}")
    assert main(["mutate-qp", "--in", str(path), "--seq", "1"]) == 2
    assert main(["mutate-qp", "--in", str(tmp_path / "missing.json"), "--seq", "1"]) == 2
    assert main(["bogus-subcommand"]) == 2


def test_cli_verify_suites(tmp_path):
    for suite in ("module", "triangle", "fourway", "duality", "involution"):
        code = main([
            "verify", "--in", fixture("markov_rep.json"), "--suite", suite,
            "--out", str(tmp_path / f"{suite}.txt"),
        ])
        assert code == 0, suite
        text = (tmp_path / f"{suite}.txt").read_text()
        assert "OK" in text


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    # force the certificate search to come back empty-handed
    import qpmut.cli as climod
    from qpmut.homs import IsoResult, UNDECIDED

    monkeypatch.setattr(
        climod, "is_isomorphic", lambda *a, **kw: IsoResult(UNDECIDED, seed=0)
    )
    code = main([
        "verify", "--in", fixture("markov_rep.json"), "--suite", "involution",
        "--out", str(tmp_path / "inv.txt"),
    ])
    assert code == 1
    assert "FAILED" in (tmp_path / "inv.txt").read_text()


def test_cli_fourway_reports_a_singular_coordinate_map(tmp_path, monkeypatch):
    # a singular map from amalgam coordinates is a failed check, not an input error
    import qpmut.mutation as mutmod

    construction_blocks = mutmod._construction_blocks

    def singular(t, fld, kind):
        make_f, alpha_bar, beta_bar = construction_blocks(t, fld, kind)
        if kind == "ker_alpha":
            return (lambda: make_f().scale(fld.zero)), alpha_bar, beta_bar
        return make_f, alpha_bar, beta_bar

    monkeypatch.setattr(mutmod, "_construction_blocks", singular)
    out = tmp_path / "fourway.txt"
    code = main(["verify", "--in", fixture("markov_rep.json"), "--suite", "fourway",
                 "--out", str(out)])
    assert code == 1
    text = out.read_text()
    assert "FAIL four constructions agree" in text
    assert "amalgam->ker_alpha is an isomorphism" in text


def test_cli_duality_suite_notes_the_witness_checks(tmp_path, monkeypatch):
    # a failed check of the witness is a FAIL line naming it, not an error
    import qpmut.duality as dualmod

    monkeypatch.setattr(dualmod, "is_intertwiner", lambda *args: False)
    out = tmp_path / "duality.txt"
    code = main(["verify", "--in", fixture("markov_rep.json"), "--suite", "duality",
                 "--out", str(out)])
    assert code == 1
    assert out.read_text().splitlines() == [
        f"FAIL duality commutes at {k} comparison map intertwines the premutations"
        for k in (1, 2, 3)
    ] + ["FAILED suite=duality seed=0"]


def test_cli_pre_flag(tmp_path):
    out = tmp_path / "pre.json"
    assert main([
        "mutate-quiver", "--in", fixture("markov.json"), "--at", str(MARKOV_K),
        "--pre", "--out", str(out),
    ]) == 0
    q = docio.load_path(str(out))
    assert len(q.arrows) == 10


def test_cli_dualize(tmp_path):
    out = tmp_path / "op.json"
    assert main(["dualize", "--in", fixture("markov.json"), "--out", str(out)]) == 0
    qp_op = docio.load_path(str(out))
    assert qp_op.quiver.tail("a1") == 3 and qp_op.quiver.head("a1") == 1
    out2 = tmp_path / "op_rep.json"
    assert main(["dualize", "--in", fixture("markov_rep.json"), "--out", str(out2)]) == 0
    rep_op = docio.load_path(str(out2))
    assert isinstance(rep_op, DecRep)


def test_cli_probe_nondeg(tmp_path):
    out = tmp_path / "probe.json"
    assert main([
        "probe-nondeg", "--in", fixture("markov.json"), "--depth", "3",
        "--trials", "4", "--seed", "7", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate"] is False
    assert doc["seed"] == 7


def test_cli_mutate_rep_sequence_round_trip(tmp_path):
    out = tmp_path / "twice.json"
    assert main([
        "mutate-rep", "--in", fixture("a2_projective.json"), "--seq", "2,1",
        "--out", str(out),
    ]) == 0
    rep = docio.load_path(str(out))
    assert isinstance(rep, DecRep)


def test_cli_trunc_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QPMUT_TRUNC", "9")
    out = tmp_path / "q.json"
    assert main([
        "mutate-quiver", "--in", fixture("markov.json"), "--at", str(MARKOV_K),
        "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["trunc"] == 9


def _doc_with_scalar(field, raw, where):
    """A small qp or decrep document carrying ``raw`` at one scalar slot."""
    arrows = [{"id": "a", "tail": 1, "head": 2}, {"id": "b", "tail": 2, "head": 3},
              {"id": "c", "tail": 3, "head": 1}]
    qp = {"vertices": [1, 2, 3], "arrows": arrows,
          "potential": [{"cycle": ["c", "b", "a"], "coeff": "1"}]}
    if where == "coeff":
        qp["potential"][0]["coeff"] = raw
        return {"kind": "qp", "version": 1, "field": field, "trunc": 12, "payload": qp}
    return {
        "kind": "decrep", "version": 1, "field": field, "trunc": 12,
        "payload": {"qp": qp, "dims": {"1": 1, "2": 1, "3": 0},
                    "decDims": {"1": 0, "2": 0, "3": 0}, "matrices": {"a": [[raw]]}},
    }


@pytest.mark.parametrize("where", ["coeff", "matrix"])
@pytest.mark.parametrize("field,raw", [("Q", "1/0"), ("Q", "abc"), ("Fp:7", "1/2")] + [
    # scalars travel as strings: a JSON number, bool or null is refused, not rounded
    (field, raw) for field in ("Q", "Fp:7")
    for raw in (12345678901234567890.5, 0.1, 2, True, None)
])
def test_malformed_scalar_is_schema_error(tmp_path, field, raw, where):
    doc = _doc_with_scalar(field, raw, where)
    docio.parse(_doc_with_scalar(field, "1", where))  # a good scalar parses
    with pytest.raises(SchemaError, match=re.escape(repr(raw))):
        docio.loads(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["dualize", "--in", str(path)]) == 2


@pytest.mark.parametrize("s", ["0", "-0", "+3", " 3 ", "1_0", "\u0663", "3.0", "2/1", "-3/4",
                               "1e3", "", "-", "1/0", "abc"])
def test_rational_parse_agrees_with_fraction(tmp_path, s):
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        want = None
    if want is not None:
        got = QQ.parse(s)
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)
        return
    with pytest.raises((ValueError, ZeroDivisionError)):
        QQ.parse(s)
    doc = _doc_with_scalar("Q", s, "matrix")
    with pytest.raises(SchemaError, match=re.escape(repr(s))):
        docio.loads(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["dualize", "--in", str(path)]) == 2


def test_boolean_trunc_is_schema_error(tmp_path):
    doc = {
        "kind": "quiver", "version": 1, "field": "Q", "trunc": True,
        "payload": {"vertices": [1, 2], "arrows": [{"id": "a", "tail": 1, "head": 2}]},
    }
    with pytest.raises(SchemaError, match="trunc must be"):
        docio.loads(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["mutate-quiver", "--in", str(path), "--at", "1"]) == 2


def test_cli_rejects_flags_a_subcommand_does_not_read():
    rep = fixture("markov_rep.json")
    assert main(["mutate-rep", "--in", rep, "--seq", "3", "--trunc", "2"]) == 2
    assert main(["mutate-rep", "--in", rep, "--seq", "3", "--field", "fp:7"]) == 2
    assert main(["dualize", "--in", rep, "--seed", "1"]) == 2
    assert main(["mutate-qp", "--in", fixture("markov.json"), "--at", "3", "--seed", "1"]) == 2


@pytest.mark.parametrize("suite", ["module", "triangle", "fourway", "duality"])
def test_cli_verify_rejects_a_seed_its_suite_does_not_read(capsys, suite):
    rep = fixture("markov_rep.json")
    for seed in ("5", "0"):
        assert main(["verify", "--in", rep, "--suite", suite, "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"suite {suite}" in captured.err
    assert main(["verify", "--in", rep, "--suite", suite]) == 0
    assert capsys.readouterr().out.endswith(f"OK suite={suite} seed=0\n")


def test_cli_verify_involution_reads_its_seed(capsys):
    rep = fixture("markov_rep.json")
    assert main(["verify", "--in", rep, "--suite", "involution", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "verdict=YES seed=5" in out and out.endswith("OK suite=involution seed=5\n")
    assert main(["verify", "--in", rep, "--suite", "involution"]) == 0
    assert capsys.readouterr().out.endswith("OK suite=involution seed=0\n")


@pytest.mark.parametrize("command,infile", [("mutate-qp", "markov.json"),
                                            ("mutate-rep", "markov_rep.json")])
def test_cli_mutation_vertices_are_never_ignored(capsys, command, infile):
    path = fixture(infile)
    assert main([command, "--in", path, "--at", "3", "--seq", "3,1,2"]) == 2
    assert main([command, "--in", path, "--seq", ","]) == 2
    assert main([command, "--in", path]) == 2
    assert capsys.readouterr().out == ""


def test_cli_rejects_negative_counts():
    qp = fixture("markov.json")
    assert main(["probe-nondeg", "--in", qp, "--depth", "-1"]) == 2
    assert main(["probe-nondeg", "--in", qp, "--trials", "-1"]) == 2


def test_cli_mutate_quiver_field_tag(tmp_path):
    out = tmp_path / "q.json"
    assert main([
        "mutate-quiver", "--in", fixture("markov.json"), "--at", str(MARKOV_K),
        "--field", "fp:7", "--trunc", "5", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert (doc["field"], doc["trunc"]) == ("Fp:7", 5)


def _set(*path_and_value):
    """A change to a good decrep document: set the slot at ``path``."""
    *path, value = path_and_value

    def change(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return change


@pytest.mark.parametrize("change,match", [
    (_set("version", True), "unsupported format version"),
    (_set("field", 5), "field tag must be a string"),
    (_set("field", None), "field tag must be a string"),
    (_set("payload", "dims", "1", 1.7), "dims"),
    (_set("payload", "dims", "1", True), "dims"),
    (_set("payload", "decDims", "3", 1.7), "decDims"),
    (_set("payload", "decDims", "3", True), "decDims"),
    (_set("payload", "dims", "7", 0), "names no vertex '7'"),
    (_set("payload", "decDims", "7", 1), "names no vertex '7'"),
    (_set("payload", "qp", "vertices", [True, 2, 3]), "vertices"),
    (_set("payload", "qp", "arrows", 0, "tail", True), "tail/head"),
    (_set("payload", "qp", "arrows", 0, "head", True), "tail/head"),
    (_set("payload", "qp", "potential", 0, "cycle", ["c", ["b"], "a"]), "cycle of arrow ids"),
    (_set("payload", "qp", "potential", 0, "cycle", []), "payload.potential[0] is not a cycle"),
    (_set("payload", "qp", "potential", 0, "cycle", ["a", "a"]), "payload.potential[0] is not a cycle"),
    (_set("payload", "qp", "potential", 0, "cycle", ["zz"]), "payload.potential[0] is not a cycle"),
    (_set("payload", "qp", "potential", 0, "cycle", ["b", "a"]), "payload.potential[0] is not a cycle"),
], ids=[
    "version-bool", "field-int", "field-null", "dims-float", "dims-bool", "decdims-float",
    "decdims-bool", "dims-unknown-vertex", "decdims-unknown-vertex", "vertex-bool", "tail-bool",
    "head-bool", "cycle-non-string", "cycle-empty", "cycle-not-composable", "cycle-unknown-arrow",
    "cycle-open-path",
])
def test_malformed_document_is_schema_error(tmp_path, change, match):
    docio.parse(_doc_with_scalar("Q", "1", "matrix"))  # the unchanged document parses
    doc = _doc_with_scalar("Q", "1", "matrix")
    change(doc)
    with pytest.raises(SchemaError, match=re.escape(match)):
        docio.loads(json.dumps(doc))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["dualize", "--in", str(path)]) == 2


@pytest.mark.parametrize("trunc", ["0", "-3", "abc"])
def test_cli_rejects_a_non_positive_trunc(tmp_path, trunc):
    out = tmp_path / "q.json"
    assert main([
        "mutate-quiver", "--in", fixture("markov.json"), "--at", str(MARKOV_K),
        "--trunc", trunc, "--out", str(out),
    ]) == 2
    assert not out.exists()
    assert main(["mutate-qp", "--in", fixture("markov.json"), "--at", "3", "--trunc", trunc]) == 2


def test_cli_mutate_qp_refuses_a_term_longer_than_trunc(tmp_path, capsys):
    doc = json.loads(open(fixture("markov.json")).read())
    doc["payload"]["potential"].append(
        {"coeff": "5", "cycle": ["a1", "c1", "b1", "a2", "c2", "b2"]}
    )
    src = tmp_path / "markov6.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "q.json"
    # without --trunc the length-6 term is kept
    assert main(["mutate-qp", "--in", str(src), "--at", "3", "--out", str(out)]) == 0
    assert any(t["coeff"] == "5" for t in json.loads(out.read_text())["payload"]["potential"])
    capsys.readouterr()
    for n in (4, 5):
        out = tmp_path / f"q{n}.json"
        assert main(["mutate-qp", "--in", str(src), "--at", "3", "--trunc", str(n),
                     "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "length 6" in err and f"truncation order {n}" in err


@pytest.mark.parametrize("env", ["abc", "-5", "0", "1.5"])
def test_cli_rejects_a_bad_trunc_environment_variable(tmp_path, monkeypatch, capsys, env):
    monkeypatch.setenv("QPMUT_TRUNC", env)
    out = tmp_path / "q.json"
    assert main([
        "mutate-quiver", "--in", fixture("markov.json"), "--at", str(MARKOV_K),
        "--out", str(out),
    ]) == 2
    assert not out.exists()
    assert "QPMUT_TRUNC" in capsys.readouterr().err
    # an explicit --trunc does not read the variable
    assert main([
        "mutate-quiver", "--in", fixture("markov.json"), "--at", str(MARKOV_K),
        "--trunc", "7", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text())["trunc"] == 7


_KEYS = ["kind", "version", "field", "trunc", "payload", "vertices", "arrows", "id",
         "tail", "head", "potential", "cycle", "coeff", "qp", "dims", "decDims", "matrices"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 16) | st.floats(-4, 4) | st.text(max_size=5)
    | st.sampled_from(["Q", "Fp:7", "Fp:561", "1/2", "1/0", "a", "b", "1", "2", "decrep"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)


def _good_documents():
    docs = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(fixture(name), encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs + [_doc_with_scalar("Q", "1", "matrix"), _doc_with_scalar("Fp:7", "3", "coeff")]


@st.composite
def _damaged_documents(draw):
    """A good document with one to three slots replaced by random JSON or
    removed."""
    doc = copy.deepcopy(draw(st.sampled_from(_good_documents())))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
            elif isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
                del node[key]
                break
            else:
                node[key] = draw(_JSON)
                break
    return json.dumps(doc)


@given(st.one_of(_damaged_documents(), _JSON.map(json.dumps), st.text(max_size=40)))
@settings(max_examples=300, deadline=None)
def test_loads_raises_only_engine_errors(text):
    try:
        docio.loads(text)
    except QpmutError:
        pass


def _markov_with_declared_dims(n: int) -> str:
    """The Markov fixture with dims {n, n, n} and no matrices."""
    with open(fixture("markov_rep.json")) as f:
        doc = json.load(f)
    doc["payload"]["dims"] = {"1": n, "2": n, "3": n}
    del doc["payload"]["matrices"]
    return json.dumps(doc)


def test_load_cost_does_not_grow_with_declared_dims_squared():
    """A document that declares large dimensions and no matrices loads in
    time that grows with the dimensions, not with the cells of its zero maps."""
    text = _markov_with_declared_dims(1000)
    t0 = time.perf_counter()
    rep = docio.loads(text)
    assert time.perf_counter() - t0 < 0.5
    assert rep.dims == {1: 1000, 2: 1000, 3: 1000}
    assert all(m.is_zero() and (m.rows, m.cols) == (1000, 1000) for m in rep.maps.values())


def test_load_cost_does_not_grow_with_declared_dims():
    """Declared dimensions cost nothing once parsed: a module with dims
    {10^6}^3 and zero maps loads and passes check_module at once, in little
    memory, because a zero map stores no row."""
    text = _markov_with_declared_dims(10**6)

    def load_and_check():
        rep = docio.loads(text)
        assert check_module(rep).ok
        return rep

    t0 = time.perf_counter()
    rep = load_and_check()
    assert time.perf_counter() - t0 < 0.1
    assert rep.dims == {1: 10**6, 2: 10**6, 3: 10**6}
    assert all(m.is_zero() and (m.rows, m.cols) == (10**6, 10**6) for m in rep.maps.values())
    tracemalloc.start()
    try:
        load_and_check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_scalar_conversion_costs_distinct_values_not_cells(monkeypatch):
    """Loading parses each distinct scalar string once per document, and
    emitting prints each distinct value once; the memo keeps a bad string
    in a later cell failing where it stands."""
    rep = docio.load_path(fixture("markov_rep.json"))
    for k in (3, 1, 2, 3, 1, 2):
        rep = mutate_rep(rep, k)
    field = type(rep.field)
    to_str, parse = field.to_str, field.parse
    emitted, parsed = [], []
    monkeypatch.setattr(field, "to_str", lambda self, x: emitted.append(x) or to_str(self, x))
    monkeypatch.setattr(field, "parse", lambda self, s: parsed.append(s) or parse(self, s))
    text = docio.dumps(docio.emit_decrep(rep))
    doc = json.loads(text)
    cells = [s for rows in doc["payload"]["matrices"].values() for row in rows for s in row]
    assert len(cells) > 25000 and len(set(cells)) <= 4
    assert len(emitted) == len(set(emitted))
    assert docio.dumps(docio.emit_decrep(docio.loads(text))) == text
    assert len(parsed) == len(set(parsed)) == len(set(cells))

    second = [a for a, rows in doc["payload"]["matrices"].items() if rows][1]
    doc["payload"]["matrices"][second][-1][-1] = "1/0"
    with pytest.raises(SchemaError, match=re.escape(f"matrix for {second!r}")):
        docio.parse(doc)


def test_parse_skips_only_literal_zero_cells():
    """Cells spelled "0" are skipped unread; any other spelling of zero is
    still parsed, and a non-string zero is still an error naming its matrix."""
    rep = docio.load_path(fixture("markov_rep.json"))
    for k in (3, 1, 2):
        rep = mutate_rep(rep, k)
    text = docio.dumps(docio.emit_decrep(rep))
    doc = json.loads(text)
    aid, i, row = next((a, i, row) for a, rows in doc["payload"]["matrices"].items()
                       for i, row in enumerate(rows) if row.count("0") >= 3)
    zeros = [j for j, s in enumerate(row) if s == "0"]
    for j, s in zip(zeros, ("-0", "0/3", "00")):
        row[j] = s
    assert docio.dumps(docio.emit_decrep(docio.parse(doc))) == text
    for bad in (0, False, None):
        bad_doc = json.loads(text)
        bad_doc["payload"]["matrices"][aid][i][zeros[0]] = bad
        with pytest.raises(SchemaError, match=re.escape(f"matrix for {aid!r}")):
            docio.parse(bad_doc)
