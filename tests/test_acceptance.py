"""Acceptance suite: ten exact criteria, one printed line per criterion.

Every tolerance is exact (rational/finite-field arithmetic); corpus sizes
and time budgets follow the stated contract.  Seeds are fixed so the suite
is reproducible bit for bit.
"""

import json
import random
import time
from fractions import Fraction

import pytest
import sympy

from conftest import from_int_rows, markov_qp, path_action, random_rep_zero_potential, MARKOV_K
from qpmut import (
    CONSTRUCTIONS,
    DecRep,
    Mat,
    QQ,
    YES,
    check_beta_alpha,
    check_module,
    constructions_agree,
    cyclic_derivative,
    duality_witness,
    is_isomorphic,
    mutate_qp,
    mutate_rep,
    negative_simple_rep,
    premutate_rep,
    pullback_reduction,
    split_reduce,
    premutate_qp,
    transport_iso,
)
from qpmut import docio
from qpmut.cli import main
from qpmut.generate import (
    base_change,
    random_qp,
    random_valid_module,
)
from qpmut.jets import JetSpace
from qpmut.mutation import involution_pullback
from qpmut.qp import QP
from qpmut.quiver import Arrow, Quiver
from qpmut.cycles import Potential


def _report(name: str, ok: bool, extra: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, name


def _module_corpus(rng, count, max_dim=4, include_markov=True):
    """Valid modules over a pool of QPs with admissible mutation vertices."""
    out = []
    markov = markov_qp()
    while len(out) < count:
        if include_markov and (len(out) % 3 == 0):
            qp = markov
        else:
            qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4,
                           max_len=4, order=12)
        admissible = [k for k in qp.quiver.vertices if not qp.quiver.has_two_cycle_at(k)]
        if not admissible:
            continue
        k = rng.choice(admissible)
        try:
            m = random_valid_module(qp, rng, max_dim=max_dim)
        except RuntimeError:
            continue
        out.append((m, k))
    return out


def test_criterion_1_markov_golden(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "markov_mutated.json"
    code = main([
        "mutate-qp", "--in", "fixtures/markov.json", "--at", str(MARKOV_K),
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    red = docio.parse({k: v for k, v in doc.items() if k != "steps"})

    qpt = premutate_qp(markov_qp(), MARKOV_K)
    assert {a.id for a in qpt.quiver.arrows} == {
        "a1*", "a2*", "b1*", "b2*", "c1", "c2",
        "[b1a1]", "[b1a2]", "[b2a1]", "[b2a2]",
    }
    space_t = qpt.space
    from qpmut.cycles import cyclic_normalize
    assert qpt.potential == cyclic_normalize(
        space_t.path(("c1", "[b1a1]")) + space_t.path(("c2", "[b2a2]"))
        + space_t.path(("a1*", "b1*", "[b1a1]")) + space_t.path(("a2*", "b1*", "[b1a2]"))
        + space_t.path(("a1*", "b2*", "[b2a1]")) + space_t.path(("a2*", "b2*", "[b2a2]"))
    )

    assert {a.id for a in red.quiver.arrows} == {
        "a1*", "a2*", "b1*", "b2*", "[b1a2]", "[b2a1]"
    }
    space_r = red.space
    assert red.potential == cyclic_normalize(
        space_r.path(("a2*", "b1*", "[b1a2]")) + space_r.path(("a1*", "b2*", "[b2a1]"))
    )
    step = doc["steps"][0]
    assert {a["id"] for a in step["trivial"]["arrows"]} == {"c1", "c2", "[b1a1]", "[b2a2]"}
    assert step["trivial"]["potential"] == [
        {"coeff": "1", "cycle": ["[b1a1]", "c1"]},
        {"coeff": "1", "cycle": ["[b2a2]", "c2"]},
    ]
    images = step["splitting"]["images"]
    assert images["c1"] == [{"path": ["c1"], "coeff": "1"},
                            {"path": ["a1*", "b1*"], "coeff": "1"}]
    assert images["c2"] == [{"path": ["c2"], "coeff": "1"},
                            {"path": ["a2*", "b2*"], "coeff": "1"}]
    for aid, img in images.items():
        if aid not in ("c1", "c2"):
            assert img == [{"path": [aid], "coeff": "1"}]
    elapsed = time.monotonic() - t0
    _report("criterion 1: Markov golden mutation", elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_2_reduction_certificates():
    t0 = time.monotonic()
    rng = random.Random(20240001)
    count = 0
    while count < 200:
        qp = random_qp(rng, max_vertices=5, max_arrows=10, max_terms=8,
                       max_len=5, order=12)
        sr = split_reduce(qp)
        assert sr.certificate.ok
        assert dict(sr.certificate.checks) == {
            "reduced part has zero degree-2 component": True,
            "trivial part is trivial": True,
            "arrow sets split the quiver": True,
            "splitting carries the split potential to the input": True,
        }
        count += 1
    elapsed = time.monotonic() - t0
    _report("criterion 2: 200 reduction certificates", elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_3_triangle_identities():
    t0 = time.monotonic()
    rng = random.Random(20240002)
    corpus = _module_corpus(rng, 125, max_dim=6)
    checked = 0
    for m, k in corpus:
        pms = {kind: premutate_rep(m, k, kind, require_valid=False)
               for kind in CONSTRUCTIONS}
        t = pms["ker_alpha"].triangle
        assert (t.alpha @ t.gamma).is_zero()
        assert (t.gamma @ t.beta).is_zero()
        for kind in CONSTRUCTIONS:
            assert check_beta_alpha(pms[kind]).ok
            checked += 1
    assert checked >= 500
    elapsed = time.monotonic() - t0
    _report("criterion 3: triangle identities on 500+ premutations",
            elapsed < 60.0, f"{checked} checks, {elapsed:.1f}s")


def _assert_exact(values):
    """Every scalar is an int or a Fraction: no float, and no bool."""
    bad = [x for x in values if type(x) not in (int, Fraction)]
    assert not bad, bad[:5]


def _entries(mats):
    return [x for m in mats for row in m.data for x in row]


def test_criterion_4_four_construction_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20240003)
    corpus = _module_corpus(rng, 100, max_dim=3)
    undecided = 0
    for m, k in corpus:
        rpt = constructions_agree(m, k)
        assert rpt.ok, rpt.failures
        pms = {kind: premutate_rep(m, k, kind, require_valid=False)
               for kind in CONSTRUCTIONS}
        for i, k1 in enumerate(CONSTRUCTIONS):
            for k2 in CONSTRUCTIONS[i + 1:]:
                res = is_isomorphic(pms[k1].rep, pms[k2].rep, seed=1)
                if res.verdict != YES:
                    undecided += 1
                assert res.verdict == YES
                _assert_exact(_entries(res.certificate.values()))
    elapsed = time.monotonic() - t0
    _report("criterion 4: four constructions pairwise isomorphic on 100 modules",
            undecided == 0 and elapsed < 120.0, f"{elapsed:.1f}s")


def test_no_scalar_is_a_float():
    rep = docio.load_path("fixtures/markov_rep.json")
    for k in (3, 1, 2, 3, 1, 2):
        rep = mutate_rep(rep, k)
        _assert_exact(_entries(rep.maps.values()))

    rng = random.Random(11)
    for n in range(1, 7):
        a = from_int_rows(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = from_int_rows(QQ, [[rng.randint(-3, 3)] for _ in range(n)])
        outs = [a.rref()[0]]
        if a.is_invertible():
            outs += [a.solve(b), a.inverse()]
        _assert_exact(_entries(outs))


def test_criterion_5_annihilation():
    rng = random.Random(20240004)
    corpus = _module_corpus(rng, 60, max_dim=4)
    for m, k in corpus:
        pm = premutate_rep(m, k, require_valid=False)
        qpt = pm.rep.qp
        for a in qpt.quiver.arrows:
            d = cyclic_derivative(qpt.potential, a.id)
            assert path_action(pm.rep, d).is_zero()
    _report("criterion 5: premuted derivatives annihilate the premutation", True)


def test_criterion_6_involutivity():
    t0 = time.monotonic()
    rng = random.Random(20240005)
    done = 0
    undecided = 0
    markov = markov_qp()
    while done < 100:
        if done % 3 == 0:
            qp = markov
        else:
            qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4,
                           max_len=4, order=12)
            if not qp.quiver.is_2_acyclic():
                continue
        k = rng.choice(qp.quiver.vertices)
        try:
            m = random_valid_module(qp, rng, max_dim=2)
        except RuntimeError:
            continue
        w = involution_pullback(m, k)
        assert w.qp == qp
        assert w.dec_dims == m.dec_dims
        res = is_isomorphic(w, m, seed=3)
        if res.verdict != YES:
            undecided += 1
        assert res.verdict == YES
        # the literal double mutation is a valid module over the double
        # mutation of the QP and preserves dimension and decoration vectors
        m1 = mutate_rep(m, k)
        m2 = mutate_rep(m1, k)
        assert check_module(m2).ok
        assert sorted(m2.dims.values()) == sorted(m.dims.values())
        assert m2.dims == m.dims
        assert m2.dec_dims == m.dec_dims
        done += 1
    elapsed = time.monotonic() - t0
    _report("criterion 6: involutivity via the double-mutation pullback",
            undecided == 0 and elapsed < 180.0, f"{elapsed:.1f}s")


def test_criterion_7_duality():
    rng = random.Random(20240006)
    corpus = _module_corpus(rng, 100, max_dim=3)
    for m, k in corpus:
        rpt = duality_witness(m, k)
        assert rpt.ok
    _report("criterion 7: mutation commutes with duality on 100 modules", True)


def test_criterion_8_iso_preservation():
    rng = random.Random(20240007)
    corpus = _module_corpus(rng, 100, max_dim=3)
    for m, k in corpus:
        n, g = base_change(m, rng)
        pm_m, pm_n, f = transport_iso(m, n, g, k)
        reduced, phi, _ = mutate_qp(m.qp, k)
        red_m = pullback_reduction(pm_m.rep, phi, reduced)
        red_n = pullback_reduction(pm_n.rep, phi, reduced)
        from qpmut.reps import is_intertwiner

        assert is_intertwiner(red_m, red_n, f)
        assert all(f[v].is_invertible() for v in m.qp.quiver.vertices)
    _report("criterion 8: mutation preserves isomorphism on 100 planted pairs", True)


def _random_acyclic_quiver(rng):
    n = rng.randint(2, 5)
    vertices = tuple(range(1, n + 1))
    arrows = []
    for i in range(rng.randint(1, 6)):
        t = rng.randint(1, n - 1)
        h = rng.randint(t + 1, n)
        arrows.append(Arrow(f"a{i}", t, h))
    return Quiver(vertices, tuple(arrows))


def _bgp_reflection_sink(m: DecRep, k: int, reflected_qp: QP) -> DecRep:
    """Independent sink-to-source reflection, kernel basis via sympy."""
    q = m.qp.quiver
    fld = m.field
    ins = [a for a in q.arrows_into(k)]
    blocks = [m.maps[a.id] for a in ins]
    d_in = sum(m.dims[a.tail] for a in ins)
    alpha = sympy.Matrix(m.dims[k], d_in, lambda i, j: 0)
    off = 0
    for a, blk in zip(ins, blocks):
        for i in range(blk.rows):
            for j in range(blk.cols):
                alpha[i, off + j] = sympy.Rational(blk.data[i][j])
        off += blk.cols
    null = alpha.nullspace()
    ker = Mat(fld, [[fld.parse(str(v[i])) for v in null] for i in range(d_in)]) \
        if null else Mat.zero(fld, d_in, 0)
    dims = {v: (ker.cols if v == k else m.dims[v]) for v in q.vertices}
    maps = {}
    for a in q.arrows:
        if a.head != k:
            maps[a.id] = m.maps[a.id]
    off = 0
    for a in ins:
        d = m.dims[a.tail]
        maps[a.id + "*"] = ker.take_rows(list(range(off, off + d)))
        off += d
    dec = {v: m.dec_dims[v] for v in q.vertices}
    dec[k] = m.dims[k] - alpha.rank()  # new decoration: cokernel of the in-map
    return DecRep(reflected_qp, dims, maps, dec)


def test_criterion_9_bgp_consistency():
    rng = random.Random(20240008)
    done = 0
    while done < 50:
        q = _random_acyclic_quiver(rng)
        space = JetSpace(q, 12, QQ)
        qp = QP(q, Potential(space.zero()))
        sinks = [v for v in q.vertices if not q.arrows_out_of(v) and q.arrows_into(v)]
        sources = [v for v in q.vertices if not q.arrows_into(v) and q.arrows_out_of(v)]
        if not sinks and not sources:
            continue
        m = random_rep_zero_potential(qp, rng, max_dim=3)
        # the classical reflection has no decorations; zero them so the
        # module parts are directly comparable
        m = DecRep(m.qp, m.dims, m.maps, {v: 0 for v in q.vertices})
        if sinks:
            k = rng.choice(sinks)
            out = mutate_rep(m, k)
            bgp = _bgp_reflection_sink(m, k, out.qp)
            assert out.dims == bgp.dims
            assert out.dec_dims == bgp.dec_dims
            res = is_isomorphic(out, bgp, seed=4)
            assert res.verdict == YES
        if sources:
            k = rng.choice(sources)
            out = mutate_rep(m, k)
            # dual route: reflect the dual at the (now sink) vertex
            from qpmut import dualize_rep
            md = dualize_rep(m)
            outd = mutate_rep(md, k)
            bgp_dual = _bgp_reflection_sink(md, k, outd.qp)
            assert outd.dims == bgp_dual.dims
            assert outd.dec_dims == bgp_dual.dec_dims
            assert is_isomorphic(outd, bgp_dual, seed=4).verdict == YES
        done += 1
    _report("criterion 9: sink/source mutations match the classical reflection", True)


def test_criterion_10_negative_simple_round_trip():
    rng = random.Random(20240009)
    qps = [markov_qp()]
    while len(qps) < 8:
        qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4,
                       max_len=4, order=12)
        qps.append(qp)
    for qp in qps:
        for k in qp.quiver.vertices:
            if qp.quiver.has_two_cycle_at(k):
                continue
            neg = negative_simple_rep(qp, k)
            out = mutate_rep(neg, k)
            assert out.dims == {v: (1 if v == k else 0) for v in qp.quiver.vertices}
            assert all(d == 0 for d in out.dec_dims.values())
            back = mutate_rep(out, k)
            assert all(d == 0 for d in back.dims.values())
            assert back.dec_dims == {v: (1 if v == k else 0) for v in qp.quiver.vertices}
    _report("criterion 10: negative simple round trip on every test QP", True)
