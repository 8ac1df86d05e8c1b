"""Intertwiner spaces and the certified isomorphism test."""

import random

import pytest

from conftest import markov_qp
from qpmut import (
    CONSTRUCTIONS,
    GF,
    ContextError,
    DecRep,
    Mat,
    NO,
    QQ,
    UNDECIDED,
    YES,
    hom_space,
    is_isomorphic,
    premutate_rep,
    simple_rep,
)
from qpmut.generate import base_change, random_valid_module


def test_self_iso_is_yes(markov):
    rng = random.Random(201)
    m = random_valid_module(markov, rng, max_dim=3)
    res = is_isomorphic(m, m)
    assert res.verdict == YES
    # certificate re-verified: it intertwines and inverts
    for v in markov.quiver.vertices:
        assert res.certificate[v].is_invertible()


def test_different_dim_vectors_is_no(markov):
    s1 = simple_rep(markov, 1)
    s2 = simple_rep(markov, 2)
    res = is_isomorphic(s1, s2)
    assert res.verdict == NO
    assert "dimension" in res.obstruction


def test_different_decorations_is_no(markov):
    m1 = DecRep(markov, {1: 0, 2: 0, 3: 0}, {}, {1: 1, 2: 0, 3: 0})
    m2 = DecRep(markov, {1: 0, 2: 0, 3: 0}, {}, {1: 0, 2: 1, 3: 0})
    assert is_isomorphic(m1, m2).verdict == NO


def test_base_change_is_yes(markov):
    rng = random.Random(203)
    for _ in range(5):
        m = random_valid_module(markov, rng, max_dim=4)
        n, g = base_change(m, rng)
        # the conjugating map itself is a planted certificate
        from qpmut.reps import is_intertwiner
        assert is_intertwiner(m, n, g)
        assert all(g[v].is_invertible() for v in markov.quiver.vertices)
        res = is_isomorphic(m, n, seed=1)
        assert res.verdict == YES


def test_nonisomorphic_same_dims(markov):
    # the direct sum of two simples never matches an indecomposable with the
    # same dimension vector
    from conftest import a2_qp
    qp = a2_qp()
    split = DecRep(qp, {1: 1, 2: 1}, {"a": Mat.zero(QQ, 1, 1)}, {1: 0, 2: 0})
    joined = DecRep(qp, {1: 1, 2: 1}, {"a": Mat.identity(QQ, 1)}, {1: 0, 2: 0})
    res = is_isomorphic(split, joined)
    assert res.verdict == NO
    assert res.obstruction == "endomorphism algebras have different dimensions"


def test_yes_builds_one_hom_space(markov, monkeypatch):
    import qpmut.homs
    calls = []
    real = qpmut.homs.hom_space

    def counting(m, n):
        calls.append((m, n))
        return real(m, n)

    monkeypatch.setattr(qpmut.homs, "hom_space", counting)
    rng = random.Random(203)
    for _ in range(5):
        m = random_valid_module(markov, rng, max_dim=4)
        n, _ = base_change(m, rng)
        calls.clear()
        assert is_isomorphic(m, n, seed=1).verdict == YES
        assert calls == [(m, n)]


def test_hom_space_counts(markov):
    rng = random.Random(207)
    m = random_valid_module(markov, rng, max_dim=3)
    h = hom_space(m, m)
    assert h.dim >= 1  # contains the identity
    for b in h.basis:
        for a in markov.quiver.arrows:
            assert b[a.head] @ m.maps[a.id] == m.maps[a.id] @ b[a.tail]


def _reference_hom_basis(m, n):
    """Hom(m, n) read cell by cell: the intertwining system from every entry
    of both maps, its ``kernel_basis``, then one ``entry`` per unknown per
    basis vector.  Unknown o_v + p * dim m_v + q is entry (p, q) of g_v."""
    verts = list(m.qp.quiver.vertices)
    unknown = {}
    for v in verts:
        for p in range(n.dims[v]):
            for q in range(m.dims[v]):
                unknown[v, p, q] = len(unknown)
    rows = []
    for a in m.qp.quiver.arrows:
        h, t = a.head, a.tail
        for p in range(n.dims[h]):
            for q in range(m.dims[t]):
                # (g_h @ a_M)[p][q] - (a_N @ g_t)[p][q]; h != t, so no clash
                row = {unknown[h, p, r]: m.maps[a.id].entry(r, q) for r in range(m.dims[h])}
                for s in range(n.dims[t]):
                    row[unknown[t, s, q]] = -n.maps[a.id].entry(p, s)
                rows.append(row)
    kernel = Mat.from_rows(m.field, rows, len(unknown)).kernel_basis()
    return [
        {v: Mat.from_rows(
            m.field,
            [{q: kernel.entry(unknown[v, p, q], j) for q in range(m.dims[v])}
             for p in range(n.dims[v])],
            m.dims[v],
        ) for v in verts}
        for j in range(kernel.cols)
    ]


def test_hom_space_basis_matches_the_cell_by_cell_reference():
    from test_acceptance import _module_corpus

    pairs = []
    for m, k in _module_corpus(random.Random(20240003), 30, max_dim=3):
        pms = [premutate_rep(m, k, kind, require_valid=False).rep for kind in CONSTRUCTIONS]
        pairs += [(a, b) for i, a in enumerate(pms) for b in pms[i + 1:]]
    fp = markov_qp(field=GF(7))
    rng = random.Random(211)
    for _ in range(6):
        m = random_valid_module(fp, rng, max_dim=3)
        n, _ = base_change(m, rng)
        pairs += [(m, n), (m, random_valid_module(fp, rng, max_dim=3))]
    assert len(pairs) == 192
    dims = []
    for m, n in pairs:
        h = hom_space(m, n)
        assert h.basis == _reference_hom_basis(m, n)
        dims.append(h.dim)
    assert 0 in dims and max(dims) > 1  # empty and wide bases both occur


def test_context_mismatch_raises(markov):
    from conftest import a2_qp
    m = simple_rep(markov, 1)
    n = simple_rep(a2_qp(), 1)
    with pytest.raises(ContextError):
        is_isomorphic(m, n)


def test_zero_modules_isomorphic(markov):
    from qpmut import zero_rep
    assert is_isomorphic(zero_rep(markov), zero_rep(markov)).verdict == YES
