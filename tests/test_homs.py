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


# -- End(m) kept on the module ------------------------------------------------
@pytest.fixture
def solves(monkeypatch):
    """The number of eliminations made so far."""
    count = [0]
    rref = Mat.rref

    def counting(self):
        count[0] += 1
        return rref(self)

    monkeypatch.setattr(Mat, "rref", counting)
    return count


def _copy(m, change=None):
    """A fresh module with m's maps, rebuilt entry by entry; ``change`` is
    ``(arrow, i, j)``, an entry to raise by one."""
    maps = {}
    for aid, a in m.maps.items():
        rows = [{} for _ in range(a.rows)]
        for i, j, x in a.nonzeros():
            rows[i][j] = x
        if change and change[0] == aid:
            _, i, j = change
            rows[i][j] = rows[i].get(j, m.field.zero) + m.field.one
        maps[aid] = Mat.from_rows(m.field, rows, a.cols)
    return DecRep(m.qp, m.dims, maps, m.dec_dims)


def test_modules_with_equal_maps_solve_their_endomorphisms_once(markov, solves):
    m = random_valid_module(markov, random.Random(221), max_dim=3)
    n = _copy(m)
    assert n is not m and n.maps == m.maps
    solves[0] = 0
    h = hom_space(m, n)
    assert solves[0] == 1 and h.basis == _reference_hom_basis(m, n)
    solves[0] = 0
    assert hom_space(n, n) is h  # stored on n too, not only on m
    assert hom_space(n, m) is h and hom_space(m, m) is h
    assert solves[0] == 0


def test_maps_that_differ_in_one_entry_solve_their_own_system(markov, solves):
    m = random_valid_module(markov, random.Random(223), max_dim=3)
    a = next(a for a in markov.quiver.arrows if not m.maps[a.id].is_zero())
    n = _copy(m, (a.id, 0, 0))
    assert n.maps != m.maps
    solves[0] = 0
    h = hom_space(m, n)
    assert solves[0] == 1 and m._end is None and n._end is None
    assert hom_space(m, n) is not h and solves[0] == 2
    assert h.basis == _reference_hom_basis(m, n)


def test_equal_maps_over_different_dimensions_are_not_endomorphisms():
    from qpmut import QP, JetSpace, Potential
    from qpmut.quiver import Arrow, Quiver

    q = Quiver((1, 2, 3), (Arrow("a", 1, 2),))
    qp = QP(q, Potential(JetSpace(q, 12, QQ).zero()))
    maps = {"a": Mat.identity(QQ, 1)}
    m = DecRep(qp, {1: 1, 2: 1, 3: 0}, maps, {})
    n = DecRep(qp, {1: 1, 2: 1, 3: 1}, maps, {})
    assert hom_space(m, n).basis == _reference_hom_basis(m, n)
    assert m._end is None and n._end is None
    assert hom_space(m, m).dim == 1 and hom_space(n, n).dim == 2


def test_endomorphisms_first_then_hom_to_an_equal_module(markov, solves):
    m = random_valid_module(markov, random.Random(227), max_dim=3)
    n = _copy(m)
    solves[0] = 0
    e = hom_space(m, m)
    assert hom_space(m, n) is e and hom_space(n, n) is e and hom_space(n, m) is e
    assert solves[0] == 1


def test_stored_endomorphisms_over_gf7_match_the_reference(solves):
    fp = markov_qp(field=GF(7))
    rng = random.Random(229)
    for _ in range(4):
        m = random_valid_module(fp, rng, max_dim=3)
        n = _copy(m)
        solves[0] = 0
        for a, b in ((m, n), (n, m), (m, m), (n, n)):
            assert hom_space(a, b).basis == _reference_hom_basis(a, b)
        assert solves[0] == 1 + 4  # one solve, and one per reference kernel


def test_a_changed_certificate_leaves_the_stored_endomorphisms(markov):
    m = random_valid_module(markov, random.Random(231), max_dim=3)
    n = _copy(m)
    res = is_isomorphic(m, n)
    assert res.verdict == YES
    before = [dict(b) for b in hom_space(m, n).basis]
    for v in res.certificate:
        res.certificate[v] = Mat.zero(QQ, m.dims[v], m.dims[v])
    assert hom_space(m, n).basis == before


def test_stored_endomorphisms_change_no_verdict_or_certificate():
    """Each test on modules that share their stored End agrees with the
    same test on fresh round-tripped copies, which store nothing."""
    from conftest import a2_qp
    from qpmut import docio
    from test_acceptance import _module_corpus

    def fresh(rep):
        return docio.loads(docio.dumps(docio.emit_decrep(rep)))

    pairs = []
    for m, k in _module_corpus(random.Random(20240003), 30, max_dim=3):
        pms = [premutate_rep(m, k, kind, require_valid=False).rep for kind in CONSTRUCTIONS]
        pairs += [(a, b) for i, a in enumerate(pms) for b in pms[i + 1:]]
    qp = a2_qp()
    split = DecRep(qp, {1: 1, 2: 1}, {"a": Mat.zero(QQ, 1, 1)}, {1: 0, 2: 0})
    joined = DecRep(qp, {1: 1, 2: 1}, {"a": Mat.identity(QQ, 1)}, {1: 0, 2: 0})
    for x in (split, joined):
        hom_space(x, x)  # stored before the NO path reads it
    pairs.append((split, joined))
    assert len(pairs) == 181
    verdicts = []
    for a, b in pairs:
        res, ref = is_isomorphic(a, b, seed=1), is_isomorphic(fresh(a), fresh(b), seed=1)
        assert (res.verdict, res.obstruction) == (ref.verdict, ref.obstruction)
        assert res.certificate == ref.certificate  # Mat == per vertex
        verdicts.append(res.verdict)
    assert verdicts.count(YES) == 180 and verdicts[-1] == NO
    assert sum(a._end is not None for a, _ in pairs) > 100
