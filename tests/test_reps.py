"""Decorated representations: module checks, jet actions, triangles."""

import hashlib
import random

import pytest

from conftest import (
    a2_qp, count_eliminations, from_int_rows, image_basis, markov_qp, markov_quiver, path_action,
    reference_intersection, MARKOV_K,
)
from qpmut import docio
from qpmut import (
    GF,
    QP,
    Arrow,
    CertificateError,
    DecRep,
    InvariantError,
    JetSpace,
    Mat,
    Potential,
    QQ,
    Quiver,
    Report,
    TruncationTooSmall,
    build_triangle,
    check_module,
    component_action,
    cyclic_derivative,
    cyclic_normalize,
    simple_rep,
)
from qpmut.generate import random_invertible, random_qp, random_valid_module, truncated_projective
from qpmut.linalg import coords_in, kernel_from_rref, subspace_package
from qpmut.reps import derivative_actions, is_intertwiner, is_isomorphism, path_matrix


def a2_p1():
    """The projective at the source of the one-arrow quiver: k -> k."""
    qp = a2_qp()
    return DecRep(qp, {1: 1, 2: 1}, {"a": Mat.identity(QQ, 1)}, {1: 0, 2: 0})


def test_simple_module_passes():
    qp = markov_qp()
    for j in qp.quiver.vertices:
        assert check_module(simple_rep(qp, j)).ok


def test_violating_module_fails_with_witness():
    qp = markov_qp()
    dims = {1: 1, 2: 1, 3: 1}
    maps = {
        "a1": Mat.identity(QQ, 1),
        "b1": Mat.identity(QQ, 1),
    }
    rep = DecRep(qp, dims, maps, {1: 0, 2: 0, 3: 0})
    rpt = check_module(rep)
    assert not rpt.ok
    # d/d(c1) = b1 a1 acts by 1 on the 1 -> ... -> 2 route
    assert any("c1" in f for f in rpt.failures)


def test_a_dimension_keyed_by_no_vertex_is_rejected():
    # kept, {99: 4} would make the Markov module's total dimension 7, not 3
    rep = docio.load_path("fixtures/markov_rep.json")
    assert rep.total_dim() == 3
    for dims, dec in (({**rep.dims, 99: 4}, rep.dec_dims), (rep.dims, {**rep.dec_dims, 99: 1})):
        with pytest.raises(InvariantError, match="dimension given for 99, which is not a vertex"):
            DecRep(rep.qp, dims, rep.maps, dec)


def test_a_map_keyed_by_no_arrow_is_rejected():
    # kept, the map meant for b1 would leave b1 a zero map, and the module
    # would still pass check_module
    rep = docio.load_path("fixtures/markov_rep.json")
    without_b1 = {a: m for a, m in rep.maps.items() if a != "b1"}
    assert not rep.maps["b1"].is_zero()
    assert check_module(DecRep(rep.qp, rep.dims, without_b1, rep.dec_dims)).ok
    with pytest.raises(InvariantError, match="map given for 'b3', which is not an arrow"):
        DecRep(rep.qp, rep.dims, {**without_b1, "b3": rep.maps["b1"]}, rep.dec_dims)


def test_generated_modules_pass(markov):
    rng = random.Random(17)
    for _ in range(5):
        m = random_valid_module(markov, rng, max_dim=4)
        assert check_module(m).ok


def test_truncated_projective_is_valid(markov):
    for ell in markov.quiver.vertices:
        for power in (1, 2, 3):
            m = truncated_projective(markov, ell, power)
            assert check_module(m).ok
            assert m.nilpotency_index() <= power


# sha256 over docio.dumps(docio.emit_decrep(m)) of truncated_projective(markov,
# ell, power) for ell in 1..3 and power in 1..5, and of random_valid_module(qp,
# rng, max_dim=4, max_power=4) over 60 QPs random_qp(rng) drawn from Random(5)
TRUNCATED_PROJECTIVES_SHA = "7332163e484b7530e659e03675b0259cb4bb5478519587c7bca0fc2bb995d695"
RANDOM_MODULES_SHA = "963bc6fe1b153ca3546803e9e9e2a087cf7c0cb42cf023827088e2e17756ace1"


def test_generated_modules_are_pinned(markov, monkeypatch):
    import qpmut.generate as gen

    def emitted(m):
        return docio.dumps(docio.emit_decrep(m)).encode()

    h = hashlib.sha256()
    for ell in (1, 2, 3):
        for power in range(1, 6):
            h.update(emitted(truncated_projective(markov, ell, power)))
    assert h.hexdigest() == TRUNCATED_PROJECTIVES_SHA

    quotients = []
    random_quotient = gen.random_quotient
    monkeypatch.setattr(gen, "random_quotient",
                        lambda rep, rng: quotients.append(rep) or random_quotient(rep, rng))
    rng = random.Random(5)
    h = hashlib.sha256()
    for _ in range(60):
        h.update(emitted(random_valid_module(random_qp(rng), rng, max_dim=4, max_power=4)))
    assert len(quotients) == 19
    assert h.hexdigest() == RANDOM_MODULES_SHA


def test_nilpotency_rejects_invertible_cycle():
    qp = markov_qp()
    dims = {1: 1, 2: 1, 3: 1}
    maps = {
        "a1": Mat.identity(QQ, 1),
        "b1": Mat.identity(QQ, 1),
        "c1": Mat.identity(QQ, 1),
    }
    rep = DecRep(qp, dims, maps, {1: 0, 2: 0, 3: 0})
    assert not rep.is_nilpotent()
    assert not check_module(rep).ok


def _brute_nilpotency_index(rep):
    """The least d at which every path of length d acts as zero, found by
    enumerating the paths; None when no d <= total_dim works (then none
    does, and the representation is not nilpotent)."""
    q = rep.qp.quiver
    paths = [((), v, v) for v in q.vertices]  # (word, tail, head)
    for d in range(rep.total_dim() + 1):
        if all(path_matrix(rep, w, t, h).is_zero() for w, t, h in paths):
            return d
        paths = [((a.id,) + w, t, a.head) for w, t, h in paths for a in q.arrows if a.tail == h]
    return None


def _random_maps(qp, rng, max_dim):
    """Sparse random maps on random dimensions: many are not nilpotent."""
    dims = {v: rng.randint(0, max_dim) for v in qp.quiver.vertices}
    maps = {a.id: from_int_rows(QQ, [[rng.choice([-1, 0, 0, 0, 1]) for _ in range(dims[a.tail])]
                                     for _ in range(dims[a.head])])
            if dims[a.head] else Mat.zero(QQ, 0, dims[a.tail])
            for a in qp.quiver.arrows}
    return DecRep(qp, dims, maps, {v: 0 for v in qp.quiver.vertices})


def test_nilpotency_index_matches_brute_force(markov):
    rng = random.Random(41)
    reps = [random_valid_module(markov, rng, max_dim=4, max_power=5) for _ in range(15)]
    reps += [_random_maps(markov, rng, 2) for _ in range(40)]
    while len(reps) < 85:
        qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4, max_len=4, order=8)
        reps.append(random_valid_module(qp, rng, max_dim=3, max_power=4))
        reps.append(_random_maps(qp, rng, 1))
    seen = set()
    for rep in reps:
        want = _brute_nilpotency_index(rep)
        if want is None:
            assert not rep.is_nilpotent()
        else:
            assert rep.nilpotency_index() == want
        seen.add(want)
    assert None in seen and {0, 1, 2, 3, 4} <= seen


def _index_by_path_products(rep):
    """The least d at which the maps multiplied along every path of length d
    give zero, from the maps themselves; InvariantError when the paths of
    length total_dim still do not (then no length does).  The nonzero
    products are kept once per (tail, head, value)."""
    q = rep.qp.quiver
    prods = {(v, v, frozenset(i.nonzeros())): i for v in q.vertices
             if (i := Mat.identity(rep.field, rep.dims[v])).rows}
    for d in range(rep.total_dim() + 1):
        if not prods:
            return d
        longer = {}
        for (t, h, _), m in prods.items():
            for a in q.arrows_out_of(h):
                if not (p := rep.maps[a.id] @ m).is_zero():
                    longer[t, a.head, frozenset(p.nonzeros())] = p
        prods = longer
    raise InvariantError("a path of length total_dim acts nonzero")


def test_nilpotency_index_agrees_with_path_products_over_each_field():
    rng = random.Random(53)
    qps = [markov_qp(field=f) for f in (QQ, GF(2), GF(7))]
    for f in (QQ, GF(2)):  # a 2-cycle with a tail, and a line
        for q in (Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 1), Arrow("c", 2, 3))),
                  Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 3)))):
            qps.append(QP(q, Potential(JetSpace(q, 6, f).zero())))
    seen = set()
    for qp in qps:
        fld = qp.field
        for _ in range(40):
            dims = {v: rng.randint(0, 2) for v in qp.quiver.vertices}
            maps = {a.id: Mat.from_rows(fld, [{j: fld.of(rng.choice([-1, 0, 0, 1])) for j in range(dims[a.tail])}
                                              for _ in range(dims[a.head])], dims[a.tail])
                    for a in qp.quiver.arrows}
            rep = DecRep(qp, dims, maps, {})
            try:
                want = _index_by_path_products(rep)
            except InvariantError:
                with pytest.raises(InvariantError):
                    rep.nilpotency_index()
                want = None
            else:
                assert rep.nilpotency_index() == want
            seen.add((want, 0 in dims.values()))
    indices = {want for want, _ in seen}
    assert None in indices and {0, 1, 2, 3} <= indices
    # vertices of dimension 0 in modules of both kinds
    assert (None, True) in seen and any(want and zero for want, zero in seen)


def test_nilpotency_index_edge_cases(markov):
    assert DecRep(markov, {}, {}, {}).nilpotency_index() == 0
    assert DecRep(markov, {1: 2, 2: 0, 3: 3}, {}, {}).nilpotency_index() == 1


def test_markov_module_solved_by_linear_algebra(markov):
    """Build a module by solving the derivative relations linearly:
    random maps into the mutation vertex, outgoing maps from the left
    annihilator, and return maps from the two-sided linear solution space."""
    from qpmut.linalg import hstack, vstack

    rng = random.Random(47)
    built = 0
    attempts = 0
    while built < 3 and attempts < 200:
        attempts += 1
        d1, d2, d3 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        maps = {}
        ok = True
        for i in ("1", "2"):
            a = Mat(QQ, [[QQ.of(rng.randint(-1, 1)) for _ in range(d1)] for _ in range(d3)])
            # rows of b must kill the image of a
            left_null = a.T.kernel_basis()  # columns: vectors v with v^T a = 0
            if left_null.cols == 0:
                b = Mat.zero(QQ, d2, d3)
            else:
                coeffs = Mat(QQ, [[QQ.of(rng.randint(-1, 1)) for _ in range(left_null.cols)]
                                  for _ in range(d2)])
                b = coeffs @ left_null.T
            # c solves a @ c = 0 and c @ b = 0, a linear system in c's entries
            rows = []
            for p in range(d3):
                for q in range(d2):
                    row = [QQ.zero] * (d1 * d2)
                    for r in range(d1):
                        if a.data[p][r]:
                            row[r * d2 + q] += a.data[p][r]
                    rows.append(row)
            for p in range(d1):
                for q in range(d3):
                    row = [QQ.zero] * (d1 * d2)
                    for s in range(d2):
                        if b.data[s][q]:
                            row[p * d2 + s] += b.data[s][q]
                    rows.append(row)
            system = Mat(QQ, rows) if rows else Mat.zero(QQ, 0, d1 * d2)
            sol = system.kernel_basis()
            c = Mat.zero(QQ, d1, d2)
            if sol.cols:
                weights = [QQ.of(rng.randint(-1, 1)) for _ in range(sol.cols)]
                vec = [sum((w * sol.data[idx][j] for j, w in enumerate(weights)), QQ.zero)
                       for idx in range(d1 * d2)]
                c = Mat(QQ, [[vec[p * d2 + s] for s in range(d2)] for p in range(d1)])
            maps[f"a{i}"] = a
            maps[f"b{i}"] = b
            maps[f"c{i}"] = c
        rep = DecRep(markov, {1: d1, 2: d2, 3: d3}, maps, {1: 0, 2: 0, 3: 0})
        if not rep.is_nilpotent():
            continue
        assert check_module(rep).ok
        built += 1
    assert built == 3


def test_path_action_idempotent_is_projection(markov):
    rng = random.Random(23)
    m = random_valid_module(markov, rng, max_dim=3)
    u = markov.space.idempotent(1)
    act = path_action(m, u)
    total = m.total_dim()
    assert act.rows == total == act.cols
    assert act @ act == act
    assert act.rank() == m.dims[1]


def test_path_action_lengths_beyond_nilpotency_vanish(markov):
    rng = random.Random(29)
    m = random_valid_module(markov, rng, max_dim=3)
    idx = m.nilpotency_index()
    word = ("c1", "b1", "a1") * ((idx // 3) + 1)
    word = word[: max(idx, 1)]
    # build a valid path of length >= idx by walking the triangle cycle
    long_word = ("c1", "b1", "a1") * (idx + 1)
    mat = path_matrix(m, long_word[: 3 * (idx // 3 + 1)], 1, 1)
    assert mat.is_zero()


def test_path_action_annihilates_derivatives(markov):
    rng = random.Random(31)
    m = random_valid_module(markov, rng, max_dim=4)
    for a in markov.quiver.arrows:
        d = cyclic_derivative(markov.potential, a.id)
        assert component_action(m, d, a.tail, a.head).is_zero()
        assert path_action(m, d).is_zero()


def test_path_action_guards_truncation():
    from qpmut import JetSpace, Potential, QP
    from conftest import markov_quiver
    from qpmut.cycles import cyclic_normalize

    q = markov_quiver()
    space = JetSpace(q, 3, QQ)
    qp = QP(q, cyclic_normalize(space.path(("c1", "b1", "a1")) + space.path(("c2", "b2", "a2"))))
    m = truncated_projective(qp, 1, 5)
    if m.nilpotency_index() > 3:
        with pytest.raises(TruncationTooSmall):
            path_action(m, qp.space.idempotent(1))


def test_triangle_simple_at_vertex(markov):
    m = simple_rep(markov, MARKOV_K)
    t = build_triangle(m, MARKOV_K)
    assert t.d_in == 0 and t.d_out == 0
    assert t.ker_alpha.cols == 0
    assert t.coker_p.rows == 0
    assert t.dim_new_decoration == 1  # ker beta = M_k


def _reference_triangle(t):
    """Every derived field of a triangle pack by the general route: solve for
    coordinates, take gamma's kernel retraction from kernel_from_rref and
    quotients from subspace_package of bases, intersect."""
    ker_alpha = t.alpha.kernel_basis()
    ker_beta = t.beta.kernel_basis()
    ker_gamma = t.gamma.kernel_basis()
    im_beta = image_basis(t.beta)
    im_gamma = image_basis(t.gamma)
    rho = kernel_from_rref(*t.gamma.rref())[1]
    pi1, s1 = subspace_package(coords_in(ker_gamma, im_beta))
    im_gamma_in_keralpha = coords_in(ker_alpha, im_gamma)
    pi2, sigma = subspace_package(im_gamma_in_keralpha)
    coker_p, coker_sec = subspace_package(im_beta)
    pre = Mat.identity(t.gamma.field, t.d_out).take_cols(t.gamma.rref()[1])
    cap = reference_intersection(ker_beta, image_basis(t.alpha))
    return dict(
        ker_alpha=ker_alpha,
        ker_gamma=ker_gamma,
        rho=rho,
        im_gamma=im_gamma,
        im_gamma_in_keralpha=im_gamma_in_keralpha,
        gamma_in_keralpha=coords_in(ker_alpha, t.gamma),
        gamma_in_imgamma=coords_in(im_gamma, t.gamma),
        coker_p=coker_p,
        coker_sec=coker_sec,
        pi1=pi1,
        s1=s1,
        pi2=pi2,
        sigma=sigma,
        s_section=pre - ker_gamma @ (rho @ pre),
        dim_new_decoration=ker_beta.cols - cap.cols,
    )


def _shape_and_entries(x):
    if isinstance(x, Mat):
        return (x.rows, x.cols), [str(e) for row in x.data for e in row]
    return x


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "Fp5"])
def test_triangle_read_offs_match_the_general_derivation(field):
    rng = random.Random(907)
    # the Markov QP gives nonzero derivative maps; random QPs vary the shapes
    qps = [markov_qp(field=field)] * 8
    qps += [random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4, max_len=4, field=field)
            for _ in range(5)]
    checked = nonzero_gamma = 0
    for qp in qps:
        for _ in range(2):
            try:
                m = random_valid_module(qp, rng, max_dim=5)
            except RuntimeError:
                continue
            for k in qp.quiver.vertices:
                if qp.quiver.has_two_cycle_at(k):
                    continue
                t = build_triangle(m, k)
                ref = _reference_triangle(t)
                # gamma's pivot columns, a basis of im gamma, are read off the section
                im_gamma = ref.pop("im_gamma")
                assert _shape_and_entries(t.gamma @ t.s_section) == _shape_and_entries(im_gamma)
                derived = set(vars(t)) - {
                    "k", "in_arrows", "out_arrows", "in_dims", "out_dims",
                    "alpha", "beta", "gamma", "d_in", "d_out", "composites"}
                assert derived == set(ref)
                for name, want in ref.items():
                    got = getattr(t, name)
                    assert _shape_and_entries(got) == _shape_and_entries(want), name
                checked += 1
                nonzero_gamma += not t.gamma.is_zero()
    assert checked >= 60 and nonzero_gamma >= 20


def test_triangle_costs_six_eliminations(monkeypatch):
    # alpha and gamma, three quotient packages and rank(beta alpha)
    rep = docio.load_path("fixtures/markov_rep.json")
    calls = count_eliminations(monkeypatch)
    build_triangle(rep, MARKOV_K)
    assert len(calls) == 6


def test_triangle_is_built_once_per_module_and_vertex(monkeypatch):
    rep = docio.load_path("fixtures/markov_rep.json")
    t = build_triangle(rep, MARKOV_K)
    calls = count_eliminations(monkeypatch)
    assert build_triangle(rep, MARKOV_K) is t
    assert calls == []
    # an equal module that is another object builds its own, equal pack
    copy = docio.loads(docio.dumps(docio.emit_decrep(rep)))
    calls.clear()  # loading checks the module
    fresh = build_triangle(copy, MARKOV_K)
    assert fresh is not t and len(calls) == 6
    for name, value in vars(t).items():
        assert getattr(fresh, name) == value, name
    assert build_triangle(rep, 1) is not t and build_triangle(rep, 1).k == 1


def test_triangle_a2_projective():
    m = a2_p1()
    t = build_triangle(m, 2)
    assert t.alpha == Mat.identity(QQ, 1)
    assert t.beta.rows == 0
    assert t.gamma.cols == 0
    assert t.ker_alpha.cols == 0


def test_triangle_identities_markov(markov):
    rng = random.Random(37)
    for _ in range(5):
        m = random_valid_module(markov, rng, max_dim=4)
        t = build_triangle(m, MARKOV_K)
        assert (t.alpha @ t.gamma).is_zero()
        assert (t.gamma @ t.beta).is_zero()
        # retraction/section one-sided identities
        if t.ker_gamma.cols:
            assert t.rho @ t.ker_gamma == Mat.identity(QQ, t.ker_gamma.cols)
        if t.pi2.rows:
            assert t.pi2 @ t.sigma == Mat.identity(QQ, t.pi2.rows)
        if t.coker_p.rows:
            assert t.coker_p @ t.coker_sec == Mat.identity(QQ, t.coker_p.rows)
        # the section of the derivative map splits it exactly
        if t.s_section.cols:
            assert t.gamma @ t.s_section == image_basis(t.gamma)
            assert (t.rho @ t.s_section).is_zero()


def test_path_action_is_ring_morphism(markov):
    rng = random.Random(41)
    m = random_valid_module(markov, rng, max_dim=3)
    space = markov.space
    words = [("a1",), ("b1",), ("c1",), ("b1", "a1"), ("c1", "b1", "a1"), ()]
    for _ in range(20):
        w1, w2 = rng.choice(words), rng.choice(words)
        u = space.idempotent(rng.choice((1, 2, 3))) if w1 == () else space.path(w1)
        v = space.idempotent(rng.choice((1, 2, 3))) if w2 == () else space.path(w2)
        assert path_action(m, u * v) == path_action(m, u) @ path_action(m, v)


def test_report_derives_ok_and_failures_from_its_checks():
    rpt = Report("demo")
    assert rpt.ok and rpt.failures == [] and rpt.witness == {}
    assert rpt.require() is rpt
    rpt.note("holds", True)
    rpt.note("breaks", False)
    assert not rpt.ok
    assert rpt.checks == [("holds", True), ("breaks", False)]
    assert rpt.failures == ["breaks"]
    with pytest.raises(CertificateError, match="breaks"):
        rpt.require()


def test_check_module_names_each_check():
    qp = markov_qp()
    dims = {1: 1, 2: 1, 3: 1}
    maps = {"a1": Mat.identity(QQ, 1), "b1": Mat.identity(QQ, 1)}
    rpt = check_module(DecRep(qp, dims, maps, {1: 0, 2: 0, 3: 0}))
    assert rpt.checks[0] == ("nilpotent", True)
    assert len(rpt.checks) == 1 + len(qp.quiver.arrows)
    assert len(rpt.failures) == 1 and "c1" in rpt.failures[0]
    with pytest.raises(CertificateError, match="c1"):
        rpt.require()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["QQ", "F2", "F7"])
def test_derivative_actions_sum_equal_rotations_like_the_merged_jet(field):
    """In the rotationally symmetric cycle (c1 b1 a1)^2 both occurrences of an
    arrow leave the same remainder.  Summing its matrix twice equals the
    jet's merged coefficient times it (zero in characteristic 2), so every
    action and every verdict of ``check_module`` is the jet's."""
    q = markov_quiver()
    s = JetSpace(q, 8, field)
    three = field.of(3)
    pot = cyclic_normalize(s.path(("c1", "b1", "a1") * 2).scale(three) + s.path(("c2", "b2", "a2"))
                           - s.path(("c1", "b1", "a1")))
    qp = QP(q, pot)
    rest = s.path(("c1", "b1", "a1", "c1", "b1")).scale(three + three)
    assert cyclic_derivative(pot, "a1").component(1, 3) == rest + s.path(("c1", "b1")).scale(-field.one)
    rng = random.Random(41)
    verdicts = set()
    for _ in range(25):
        dims = {v: rng.randint(0, 3) for v in q.vertices}
        maps = {a.id: Mat.from_rows(field, [{j: field.of(rng.choice([0, 0, 1, -1, 2])) for j in range(dims[a.tail])}
                                            for _ in range(dims[a.head])], dims[a.tail]) for a in q.arrows}
        if rng.random() < 0.5:  # no cycle acts, so the module is nilpotent
            maps["c1"] = maps["c2"] = Mat.zero(field, dims[1], dims[2])
        rep = DecRep(qp, dims, maps, {})
        acts = derivative_actions(rep)
        jets = {a.id: component_action(rep, cyclic_derivative(pot, a.id), a.tail, a.head) for a in q.arrows}
        assert acts == jets
        first = ("c1", "b1", "a1", "c1", "b1")
        assert path_matrix(rep, first, 3, 1).scale(three) + path_matrix(rep, first, 3, 1).scale(three) \
            == path_matrix(rep, first, 3, 1).scale(three + three)
        rpt = check_module(rep)
        if rep.is_nilpotent():
            assert rpt.checks[1:] == [(f"derivative along {a!r} acts as zero", m.is_zero()) for a, m in jets.items()]
            verdicts |= {m.is_zero() for m in jets.values()}
    assert verdicts == {True, False}


def test_is_isomorphism_rejects_a_singular_candidate_before_intertwining(markov, monkeypatch):
    # the rank test runs first, so a candidate singular at some vertex never
    # reaches the arrow products
    import qpmut.reps as repsmod

    def no_intertwiner(*args):
        raise AssertionError("is_intertwiner called")

    s = simple_rep(markov, 1)
    singular = {v: Mat.zero(QQ, s.dims[v], s.dims[v]) for v in markov.quiver.vertices}
    monkeypatch.setattr(repsmod, "is_intertwiner", no_intertwiner)
    assert not is_isomorphism(s, s, singular)


def test_is_isomorphism_needs_intertwiner_and_invertible(markov):
    s = simple_rep(markov, 1)
    ident = {v: Mat.identity(QQ, s.dims[v]) for v in markov.quiver.vertices}
    zero = {v: Mat.zero(QQ, s.dims[v], s.dims[v]) for v in markov.quiver.vertices}
    assert is_isomorphism(s, s, ident)
    assert is_intertwiner(s, s, zero) and not is_isomorphism(s, s, zero)

    p = a2_p1()
    twist = {1: Mat.identity(QQ, 1), 2: Mat.identity(QQ, 1).scale(QQ.of(2))}
    assert all(m.is_invertible() for m in twist.values())
    assert not is_intertwiner(p, p, twist) and not is_isomorphism(p, p, twist)


def test_is_intertwiner_gives_the_same_answer_with_and_without_identity_blocks(markov):
    # f has identity blocks at a random set of vertices; 2f has none, so it
    # is tested by the products alone.  Both agree with the definition.
    rng = random.Random(173)
    q = markov.quiver
    seen = set()
    for _ in range(40):
        m = random_valid_module(markov, rng, max_dim=3)
        ident = {v for v in q.vertices if rng.random() < 0.6}
        f = {v: Mat.identity(QQ, m.dims[v]) if v in ident else random_invertible(rng, QQ, m.dims[v])
             for v in q.vertices}
        maps = {a.id: f[a.head] @ m.maps[a.id] @ f[a.tail].inverse() for a in q.arrows}
        a = rng.choice(q.arrows)
        if rng.random() < 0.5 and m.dims[a.head] and m.dims[a.tail]:
            maps[a.id] = maps[a.id] + Mat.from_rows(QQ, [{0: QQ.one}] + [{}] * (m.dims[a.head] - 1),
                                                   m.dims[a.tail])
        n = DecRep(markov, m.dims, maps, m.dec_dims)
        want = all(f[b.head] @ m.maps[b.id] == n.maps[b.id] @ f[b.tail] for b in q.arrows)
        assert is_intertwiner(m, n, f) == want
        assert is_intertwiner(m, n, {v: g.scale(QQ.of(2)) for v, g in f.items()}) == want
        seen.add((want, a.head in ident and a.tail in ident))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
