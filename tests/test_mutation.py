"""Mutation of decorated representations: the four constructions, the
composition identity, annihilation, pullbacks, and round trips."""

import copy
import dataclasses
import hashlib
import itertools
import os
import random

import pytest

from conftest import a2_qp, count_eliminations, image_basis, markov_qp, path_action, reference_intersection, MARKOV_K
from qpmut import docio, reps
from qpmut import (
    CONSTRUCTIONS,
    QP,
    Arrow,
    DecRep,
    JetSpace,
    Mat,
    MutationNotDefined,
    NotInvertibleError,
    Potential,
    QQ,
    Quiver,
    Report,
    TruncationTooSmall,
    build_triangle,
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
    simple_rep,
    zero_rep,
)
from qpmut.fields import GF
from qpmut.generate import base_change, random_qp, random_valid_module
from qpmut.homs import YES
from qpmut.linalg import block_diag
from qpmut.mutation import involution_pullback, transport_iso
from qpmut.qp import composite_name
from qpmut.reps import is_isomorphism


def a2_p1():
    qp = a2_qp()
    return DecRep(qp, {1: 1, 2: 1}, {"a": Mat.identity(QQ, 1)}, {1: 0, 2: 0})


def test_premutate_a2_projective_gives_simple():
    pm = premutate_rep(a2_p1(), 2)
    assert pm.rep.dims == {1: 1, 2: 0}
    assert pm.rep.dec_dims == {1: 0, 2: 0}


def test_premutate_simple_gives_negative_simple(markov):
    m = simple_rep(markov, MARKOV_K)
    pm = premutate_rep(m, MARKOV_K)
    assert pm.rep.dims[MARKOV_K] == 0
    assert pm.rep.dec_dims[MARKOV_K] == 1


def test_premutate_negative_simple_gives_simple(markov):
    m = negative_simple_rep(markov, MARKOV_K)
    pm = premutate_rep(m, MARKOV_K)
    assert pm.rep.dims[MARKOV_K] == 1
    assert pm.rep.dec_dims[MARKOV_K] == 0


def test_dimension_bookkeeping_all_constructions(markov):
    rng = random.Random(101)
    for _ in range(4):
        m = random_valid_module(markov, rng, max_dim=4)
        t = None
        for kind in CONSTRUCTIONS:
            pm = premutate_rep(m, MARKOV_K, kind)
            t = pm.triangle
            expected_mk = (
                (t.ker_gamma.cols - t.beta.rank())
                + t.gamma.rank()
                + (t.ker_alpha.cols - t.gamma.rank())
                + m.dec_dims[MARKOV_K]
            )
            assert pm.rep.dims[MARKOV_K] == expected_mk
            ker_beta = t.beta.kernel_basis()
            cap = reference_intersection(ker_beta, image_basis(t.alpha))
            if cap.cols:
                assert ker_beta.solve(cap) is not None
                assert t.alpha.solve(cap) is not None
            expected_vk = ker_beta.cols - cap.cols
            assert pm.rep.dec_dims[MARKOV_K] == expected_vk


def test_beta_alpha_identity_all_constructions(markov):
    rng = random.Random(103)
    for _ in range(4):
        m = random_valid_module(markov, rng, max_dim=4)
        for kind in CONSTRUCTIONS:
            pm = premutate_rep(m, MARKOV_K, kind)
            assert check_beta_alpha(pm).ok


def test_beta_alpha_zero_gamma_case():
    # zero potential on the line quiver: the derivative matrix vanishes
    from conftest import a3_line_qp
    qp = a3_line_qp()
    m = DecRep(
        qp,
        {1: 1, 2: 1, 3: 1},
        {"a": Mat.identity(QQ, 1), "b": Mat.identity(QQ, 1)},
        {1: 0, 2: 0, 3: 0},
    )
    pm = premutate_rep(m, 2)
    assert pm.triangle.gamma.is_zero()
    assert check_beta_alpha(pm).ok
    prod = pm.beta_bar @ pm.alpha_bar
    assert prod.is_zero()


def test_beta_alpha_negative_control(markov):
    rng = random.Random(107)
    m = random_valid_module(markov, rng, max_dim=3)
    pm = premutate_rep(m, MARKOV_K)
    if pm.triangle.gamma.is_zero():
        pytest.skip("needs a nonzero derivative matrix")
    # flip the sign of one reversed-arrow action
    bad_maps = dict(pm.rep.maps)
    for b in pm.triangle.out_arrows:
        name = b + "*"
        if not bad_maps[name].is_zero():
            bad_maps[name] = -bad_maps[name]
            break
    bad = DecRep(pm.rep.qp, dict(pm.rep.dims), bad_maps, dict(pm.rep.dec_dims))
    bad_pm = dataclasses.replace(pm, rep=bad)
    assert not check_beta_alpha(bad_pm).ok


def test_pushout_premutation_costs_one_elimination(markov, monkeypatch):
    # the quotient package of the pushout relations
    rng = random.Random(151)
    while True:
        rep = random_valid_module(markov, rng, max_dim=3)
        t = build_triangle(rep, MARKOV_K)
        if not t.gamma.is_zero():
            break
    calls = count_eliminations(monkeypatch)
    premutate_rep(rep, MARKOV_K, "pushout", require_valid=False, triangle=t)
    assert len(calls) == 1


def test_constructions_agree_costs_eight_eliminations(monkeypatch):
    # the triangle's 6, the first premutation's module check (1: only b1*
    # and b2* act nonzero, so its nilpotency spans need one echelon, at
    # their tail 2, and their rows times the maps reach no other vertex) and
    # the pushout's quotient package.  No F is inverted.  The 3 isomorphisms
    # out of the amalgam are identities away from k and F at k, monomial
    # here (every F of this module is the identity), so their 9 rank tests
    # need no elimination.
    rep = docio.load_path("fixtures/markov_rep.json")
    calls = count_eliminations(monkeypatch)
    assert constructions_agree(rep, MARKOV_K).ok
    assert len(calls) == 8


def test_second_constructions_agree_reuses_the_stored_triangle_and_qp(monkeypatch):
    # of the first call's 8, the triangle's 6 are gone: it is stored on the
    # module.  The output's module check (1) and the pushout's quotient
    # package remain.  The premutations that follow reuse the triangle; only
    # the pushout eliminates, for its quotient package.
    rep = docio.load_path("fixtures/markov_rep.json")
    assert constructions_agree(rep, MARKOV_K).ok
    calls = count_eliminations(monkeypatch)
    assert constructions_agree(rep, MARKOV_K).ok
    assert len(calls) == 2
    per_kind = []
    for kind in CONSTRUCTIONS:
        calls.clear()
        premutate_rep(rep, MARKOV_K, kind, require_valid=False)
        per_kind.append(len(calls))
    assert per_kind == [0, 0, 0, 1]


def test_amalgam_map_is_built_when_first_read(markov, monkeypatch):
    # mutation and transport never read F; read late, it equals F read right
    # after the premutation of a copy, and it is built once
    import qpmut.mutation as mutmod

    built = []
    construction_blocks = mutmod._construction_blocks

    def counted(t, fld, kind):
        make_f, alpha_bar, beta_bar = construction_blocks(t, fld, kind)
        return (lambda: built.append(kind) or make_f()), alpha_bar, beta_bar

    rng = random.Random(181)
    while True:
        m = random_valid_module(markov, rng, max_dim=3)
        if not build_triangle(m, MARKOV_K).gamma.is_zero():
            break
    copy = docio.loads(docio.dumps(docio.emit_decrep(m)))
    eager = {kind: premutate_rep(copy, MARKOV_K, kind).amalgam_map for kind in CONSTRUCTIONS}
    assert any(f != Mat.identity(QQ, f.rows) for f in eager.values())
    monkeypatch.setattr(mutmod, "_construction_blocks", counted)
    pms = {kind: premutate_rep(m, MARKOV_K, kind) for kind in CONSTRUCTIONS}
    for kind in CONSTRUCTIONS:
        mutate_rep(m, MARKOV_K, kind)
    n, g = base_change(m, rng)
    transport_iso(m, n, g, MARKOV_K)
    assert built == []
    for kind, pm in pms.items():
        assert pm.amalgam_map == eager[kind]
        assert pm.amalgam_map is pm.amalgam_map
    assert built == list(CONSTRUCTIONS)


def test_decoration_is_one_summand_of_every_construction(markov):
    # premutating M (+) V_k at k premutates M and appends V_k: zero rows of
    # alpha_bar, zero columns of beta_bar, and the identity block of F
    rng = random.Random(29)
    seen = 0
    while seen < 12:
        m = random_valid_module(markov, rng, max_dim=3)
        for k in markov.quiver.vertices:
            vk = m.dec_dims[k]
            if not vk:
                continue
            m0 = DecRep(markov, m.dims, m.maps, {**m.dec_dims, k: 0})
            for kind in CONSTRUCTIONS:
                pm, pm0 = premutate_rep(m, k, kind), premutate_rep(m0, k, kind)
                assert "amalgam_map" not in vars(pm)
                n = pm0.rep.dims[k]
                assert pm.rep.dims[k] == n + vk
                assert pm.alpha_bar.take_rows(list(range(n, n + vk))).is_zero()
                assert pm.beta_bar.take_cols(list(range(n, n + vk))).is_zero()
                assert pm.alpha_bar.take_rows(list(range(n))) == pm0.alpha_bar
                assert pm.beta_bar.take_cols(list(range(n))) == pm0.beta_bar
                assert pm.rep.dec_dims == pm0.rep.dec_dims
                assert pm.amalgam_map == block_diag(QQ, [pm0.amalgam_map, Mat.identity(QQ, vk)])
            seen += 1


def test_injected_triangle_is_never_stored(markov):
    def emitted(pm):
        return docio.dumps(docio.emit_decrep(pm.rep))

    rng = random.Random(137)
    while True:
        m = random_valid_module(markov, rng, max_dim=3)
        # the triangle to scramble comes from a copy, so m has none stored
        copy = docio.loads(docio.dumps(docio.emit_decrep(m)))
        t = _scramble_choices(build_triangle(copy, MARKOV_K), 99)
        scrambled = premutate_rep(m, MARKOV_K, triangle=t)
        want = emitted(premutate_rep(copy, MARKOV_K))
        if emitted(scrambled) != want:
            break
    assert scrambled.triangle is t
    assert emitted(premutate_rep(m, MARKOV_K)) == want
    assert build_triangle(m, MARKOV_K) is not t


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "Fp5"])
def test_triangle_holds_the_composites_every_construction_shares(field):
    rng = random.Random(263)
    # the Markov QP has parallel hooks through every vertex; random QPs vary them
    qps = [markov_qp(field=field)] * 4
    qps += [random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4, max_len=4, field=field)
            for _ in range(6)]
    checked = hooks = 0
    for qp, _ in itertools.product(qps, range(2)):
        try:
            m = random_valid_module(qp, rng, max_dim=4)
        except RuntimeError:
            continue
        q = qp.quiver
        for k in q.vertices:
            if q.has_two_cycle_at(k):
                continue
            t = build_triangle(m, k)
            pairs = [(b.id, a.id) for b in q.arrows_out_of(k) for a in q.arrows_into(k)]
            assert list(t.composites) == [composite_name(b, a) for b, a in pairs]
            for b, a in pairs:
                assert t.composites[composite_name(b, a)] == m.maps[b] @ m.maps[a]
            for kind in CONSTRUCTIONS:
                pm = premutate_rep(m, k, kind)
                for name, ba in t.composites.items():
                    assert pm.rep.maps[name] is ba, (kind, name)
            checked += 1
            hooks += len(pairs)
    assert checked >= 30 and hooks >= 80


def test_injected_triangle_supplies_its_composites(markov):
    rng = random.Random(271)
    m = random_valid_module(markov, rng, max_dim=3)
    while not (m.dims[1] and m.dims[2]):  # the composites through 3 map M_1 -> M_2
        m = random_valid_module(markov, rng, max_dim=3)
    ones = Mat(QQ, [[QQ.one] * m.dims[1] for _ in range(m.dims[2])])
    t = copy.copy(build_triangle(m, MARKOV_K))
    t.composites = {name: ba + ones for name, ba in t.composites.items()}
    own = premutate_rep(m, MARKOV_K).rep.maps
    for kind in CONSTRUCTIONS:
        pm = premutate_rep(m, MARKOV_K, kind, require_valid=False, triangle=t)
        for name, ba in t.composites.items():
            assert pm.rep.maps[name] is ba and ba != own[name]


def test_annihilation_by_premuted_derivatives(markov):
    rng = random.Random(109)
    for _ in range(3):
        m = random_valid_module(markov, rng, max_dim=3)
        pm = premutate_rep(m, MARKOV_K)
        qpt = pm.rep.qp
        for a in qpt.quiver.arrows:
            d = cyclic_derivative(qpt.potential, a.id)
            assert path_action(pm.rep, d).is_zero()


def test_constructions_agree_zero_module(markov):
    m = zero_rep(markov)
    rpt = constructions_agree(m, MARKOV_K)
    assert rpt.ok


def test_constructions_agree_random(markov):
    rng = random.Random(113)
    for _ in range(3):
        m = random_valid_module(markov, rng, max_dim=3)
        rpt = constructions_agree(m, MARKOV_K)
        assert rpt.ok, rpt.failures


def _six_pair_constructions_agree(rep, k):
    """The reference: every pair of constructions, in string order, with the
    isomorphism F_to @ F_from^-1 at k and the identity away from k."""
    pms = {
        kind: premutate_rep(rep, k, kind, require_valid=(kind == CONSTRUCTIONS[0]))
        for kind in CONSTRUCTIONS
    }
    ident = {v: Mat.identity(rep.field, rep.dims[v]) for v in rep.qp.quiver.vertices if v != k}
    inverses = {"amalgam": pms["amalgam"].amalgam_map}
    rpt = Report("constructions_agree")
    for kind1 in CONSTRUCTIONS:
        for kind2 in CONSTRUCTIONS:
            if kind1 >= kind2:
                continue
            name = f"{kind1}->{kind2} is an isomorphism"
            if kind1 not in inverses:
                try:
                    inverses[kind1] = pms[kind1].amalgam_map.inverse()
                except NotInvertibleError:
                    inverses[kind1] = None
            if inverses[kind1] is None:
                rpt.note(name, False)
                continue
            m_from, m_to = pms[kind1].rep, pms[kind2].rep
            f_k = pms[kind2].amalgam_map @ inverses[kind1]
            f = {v: (f_k if v == k else ident[v]) for v in m_from.qp.quiver.vertices}
            rpt.note(name, is_isomorphism(m_from, m_to, f))
    return rpt


def _mutant(name):
    """``_construction_blocks`` with one fault, or as it is for "none"."""
    import qpmut.mutation as mutmod

    blocks = mutmod._construction_blocks

    def signs(fld, n_minus, n_plus):
        return block_diag(fld, [-Mat.identity(fld, n_minus), Mat.identity(fld, n_plus)])

    def mutated(t, fld, kind):
        make_f, alpha_bar, beta_bar = blocks(t, fld, kind)
        if name == "alpha-sign" and kind == "ker_alpha":
            # the sign of alpha_bar's first block: a change of basis at k
            # that only F, unchanged, does not follow
            q1 = t.pi1.rows
            alpha_bar = signs(fld, q1, alpha_bar.rows - q1) @ alpha_bar
        elif name == f"singular-{kind}":
            def make_f(f=make_f):  # F with its first column zeroed
                f0 = f()
                if not f0.cols:
                    return f0
                return f0 @ block_diag(fld, [Mat.zero(fld, 1, 1), Mat.identity(fld, f0.cols - 1)])
        elif name == "beta-bar" and kind == "amalgam":
            # the ker alpha / im gamma block negated: still a module, as alpha_bar
            # is zero there, but no longer the one each F maps from
            q2 = t.pi2.rows
            beta_bar = beta_bar @ -signs(fld, beta_bar.cols - q2, q2)
        return make_f, alpha_bar, beta_bar

    return mutated


MUTANTS = ["none", "alpha-sign", "singular-ker_alpha", "singular-coker_beta", "singular-pushout",
           "beta-bar"]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "Fp5"])
def test_hub_gives_the_six_pair_verdict(field, monkeypatch):
    # the three isomorphisms out of the amalgam are among the reference's six,
    # and when they hold every F_Y @ F_X^-1 is an isomorphism X -> Y
    import qpmut.mutation as mutmod

    rng = random.Random(307)
    qps = [markov_qp(field=field)] * 6
    qps += [random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4, max_len=4, field=field)
            for _ in range(6)]
    cases = []
    for qp in qps:
        try:
            m = random_valid_module(qp, rng, max_dim=3)
        except RuntimeError:
            continue
        cases += [(m, k) for k in qp.quiver.vertices if not qp.quiver.has_two_cycle_at(k)]
    assert len(cases) >= 25
    arrows = [f"amalgam->{kind}" for kind in CONSTRUCTIONS[1:]]
    failing = {}
    for name in MUTANTS:
        monkeypatch.setattr(mutmod, "_construction_blocks", _mutant(name))
        failing[name] = 0
        for m, k in cases:
            hub, ref = constructions_agree(m, k), _six_pair_constructions_agree(m, k)
            assert hub.ok == ref.ok, (name, hub.failures, ref.failures)
            assert set(hub.failures) <= set(ref.failures)
            assert list(hub.witness) == arrows
            assert [c for c, _ in hub.checks] == [f"{a} is an isomorphism" for a in arrows]
            failing[name] += not hub.ok
            if not hub.ok:
                continue
            pms = {kind: premutate_rep(m, k, kind) for kind in CONSTRUCTIONS}
            for x, y in itertools.permutations(CONSTRUCTIONS, 2):
                f_k = pms[y].amalgam_map @ pms[x].amalgam_map.inverse()
                f = {v: (f_k if v == k else Mat.identity(field, m.dims[v]))
                     for v in m.qp.quiver.vertices}
                assert is_isomorphism(pms[x].rep, pms[y].rep, f), (name, x, y)
    assert failing["none"] == 0
    assert all(failing[name] for name in MUTANTS[1:]), failing


def test_pullback_forgetful_on_markov(markov):
    rng = random.Random(127)
    m = random_valid_module(markov, rng, max_dim=3)
    reduced, phi, trivial = mutate_qp(markov, MARKOV_K)
    pm = premutate_rep(m, MARKOV_K)
    red = pullback_reduction(pm.rep, phi, reduced)
    # the splitting is the identity on every surviving arrow here, so the
    # reduced action literally forgets the trivial arrows
    for a in reduced.quiver.arrows:
        assert red.maps[a.id] == pm.rep.maps[a.id]
    assert check_module(red).ok


def test_mutate_rep_valid_over_mutated_qp(markov):
    rng = random.Random(131)
    for _ in range(3):
        m = random_valid_module(markov, rng, max_dim=3)
        out = mutate_rep(m, MARKOV_K)
        assert check_module(out).ok
        assert out.qp == mutate_qp(markov, MARKOV_K)[0]


def test_negative_simple_round_trip(markov):
    m = negative_simple_rep(markov, MARKOV_K)
    out = mutate_rep(m, MARKOV_K)
    assert out.dims == {1: 0, 2: 0, MARKOV_K: 1}
    assert out.dec_dims[MARKOV_K] == 0
    back = mutate_rep(out, MARKOV_K)
    assert back.dims == {1: 0, 2: 0, MARKOV_K: 0}
    assert back.dec_dims[MARKOV_K] == 1


def test_mutate_rep_a2_projective_to_simple():
    out = mutate_rep(a2_p1(), 2)
    assert out.dims == {1: 1, 2: 0}
    assert out.dec_dims == {1: 0, 2: 0}


def _scramble_choices(t, seed):
    """Replace rho and sigma by different valid choices (seeded)."""
    rng = random.Random(seed)
    fld = t.alpha.field
    kg = t.ker_gamma.cols

    def rand_mat(r, c):
        return Mat(fld, [[fld.of(rng.randint(-2, 2)) for _ in range(c)] for _ in range(r)]) \
            if r and c else Mat.zero(fld, r, c)

    z = rand_mat(kg, t.d_out)
    new_rho = t.rho + z - ((z @ t.ker_gamma) @ t.rho)
    w = rand_mat(t.im_gamma_in_keralpha.cols, t.pi2.rows)
    new_sigma = t.sigma + t.im_gamma_in_keralpha @ w
    # s_section - K (new_rho s_section) is the section with new_rho @ s = 0
    new_s = t.s_section - t.ker_gamma @ (new_rho @ t.s_section)
    out = copy.copy(t)
    out.rho, out.sigma, out.s_section = new_rho, new_sigma, new_s
    return out


def test_scrambled_choices_give_isomorphic_premutation(markov):
    rng = random.Random(137)
    m = random_valid_module(markov, rng, max_dim=3)
    reduced, phi, _ = mutate_qp(markov, MARKOV_K)
    out1 = pullback_reduction(premutate_rep(m, MARKOV_K).rep, phi, reduced)
    t = _scramble_choices(build_triangle(m, MARKOV_K), 99)
    out2 = pullback_reduction(premutate_rep(m, MARKOV_K, triangle=t).rep, phi, reduced)
    res = is_isomorphic(out1, out2, seed=5)
    assert res.verdict == YES


def test_transport_iso_identity(markov):
    rng = random.Random(139)
    m = random_valid_module(markov, rng, max_dim=3)
    ident = {v: Mat.identity(QQ, m.dims[v]) for v in markov.quiver.vertices}
    pm_m, pm_n, f = transport_iso(m, m, ident, MARKOV_K)
    for v in markov.quiver.vertices:
        assert f[v] == Mat.identity(QQ, pm_m.rep.dims[v])


def test_transport_iso_scalar(markov):
    rng = random.Random(149)
    m = random_valid_module(markov, rng, max_dim=3)
    lam = QQ.of(3)
    g = {v: Mat.identity(QQ, m.dims[v]).scale(lam) for v in markov.quiver.vertices}
    pm_m, pm_n, f = transport_iso(m, m, g, MARKOV_K)
    t = pm_m.triangle
    c = t.coker_p.rows
    q2 = t.pi2.rows
    # the correction block vanishes for scalar maps
    eps_block = [
        f[MARKOV_K].data[i][c + j] for i in range(c) for j in range(q2)
    ]
    assert all(x == QQ.zero for x in eps_block)


def test_transport_iso_random_base_change(markov):
    rng = random.Random(151)
    for _ in range(3):
        m = random_valid_module(markov, rng, max_dim=3)
        n, g = base_change(m, rng)
        pm_m, pm_n, f = transport_iso(m, n, g, MARKOV_K)
        # already verified inside; transported map stays an iso after pullback
        reduced, phi, _ = mutate_qp(markov, MARKOV_K)
        red_m = pullback_reduction(pm_m.rep, phi, reduced)
        red_n = pullback_reduction(pm_n.rep, phi, reduced)
        from qpmut.reps import is_intertwiner

        assert is_intertwiner(red_m, red_n, f)


def test_involution_pullback_markov(markov):
    rng = random.Random(157)
    for _ in range(2):
        m = random_valid_module(markov, rng, max_dim=2)
        w = involution_pullback(m, MARKOV_K)
        assert w.qp == markov
        res = is_isomorphic(w, m, seed=9)
        assert res.verdict == YES
        assert w.dec_dims == m.dec_dims


def test_involution_pullback_simples(markov):
    for j in markov.quiver.vertices:
        m = simple_rep(markov, j)
        w = involution_pullback(m, MARKOV_K)
        assert is_isomorphic(w, m).verdict == YES
    m = negative_simple_rep(markov, MARKOV_K)
    w = involution_pullback(m, MARKOV_K)
    assert is_isomorphic(w, m).verdict == YES


def test_mutation_premutates_the_qp_once_per_step(markov, monkeypatch):
    import qpmut.mutation as mutmod
    import qpmut.qp as qpmod

    real = qpmod.premutate_qp
    calls = []

    def counting(qp, k):
        calls.append(k)
        return real(qp, k)

    # premutate_qp is bound in both modules; count calls through either
    monkeypatch.setattr(qpmod, "premutate_qp", counting)
    monkeypatch.setattr(mutmod, "premutate_qp", counting)
    m = random_valid_module(markov, random.Random(41), max_dim=3)
    mutate_rep(m, MARKOV_K)
    assert calls == [MARKOV_K]
    calls.clear()
    duality_witness(m, MARKOV_K)  # the module and its dual, once each
    assert calls == [MARKOV_K, MARKOV_K]


def test_mutation_checks_the_qp_before_the_module():
    one = Mat.identity(QQ, 1)
    # not a module: d/d(c1) = b1 a1 acts by 1; N = 3 is below the required 4
    short = DecRep(markov_qp(order=3), {1: 1, 2: 1, 3: 1}, {"a1": one, "b1": one},
                   {1: 0, 2: 0, 3: 0})
    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    # not nilpotent, and vertex 1 lies on the 2-cycle a b
    two_cycle = DecRep(QP(q, Potential(JetSpace(q, 12, QQ).zero())), {1: 1, 2: 1},
                       {"a": one, "b": one}, {1: 0, 2: 0})
    for mutate in (mutate_rep, duality_witness):
        with pytest.raises(TruncationTooSmall):
            mutate(short, MARKOV_K)
        with pytest.raises(MutationNotDefined):
            mutate(two_cycle, 1)


# sha256 of docio.dumps(docio.emit_decrep(step)) for each step of the walk
# 3,1,2,3,1,2,3,1,2 from fixtures/markov_rep.json, with the dimension vector
DEEP_WALK = [3, 1, 2, 3, 1, 2, 3, 1, 2]
DEEP_WALK_STEPS = [
    ({1: 0, 2: 2, 3: 5}, "0872d4c70719125b925754bcb8346e617c9fa05ca144a8c4d548d00a769298be"),
    ({1: 11, 2: 2, 3: 5}, "59667263e4d74d5f5bb93145da560dcdfe189b8a8c99a8825ef5b3f349fdf0ef"),
    ({1: 11, 2: 21, 3: 5}, "a9203b4aea34fca770058f771f1a0e9319c071b8d02aa67464b8f07cb4de8046"),
    ({1: 11, 2: 21, 3: 37}, "b5bba50e091dd0db2ada6f2ca8737431c3d937fd14a3f7bf44efe0140358e520"),
    ({1: 63, 2: 21, 3: 37}, "7c98712ad08cb21c7d904f350bbe799200f1e472f40725cf35c6445926169dda"),
    ({1: 63, 2: 105, 3: 37}, "5765d9bfcba6d9e944aeebb61d9ec7ff4f3a21e8f4962a73204db3cc0ccf56f8"),
    ({1: 63, 2: 105, 3: 173}, "69aa65152d80c112c1e5e8ca72571c4b783816482daec3a6f2040c42044729c0"),
    ({1: 283, 2: 105, 3: 173}, "2b9ce91b25c82712500a421825bc837b77cd56edd2b81605270d62438134b293"),
    ({1: 283, 2: 461, 3: 173}, "81808ea2424de936a902546a9663edaf9050337f812bccae2dbe9068018874d9"),
]


def test_deep_markov_walk_golden():
    """Pins every emitted module of the depth-9 walk, where the maps reach
    {283,461,173} and are well under 1% nonzero, and loads each back."""
    rep = docio.load_path(os.path.join(os.path.dirname(__file__), "..", "fixtures", "markov_rep.json"))
    for k, (dims, digest) in zip(DEEP_WALK, DEEP_WALK_STEPS):
        rep = mutate_rep(rep, k)
        assert rep.dims == dims
        text = docio.dumps(docio.emit_decrep(rep))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert docio.dumps(docio.emit_decrep(docio.loads(text))) == text


# sha256 of docio.dumps(docio.emit_decrep(...)) after the walk 3,1,2,3,1,2
# from fixtures/markov_rep.json, every step by the given construction;
# coker_beta and pushout emit the same module
CONSTRUCTION_WALK_DIGESTS = {
    "amalgam": "8d0496d137f6ac891d467ebf1df8d399ebb04b63a3aa9155999f95494a261943",
    "ker_alpha": DEEP_WALK_STEPS[5][1],
    "coker_beta": "48ce673d7fec367a9cbbeb220e8b4058f7fbd2bfc3593662bd73aca6df9bfca6",
    "pushout": "48ce673d7fec367a9cbbeb220e8b4058f7fbd2bfc3593662bd73aca6df9bfca6",
}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_each_construction_pins_its_full_mutation(construction):
    rep = docio.load_path(os.path.join(os.path.dirname(__file__), "..", "fixtures", "markov_rep.json"))
    for k in DEEP_WALK[:6]:
        rep = mutate_rep(rep, k, construction)
    assert rep.dims == {1: 63, 2: 105, 3: 37}
    text = docio.dumps(docio.emit_decrep(rep))
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCTION_WALK_DIGESTS[construction]


def test_each_module_is_checked_once(monkeypatch):
    """Loading and a six-step walk sum the derivative actions 13 times: once
    at load, then per step once for the premutation and once for its
    pullback, because each step's input check reads the report stored on its
    module when that module was made.  A new module of the same maps checks
    itself, and finds what the stored report says."""
    calls = []
    actions = reps.derivative_actions
    monkeypatch.setattr(reps, "derivative_actions", lambda rep: calls.append(rep) or actions(rep))
    walk = [docio.load_path(os.path.join(os.path.dirname(__file__), "..", "fixtures", "markov_rep.json"))]
    for k in (3, 1, 2, 3, 1, 2):
        walk.append(mutate_rep(walk[-1], k))
    assert len(calls) == 13
    bad = DecRep(markov_qp(), {1: 1, 2: 1, 3: 1},
                 {"a1": Mat.identity(QQ, 1), "b1": Mat.identity(QQ, 1)}, {})
    for m in walk + [bad]:
        stored = check_module(m)
        assert check_module(m) is stored
        n = len(calls)
        fresh = check_module(DecRep(m.qp, m.dims, m.maps, m.dec_dims))
        assert len(calls) == n + 1
        assert fresh.checks == stored.checks
        assert [name for name, _ in fresh.checks] == ["nilpotent"] + [
            f"derivative along {a.id!r} acts as zero" for a in m.qp.quiver.arrows]
    assert all(check_module(m).ok for m in walk)
    assert check_module(bad).failures == ["derivative along 'c1' acts as zero"]
