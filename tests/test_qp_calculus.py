"""Quiver and QP mutation, reduction certificates, nondegeneracy probing."""

import random

import pytest

from conftest import a2_qp, a3_line_qp, from_int_rows, markov_qp, markov_quiver, same_up_to_vertex_fixing_iso, MARKOV_K
from qpmut import docio
from qpmut import (
    Arrow,
    JetPoly,
    JetSpace,
    MutationNotDefined,
    Potential,
    QP,
    QQ,
    Quiver,
    TruncationTooSmall,
    apply_substitution,
    bracket_substitute,
    cyclic_normalize,
    cyclically_equivalent,
    mutate_qp,
    mutate_quiver,
    premutate_qp,
    premutate_quiver,
    probe_nondegeneracy,
    split_reduce,
    substitution_from_images,
)
from qpmut import qp as qp_module, subst
from qpmut.fields import GF
from qpmut.generate import _random_cycles, random_qp
from qpmut.linalg import Mat, pivot_normal_form
from qpmut.mutation import double_premutation_equiv, double_premutation_potential_identity
from qpmut.qp import _linear_normalization
from qpmut.subst import compose_substitutions, identity_substitution, invert_substitution


def test_premutate_markov_quiver():
    qt = premutate_quiver(markov_quiver(), MARKOV_K)
    assert {a.id for a in qt.arrows} == {
        "a1*", "a2*", "b1*", "b2*", "c1", "c2",
        "[b1a1]", "[b1a2]", "[b2a1]", "[b2a2]",
    }
    assert qt.tail("[b1a2]") == 1 and qt.head("[b1a2]") == 2
    assert qt.tail("a1*") == 3 and qt.head("a1*") == 1
    assert qt.tail("b1*") == 2 and qt.head("b1*") == 3


def test_premutate_at_sink_reverses_only():
    q = Quiver((1, 2), (Arrow("a", 1, 2),))
    qt = premutate_quiver(q, 2)
    assert [(a.id, a.tail, a.head) for a in qt.arrows] == [("a*", 2, 1)]


def test_premutation_arrow_count():
    rng = random.Random(5)
    for _ in range(20):
        qp = random_qp(rng, max_vertices=4, max_arrows=7, max_terms=3, order=8)
        for k in qp.quiver.vertices:
            if qp.quiver.has_two_cycle_at(k):
                continue
            qt = premutate_quiver(qp.quiver, k)
            hooks = len(qp.quiver.arrows_into(k)) * len(qp.quiver.arrows_out_of(k))
            assert len(qt.arrows) == len(qp.quiver.arrows) + hooks


def test_mutate_quiver_involution_up_to_iso():
    rng = random.Random(9)
    count = 0
    while count < 15:
        qp = random_qp(rng, max_vertices=4, max_arrows=7, max_terms=0, order=8)
        q = qp.quiver
        if not q.is_2_acyclic():
            continue
        count += 1
        for k in q.vertices:
            qq = mutate_quiver(mutate_quiver(q, k), k)
            assert same_up_to_vertex_fixing_iso(q, qq)


def test_mutate_quiver_no_arrows_at_vertex():
    q = Quiver((1, 2, 3), (Arrow("a", 1, 2),))
    assert mutate_quiver(q, 3) == q


def test_mutation_undefined_on_two_cycle():
    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    with pytest.raises(MutationNotDefined):
        premutate_quiver(q, 1)


def test_bracket_substitute_markov():
    qp = markov_qp()
    qt = premutate_quiver(qp.quiver, MARKOV_K)
    space = JetSpace(qt, qp.order, QQ)
    out = bracket_substitute(qp.potential, MARKOV_K, space)
    expected = cyclic_normalize(
        space.path(("c1", "[b1a1]")) + space.path(("c2", "[b2a2]"))
    )
    assert out == expected


def test_bracket_substitute_away_from_vertex_is_identity():
    qp = markov_qp()
    qt = premutate_quiver(qp.quiver, MARKOV_K)
    space = JetSpace(qt, qp.order, QQ)
    # a cycle avoiding the mutation vertex entirely: none exist in this
    # quiver, so check the empty potential case
    out = bracket_substitute(Potential(qp.space.zero()), MARKOV_K, space)
    assert out.is_zero()


def test_bracket_substitute_double_passage():
    # one 6-cycle passing through the mutation vertex twice
    qp = markov_qp()
    space0 = qp.space
    jet = space0.path(("c1", "b1", "a1", "c2", "b2", "a2"))
    pot = cyclic_normalize(jet)
    qt = premutate_quiver(qp.quiver, MARKOV_K)
    space = JetSpace(qt, qp.order, QQ)
    out = bracket_substitute(pot, MARKOV_K, space)
    assert len(out.terms()) == 1
    ((p, c),) = out.terms().items()
    assert c == QQ.of(1)
    assert sorted(p.arrows) == sorted(("c1", "[b1a1]", "c2", "[b2a2]"))
    # unbracketing oracle: replace composites by their hooks and compare
    back = space0.zero()
    word = []
    for x in p.arrows:
        if x.startswith("["):
            word.extend([x[1:3], x[3:5]])
        else:
            word.append(x)
    back = space0.path(tuple(word))
    assert cyclic_normalize(back) == pot


def test_premutate_markov_qp_displayed_potential():
    qp = markov_qp()
    qpt = premutate_qp(qp, MARKOV_K)
    space = qpt.space
    expected = cyclic_normalize(
        space.path(("c1", "[b1a1]"))
        + space.path(("c2", "[b2a2]"))
        + space.path(("a1*", "b1*", "[b1a1]"))
        + space.path(("a2*", "b1*", "[b1a2]"))
        + space.path(("a1*", "b2*", "[b2a1]"))
        + space.path(("a2*", "b2*", "[b2a2]"))
    )
    assert qpt.potential == expected


def test_premutate_qp_is_built_once_per_qp_and_vertex():
    qp = markov_qp()
    qpt = premutate_qp(qp, MARKOV_K)
    assert premutate_qp(qp, MARKOV_K) is qpt
    # an equal QP that is another object builds its own, equal premutation
    twin = docio.loads(docio.dumps(docio.emit_qp(qp)))
    assert twin == qp and twin is not qp
    twin_t = premutate_qp(twin, MARKOV_K)
    assert twin_t == qpt and twin_t is not qpt
    # another vertex is another premutation
    other = premutate_qp(qp, 1)
    assert other != qpt and premutate_qp(qp, 1) is other
    assert premutate_qp(qp, MARKOV_K) is qpt


def test_qp_equality_and_hash_follow_quiver_and_potential():
    qp = markov_qp()
    twin = docio.loads(docio.dumps(docio.emit_qp(qp)))
    assert twin == qp and not twin != qp and hash(twin) == hash(qp)
    assert {qp: "markov"}[twin] == "markov"
    # another potential, quiver or field makes another QP
    other_pot = QP(qp.quiver, cyclic_normalize(qp.space.path(("c1", "b1", "a1"))))
    for other in (other_pot, premutate_qp(qp, 1), markov_qp(field=GF(5))):
        assert other != qp and qp != other and not other == qp
    assert len({qp, twin, other_pot}) == 2
    assert qp != qp.quiver and qp != qp.potential and qp != "markov"


def test_premutate_zero_potential_at_sink():
    qp = a2_qp()
    qpt = premutate_qp(qp, 2)
    assert qpt.potential.is_zero()
    assert [a.id for a in qpt.quiver.arrows] == ["a*"]


def test_premutate_line_quiver_middle():
    qp = a3_line_qp()
    qpt = premutate_qp(qp, 2)
    space = qpt.space
    assert qpt.potential == cyclic_normalize(space.path(("b*", "[ba]", "a*")))


def test_derivative_on_premuted_markov_potential():
    # d/d(a1*) of the premuted potential picks out both hooks through a1
    qp = markov_qp()
    qpt = premutate_qp(qp, MARKOV_K)
    from qpmut import cyclic_derivative

    d = cyclic_derivative(qpt.potential, "a1*")
    s = qpt.space
    assert d == s.path(("b1*", "[b1a1]")) + s.path(("b2*", "[b2a1]"))


def test_split_reduce_markov_golden():
    qp = markov_qp()
    qpt = premutate_qp(qp, MARKOV_K)
    sr = split_reduce(qpt)
    assert sr.certificate.ok
    assert {a.id for a in sr.trivial.quiver.arrows} == {"c1", "c2", "[b1a1]", "[b2a2]"}
    assert {a.id for a in sr.reduced.quiver.arrows} == {
        "a1*", "a2*", "b1*", "b2*", "[b1a2]", "[b2a1]"
    }
    space_triv = sr.trivial.space
    assert sr.trivial.potential == cyclic_normalize(
        space_triv.path(("c1", "[b1a1]")) + space_triv.path(("c2", "[b2a2]"))
    )
    space_red = sr.reduced.space
    assert sr.reduced.potential == cyclic_normalize(
        space_red.path(("a2*", "b1*", "[b1a2]")) + space_red.path(("a1*", "b2*", "[b2a1]"))
    )
    # the displayed splitting: c1 -> c1 + a1* b1*, c2 -> c2 + a2* b2*
    phi = sr.splitting
    s = qpt.space
    assert phi.images["c1"] == s.arrow("c1") + s.path(("a1*", "b1*"))
    assert phi.images["c2"] == s.arrow("c2") + s.path(("a2*", "b2*"))
    for a in qpt.quiver.arrows:
        if a.id not in ("c1", "c2"):
            assert phi.images[a.id] == s.arrow(a.id)


def test_split_reduce_no_degree2_is_identity():
    qp = markov_qp()
    sr = split_reduce(qp)
    assert sr.reduced == qp
    assert not sr.trivial.quiver.arrows
    assert sr.splitting.is_identity()


def test_split_reduce_two_cycle_with_tail():
    # potential ab + abab on a 2-cycle reduces to zero
    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    space = JetSpace(q, 12, QQ)
    pot = cyclic_normalize(space.path(("a", "b")) + space.path(("a", "b", "a", "b")))
    qp = QP(q, pot)
    sr = split_reduce(qp)
    assert sr.certificate.ok
    assert sr.reduced.potential.is_zero()
    assert not sr.reduced.quiver.arrows
    assert {a.id for a in sr.trivial.quiver.arrows} == {"a", "b"}
    # certificate: splitting carries trivial part back to the input
    recombined = apply_substitution(sr.splitting, (sr.trivial.potential.jet))
    assert cyclically_equivalent(recombined, pot.jet)


def test_split_reduce_random_certificates():
    rng = random.Random(20)
    done = 0
    while done < 25:
        qp = random_qp(rng, max_vertices=4, max_arrows=8, max_terms=6, max_len=5, order=12)
        sr = split_reduce(qp)
        assert sr.certificate.ok
        done += 1


def _split_reduce_reference(qp):
    """The reduction loop that re-applies chi to S_triv + S_red in every
    round.  Returns the reduced and trivial potentials' terms, the
    splitting's images (phi(a) = L^-1(chi(a)), applied arrow by arrow) and
    the number of rounds."""
    space = qp.space
    lin_sub, lin_inv, pairs = _linear_normalization(qp)
    s1 = cyclic_normalize(apply_substitution(lin_sub, qp.potential.jet))
    partner = {u: v for u, v in pairs} | {v: u for u, v in pairs}
    s_triv = cyclic_normalize(sum((space.path((u, v)) for u, v in pairs), space.zero()))
    chi = identity_substitution(space)
    s_red = space.zero()
    rounds = 0
    while True:
        delta = cyclic_normalize(s1.jet - apply_substitution(chi, s_triv.jet + s_red))
        if delta.is_zero():
            break
        rounds += 1
        assert rounds <= qp.order
        d = min(p.length for p in delta.terms())
        images = dict(chi.images)
        for p, c in delta.terms().items():
            if p.length != d:
                continue
            if partner.keys().isdisjoint(p.arrows):
                s_red = s_red + JetPoly(space, {p: c})
            else:
                w = p.arrows
                lead, *rest = min(w[i:] + w[:i] for i in range(len(w)) if w[i] in partner)
                images[partner[lead]] = images[partner[lead]] + space.path(rest).scale(c)
        chi = substitution_from_images(space, images)
    phi = {aid: apply_substitution(lin_inv, img).terms for aid, img in chi.images.items()}
    return s_red.terms, s_triv.terms(), phi, rounds


def _reference_corpus():
    # criterion 2's corpus, a batch over GF(7), and criterion 2's corpus at
    # order 15
    for field, order, seed, count in ((QQ, 12, 20240001, 200), (GF(7), 12, 77, 100),
                                      (QQ, 15, 20240001, 200)):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_qp(rng, max_vertices=5, max_arrows=10, max_terms=8,
                            max_len=5, order=order, field=field)


def test_split_reduce_matches_the_reference_that_reapplies_chi_every_round():
    rounds = []
    for qp in _reference_corpus():
        sr = split_reduce(qp)
        red, triv, phi, r = _split_reduce_reference(qp)
        assert sr.reduced.potential.terms() == red
        assert sr.trivial.potential.terms() == triv
        assert {aid: img.terms for aid, img in sr.splitting.images.items()} == phi
        rounds.append(r)
    # not vacuous: many reductions take more than one round
    assert sum(r > 1 for r in rounds) > 50 and max(rounds) >= 4


def test_split_reduce_applies_substitutions_a_fixed_number_of_times(monkeypatch):
    # a b + sum_{j <= m} (e c a)^j needs m rounds, one per degree 3j; the
    # number of substitutions applied must not grow with m
    q = Quiver(
        (1, 2, 3),
        (Arrow("a", 1, 2), Arrow("b", 2, 1), Arrow("c", 2, 3), Arrow("e", 3, 1)),
    )
    space = JetSpace(q, 12, QQ)
    apply = subst.apply_substitution
    counts = []
    for m in range(1, 5):
        jet = space.path(("a", "b"))
        for j in range(1, m + 1):
            jet = jet + space.path(("e", "c", "a") * j)
        qp = QP(q, cyclic_normalize(jet))
        assert _split_reduce_reference(qp)[3] == m
        calls = []
        with monkeypatch.context() as mp:
            for module in (subst, qp_module):
                mp.setattr(module, "apply_substitution", lambda *a: calls.append(1) or apply(*a))
            assert split_reduce(qp).certificate.ok
        counts.append(len(calls))
    # the normalization, phi(b) and the certificate
    assert counts == [3, 3, 3, 3]


def test_mutate_qp_markov():
    qp = markov_qp()
    red, phi, triv = mutate_qp(qp, MARKOV_K)
    assert {a.id for a in red.quiver.arrows} == {
        "a1*", "a2*", "b1*", "b2*", "[b1a2]", "[b2a1]"
    }
    space = red.space
    assert red.potential == cyclic_normalize(
        space.path(("a2*", "b1*", "[b1a2]")) + space.path(("a1*", "b2*", "[b2a1]"))
    )


def test_mutate_qp_sink_is_reflection():
    qp = a2_qp()
    red, phi, triv = mutate_qp(qp, 2)
    assert red.potential.is_zero()
    assert [(a.id, a.tail, a.head) for a in red.quiver.arrows] == [("a*", 2, 1)]
    assert not triv.quiver.arrows


def test_mutate_qp_truncation_guard():
    q = markov_quiver()
    space = JetSpace(q, 3, QQ)
    pot = cyclic_normalize(space.path(("c1", "b1", "a1")))
    qp = QP(q, pot)
    with pytest.raises(TruncationTooSmall):
        mutate_qp(qp, MARKOV_K)


def test_double_mutation_markov_reproduces_original():
    # two mutations at the same vertex land on a renamed copy of the input:
    # double-starred arrows replace the originals, and the second-round
    # composites replace the arrows the first reduction consumed
    qp = markov_qp()
    red1, _, _ = mutate_qp(qp, MARKOV_K)
    red2, _, _ = mutate_qp(red1, MARKOV_K)
    renaming = {
        "a1**": "a1", "a2**": "a2", "b1**": "b1", "b2**": "b2",
        "[a1*b1*]": "c1", "[a2*b2*]": "c2",
    }
    renamed = red2.quiver.renamed(renaming)
    assert {(a.id, a.tail, a.head) for a in renamed.arrows} == {
        (a.id, a.tail, a.head) for a in qp.quiver.arrows
    }
    space = qp.space
    transported = space.zero()
    for p, c in red2.potential.jet.terms.items():
        word = tuple(renaming[x] for x in p.arrows)
        transported = transported + space.path(word).scale(c)
    assert cyclic_normalize(transported) == qp.potential


def test_double_premutation_potential_identity_markov_and_random():
    assert double_premutation_potential_identity(markov_qp(), MARKOV_K)
    rng = random.Random(31)
    done = 0
    while done < 10:
        qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=4, max_len=4, order=12)
        if not qp.quiver.is_2_acyclic():
            continue
        k = rng.choice(qp.quiver.vertices)
        assert double_premutation_potential_identity(qp, k)
        done += 1


def test_double_premutation_companion_markov():
    qp = markov_qp()
    hj, (c_quiver, t_pot), qptt = double_premutation_equiv(qp, MARKOV_K)
    comp_ids = {a.id for a in c_quiver.arrows}
    assert comp_ids == {
        "[b1a1]", "[b1a2]", "[b2a1]", "[b2a2]",
        "[a1*b1*]", "[a1*b2*]", "[a2*b1*]", "[a2*b2*]",
    }
    assert len(t_pot.terms()) == 4
    # arrows not leaving the mutation vertex embed without sign
    s2 = qptt.space
    assert hj.images["c1"] == s2.arrow("c1")
    assert hj.images["a1"] == s2.arrow("a1**")
    assert hj.images["b1"] == -s2.arrow("b1**")


def test_double_premutation_companion_no_hooks():
    qp = a2_qp()
    hj, (c_quiver, t_pot), _ = double_premutation_equiv(qp, 2)
    assert not c_quiver.arrows
    assert t_pot.is_zero()


def test_probe_nondegeneracy_markov():
    report = probe_nondegeneracy(markov_qp(), depth=4, trials=6, seed=0)
    assert not report.degenerate


def test_probe_nondegeneracy_acyclic_brute_force():
    qp = a3_line_qp()
    report = probe_nondegeneracy(qp, depth=3, trials=10, seed=1)
    assert not report.degenerate
    # brute force over every sequence of length <= 3
    stack = [(qp, ())]
    for _ in range(3):
        nxt = []
        for cur, seq in stack:
            for k in cur.quiver.vertices:
                red = mutate_qp(cur, k)[0]
                assert red.quiver.is_2_acyclic(), (seq, k)
                nxt.append((red, seq + (k,)))
        stack = nxt


def test_probe_depth_zero():
    report = probe_nondegeneracy(markov_qp(), depth=0, trials=3, seed=2)
    assert not report.degenerate


def test_probe_finds_degeneracy_witness():
    # the two-triangle quiver with zero potential cannot remove the 2-cycles
    # its mutation creates: every depth-1 walk is already a witness
    from conftest import markov_quiver
    from qpmut import JetSpace, Potential, QP, QQ

    q = markov_quiver()
    qp = QP(q, Potential(JetSpace(q, 12, QQ).zero()))
    report = probe_nondegeneracy(qp, depth=1, trials=4, seed=0)
    assert report.degenerate
    assert all(len(w) == 1 for w in report.witnesses)


def test_split_reduce_rank_deficient_pairing():
    # all four 2-cycles share one coefficient, so the pairing matrix has
    # rank 1 and the linear normalization must genuinely eliminate
    q = Quiver(
        (1, 2),
        (Arrow("a", 1, 2), Arrow("b", 2, 1), Arrow("u", 1, 2), Arrow("v", 2, 1)),
    )
    space = JetSpace(q, 12, QQ)
    pot = cyclic_normalize(
        space.path(("a", "b")) + space.path(("a", "v"))
        + space.path(("u", "b")) + space.path(("u", "v"))
    )
    qp = QP(q, pot)
    sr = split_reduce(qp)
    assert sr.certificate.ok
    assert len(sr.trivial.quiver.arrows) == 2
    assert len(sr.reduced.quiver.arrows) == 2
    assert sr.reduced.potential.is_zero()
    # recombine over the full quiver's jet space and pull back through phi
    lifted = space.from_terms(
        dict(sr.reduced.potential.jet.terms) | dict(sr.trivial.potential.jet.terms)
    )
    recombined = apply_substitution(sr.splitting, lifted)
    assert cyclically_equivalent(recombined, pot.jet)


def test_split_reduce_mixed_pairing_with_higher_terms():
    # rank-2 pairing needing elimination, plus a cubic term coupling into it
    q = Quiver(
        (1, 2),
        (Arrow("a", 1, 2), Arrow("b", 2, 1), Arrow("u", 1, 2), Arrow("v", 2, 1)),
    )
    space = JetSpace(q, 12, QQ)
    pot = cyclic_normalize(
        space.path(("a", "b")) + space.path(("a", "v")).scale(QQ.of(2))
        + space.path(("u", "v")).scale(QQ.of(3))
        + space.path(("a", "b", "u", "v"))
    )
    qp = QP(q, pot)
    sr = split_reduce(qp)
    assert sr.certificate.ok
    assert len(sr.trivial.quiver.arrows) == 4  # rank-2 pairing swallows everything


def _up_to(terms, degree):
    return {p: c for p, c in terms.items() if p.length <= degree}


def _raised_order(qp, order):
    space = JetSpace(qp.quiver, order, qp.field)
    return QP(qp.quiver, cyclic_normalize(space.from_terms(dict(qp.potential.terms()))))


def test_split_reduce_is_stable_under_raising_the_truncation_order():
    # criterion 2's corpus split at N = 12 and at N = 15: the reduced and
    # trivial parts agree up to degree N, and the splitting's images up to
    # degree N - 1 (an image term of degree N comes from a potential term
    # of degree N + 1, which only the higher order sees)
    rng = random.Random(20240001)
    n = 12
    for _ in range(200):
        qp = random_qp(rng, max_vertices=5, max_arrows=10, max_terms=8, max_len=5, order=n)
        low, up = split_reduce(qp), split_reduce(_raised_order(qp, n + 3))
        for part in ("reduced", "trivial"):
            lo, hi = getattr(low, part), getattr(up, part)
            assert lo.quiver == hi.quiver
            assert _up_to(hi.potential.terms(), n) == lo.potential.terms()
        for aid, img in low.splitting.images.items():
            assert _up_to(up.splitting.images[aid].terms, n - 1) == _up_to(img.terms, n - 1)


def _markov_with_extra_cycles(rng, n):
    # the Markov potential plus a few random cycles of degree up to 6
    markov = markov_qp(order=n)
    jet = markov.potential.jet
    for w in _random_cycles(rng, markov.quiver, 6, rng.randint(1, 3)):
        jet = jet + markov.space.path(w).scale(QQ.of(rng.choice([-2, -1, 1, 2])))
    return QP(markov.quiver, cyclic_normalize(jet))


def test_mutation_sequences_are_stable_under_raising_the_truncation_order():
    # seeded mutate_qp sequences run at N and at N + 5 in step: after every
    # step that both orders take, the quivers agree and the reduced
    # potentials agree on every term of degree <= N.  A sequence ends where
    # either order refuses with TruncationTooSmall (its potential reached
    # that order); a vertex on a 2-cycle must be refused at both orders.
    rng = random.Random(20240005)
    n = 7
    qps = [markov_qp(order=n)] * 3 + [_markov_with_extra_cycles(rng, n) for _ in range(30)]
    while len(qps) < 70:
        qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=6, max_len=5, order=n)
        if qp.quiver.is_2_acyclic():
            qps.append(qp)
    compared = beyond_n = 0
    for qp in qps:
        low, high = qp, _raised_order(qp, n + 5)
        for k in [rng.choice(qp.quiver.vertices) for _ in range(5)]:
            try:
                low_next = mutate_qp(low, k)[0]
                high = mutate_qp(high, k)[0]
            except TruncationTooSmall:
                break
            except MutationNotDefined:
                with pytest.raises(MutationNotDefined):
                    mutate_qp(high, k)
                break
            low = low_next
            assert low.quiver == high.quiver
            assert _up_to(high.potential.terms(), n) == low.potential.terms()
            compared += 1
            beyond_n += any(p.length > n for p in high.potential.terms())
    # the comparison is not vacuous: many steps, some with terms past N
    assert compared > 300 and beyond_n > 0


def _pivot_normal_form_reference(c):
    """The earlier routine, kept as a reference: it clears each pivot column
    in every row, applies the column operations to Y directly, and tracks the
    used rows and columns."""
    fld = c.field
    m, n = c.rows, c.cols
    d = [list(r) for r in c.data]
    x = [[fld.one if i == j else fld.zero for j in range(m)] for i in range(m)]
    y = [[fld.one if i == j else fld.zero for j in range(n)] for i in range(n)]
    used_rows, used_cols = set(), set()
    pivots = []
    for i in range(m):
        if i in used_rows:
            continue
        j = next((jj for jj in range(n) if jj not in used_cols and d[i][jj]), None)
        if j is None:
            continue
        inv = fld.inv(d[i][j])
        d[i] = [v * inv for v in d[i]]
        x[i] = [v * inv for v in x[i]]
        for r in range(m):
            if r != i and d[r][j]:
                f = d[r][j]
                d[r] = [v - f * w for v, w in zip(d[r], d[i])]
                x[r] = [v - f * w for v, w in zip(x[r], x[i])]
        for cc in range(n):
            if cc != j and d[i][cc]:
                f = d[i][cc]
                for r in range(m):
                    d[r][cc] = d[r][cc] - f * d[r][j]
                for r in range(n):
                    y[r][cc] = y[r][cc] - f * y[r][j]
        used_rows.add(i)
        used_cols.add(j)
        pivots.append((i, j))
    return x, y, pivots


@pytest.mark.parametrize("field", [QQ, GF(5), GF(2)])
def test_pivot_normal_form_matches_reference(field):
    rng = random.Random(404)
    cases = [
        Mat.zero(field, 0, 0), Mat.zero(field, 0, 3), Mat.zero(field, 3, 0),
        # a zero row, and a dependent one, between two pivot rows
        from_int_rows(field, [[1, 2, 0], [0, 0, 0], [3, 1, 1]]),
        from_int_rows(field, [[1, 2, 0], [2, 4, 0], [0, 1, 1]]),
    ]
    # the Markov premutation's pairing of the four composites with c1, c2
    (pairing,) = (c for _, _, c in qp_module._degree2_pairing(
        premutate_qp(markov_qp(field=field), MARKOV_K)).values())
    assert (pairing.rows, pairing.cols, pairing.rank()) == (4, 2, 2)
    cases.append(pairing)
    for _ in range(2000):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        density = rng.choice([0.3, 0.6, 1.0])
        cases.append(from_int_rows(field, [[rng.randint(-3, 3) if rng.random() < density else 0
                                            for _ in range(n)] for _ in range(m)]))
    for c in cases:
        m, n = c.rows, c.cols
        x, y, x_inv, y_inv, pivots = pivot_normal_form(c)
        rx, ry, rpivots = _pivot_normal_form_reference(c)
        assert x @ x_inv == Mat.identity(field, m) == x_inv @ x
        assert y @ y_inv == Mat.identity(field, n) == y_inv @ y
        assert pivots == rpivots
        assert [[str(v) for v in r] for r in x.data] == [[str(v) for v in r] for r in rx]
        assert [[str(v) for v in r] for r in y.data] == [[str(v) for v in r] for r in ry]
        normal = Mat.from_rows(field, [{j: field.one for i2, j in pivots if i2 == i} for i in range(m)], n)
        assert x @ c @ y == normal


def test_linear_normalization_carries_its_inverse():
    # criterion 2's corpus: the inverse read off the elimination equals the
    # general fixed-point inverse, and undoes the normalization both ways
    rng = random.Random(20240001)
    checked = 0
    for _ in range(200):
        qp = random_qp(rng, max_vertices=5, max_arrows=10, max_terms=8, max_len=5, order=12)
        if qp.potential.degree2_part().is_zero():
            continue
        lin_sub, lin_inv, _ = _linear_normalization(qp)
        assert lin_inv.images == invert_substitution(lin_sub).images
        assert compose_substitutions(lin_inv, lin_sub).is_identity()
        assert compose_substitutions(lin_sub, lin_inv).is_identity()
        checked += not lin_sub.is_identity()
    # not vacuous: many normalizations change the arrows
    assert checked > 50
