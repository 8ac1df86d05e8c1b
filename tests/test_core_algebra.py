"""Paths, jets, cyclic normalization and derivatives."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import markov_qp, markov_quiver
from qpmut import (
    GF,
    CompositionError,
    JetSpace,
    NotCyclicError,
    Potential,
    QQ,
    apply_substitution,
    compose_paths,
    cyclic_derivative,
    cyclic_normalize,
    lazy_path,
    path_from_arrows,
    second_derivative,
    substitution_from_images,
)
from qpmut.quiver import Arrow, Path, Quiver, canonical_rotation


def rotations(quiver: Quiver, p: Path) -> list[Path]:
    """All rotations of a cycle, as paths."""
    if not p.is_cycle():
        raise CompositionError("only cycles can be rotated")
    d = p.length
    out = []
    for r in range(d):
        word = p.arrows[r:] + p.arrows[:r]
        out.append(Path(word, quiver.tail(word[-1]), quiver.head(word[0])))
    return out


def test_compose_concatenates():
    q = markov_quiver()
    a = path_from_arrows(q, ("a1",))
    b = path_from_arrows(q, ("b1",))
    ba = compose_paths(b, a)
    assert ba.arrows == ("b1", "a1")
    assert ba.tail == 1 and ba.head == 2


def test_compose_identity_cases():
    q = markov_quiver()
    a = path_from_arrows(q, ("a1",))
    e_head = lazy_path(q.head("a1"))
    e_tail = lazy_path(q.tail("a1"))
    assert compose_paths(e_head, a) == a
    assert compose_paths(a, e_tail) == a


def test_compose_markov_hook():
    # c1 after b1 runs from the mutation vertex to 1
    q = markov_quiver()
    c1b1 = compose_paths(path_from_arrows(q, ("c1",)), path_from_arrows(q, ("b1",)))
    assert c1b1.arrows == ("c1", "b1")
    assert c1b1.tail == 3 and c1b1.head == 1


def test_compose_mismatch_raises():
    q = markov_quiver()
    with pytest.raises(CompositionError):
        compose_paths(path_from_arrows(q, ("a1",)), path_from_arrows(q, ("b1",)))


def _space(order=6):
    return JetSpace(markov_quiver(), order, QQ)


def test_jet_mul_idempotents():
    s = _space()
    ek = s.idempotent(3)
    assert ek * ek == ek
    assert (s.idempotent(1) * ek).is_zero()


def test_jet_mul_composable_arrows():
    s = _space()
    assert s.arrow("b1") * s.arrow("a1") == s.path(("b1", "a1"))
    assert (s.arrow("a1") * s.arrow("b1")).is_zero()


def test_jet_mul_truncates():
    s = JetSpace(markov_quiver(), 2, QQ)
    cb = s.path(("c1", "b1"))
    ba = s.path(("b1", "a1"))
    assert (cb * s.arrow("a1")).is_zero()  # length 3 > N = 2
    assert not (s.arrow("c1") * ba).is_zero() or True  # also truncated
    assert (s.arrow("c1") * ba).is_zero()


def test_bigraded_extraction():
    s = _space()
    u = s.path(("b1", "a1")) + s.arrow("c2") + s.idempotent(1) + s.arrow("a1")
    comp = u.component(2, 1)
    assert comp == s.path(("b1", "a1"))


def test_cyclic_normalize_merges_rotations():
    s = _space()
    u = s.path(("c1", "b1", "a1")) + s.path(("b1", "a1", "c1"))
    pot = cyclic_normalize(u)
    assert len(pot.terms()) == 1
    ((p, c),) = pot.terms().items()
    assert c == QQ.of(2)
    assert set(p.arrows) == {"a1", "b1", "c1"}


def test_cyclic_normalize_kills_rotation_differences():
    s = _space()
    u = s.path(("c1", "b1", "a1")) - s.path(("a1", "c1", "b1"))
    assert cyclic_normalize(u).is_zero()


def test_cyclic_normalize_rejects_non_cycles():
    s = _space()
    with pytest.raises(NotCyclicError):
        cyclic_normalize(s.path(("b1", "a1")))
    with pytest.raises(NotCyclicError):
        cyclic_normalize(s.idempotent(1))


def test_markov_potential_fixed_point():
    qp = markov_qp()
    again = cyclic_normalize(qp.potential.jet)
    assert again == qp.potential


def _rotation_rule_oracle(pot: Potential, aid: str):
    """Independent derivative: enumerate rotations, match the first letter."""
    space = pot.space
    q = space.quiver
    out = space.zero()
    for p, c in pot.terms().items():
        for r in rotations(q, p):
            if r.arrows[0] == aid:
                rest = r.arrows[1:]
                out = out + space.path(rest).scale(c)
    return out


def test_cyclic_derivative_markov():
    qp = markov_qp()
    d = cyclic_derivative(qp.potential, "c1")
    assert d == qp.space.path(("b1", "a1"))
    assert cyclic_derivative(qp.potential, "zz").is_zero()


def test_cyclic_derivative_matches_rotation_oracle_on_random_potentials():
    rng = random.Random(7)
    from qpmut.generate import random_qp

    for _ in range(25):
        qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=5, max_len=5, order=8)
        for a in qp.quiver.arrows:
            assert cyclic_derivative(qp.potential, a.id) == _rotation_rule_oracle(
                qp.potential, a.id
            )


def _second_derivative_oracle(pot: Potential, bid: str, aid: str):
    """Delete the factor from each cyclic rotation that starts with it."""
    space = pot.space
    q = space.quiver
    out = space.zero()
    for p, c in pot.terms().items():
        for r in rotations(q, p):
            if r.arrows[0] == bid and r.arrows[1 % len(r.arrows)] == aid and len(r.arrows) >= 2:
                rest = r.arrows[2:]
                if rest:
                    out = out + space.path(rest).scale(c)
                else:
                    out = out + space.idempotent(q.tail(aid)).scale(c)
    return out


def test_second_derivative_examples():
    qp = markov_qp()
    s = qp.space
    assert second_derivative(qp.potential, "b1", "a1") == s.arrow("c1")
    assert second_derivative(qp.potential, "b1", "a2").is_zero()
    assert second_derivative(qp.potential, "c1", "c2").is_zero()


def test_second_derivative_matches_oracle_on_random_potentials():
    rng = random.Random(11)
    from qpmut.generate import random_qp

    for _ in range(20):
        qp = random_qp(rng, max_vertices=4, max_arrows=6, max_terms=5, max_len=5, order=8)
        for x in qp.quiver.arrows:
            for y in qp.quiver.arrows:
                assert second_derivative(qp.potential, x.id, y.id) == _second_derivative_oracle(
                    qp.potential, x.id, y.id
                )


def test_derivative_of_length_two_cycle_is_lazy():
    from qpmut.quiver import Arrow, Quiver

    q = Quiver((1, 2), (Arrow("a", 1, 2), Arrow("b", 2, 1)))
    space = JetSpace(q, 6, QQ)
    pot = cyclic_normalize(space.path(("a", "b")))
    assert second_derivative(pot, "a", "b") == space.idempotent(2)
    assert cyclic_derivative(pot, "a") == space.arrow("b")


# -- property tests ----------------------------------------------------

_small_coeff = st.integers(min_value=-3, max_value=3)


@st.composite
def _jets(draw, order=5):
    space = JetSpace(markov_quiver(), order, QQ)
    words = [
        (),
        ("a1",), ("b1",), ("c1",), ("a2",),
        ("b1", "a1"), ("c1", "b1"), ("a1", "c1"),
        ("c1", "b1", "a1"), ("b2", "a2"), ("a2", "c2"),
    ]
    jet = space.zero()
    n = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n):
        w = draw(st.sampled_from(words))
        c = draw(_small_coeff)
        term = space.idempotent(1) if w == () else space.path(w)
        jet = jet + term.scale(QQ.of(c))
    return jet


@given(_jets(), _jets(), _jets())
@settings(max_examples=60, deadline=None)
def test_jet_arithmetic_laws(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w


@given(_jets())
@settings(max_examples=40, deadline=None)
def test_one_is_identity(u):
    one = u.space.one()
    assert one * u == u
    assert u * one == u


@st.composite
def _cycles(draw):
    space = JetSpace(markov_quiver(), 6, QQ)
    words = [
        ("c1", "b1", "a1"), ("c2", "b2", "a2"), ("c1", "b1", "a2"),
        ("c2", "b1", "a1"), ("c1", "b2", "a1"),
        ("c1", "b1", "a1", "c2", "b2", "a2"),
    ]
    jet = space.zero()
    n = draw(st.integers(min_value=0, max_value=3))
    for _ in range(n):
        w = draw(st.sampled_from(words))
        c = draw(_small_coeff)
        jet = jet + space.path(w).scale(QQ.of(c))
    return jet


@given(_cycles())
@settings(max_examples=40, deadline=None)
def test_cyclic_normalize_idempotent(jet):
    pot = cyclic_normalize(jet)
    assert cyclic_normalize(pot.jet) == pot


@given(_cycles(), _cycles(), _small_coeff, st.sampled_from(["a1", "b1", "c1", "a2", "b2", "c2"]))
@settings(max_examples=40, deadline=None)
def test_derivative_is_linear(u, v, lam, aid):
    su = cyclic_normalize(u)
    sv = cyclic_normalize(v)
    combined = cyclic_normalize(u.scale(QQ.of(lam)) + v)
    assert cyclic_derivative(combined, aid) == (
        cyclic_derivative(su, aid).scale(QQ.of(lam)) + cyclic_derivative(sv, aid)
    )


@given(_cycles(), st.sampled_from(["a1", "b1", "c1", "a2", "b2", "c2"]))
@settings(max_examples=40, deadline=None)
def test_derivative_kills_rotation_differences(jet, aid):
    space = jet.space
    q = space.quiver
    for p, c in list(jet.terms.items()):
        for r in rotations(q, p):
            diff = space.from_terms({p: QQ.of(1)}) - space.from_terms({r: QQ.of(1)})
            pot_terms = cyclic_normalize(diff)
            assert cyclic_derivative(pot_terms, aid).is_zero() or not pot_terms.is_zero()
            # rotation differences normalize to zero, so the derivative is zero
            assert pot_terms.is_zero()


# -- no zero coefficient is ever stored --------------------------------------

_ARROWS = ("a1", "a2", "b1", "b2", "c1", "c2")
_WORDS = (
    1, 2, 3,  # lazy paths at these vertices
    ("a1",), ("a2",), ("b1",), ("c1",),
    ("b1", "a1"), ("b1", "a2"), ("b2", "a1"), ("c1", "b1"), ("c1", "b1", "a1"),
)
# rotations of one cycle, cycles that repeat a shorter one (their derivatives
# double up, which is zero over GF(2)), and a 2-periodic mixed cycle
_CYCLES = (
    ("c1", "b1", "a1"), ("b1", "a1", "c1"), ("a1", "c1", "b1"), ("c2", "b2", "a2"),
    ("c1", "b1", "a1", "c1", "b1", "a1"), ("c1", "b2", "a1", "c1", "b2", "a1"),
    ("c1", "b1", "a1", "c2", "b2", "a2"), ("c2", "b2", "a2", "c1", "b1", "a1"),
)


def _stores_no_zero(jet) -> bool:
    return all(c for c in jet.terms.values())


@st.composite
def _field_jets(draw):
    """A field, a jet space over it, and a draw function for jets whose terms
    are picked from a few short words, so sums and products often cancel."""
    field = draw(st.sampled_from((QQ, GF(2), GF(3))))
    space = JetSpace(markov_quiver(), 6, field)

    def jet(words):
        out = space.zero()
        for w, c in draw(st.lists(st.tuples(st.sampled_from(words), _small_coeff), max_size=5)):
            term = space.idempotent(w) if isinstance(w, int) else space.path(w)
            out = out + term.scale(field.of(c))
        return out

    return space, jet


@given(_field_jets(), _small_coeff)
@settings(max_examples=80, deadline=None)
def test_no_operation_stores_a_zero_coefficient(drawn, lam):
    space, jet = drawn
    field = space.field
    u, v = jet(_WORDS), jet(_WORDS)
    assert (u + (-u)).terms == {} and (u - u).terms == {}
    results = [u + v, u - v, v - u, u * v, v * u, (u + v) * (u - v), u.scale(field.of(lam))]
    pot = cyclic_normalize(jet(_CYCLES))
    results.append(pot.jet)
    results.extend(cyclic_derivative(pot, a) for a in _ARROWS)
    results.extend(second_derivative(pot, b, a) for b in _ARROWS for a in _ARROWS)
    # every arrow goes to a combination of its parallel arrows, so images of
    # different terms can cancel
    coeffs = iter(field.of(c) for c in [lam, -1, 1, 1, -lam, 0])
    images = {
        "a1": space.arrow("a1").scale(next(coeffs)) + space.arrow("a2").scale(next(coeffs)),
        "a2": space.arrow("a1").scale(next(coeffs)) + space.arrow("a2").scale(next(coeffs)),
        "b1": space.arrow("b1") + space.arrow("b2").scale(next(coeffs)),
        "b2": space.arrow("b2").scale(next(coeffs)),
    }
    results.append(apply_substitution(substitution_from_images(space, images), u))
    assert all(_stores_no_zero(r) for r in results)


def test_product_terms_cancel_across_pairs():
    # b1 . a1 and e_2 . (b1 a1) are the same path from different pairs
    s = _space()
    u = s.arrow("b1") + s.idempotent(2)
    v = s.arrow("a1") - s.path(("b1", "a1"))
    assert (u * v).terms == {}
    assert (u * (v + s.arrow("a2"))).terms == s.path(("b1", "a2")).terms


def test_cyclic_derivative_of_a_doubled_cycle_vanishes_in_characteristic_two():
    for field, expected in ((QQ, 2), (GF(2), 0)):
        s = JetSpace(markov_quiver(), 6, field)
        pot = cyclic_normalize(s.path(("c1", "b1", "a1", "c1", "b1", "a1")))
        d = cyclic_derivative(pot, "a1")
        assert d == s.path(("c1", "b1", "a1", "c1", "b1")).scale(field.of(expected))
        assert second_derivative(pot, "b1", "a1") == (
            s.path(("c1", "b1", "a1", "c1")).scale(field.of(expected))
        )


# -- canonical rotation against brute force ------------------------------------

_ROT_QUIVER = Quiver(
    (1, 2, 3),
    (Arrow("x", 1, 2), Arrow("u", 1, 2), Arrow("y", 2, 1), Arrow("z", 2, 3), Arrow("w", 3, 1)),
)


@st.composite
def _rotation_cases(draw):
    """A closed walk from vertex 1, repeated 1-3 times (so words like
    ``y x y x`` that repeat a shorter word occur), then rotated, or else
    replaced by its least rotation."""
    q = _ROT_QUIVER
    acting_first: list[str] = []
    at = 1
    while True:
        if len(acting_first) < 6:
            outs = [a.id for a in q.arrows_out_of(at)]
        else:  # head home: y from 2, w from 3
            outs = [{2: "y", 3: "w"}[at]]
        aid = draw(st.sampled_from(outs))
        acting_first.append(aid)
        at = q.head(aid)
        if at == 1 and (len(acting_first) >= 6 or draw(st.booleans())):
            break
    word = tuple(reversed(acting_first)) * draw(st.integers(min_value=1, max_value=3))
    r = draw(st.integers(min_value=0, max_value=len(word) - 1))
    word = word[r:] + word[:r]
    if draw(st.booleans()):
        word = min(word[i:] + word[:i] for i in range(len(word)))
    return path_from_arrows(q, word)


@given(_rotation_cases())
@settings(max_examples=200, deadline=None)
def test_canonical_rotation_matches_brute_force(p):
    q = _ROT_QUIVER
    got = canonical_rotation(q, p)
    want = min(rotations(q, p), key=lambda r: r.arrows)
    assert (got.arrows, got.tail, got.head) == (want.arrows, want.tail, want.head)
    if want.arrows == p.arrows:
        assert got is p


def test_canonical_rotation_of_a_repeated_word():
    q = _ROT_QUIVER
    p = path_from_arrows(q, ("y", "x", "y", "x"))
    got = canonical_rotation(q, p)
    assert got.arrows == ("x", "y", "x", "y") and (got.tail, got.head) == (2, 2)
    assert canonical_rotation(q, got) is got
    with pytest.raises(CompositionError):
        canonical_rotation(q, path_from_arrows(q, ("z", "x")))
