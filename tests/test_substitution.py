"""Arrow substitutions: application, composition, inversion."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import markov_quiver
from qpmut import (
    GF,
    Arrow,
    ArrowSubstitution,
    InvariantError,
    JetSpace,
    NotInvertibleError,
    QQ,
    Quiver,
    apply_substitution,
    compose_substitutions,
    identity_substitution,
    invert_substitution,
    substitution_from_images,
)
from qpmut.qp import premutate_quiver


def _premuted_space(order=8):
    qt = premutate_quiver(markov_quiver(), 3)
    return JetSpace(qt, order, QQ)


def test_identity_application():
    s = _premuted_space()
    phi = identity_substitution(s)
    u = s.path(("c1", "[b1a1]")) + s.arrow("a1*").scale(QQ.of(3))
    assert apply_substitution(phi, u) == u


def test_markov_splitting_substitution_on_trivial_term():
    # c1 -> c1 + a1* b1* applied to the 2-cycle c1 [b1a1]
    s = _premuted_space()
    phi = substitution_from_images(
        s, {"c1": s.arrow("c1") + s.path(("a1*", "b1*"))}
    )
    out = apply_substitution(phi, s.path(("c1", "[b1a1]")))
    assert out == s.path(("c1", "[b1a1]")) + s.path(("a1*", "b1*", "[b1a1]"))


def test_truncation_swallows_high_corrections():
    s = JetSpace(markov_quiver(), 3, QQ)
    # correction parallel to a1 (1 -> 3) of length 4 > N
    corr = s.path(("a2", "c1", "b1", "a1"))
    assert corr.is_zero()  # already beyond the truncation order
    s2 = JetSpace(markov_quiver(), 4, QQ)
    corr = s2.path(("a2", "c1", "b1", "a1"))
    phi = substitution_from_images(s2, {"a1": s2.arrow("a1") + corr})
    long_path = s2.path(("c1", "b1", "a1"))
    out = apply_substitution(phi, long_path)
    assert out == long_path  # the corrected branch has length 6 > 4


def test_substitution_is_ring_morphism():
    rng = random.Random(3)
    s = _premuted_space(order=6)
    phi = substitution_from_images(
        s,
        {
            "c1": s.arrow("c1") + s.path(("a1*", "b1*")),
            "c2": s.arrow("c2") - s.path(("a2*", "b2*")).scale(QQ.of(2)),
        },
    )
    words = [("c1", "[b1a1]"), ("[b1a1]",), ("a1*", "b1*"), ("b1*", "[b1a2]"), ()]
    for _ in range(30):
        w1 = rng.choice(words)
        w2 = rng.choice(words)
        u = s.idempotent(2) if w1 == () else s.path(w1)
        v = s.idempotent(2) if w2 == () else s.path(w2)
        assert apply_substitution(phi, u * v) == apply_substitution(phi, u) * apply_substitution(phi, v)


def test_lazy_terms_map_to_themselves():
    s = JetSpace(markov_quiver(), 5, QQ)
    phi = substitution_from_images(s, {"a1": s.arrow("a1") + s.arrow("a2")})
    u = s.idempotent(1) + s.idempotent(3).scale(QQ.of(3)) + s.path(("b1", "a1"))
    assert apply_substitution(phi, u) == (
        s.idempotent(1) + s.idempotent(3).scale(QQ.of(3))
        + s.path(("b1", "a1")) + s.path(("b1", "a2"))
    )
    # into another quiver on the same vertices, a lazy path is still itself
    q = markov_quiver()
    t = JetSpace(Quiver(q.vertices, q.arrows + (Arrow("d", 1, 3),)), 5, QQ)
    into = ArrowSubstitution(q, t, {a.id: t.arrow(a.id) for a in q.arrows})
    assert apply_substitution(into, s.idempotent(2)) == t.idempotent(2)


def test_images_of_different_terms_cancel():
    s = JetSpace(markov_quiver(), 5, QQ)
    phi = substitution_from_images(s, {"a1": s.arrow("a2")})
    u = s.path(("b1", "a1")) - s.path(("b1", "a2"))
    assert apply_substitution(phi, u).terms == {}
    out = apply_substitution(phi, u + s.arrow("c1"))
    assert out.terms == s.arrow("c1").terms


def test_products_of_images_are_kept_up_to_length_n_exactly():
    # A = a2 c1 b1 a2 is parallel to a1 and B = b1 a1 c1 b1 to b1, both of
    # length 4; the image of b1 a1 has terms of lengths 2, 5, 5 and 8
    def image(order):
        s = JetSpace(markov_quiver(), order, QQ)
        big_a = s.path(("a2", "c1", "b1", "a2"))
        big_b = s.path(("b1", "a1", "c1", "b1"))
        phi = substitution_from_images(
            s, {"a1": s.arrow("a1") + big_a, "b1": s.arrow("b1") + big_b}
        )
        return s, apply_substitution(phi, s.path(("b1", "a1")))

    s, out = image(8)
    assert sorted(p.length for p in out.terms) == [2, 5, 5, 8]
    assert out.length_part(8) == s.path(("b1", "a1", "c1", "b1", "a2", "c1", "b1", "a2"))
    _, out = image(7)
    assert sorted(p.length for p in out.terms) == [2, 5, 5]
    _, out = image(4)
    assert sorted(p.length for p in out.terms) == [2]


def test_is_identity_compares_every_image_with_its_arrow():
    s = JetSpace(markov_quiver(), 5, QQ)
    assert identity_substitution(s).is_identity()
    assert substitution_from_images(s, {"a1": s.path(("a1",))}).is_identity()
    assert not substitution_from_images(s, {"a1": s.arrow("a1").scale(QQ.of(2))}).is_identity()
    # the same arrow images, but into a quiver with one more arrow
    q = markov_quiver()
    t = JetSpace(Quiver(q.vertices, q.arrows + (Arrow("d", 1, 3),)), 5, QQ)
    assert not ArrowSubstitution(q, t, {a.id: t.arrow(a.id) for a in q.arrows}).is_identity()


def test_invert_identity():
    s = _premuted_space()
    assert invert_substitution(identity_substitution(s)).is_identity()


def test_invert_scaling():
    s = _premuted_space()
    phi = substitution_from_images(s, {"a1*": s.arrow("a1*").scale(QQ.of(2))})
    inv = invert_substitution(phi)
    assert inv.images["a1*"] == s.arrow("a1*").scale(QQ.inv(QQ.of(2)))


def test_invert_unitriangular_roundtrip():
    s = _premuted_space(order=8)
    phi = substitution_from_images(
        s,
        {
            "c1": s.arrow("c1") + s.path(("a1*", "b1*")),
            "c2": s.arrow("c2") + s.path(("a2*", "b2*")).scale(QQ.of(-1)),
            "[b1a1]": s.arrow("[b1a1]") + s.path(("[b1a2]", "a2*", "b1*", "[b1a1]")),
        },
    )
    inv = invert_substitution(phi)
    assert compose_substitutions(inv, phi).is_identity()
    assert compose_substitutions(phi, inv).is_identity()


def test_invert_mixing_linear_parts():
    s = _premuted_space(order=6)
    phi = substitution_from_images(
        s,
        {
            "c1": s.arrow("c1") + s.arrow("c2"),
            "c2": s.arrow("c2"),
            "a1*": s.arrow("a2*") + s.path(("c1", "[b1a1]", "a1*")),
            "a2*": s.arrow("a1*") + s.arrow("a2*"),
        },
    )
    inv = invert_substitution(phi)
    assert compose_substitutions(inv, phi).is_identity()
    assert compose_substitutions(phi, inv).is_identity()


def test_invert_singular_linear_part_raises():
    s = _premuted_space()
    phi = substitution_from_images(
        s, {"c1": s.arrow("c2"), "c2": s.arrow("c2")}
    )
    with pytest.raises(NotInvertibleError):
        invert_substitution(phi)
    # a singular class whose images also carry higher-degree terms; the
    # error names the parallel class (tail, head)
    phi = substitution_from_images(
        s,
        {
            "a1*": s.arrow("a2*") + s.path(("c1", "[b1a1]", "a1*")),
            "a2*": s.arrow("a2*").scale(QQ.of(-2)),
        },
    )
    a = s.quiver.arrow("a1*")
    with pytest.raises(NotInvertibleError, match=re.escape(f"class {(a.tail, a.head)}")):
        invert_substitution(phi)


@given(st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=20, deadline=None)
def test_invert_random_unitriangular(seed):
    rng = random.Random(seed)
    s = _premuted_space(order=6)
    corrections = {
        "c1": s.path(("a1*", "b1*")),
        "c2": s.path(("a2*", "b2*")),
        "[b1a1]": s.path(("[b1a2]", "a2*", "b1*", "[b1a1]")),
        "[b2a2]": s.path(("[b2a1]", "a1*", "b2*", "[b2a2]")),
    }
    images = {}
    for aid, corr in corrections.items():
        c = rng.randint(-2, 2)
        if c:
            images[aid] = s.arrow(aid) + corr.scale(QQ.of(c))
    phi = substitution_from_images(s, images)
    inv = invert_substitution(phi)
    assert compose_substitutions(inv, phi).is_identity()


def test_substitution_from_images_builds_only_the_missing_arrows(monkeypatch):
    s = JetSpace(markov_quiver(), 5, QQ)
    images = {"a1": s.arrow("a2"), "b1": s.arrow("b1") + s.path(("b1", "a1", "c1", "b2"))}
    built = []
    arrow = JetSpace.arrow
    monkeypatch.setattr(JetSpace, "arrow", lambda self, aid: built.append(aid) or arrow(self, aid))
    phi = substitution_from_images(s, images)
    assert sorted(built) == ["a2", "b2", "c1", "c2"]
    assert phi.images["a1"] is images["a1"] and phi.images["b1"] is images["b1"]
    assert all(phi.images[a] == arrow(s, a) for a in built)


def test_a_substitution_rejects_images_of_arrows_its_quiver_lacks():
    s = JetSpace(markov_quiver(), 5, QQ)
    with pytest.raises(InvariantError, match="'zz'"):
        substitution_from_images(s, {"zz": s.arrow("a1")})
    images = identity_substitution(s).images | {"zz": s.arrow("a1")}
    with pytest.raises(InvariantError, match="'zz'"):
        ArrowSubstitution(s.quiver, s, images)


def _random_image(rng, space, a):
    # a random combination of paths parallel to a, of length 1 to 4, found
    # by walking backwards from a's head
    q = space.quiver
    jet = space.zero()
    for _ in range(8):
        word, v = [], a.head
        for _ in range(rng.randint(1, 4)):
            b = rng.choice(q.arrows_into(v))
            word.append(b.id)
            v = b.tail
        if v == a.tail:
            jet = jet + space.path(word).scale(space.field.of(rng.choice([-2, -1, 1, 2, 3])))
    return jet


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "Fp:7"])
def test_compose_substitutions_applies_phi_to_every_image_of_psi(field):
    # psi fixes a random subset of arrows; the others go to a multiple of
    # themselves (fixed only when the multiple is 1) or to a random image
    rng = random.Random(41)
    space = JetSpace(premutate_quiver(markov_quiver(), 3), 6, field)
    arrows = space.quiver.arrows
    for _ in range(30):
        phi = ArrowSubstitution(space.quiver, space, {a.id: _random_image(rng, space, a) for a in arrows})
        images = {}
        for a in arrows:
            kind = rng.randrange(3)
            if kind == 0:
                images[a.id] = space.arrow(a.id)
            elif kind == 1:
                images[a.id] = space.arrow(a.id).scale(field.of(rng.choice([2, 3, -1])))
            else:
                images[a.id] = _random_image(rng, space, a)
        psi = ArrowSubstitution(space.quiver, space, images)
        comp = compose_substitutions(phi, psi)
        for a in arrows:
            assert comp.images[a.id] == apply_substitution(phi, psi.images[a.id])
