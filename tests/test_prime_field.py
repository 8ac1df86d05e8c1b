"""The whole pipeline over a prime field."""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import markov_qp, MARKOV_K
from qpmut import docio
from qpmut import (
    ContextError,
    GF,
    QQ,
    SchemaError,
    YES,
    check_module,
    cyclic_derivative,
    duality_witness,
    is_isomorphic,
    mutate_qp,
    mutate_rep,
    split_reduce,
    premutate_qp,
)
from qpmut.fields import field_from_name
from qpmut.generate import random_qp, random_valid_module
from qpmut.mutation import involution_pullback


F7 = GF(7)


def test_field_arithmetic():
    a = F7.of(3)
    b = F7.of(5)
    assert a + b == F7.of(1)
    assert a * b == F7.of(1)
    assert a / b == a * F7.of(3)  # 5^{-1} = 3 mod 7
    assert -a == F7.of(4)
    assert bool(F7.of(7)) is False


@pytest.mark.parametrize("x", [1.0, 0.5, True, False, Fraction(1), "1", None])
def test_rational_of_refuses_anything_but_an_int(x):
    with pytest.raises(ContextError):
        QQ.of(x)


def test_rational_of_keeps_an_int():
    for n in (0, 1, -1, 7, 10 ** 40):
        assert type(QQ.of(n)) is int and QQ.of(n) == n
    assert type(QQ.zero) is int and type(QQ.one) is int


@pytest.mark.parametrize("fld", [QQ, F7], ids=["Q", "Fp:7"])
def test_field_inv(fld):
    for x in [fld.of(n) for n in (1, -1, 2, -3, 5)]:
        assert x * fld.inv(x) == fld.one
    with pytest.raises(ZeroDivisionError):
        fld.inv(fld.zero)


def test_rational_inv_keeps_units_integral():
    cases = [(1, 1), (-1, -1), (Fraction(-1, 4), -4), (2, Fraction(1, 2)),
             (Fraction(2, 3), Fraction(3, 2))]
    for x, want in cases:
        got = QQ.inv(x)
        assert got == want and type(got) is type(want)
        assert x * got == 1


def test_markov_reduction_over_f7():
    qp = markov_qp(field=F7)
    red, phi, triv = mutate_qp(qp, MARKOV_K)
    assert {a.id for a in triv.quiver.arrows} == {"c1", "c2", "[b1a1]", "[b2a2]"}
    s = premutate_qp(qp, MARKOV_K).space
    assert phi.images["c1"] == s.arrow("c1") + s.path(("a1*", "b1*"))


def test_random_reductions_over_f7():
    rng = random.Random(401)
    for _ in range(10):
        qp = random_qp(rng, max_vertices=4, max_arrows=7, max_terms=5,
                       max_len=4, order=10, field=F7)
        assert split_reduce(qp).certificate.ok


def test_module_mutation_over_f7():
    rng = random.Random(403)
    qp = markov_qp(field=F7)
    m = random_valid_module(qp, rng, max_dim=2)
    assert check_module(m).ok
    out = mutate_rep(m, MARKOV_K)
    assert check_module(out).ok
    w = involution_pullback(m, MARKOV_K)
    assert is_isomorphic(w, m, seed=11).verdict == YES
    assert duality_witness(m, MARKOV_K).ok


def test_equal_elements_hash_equal_across_parse_and_emit():
    rep = docio.load_path("fixtures/markov_rep.json")
    doc = json.loads(docio.dumps(docio.emit_decrep(rep)))
    doc["field"] = "Fp:7"
    rep = docio.parse(doc)
    for k in (3, 1, 2):
        rep = mutate_rep(rep, k)
    back = docio.loads(docio.dumps(docio.emit_decrep(rep)))
    assert back.maps == rep.maps
    values = [x for m in list(rep.maps.values()) + list(back.maps.values())
              for row in m.data for x in row]
    values += [F7.of(n) for n in range(-21, 22)] + [F7.parse(str(n)) for n in range(7)]
    residues = [F7.of(n) for n in range(7)]
    for x in values:
        (same,) = [r for r in residues if r == x]
        assert hash(x) == hash(same)
    assert len(set(values)) == 7


def test_prime_field_primality_is_exact_and_fast():
    t0 = time.monotonic()
    assert field_from_name("Fp:2305843009213693951").p == 2**61 - 1
    assert time.monotonic() - t0 < 1.0
    # 561 is a Carmichael number, 2047 a strong pseudoprime to base 2, and
    # 3215031751 a strong pseudoprime to bases 2, 3, 5 and 7
    for composite in (1, 561, 2047, 3215031751):
        with pytest.raises(SchemaError, match="not prime"):
            field_from_name(f"Fp:{composite}")
    small_primes = [n for n in range(2, 3000) if all(n % q for q in range(2, int(n**0.5) + 1))]
    accepted = []
    for n in range(2, 3000):
        try:
            GF(n)
        except ValueError:
            continue
        accepted.append(n)
    assert accepted == small_primes
    # beyond the bound where bases 2..41 decide primality, a tag is refused
    with pytest.raises(SchemaError, match="bound"):
        field_from_name(f"Fp:{3317044064679887385961981 + 2}")
