"""Duality: opposite QPs, transposed modules, and the mutation-commutes-
with-duality witness."""

import random

import pytest

from conftest import a2_qp, a3_line_qp, from_int_rows, markov_qp, MARKOV_K
from qpmut import (
    DecRep,
    Mat,
    QQ,
    cyclic_normalize,
    dualize_qp,
    dualize_rep,
    duality_witness,
    negative_simple_rep,
    simple_rep,
)
from qpmut.generate import random_valid_module


def test_double_dual_qp_identity(markov):
    assert dualize_qp(dualize_qp(markov)) == markov


def test_markov_opposite_potential(markov):
    op = dualize_qp(markov)
    space = op.space
    expected = cyclic_normalize(
        space.path(("a1", "b1", "c1")) + space.path(("a2", "b2", "c2"))
    )
    assert op.potential == expected


def test_double_dual_rep_identity(markov):
    rng = random.Random(301)
    m = random_valid_module(markov, rng, max_dim=3)
    mm = dualize_rep(dualize_rep(m))
    assert mm.dims == m.dims
    assert mm.dec_dims == m.dec_dims
    for aid, mat in m.maps.items():
        assert mm.maps[aid] == mat


def test_simple_dualizes_to_simple(markov):
    s = simple_rep(markov, 1)
    d = dualize_rep(s)
    assert d.dims == s.dims and d.dec_dims == s.dec_dims


def test_duality_witness_simple(markov):
    rpt = duality_witness(simple_rep(markov, MARKOV_K), MARKOV_K)
    assert rpt.ok
    rpt = duality_witness(negative_simple_rep(markov, MARKOV_K), MARKOV_K)
    assert rpt.ok


def test_duality_witness_random_markov(markov):
    rng = random.Random(307)
    for _ in range(3):
        m = random_valid_module(markov, rng, max_dim=3)
        rpt = duality_witness(m, MARKOV_K)
        assert rpt.ok
        assert rpt.witness["delta_k"].is_invertible()


def test_duality_witness_gamma_zero_blocks():
    qp = a3_line_qp()
    m = DecRep(
        qp,
        {1: 2, 2: 1, 3: 1},
        {
            "a": from_int_rows(QQ, [[1, 0]]),
            "b": from_int_rows(QQ, [[1]]),
        },
        {1: 0, 2: 1, 3: 0},
    )
    rpt = duality_witness(m, 2)
    assert rpt.ok
    # with a vanishing derivative matrix the functional-through-gamma block is zero
    t_cols = rpt.witness["delta_k"].cols
    assert rpt.witness["delta_k"].rows == t_cols


def test_duality_witness_sink(markov=None):
    qp = a2_qp()
    m = DecRep(qp, {1: 1, 2: 1}, {"a": Mat.identity(QQ, 1)}, {1: 0, 2: 0})
    assert duality_witness(m, 2).ok
    assert duality_witness(m, 1).ok


def test_duality_witness_reports_named_checks(markov):
    m = random_valid_module(markov, random.Random(311), max_dim=3)
    rpt = duality_witness(m, MARKOV_K)
    assert rpt.checks == [
        ("premutated quivers match under renaming", True),
        ("premutated potentials agree under renaming", True),
        ("comparison map at k is invertible", True),
        ("comparison map intertwines the premutations", True),
        ("mutated decorations agree", True),
        ("comparison map intertwines the reduced modules", True),
    ]
    assert rpt.witness["delta_k"].is_invertible()
