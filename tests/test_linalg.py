"""Exact matrix kernels, images, quotients; cross-checked against sympy."""

import random
from fractions import Fraction

import pytest
import sympy

from qpmut import QQ, ShapeError
from qpmut.linalg import (
    Mat,
    coords_in,
    hstack,
    independent_columns,
    intersect_column_spaces,
    subspace_package,
    vstack,
)


def _rand(rng, rows, cols, lo=-4, hi=4):
    return Mat(QQ, [[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]) \
        if rows and cols else Mat.zero(QQ, rows, cols)


def _to_sympy(m: Mat):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.data[i][j]))


def test_kernel_of_identity_is_zero():
    assert Mat.identity(QQ, 4).kernel_basis().cols == 0


def test_cokernel_of_zero_map():
    z = Mat.zero(QQ, 3, 2)
    _, proj, sec = subspace_package(z.image_basis())
    assert proj.rows == 3
    assert (proj @ sec) == Mat.identity(QQ, 3)


def test_kernel_matches_sympy():
    rng = random.Random(1)
    for _ in range(30):
        m = _rand(rng, rng.randint(0, 5), rng.randint(0, 5))
        k = m.kernel_basis()
        assert (m @ k).is_zero()
        sk = _to_sympy(m).nullspace()
        assert k.cols == len(sk)


def test_rank_matches_sympy():
    rng = random.Random(2)
    for _ in range(30):
        m = _rand(rng, rng.randint(0, 5), rng.randint(0, 5))
        assert m.rank() == _to_sympy(m).rank()


def test_solve_and_inverse():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = _rand(rng, n, n)
        if not m.is_invertible():
            continue
        inv = m.inverse()
        assert m @ inv == Mat.identity(QQ, n)
        assert inv @ m == Mat.identity(QQ, n)


def test_subspace_package_properties():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(0, 6)
        m = _rand(rng, n, rng.randint(0, 6))
        basis = independent_columns(m)
        retraction, proj, sec = subspace_package(basis)
        r = basis.cols
        if r:
            assert retraction @ basis == Mat.identity(QQ, r)
        assert proj.rows == n - r
        if n - r:
            assert proj @ sec == Mat.identity(QQ, n - r)
        if basis.cols:
            assert (proj @ basis).is_zero()
        assert sec == Mat.identity(QQ, n).take_cols(_greedy_complement(basis))


def _greedy_complement(basis: Mat) -> list[int]:
    """Reference: standard basis indices chosen greedily by index, each one
    kept when it raises the rank (sympy) of the span built so far."""
    n = basis.rows
    span = _to_sympy(basis)
    chosen = []
    for i in range(n):
        e = sympy.zeros(n, 1)
        e[i] = 1
        cand = span.row_join(e)
        if cand.rank() > span.rank():
            chosen.append(i)
            span = cand
    return chosen


def test_subspace_package_rejects_dependent_columns():
    b = Mat.from_int_rows(QQ, [[1, 2, 0], [0, 0, 1], [1, 2, 1]])
    with pytest.raises(ShapeError):
        subspace_package(b)
    with pytest.raises(ShapeError):
        subspace_package(Mat.zero(QQ, 3, 1))


def test_intersection_against_rank_formula():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 6)
        u = independent_columns(_rand(rng, n, rng.randint(0, 4)))
        v = independent_columns(_rand(rng, n, rng.randint(0, 4)))
        cap = intersect_column_spaces(u, v)
        # independent oracle: dim(U & V) = rank U + rank V - rank [U V]
        expected = u.cols + v.cols - hstack(QQ, [u, v], rows=n).rank()
        assert cap.cols == expected
        # membership both ways
        if cap.cols:
            assert u.solve(cap) is not None
            assert v.solve(cap) is not None


def test_coords_in_raises_outside_span():
    u = Mat.from_int_rows(QQ, [[1], [0]])
    v = Mat.from_int_rows(QQ, [[0], [1]])
    with pytest.raises(ShapeError):
        coords_in(u, v)


def test_stacking_degenerate_shapes():
    a = Mat.zero(QQ, 0, 3)
    b = Mat.zero(QQ, 0, 2)
    h = hstack(QQ, [a, b])
    assert (h.rows, h.cols) == (0, 5)
    v = vstack(QQ, [Mat.zero(QQ, 2, 0), Mat.zero(QQ, 1, 0)])
    assert (v.rows, v.cols) == (3, 0)
    assert (Mat.zero(QQ, 0, 4) @ Mat.zero(QQ, 4, 2)).cols == 2
