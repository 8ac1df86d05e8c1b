import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from qpmut import QP, JetSpace, Potential, Quiver, Arrow
from qpmut.cycles import cyclic_normalize
from qpmut.fields import QQ
from qpmut.linalg import Echelon, Mat, hstack


def count_eliminations(monkeypatch) -> list:
    """A list that grows by one at each elimination from now on: every
    elimination (RREF, rank, nilpotency span, generated span) opens one
    echelon."""
    calls = []
    init = Echelon.__init__
    monkeypatch.setattr(Echelon, "__init__", lambda self, field: calls.append(1) or init(self, field))
    return calls


def markov_quiver() -> Quiver:
    return Quiver(
        (1, 2, 3),
        (
            Arrow("a1", 1, 3),
            Arrow("a2", 1, 3),
            Arrow("b1", 3, 2),
            Arrow("b2", 3, 2),
            Arrow("c1", 2, 1),
            Arrow("c2", 2, 1),
        ),
    )


def markov_qp(order: int = 12, field=QQ) -> QP:
    q = markov_quiver()
    space = JetSpace(q, order, field)
    jet = space.path(("c1", "b1", "a1")) + space.path(("c2", "b2", "a2"))
    return QP(q, cyclic_normalize(jet))


MARKOV_K = 3


@pytest.fixture
def markov():
    return markov_qp()


def a2_quiver() -> Quiver:
    return Quiver((1, 2), (Arrow("a", 1, 2),))


def a2_qp(order: int = 12) -> QP:
    q = a2_quiver()
    return QP(q, Potential(JetSpace(q, order, QQ).zero()))


def a3_line_qp(order: int = 12) -> QP:
    q = Quiver((1, 2, 3), (Arrow("a", 1, 2), Arrow("b", 2, 3)))
    return QP(q, Potential(JetSpace(q, order, QQ).zero()))


def reference_intersection(u: Mat, v: Mat) -> Mat:
    """Basis of col(u) & col(v), via the kernel of [u | -v]: a reference
    kept apart from the library's rank formula."""
    if u.cols == 0 or v.cols == 0:
        return Mat.zero(u.field, u.rows, 0)
    k = hstack(u.field, [u, -v]).kernel_basis()
    return (u @ k.take_rows(list(range(u.cols)))).image_basis()
