"""Potentials: cyclic jets in canonical rotation form, and cyclic derivatives.

A potential is stored with every cycle rotated to its lexicographically
minimal arrow-id word and coefficients of equal rotations merged, so cyclic
equivalence of potentials is literal term-wise equality.
"""

from __future__ import annotations

from .errors import NotCyclicError
from .jets import JetPoly, JetSpace
from .quiver import Path, Quiver, canonical_rotation, lazy_path


class Potential:
    """A cyclically normalized jet.  Construct via :func:`cyclic_normalize`."""

    __slots__ = ("jet",)

    def __init__(self, jet: JetPoly):
        self.jet = jet

    @property
    def space(self) -> JetSpace:
        return self.jet.space

    def is_zero(self) -> bool:
        return self.jet.is_zero()

    def __eq__(self, other):
        return isinstance(other, Potential) and self.jet == other.jet

    def __hash__(self):
        return hash(self.jet)

    def __add__(self, other: "Potential") -> "Potential":
        return cyclic_normalize(self.jet + other.jet)

    def __sub__(self, other: "Potential") -> "Potential":
        return cyclic_normalize(self.jet - other.jet)

    def scale(self, c) -> "Potential":
        return Potential(self.jet.scale(c))

    def degree2_part(self) -> "Potential":
        return Potential(self.jet.length_part(2))

    def max_length(self) -> int:
        return self.jet.max_length() or 0

    def terms(self) -> dict[Path, object]:
        return self.jet.terms

    def __repr__(self):
        return f"Potential({self.jet!r})"


def cyclic_normalize(u: JetPoly) -> Potential:
    """Rotate every cycle to canonical form and merge coefficients."""
    q = u.space.quiver
    for p in u.terms:
        if not p.is_cycle():
            raise NotCyclicError(f"term {p!r} is not a cycle")
    return Potential(
        u.space.sum_terms((canonical_rotation(q, p), c) for p, c in u.terms.items())
    )


def cyclically_equivalent(u: JetPoly, v: JetPoly) -> bool:
    return cyclic_normalize(u - v).is_zero()


def _word_path(q: Quiver, word: tuple[str, ...]) -> Path:
    return Path(word, q.tail(word[-1]), q.head(word[0]))


def cyclic_derivative(s: Potential, aid: str) -> JetPoly:
    """d/d(aid): for each occurrence of the arrow in a cycle, the rotation of
    the cycle starting right after that occurrence, with the occurrence
    removed.  The quiver has no loops, so what remains is never empty."""
    q = s.space.quiver
    return s.space.sum_terms(
        (_word_path(q, p.arrows[i + 1 :] + p.arrows[:i]), c)
        for p, c in s.jet.terms.items()
        for i, x in enumerate(p.arrows)
        if x == aid
    )


def second_derivative(s: Potential, bid: str, aid: str) -> JetPoly:
    """d/d(b a): for each cyclic occurrence of the length-2 factor ``b a``
    (``a`` acting first), the complementary path; in a 2-cycle that is the
    lazy path at the tail of ``a``."""
    q = s.space.quiver

    def complement(w: tuple[str, ...], i: int) -> Path:
        rest = (w + w)[i + 2 : i + len(w)]
        return _word_path(q, rest) if rest else lazy_path(q.tail(aid))

    return s.space.sum_terms(
        (complement(p.arrows, i), c)
        for p, c in s.jet.terms.items()
        for i, x in enumerate(p.arrows)
        if x == bid and p.arrows[(i + 1) % len(p.arrows)] == aid
    )


def reverse_jet(
    u: JetPoly, target: JetSpace, renaming: dict[str, str] | None = None
) -> JetPoly:
    """Term-wise word reversal into ``target``, the jets of the opposite
    quiver, renaming arrow ids through ``renaming`` where it has them."""
    ren = renaming or {}
    q = target.quiver
    acc: dict[Path, object] = {}
    for p, c in u.terms.items():
        word = tuple(ren.get(x, x) for x in reversed(p.arrows))
        acc[_word_path(q, word)] = c
    return JetPoly(target, acc)


def reverse_potential(
    s: Potential, opposite_space: JetSpace, renaming: dict[str, str] | None = None
) -> Potential:
    """Term-wise word reversal, landing in the opposite quiver's jets."""
    return cyclic_normalize(reverse_jet(s.jet, opposite_space, renaming))
