"""Potentials: cyclic jets in canonical rotation form, and cyclic derivatives.

A potential is stored with every cycle rotated to its lexicographically
minimal arrow-id word and coefficients of equal rotations merged, so cyclic
equivalence of potentials is literal term-wise equality.
"""

from __future__ import annotations

from .errors import NotCyclicError
from .jets import JetPoly, JetSpace
from .quiver import Path, canonical_rotation


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
    out: dict[Path, object] = {}
    for p, c in u.terms.items():
        if not p.is_cycle():
            raise NotCyclicError(f"term {p!r} is not a cycle")
        canon = canonical_rotation(q, p)
        s = out.get(canon)
        s = c if s is None else s + c
        if s:
            out[canon] = s
        else:
            out.pop(canon, None)
    return Potential(JetPoly(u.space, out))


def cyclically_equivalent(u: JetPoly, v: JetPoly) -> bool:
    return cyclic_normalize(u - v).is_zero()


def cyclic_derivative(s: Potential, aid: str) -> JetPoly:
    """d/d(aid): for each occurrence of the arrow in a cycle, the rotation of
    the cycle starting right after that occurrence, with the occurrence
    removed."""
    space = s.space
    q = space.quiver
    acc: dict[Path, object] = {}
    for p, coeff in s.jet.terms.items():
        w = p.arrows
        d = len(w)
        for i in range(d):
            if w[i] != aid:
                continue
            rest = w[i + 1 :] + w[:i]
            if rest:
                piece = Path(rest, q.tail(rest[-1]), q.head(rest[0]))
            else:
                # removed the only arrow of a 1-cycle; impossible (loop-free)
                continue
            sacc = acc.get(piece)
            sacc = coeff if sacc is None else sacc + coeff
            if sacc:
                acc[piece] = sacc
            else:
                acc.pop(piece, None)
    return JetPoly(space, acc)


def second_derivative(s: Potential, bid: str, aid: str) -> JetPoly:
    """d/d(b a): for each cyclic occurrence of the length-2 factor ``b a``
    (``a`` acting first), the complementary path."""
    space = s.space
    q = space.quiver
    acc: dict[Path, object] = {}
    for p, coeff in s.jet.terms.items():
        w = p.arrows
        d = len(w)
        for i in range(d):
            if w[i] != bid or w[(i + 1) % d] != aid:
                continue
            rest = tuple(w[(i + 2 + t) % d] for t in range(d - 2))
            if rest:
                piece = Path(rest, q.tail(rest[-1]), q.head(rest[0]))
            else:
                piece = Path((), q.tail(aid), q.tail(aid))
            sacc = acc.get(piece)
            sacc = coeff if sacc is None else sacc + coeff
            if sacc:
                acc[piece] = sacc
            else:
                acc.pop(piece, None)
    return JetPoly(space, acc)


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
        acc[Path(word, q.tail(word[-1]), q.head(word[0]))] = c
    return JetPoly(target, acc)


def reverse_potential(
    s: Potential, opposite_space: JetSpace, renaming: dict[str, str] | None = None
) -> Potential:
    """Term-wise word reversal, landing in the opposite quiver's jets."""
    return cyclic_normalize(reverse_jet(s.jet, opposite_space, renaming))
