"""Jet-truncated elements of the complete path algebra.

A :class:`JetPoly` is a finite linear combination of paths of length at most
N, i.e. an element of the complete path algebra modulo m^(N+1) where m is the
arrow ideal.  All identities in the engine are exact modulo m^(N+1).  A jet
never stores a zero coefficient: every sum of terms goes through
:meth:`JetSpace.sum_terms`, which adds up equal paths and drops the zero sums
once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import ContextError, TruncationTooSmall
from .fields import Field
from .quiver import Path, Quiver, lazy_path, path_from_arrows


@dataclass(frozen=True)
class JetSpace:
    """Shared context: quiver, truncation order N (>= 1) and ground field."""

    quiver: Quiver
    order: int
    field: Field

    def __post_init__(self):
        if self.order < 1:
            raise TruncationTooSmall("truncation order must be >= 1")

    def zero(self) -> "JetPoly":
        return JetPoly(self, {})

    def one(self) -> "JetPoly":
        return JetPoly(self, {lazy_path(v): self.field.one for v in self.quiver.vertices})

    def idempotent(self, v: int) -> "JetPoly":
        return JetPoly(self, {lazy_path(v): self.field.one})

    def arrow(self, aid: str) -> "JetPoly":
        a = self.quiver.arrow(aid)
        return JetPoly(self, {Path((aid,), a.tail, a.head): self.field.one})

    def path(self, word: list[str] | tuple[str, ...]) -> "JetPoly":
        p = path_from_arrows(self.quiver, tuple(word))
        if p.length > self.order:
            return self.zero()
        return JetPoly(self, {p: self.field.one})

    def sum_terms(self, pairs) -> "JetPoly":
        """The jet sum of c.p over the ``(p, c)`` pairs: coefficients of equal
        paths are added up, then the zero sums are dropped, once."""
        acc: dict[Path, object] = {}
        for p, c in pairs:
            # a first coefficient is stored as it is: 0 + Fraction would cost
            # a full Fraction addition for every new path
            s = acc.get(p)
            acc[p] = c if s is None else s + c
        return JetPoly(self, {p: c for p, c in acc.items() if c})

    def from_terms(self, terms: dict[Path, object]) -> "JetPoly":
        kept = {
            p: c for p, c in terms.items() if c and p.length <= self.order
        }
        return JetPoly(self, kept)


class JetPoly:
    """Immutable jet; ``terms`` maps Path -> nonzero field scalar."""

    __slots__ = ("space", "terms")

    def __init__(self, space: JetSpace, terms: dict[Path, object]):
        self.space = space
        self.terms = terms

    def _check(self, other: "JetPoly") -> None:
        if self.space != other.space:
            raise ContextError("jets live in different spaces")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, JetPoly)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def __add__(self, other: "JetPoly") -> "JetPoly":
        self._check(other)
        return self.space.sum_terms(chain(self.terms.items(), other.terms.items()))

    def __neg__(self) -> "JetPoly":
        return JetPoly(self.space, {p: -c for p, c in self.terms.items()})

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        return self + (-other)

    def scale(self, c) -> "JetPoly":
        if not c:
            return self.space.zero()
        return JetPoly(self.space, {p: c * x for p, x in self.terms.items()})

    def __mul__(self, other: "JetPoly") -> "JetPoly":
        """Bilinear extension of path concatenation, truncated at N."""
        self._check(other)
        n = self.space.order
        return self.space.sum_terms(
            (Path(p.arrows + q.arrows, q.tail, p.head), cp * cq)
            for p, cp in self.terms.items()
            for q, cq in other.terms.items()
            if q.head == p.tail and len(p.arrows) + len(q.arrows) <= n
        )

    def component(self, head: int, tail: int) -> "JetPoly":
        """e_head . u . e_tail: the (tail, head)-bigraded part."""
        return JetPoly(
            self.space,
            {p: c for p, c in self.terms.items() if p.head == head and p.tail == tail},
        )

    def length_part(self, d: int) -> "JetPoly":
        return JetPoly(self.space, {p: c for p, c in self.terms.items() if p.length == d})

    def max_length(self) -> int | None:
        return max((p.length for p in self.terms), default=None)

    def sorted_terms(self) -> list[tuple[Path, object]]:
        return sorted(self.terms.items(), key=lambda t: (t[0].length, t[0].arrows, t[0].tail))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p, c in self.sorted_terms():
            bits.append(f"({c}) {p!r}")
        return " + ".join(bits)
