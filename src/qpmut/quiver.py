"""Quivers (finite loop-free directed multigraphs) and paths.

Paths compose like functions: in the word ``a1 a2 ... ad`` the rightmost
arrow acts first, so ``tail(p) = t(ad)`` and ``head(p) = h(a1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import CompositionError, InvariantError


@dataclass(frozen=True)
class Arrow:
    id: str
    tail: int
    head: int


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[int, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InvariantError("duplicate vertex ids")
        seen = set()
        vs = set(self.vertices)
        for a in self.arrows:
            if a.id in seen:
                raise InvariantError(f"duplicate arrow id {a.id!r}")
            seen.add(a.id)
            if a.tail == a.head:
                raise InvariantError(f"loop arrow {a.id!r} at vertex {a.tail}")
            if a.tail not in vs or a.head not in vs:
                raise InvariantError(f"arrow {a.id!r} has endpoint outside the vertex set")

    @cached_property
    def _by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    def arrow(self, aid: str) -> Arrow:
        try:
            return self._by_id[aid]
        except KeyError:
            raise InvariantError(f"unknown arrow id {aid!r}") from None

    def has_arrow(self, aid: str) -> bool:
        return aid in self._by_id

    def tail(self, aid: str) -> int:
        return self.arrow(aid).tail

    def head(self, aid: str) -> int:
        return self.arrow(aid).head

    def arrows_into(self, v: int) -> list[Arrow]:
        """Arrows with head v, sorted by id (the fixed block order)."""
        return sorted((a for a in self.arrows if a.head == v), key=lambda a: a.id)

    def arrows_out_of(self, v: int) -> list[Arrow]:
        """Arrows with tail v, sorted by id."""
        return sorted((a for a in self.arrows if a.tail == v), key=lambda a: a.id)

    def two_cycle_pairs(self) -> list[tuple[str, str]]:
        """All unordered 2-cycles, as sorted id pairs in lexicographic order."""
        pairs = []
        for a in self.arrows:
            for b in self.arrows:
                if a.id < b.id and a.head == b.tail and a.tail == b.head:
                    pairs.append((a.id, b.id))
        return sorted(pairs)

    def has_two_cycle_at(self, k: int) -> bool:
        return any(
            self.tail(u) == k or self.head(u) == k for u, _ in self.two_cycle_pairs()
        )

    def is_2_acyclic(self) -> bool:
        return not self.two_cycle_pairs()

    def without_arrows(self, ids: set[str]) -> "Quiver":
        return Quiver(self.vertices, tuple(a for a in self.arrows if a.id not in ids))

    def restricted_to_arrows(self, ids: set[str]) -> "Quiver":
        return Quiver(self.vertices, tuple(a for a in self.arrows if a.id in ids))

    def opposite(self) -> "Quiver":
        """Reverse every arrow, keeping ids."""
        return Quiver(self.vertices, tuple(Arrow(a.id, a.head, a.tail) for a in self.arrows))

    def renamed(self, mapping: dict[str, str]) -> "Quiver":
        """Apply an arrow-id renaming (ids not in the map are kept)."""
        return Quiver(
            self.vertices,
            tuple(Arrow(mapping.get(a.id, a.id), a.tail, a.head) for a in self.arrows),
        )

    @cached_property
    def parallel_classes(self) -> dict[tuple[int, int], list[str]]:
        """The sorted ids of the arrows t -> h, keyed by (t, h) in arrow
        order; shared, so not to be changed."""
        classes: dict[tuple[int, int], list[str]] = {}
        for a in self.arrows:
            classes.setdefault((a.tail, a.head), []).append(a.id)
        for ids in classes.values():
            ids.sort()
        return classes

    def arrow_counts(self) -> dict[tuple[int, int], int]:
        return {key: len(ids) for key, ids in self.parallel_classes.items()}


class Path:
    """A path in a quiver; ``arrows == ()`` is the lazy path at ``tail == head``."""

    __slots__ = ("arrows", "tail", "head", "_hash")

    def __init__(self, arrows: tuple[str, ...], tail: int, head: int):
        self.arrows = arrows
        self.tail = tail
        self.head = head
        self._hash = hash((arrows, tail, head))

    @property
    def length(self) -> int:
        return len(self.arrows)

    def is_cycle(self) -> bool:
        return len(self.arrows) > 0 and self.head == self.tail

    def __eq__(self, other):
        return (
            isinstance(other, Path)
            and other._hash == self._hash
            and other.arrows == self.arrows
            and other.tail == self.tail
            and other.head == self.head
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.arrows:
            return f"e_{self.tail}"
        return " ".join(self.arrows)


def lazy_path(v: int) -> Path:
    return Path((), v, v)


def path_from_arrows(quiver: Quiver, arrows: tuple[str, ...] | list[str]) -> Path:
    """Build a path from a word of arrow ids, checking composability."""
    word = tuple(arrows)
    if not word:
        raise CompositionError("empty word needs a resident vertex; use lazy_path")
    for i in range(len(word) - 1):
        if quiver.tail(word[i]) != quiver.head(word[i + 1]):
            raise CompositionError(
                f"arrows {word[i]!r} and {word[i+1]!r} do not compose"
            )
    return Path(word, quiver.tail(word[-1]), quiver.head(word[0]))


def compose_paths(p: Path, q: Path) -> Path:
    """Concatenation p.q (q acts first); requires head(q) = tail(p)."""
    if q.head != p.tail:
        raise CompositionError(
            f"cannot compose: head(q)={q.head} differs from tail(p)={p.tail}"
        )
    if not p.arrows:
        return q
    if not q.arrows:
        return p
    return Path(p.arrows + q.arrows, q.tail, p.head)


def canonical_rotation(quiver: Quiver, p: Path) -> Path:
    """The lexicographically minimal rotation of a cycle (by arrow-id word);
    the words are compared first, and a path is built only for a new one."""
    if not p.is_cycle():
        raise CompositionError("only cycles can be rotated")
    w = p.arrows
    best = min(w[r:] + w[:r] for r in range(len(w)))
    if best == w:
        return p
    return Path(best, quiver.tail(best[-1]), quiver.head(best[0]))
