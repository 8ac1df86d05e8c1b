"""Arrow substitutions: vertex-fixing ring morphisms between jet algebras.

A substitution sends every arrow of its source quiver to a parallel jet over
its target quiver and extends multiplicatively.  It is invertible modulo
m^(N+1) exactly when its linear part is, blockwise over parallel-arrow
classes; the inverse is found by fixed-point iteration, which terminates
because every correction gains degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContextError, InvariantError, NotInvertibleError
from .fields import Field
from .jets import JetPoly, JetSpace
from .linalg import Mat
from .quiver import Path, Quiver


@dataclass(frozen=True)
class ArrowSubstitution:
    source: Quiver
    target_space: JetSpace
    images: dict[str, JetPoly]  # arrow id of source -> jet over target

    def __post_init__(self):
        if set(self.source.vertices) != set(self.target_space.quiver.vertices):
            raise ContextError("substitution must fix the vertex set")
        for a in self.source.arrows:
            u = self.images.get(a.id)
            if u is None:
                raise InvariantError(f"no image for arrow {a.id!r}")
            if u.space != self.target_space:
                raise ContextError("image jet in the wrong space")
            for p in u.terms:
                if p.tail != a.tail or p.head != a.head or p.length == 0:
                    raise InvariantError(
                        f"image of {a.id!r} contains a non-parallel term {p!r}"
                    )

    @property
    def order(self) -> int:
        return self.target_space.order

    @property
    def field(self) -> Field:
        return self.target_space.field

    def is_identity(self) -> bool:
        return self.source == self.target_space.quiver and not _touched_arrows(self)


def identity_substitution(space: JetSpace) -> ArrowSubstitution:
    return ArrowSubstitution(
        space.quiver, space, {a.id: space.arrow(a.id) for a in space.quiver.arrows}
    )


def substitution_from_images(space: JetSpace, images: dict[str, JetPoly]) -> ArrowSubstitution:
    """Build a substitution over ``space`` sending unlisted arrows to themselves."""
    full = {a.id: images.get(a.id, space.arrow(a.id)) for a in space.quiver.arrows}
    return ArrowSubstitution(space.quiver, space, full)


def _touched_arrows(phi: ArrowSubstitution) -> set[str]:
    """Arrows whose image is not literally themselves."""
    touched = set()
    same_quiver = phi.source == phi.target_space.quiver
    for a in phi.source.arrows:
        img = phi.images[a.id]
        if same_quiver and len(img.terms) == 1:
            ((p, c),) = img.terms.items()
            if p.arrows == (a.id,) and c == phi.field.one:
                continue
        touched.add(a.id)
    return touched


def apply_substitution(phi: ArrowSubstitution, u: JetPoly) -> JetPoly:
    """Multiplicative-linear extension of the arrow images, truncated at N."""
    if u.space.quiver != phi.source:
        raise ContextError("jet is not over the substitution's source quiver")
    if u.space.order != phi.order or u.space.field != phi.field:
        raise ContextError("jet and substitution disagree on order or field")
    space = phi.target_space
    touched = _touched_arrows(phi)
    q = phi.source
    passthrough: dict[Path, object] = {}
    out = space.zero()
    for p, c in u.terms.items():
        if not (set(p.arrows) & touched):
            # identity on every arrow of this term: copy it over verbatim
            passthrough[Path(p.arrows, p.tail, p.head)] = (
                passthrough.get(Path(p.arrows, p.tail, p.head), space.field.zero) + c
            )
            continue
        # split the word into untouched runs (single paths) and images
        factors: list[JetPoly] = []
        run: list[str] = []

        def flush_run():
            if run:
                word = tuple(run)
                factors.append(
                    JetPoly(
                        space,
                        {Path(word, q.tail(word[-1]), q.head(word[0])): space.field.one},
                    )
                )
                run.clear()

        for aid in p.arrows:
            if aid in touched:
                flush_run()
                factors.append(phi.images[aid])
            else:
                run.append(aid)
        flush_run()
        acc = factors[0]
        for f in factors[1:]:
            if acc.is_zero():
                break
            acc = acc * f
        out = out + acc.scale(c)
    return out + JetPoly(space, {p: c for p, c in passthrough.items() if c})


def compose_substitutions(
    phi: ArrowSubstitution, psi: ArrowSubstitution
) -> ArrowSubstitution:
    """(phi o psi)(a) = phi(psi(a))."""
    if psi.target_space.quiver != phi.source:
        raise ContextError("substitutions do not compose")
    images = {a.id: apply_substitution(phi, psi.images[a.id]) for a in psi.source.arrows}
    return ArrowSubstitution(psi.source, phi.target_space, images)


def _parallel_classes(q: Quiver) -> dict[tuple[int, int], list[str]]:
    classes: dict[tuple[int, int], list[str]] = {}
    for a in q.arrows:
        classes.setdefault((a.tail, a.head), []).append(a.id)
    for ids in classes.values():
        ids.sort()
    return classes


def _linear_part_blocks(phi: ArrowSubstitution):
    """Per parallel class, the matrix of length-1 coefficients of the images."""
    q = phi.source
    blocks = {}
    for key, ids in _parallel_classes(q).items():
        n = len(ids)
        col_index = {}
        for b in phi.target_space.quiver.arrows:
            if (b.tail, b.head) == key:
                col_index[b.id] = None
        cols = sorted(col_index)
        mat = [[phi.field.zero for _ in ids] for _ in cols]
        for j, aid in enumerate(ids):
            for p, c in phi.images[aid].terms.items():
                if p.length == 1:
                    i = cols.index(p.arrows[0])
                    mat[i][j] = mat[i][j] + c
        blocks[key] = (ids, cols, mat)
    return blocks


def invert_substitution(phi: ArrowSubstitution) -> ArrowSubstitution:
    """Two-sided inverse modulo m^(N+1); NotInvertibleError if the linear
    part is singular."""
    if phi.source != phi.target_space.quiver:
        raise ContextError("only substitutions of a quiver into itself are inverted")
    space = phi.target_space
    field = phi.field

    # invert the linear part blockwise
    lin_inv_images: dict[str, JetPoly] = {}
    for key, (ids, cols, mat) in _linear_part_blocks(phi).items():
        if ids != cols:
            raise ContextError("source and target parallel classes differ")
        try:
            inv = Mat(field, mat).inverse()
        except NotInvertibleError:
            raise NotInvertibleError(f"singular linear part on class {key}") from None
        for j, aid in enumerate(ids):
            img = space.zero()
            for i, bid in enumerate(ids):
                img = img + space.arrow(bid).scale(inv.entry(i, j))
            lin_inv_images[aid] = img
    lin_inv = substitution_from_images(space, lin_inv_images)

    # phi1 = lin_inv o phi is unitriangular: a + (degree >= 2)
    phi1 = compose_substitutions(lin_inv, phi)
    corrections = {}
    for a in space.quiver.arrows:
        w = phi1.images[a.id] - space.arrow(a.id)
        if any(p.length < 2 for p in w.terms):
            raise NotInvertibleError("linear part did not cancel; inversion failed")
        corrections[a.id] = w

    # fixed point: psi(a) = a - psi(w_a), converges in <= N steps
    psi = identity_substitution(space)
    for _ in range(space.order + 1):
        new_images = {
            a.id: space.arrow(a.id) - apply_substitution(psi, corrections[a.id])
            for a in space.quiver.arrows
        }
        nxt = ArrowSubstitution(space.quiver, space, new_images)
        if nxt.images == psi.images:
            break
        psi = nxt

    return compose_substitutions(psi, lin_inv)
