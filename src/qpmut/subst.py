"""Arrow substitutions: vertex-fixing ring morphisms between jet algebras.

A substitution sends every arrow of its source quiver, and no other, to a
parallel jet over its target quiver and extends multiplicatively: the image
of a path a1 a2 ... ad is the product of the images of its arrows, taken
left to right, a lazy path maps to itself, and the images of all terms are
summed at once, so no zero coefficient is stored.  It is invertible modulo
m^(N+1) exactly when its linear part is, blockwise over parallel-arrow
classes; the inverse is found by fixed-point iteration, which terminates
because every correction gains degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import mul

from .errors import ContextError, InvariantError, NotInvertibleError
from .fields import Field
from .jets import JetPoly, JetSpace
from .linalg import Mat
from .quiver import Arrow, Path, Quiver


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
        if len(self.images) != len(self.source.arrows):
            extra = sorted(set(self.images) - {a.id for a in self.source.arrows})
            raise InvariantError(f"images given for arrows not in the quiver: {extra!r}")

    @property
    def order(self) -> int:
        return self.target_space.order

    @property
    def field(self) -> Field:
        return self.target_space.field

    def is_identity(self) -> bool:
        space = self.target_space
        return self.source == space.quiver and all(
            self.images[a.id] == space.arrow(a.id) for a in self.source.arrows
        )


def identity_substitution(space: JetSpace) -> ArrowSubstitution:
    return ArrowSubstitution(
        space.quiver, space, {a.id: space.arrow(a.id) for a in space.quiver.arrows}
    )


def substitution_from_images(space: JetSpace, images: dict[str, JetPoly]) -> ArrowSubstitution:
    """Build a substitution over ``space`` sending unlisted arrows to
    themselves; an image for an arrow the quiver lacks is rejected."""
    full = {a.id: images[a.id] if a.id in images else space.arrow(a.id)
            for a in space.quiver.arrows}
    return ArrowSubstitution(space.quiver, space, full | images)


def apply_substitution(phi: ArrowSubstitution, u: JetPoly) -> JetPoly:
    """Multiplicative-linear extension of the arrow images, truncated at N."""
    if u.space.quiver != phi.source:
        raise ContextError("jet is not over the substitution's source quiver")
    if u.space.order != phi.order or u.space.field != phi.field:
        raise ContextError("jet and substitution disagree on order or field")
    space = phi.target_space

    def image(p: Path) -> JetPoly:
        if not p.arrows:
            return JetPoly(space, {p: space.field.one})
        return reduce(mul, (phi.images[aid] for aid in p.arrows))

    return space.sum_terms(
        (r, c * cr) for p, c in u.terms.items() for r, cr in image(p).terms.items()
    )


def linear_images(space: JetSpace, ids: list[str], m: Mat) -> dict[str, JetPoly]:
    """The images ``ids[j] -> sum_i m[i][j] ids[i]`` of a linear substitution
    on the span of the parallel arrows ``ids``."""
    terms: dict[str, dict[Path, object]] = {aid: {} for aid in ids}
    for j, i, x in m.T.nonzeros():
        a = space.quiver.arrow(ids[i])
        terms[ids[j]][Path((a.id,), a.tail, a.head)] = x
    return {aid: JetPoly(space, t) for aid, t in terms.items()}


def compose_substitutions(
    phi: ArrowSubstitution, psi: ArrowSubstitution
) -> ArrowSubstitution:
    """(phi o psi)(a) = phi(psi(a)); where psi fixes a, that is phi(a)."""
    if psi.target_space.quiver != phi.source:
        raise ContextError("substitutions do not compose")
    one = psi.field.one

    def image(a: Arrow) -> JetPoly:
        u = psi.images[a.id]
        if u.terms == {Path((a.id,), a.tail, a.head): one}:
            return phi.images[a.id]
        return apply_substitution(phi, u)

    images = {a.id: image(a) for a in psi.source.arrows}
    return ArrowSubstitution(psi.source, phi.target_space, images)


def _linear_part_blocks(phi: ArrowSubstitution):
    """Per parallel class, the matrix of length-1 coefficients of the images."""
    targets = phi.target_space.quiver.parallel_classes
    blocks = {}
    for key, ids in phi.source.parallel_classes.items():
        cols = targets.get(key, [])
        at = {aid: i for i, aid in enumerate(cols)}
        rows: list[dict] = [{} for _ in cols]
        for j, aid in enumerate(ids):
            for p, c in phi.images[aid].terms.items():
                if p.length == 1:
                    rows[at[p.arrows[0]]][j] = c
        blocks[key] = (ids, cols, Mat.from_rows(phi.field, rows, len(ids)))
    return blocks


def invert_substitution(phi: ArrowSubstitution) -> ArrowSubstitution:
    """Two-sided inverse modulo m^(N+1); NotInvertibleError if the linear
    part is singular."""
    if phi.source != phi.target_space.quiver:
        raise ContextError("only substitutions of a quiver into itself are inverted")
    space = phi.target_space

    # invert the linear part blockwise
    lin_inv_images: dict[str, JetPoly] = {}
    for key, (ids, cols, mat) in _linear_part_blocks(phi).items():
        if ids != cols:
            raise ContextError("source and target parallel classes differ")
        try:
            inv = mat.inverse()
        except NotInvertibleError:
            raise NotInvertibleError(f"singular linear part on class {key}") from None
        lin_inv_images |= linear_images(space, ids, inv)
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
