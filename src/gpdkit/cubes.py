"""Cubes assembled from six squares, folding, and commutativity checks.

Faces are indexed by axis and sign: axis 1 is vertical (lid ``d1-`` on top,
base ``d1+`` underneath), axis 2 runs left to right, axis 3 front to back.
A face inherits its own square orientation from the two remaining axes in
increasing order, which pins down the twelve edge identifications below.

Folding flattens the five non-lid faces into a 3x3 grid around the base:
the front and back faces enter through the diagonal reflection, the right
face upside down, and the four corners are the thin squares forced by the
neighbouring edges (flipped connections).  A cube commutes when this fold
equals its lid.
"""

import random
from dataclasses import dataclass

from .dgt import DgtModel
from .errors import EdgeMismatch, PreconditionFailed
from .grids import Grid, grid_compose
from .squares import Square, boundary_word, comp_h, comp_v, inv_h, inv_v, thin_square, transpose

FACE_SLOTS = ("d1-", "d1+", "d2-", "d2+", "d3-", "d3+")

# The twelve shared edges: ((slot, edge attribute), (slot, edge attribute)).
EDGE_SEAMS = (
    (("d2-", "left"), ("d3-", "left")),
    (("d2-", "right"), ("d3+", "left")),
    (("d2+", "left"), ("d3-", "right")),
    (("d2+", "right"), ("d3+", "right")),
    (("d1-", "left"), ("d3-", "top")),
    (("d1-", "right"), ("d3+", "top")),
    (("d1+", "left"), ("d3-", "bottom")),
    (("d1+", "right"), ("d3+", "bottom")),
    (("d1-", "top"), ("d2-", "top")),
    (("d1-", "bottom"), ("d2+", "top")),
    (("d1+", "top"), ("d2-", "bottom")),
    (("d1+", "bottom"), ("d2+", "bottom")),
)


@dataclass(frozen=True, eq=False)
class Cube:
    faces: dict[str, Square]

    def __post_init__(self):
        missing = [s for s in FACE_SLOTS if s not in self.faces]
        if missing:
            raise EdgeMismatch(f"cube is missing faces {missing}")
        xm = self.faces["d1-"].xm
        for slot in FACE_SLOTS:
            if self.faces[slot].xm is not xm:
                raise EdgeMismatch(f"face {slot} lives over a different crossed module")
        for (sa, ea), (sb, eb) in EDGE_SEAMS:
            va = getattr(self.faces[sa], ea)
            vb = getattr(self.faces[sb], eb)
            if va != vb:
                raise EdgeMismatch(
                    f"seam {sa}.{ea} = {va} does not match {sb}.{eb} = {vb}"
                )

    def face(self, slot: str) -> Square:
        return self.faces[slot]

    def __eq__(self, other):
        if not isinstance(other, Cube):
            return NotImplemented
        return all(self.faces[s] == other.faces[s] for s in FACE_SLOTS)

    def __hash__(self):
        return hash(tuple(self.faces[s].key() for s in FACE_SLOTS))


def make_cube(lid, base, left, right, front, back) -> Cube:
    return Cube(
        {
            "d1-": lid,
            "d1+": base,
            "d2-": left,
            "d2+": right,
            "d3-": front,
            "d3+": back,
        }
    )


def fold_layout(front: Square, back: Square, left: Square, right: Square,
                base: Square) -> Grid:
    """The 3x3 fold of the five non-lid faces around the base.

    Corner cells are the unique thin squares on the edges forced by their
    arm neighbours (outer edges identities); construction fails loudly if a
    corner boundary does not commute.
    """
    xm = base.xm
    P = xm.base
    l_cell = transpose(front)
    r_cell = inv_h(transpose(back))
    u_cell = left
    d_cell = inv_v(right)

    def ident(obj):
        return P.id_at(obj)

    c00 = thin_square(
        xm,
        ident(P.src[u_cell.left]),
        u_cell.left,
        l_cell.top,
        ident(P.src[l_cell.top]),
    )
    c02 = thin_square(
        xm,
        ident(P.src[u_cell.right]),
        ident(P.src[u_cell.right]),
        r_cell.top,
        u_cell.right,
    )
    c20 = thin_square(
        xm,
        l_cell.bottom,
        d_cell.left,
        ident(P.dst[d_cell.left]),
        ident(P.src[l_cell.bottom]),
    )
    c22 = thin_square(
        xm,
        r_cell.bottom,
        ident(P.dst[r_cell.bottom]),
        ident(P.dst[d_cell.right]),
        d_cell.right,
    )
    return Grid(
        (
            (c00, u_cell, c02),
            (l_cell, base, r_cell),
            (c20, d_cell, c22),
        )
    )


def fold_five_faces(c: Cube) -> Square:
    """Compose the five non-lid faces into a single square."""
    return grid_compose(
        fold_layout(c.face("d3-"), c.face("d3+"), c.face("d2-"), c.face("d2+"), c.face("d1+"))
    )


def is_commutative_cube(c: Cube) -> bool:
    return fold_five_faces(c) == c.face("d1-")


def commutativity_oracle(c: Cube) -> bool:
    """Scalar commutativity test over a one-object base.

    Evaluates a conjugated product of the six faces' boundary words directly
    in the base group, with no square pasting involved.  Agrees with
    ``is_commutative_cube`` whenever square fillers are unique (injective
    boundaries), and in particular on commuting-square models.
    """
    xm = c.face("d1-").xm
    P = xm.base
    if len(P.objects) != 1:
        raise PreconditionFailed("the scalar oracle needs a one-object base")

    def conj(x, p):
        return P.compose_all([P.inv(p), x, p])

    w = {slot: boundary_word(xm, f.top, f.right, f.bottom, f.left) for slot, f in c.faces.items()}
    a_r = c.face("d2-").right
    b_r = c.face("d2+").right
    s_b = c.face("d1+").bottom
    c_top = c.face("d3+").top
    product = P.compose_all(
        [
            conj(P.inv(w["d2+"]), P.inv(b_r)),
            conj(P.inv(w["d3-"]), P.compose(s_b, P.inv(b_r))),
            conj(w["d1+"], P.inv(b_r)),
            conj(w["d3+"], P.inv(b_r)),
            conj(w["d2-"], P.compose(P.inv(a_r), c_top)),
        ]
    )
    return product == w["d1-"]


# -- cube composition -----------------------------------------------------------

def compose_cubes(c1: Cube, c2: Cube, direction: int) -> Cube:
    """Glue two cubes along the shared face in direction 1, 2 or 3."""
    if direction == 1:
        if c1.face("d1+") != c2.face("d1-"):
            raise EdgeMismatch("direction-1 pasting needs base(c1) = lid(c2)")
        return make_cube(
            c1.face("d1-"),
            c2.face("d1+"),
            comp_v(c1.face("d2-"), c2.face("d2-")),
            comp_v(c1.face("d2+"), c2.face("d2+")),
            comp_v(c1.face("d3-"), c2.face("d3-")),
            comp_v(c1.face("d3+"), c2.face("d3+")),
        )
    if direction == 2:
        if c1.face("d2+") != c2.face("d2-"):
            raise EdgeMismatch("direction-2 pasting needs right(c1) = left(c2)")
        return make_cube(
            comp_v(c1.face("d1-"), c2.face("d1-")),
            comp_v(c1.face("d1+"), c2.face("d1+")),
            c1.face("d2-"),
            c2.face("d2+"),
            comp_h(c1.face("d3-"), c2.face("d3-")),
            comp_h(c1.face("d3+"), c2.face("d3+")),
        )
    if direction == 3:
        if c1.face("d3+") != c2.face("d3-"):
            raise EdgeMismatch("direction-3 pasting needs back(c1) = front(c2)")
        return make_cube(
            comp_h(c1.face("d1-"), c2.face("d1-")),
            comp_h(c1.face("d1+"), c2.face("d1+")),
            comp_h(c1.face("d2-"), c2.face("d2-")),
            comp_h(c1.face("d2+"), c2.face("d2+")),
            c1.face("d3-"),
            c2.face("d3+"),
        )
    raise PreconditionFailed(f"direction must be 1, 2 or 3, got {direction}")


# -- enumeration and sampling -----------------------------------------------------

def _pick(rng: random.Random, options: list[Square]) -> Square:
    if not options:
        raise PreconditionFailed("no square matches the edge constraints")
    return options[rng.randrange(len(options))]


def enumerate_cubes(model: DgtModel):
    """Every cube over the model, in canonical order (small models only)."""
    for front in model.squares:
        for left in model.squares_with(left=front.left):
            for base in model.squares_with(top=left.bottom, left=front.bottom):
                for right in model.squares_with(left=front.right, bottom=base.bottom):
                    for back in model.squares_with(
                        left=left.right, bottom=base.right, right=right.right
                    ):
                        for lid in model.squares_with(
                            top=left.top, left=front.top,
                            bottom=right.top, right=back.top,
                        ):
                            yield make_cube(lid, base, left, right, front, back)


def random_commutative_cube(model: DgtModel, rng: random.Random,
                            fixed: tuple[str, Square] | None = None) -> Cube:
    """Sample a commutative cube; optionally pin one face.

    ``fixed`` may pin the front (d3-), the left face (d2-), or the base
    (d1+); the lid is always the fold of the rest, so the result commutes by
    construction.
    """
    slot = fixed[0] if fixed else None
    if fixed and slot not in ("d3-", "d2-", "d1+"):
        raise PreconditionFailed(f"cannot pin face {slot!r} while sampling")
    if slot == "d1+":
        base = fixed[1]
        front = _pick(rng, model.squares_with(bottom=base.left))
        left = _pick(rng, model.squares_with(left=front.left, bottom=base.top))
        right = _pick(rng, model.squares_with(left=front.right, bottom=base.bottom))
        back = _pick(
            rng,
            model.squares_with(left=left.right, right=right.right, bottom=base.right),
        )
    else:
        if slot == "d3-":
            front = fixed[1]
            left = _pick(rng, model.squares_with(left=front.left))
        elif slot == "d2-":
            left = fixed[1]
            front = _pick(rng, model.squares_with(left=left.left))
        else:
            front = model.random_square(rng)
            left = _pick(rng, model.squares_with(left=front.left))
        base = _pick(rng, model.squares_with(top=left.bottom, left=front.bottom))
        right = _pick(rng, model.squares_with(left=front.right, bottom=base.bottom))
        back = _pick(
            rng,
            model.squares_with(left=left.right, bottom=base.right, right=right.right),
        )
    lid = grid_compose(fold_layout(front, back, left, right, base))
    if lid not in model:
        raise PreconditionFailed("fold escaped the model; sampling bug")
    return make_cube(lid, base, left, right, front, back)


def random_cube(model: DgtModel, rng: random.Random) -> Cube:
    """Sample any cube: a commutative one with the lid filler re-rolled."""
    cube = random_commutative_cube(model, rng)
    lid = cube.face("d1-")
    options = model.squares_with(
        top=lid.top, right=lid.right, bottom=lid.bottom, left=lid.left
    )
    return make_cube(
        _pick(rng, options),
        cube.face("d1+"),
        cube.face("d2-"),
        cube.face("d2+"),
        cube.face("d3-"),
        cube.face("d3+"),
    )
