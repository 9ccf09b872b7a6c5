"""Cubes assembled from six squares, folding, and commutativity checks.

Faces are indexed by axis and sign: axis 1 is vertical (lid ``d1-`` on top,
base ``d1+`` underneath), axis 2 runs left to right, axis 3 front to back.
A face inherits its own square orientation from the two remaining axes in
increasing order, the first running top to bottom and the second left to
right.  That rule and the twelve edge identifications in ``EDGE_SEAMS`` are
the cube's whole geometry: enumeration, sampling and pasting derive from them.

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
    return Cube(dict(zip(FACE_SLOTS, (lid, base, left, right, front, back))))


def _cube(faces: dict[str, Square]) -> Cube:
    return Cube({slot: faces[slot] for slot in FACE_SLOTS})


def fold_layout(faces: dict[str, Square]) -> Grid:
    """The 3x3 fold of the five non-lid faces around the base, read by slot.

    Corner cells are the unique thin squares on the edges forced by their
    arm neighbours (outer edges identities); construction fails loudly if a
    corner boundary does not commute.
    """
    base = faces["d1+"]
    xm = base.xm
    P = xm.base
    l_cell = transpose(faces["d3-"])
    r_cell = inv_h(transpose(faces["d3+"]))
    u_cell = faces["d2-"]
    d_cell = inv_v(faces["d2+"])

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
    return grid_compose(fold_layout(c.faces))


def is_commutative_cube(c: Cube) -> bool:
    return fold_five_faces(c) == c.face("d1-")


def commutativity_oracle(c: Cube) -> bool:
    """Scalar commutativity test over a one-object base with injective boundary.

    Evaluates a conjugated product of the six faces' boundary words directly
    in the base group, with no square pasting involved.  It reads no filler,
    so it agrees with ``is_commutative_cube`` only where fillers are unique;
    both preconditions (one object, injective ``mu``) raise
    ``PreconditionFailed`` when they fail.
    """
    xm = c.face("d1-").xm
    P = xm.base
    if len(P.objects) != 1:
        raise PreconditionFailed("the scalar oracle needs a one-object base")
    mu = xm.mu[P.objects[0]]
    if len(set(mu.values())) != len(mu):
        raise PreconditionFailed("the scalar oracle needs an injective boundary")

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
    """Glue two cubes along the shared face in direction 1, 2 or 3.

    The axis-d faces come from c1 (d-) and c2 (d+); every other face pastes
    vertically when d is the first of its two remaining axes, else horizontally.
    """
    if direction not in (1, 2, 3):
        raise PreconditionFailed(f"direction must be 1, 2 or 3, got {direction}")
    minus, plus = f"d{direction}-", f"d{direction}+"
    if c1.face(plus) != c2.face(minus):
        raise EdgeMismatch(f"direction-{direction} pasting needs {plus}(c1) = {minus}(c2)")
    faces = {minus: c1.face(minus), plus: c2.face(plus)}
    for slot in FACE_SLOTS:
        if slot not in faces:
            first = 2 if slot[1] == "1" else 1  # the first of the face's remaining axes
            paste = comp_v if direction == first else comp_h
            faces[slot] = paste(c1.face(slot), c2.face(slot))
    return _cube(faces)


# -- enumeration and sampling -----------------------------------------------------

# slot -> its four seams, each as (edge, other slot, other edge)
_SEAMS_AT = {
    slot: [(e, o, oe) for seam in EDGE_SEAMS for (s, e), (o, oe) in (seam, seam[::-1]) if s == slot]
    for slot in FACE_SLOTS
}
# every face but the lid, in drawing order; the lid is drawn last or folded
_DRAW_ORDER = ("d3-", "d2-", "d1+", "d2+", "d3+")


def _forced(model: DgtModel, slot: str, placed: dict[str, Square]) -> list[Square]:
    """The squares that fit ``slot`` along its seams with the faces placed so far."""
    return model.squares_with(
        **{edge: getattr(placed[other], o_edge)
           for edge, other, o_edge in _SEAMS_AT[slot] if other in placed}
    )


def _pick(rng: random.Random, options: list[Square]) -> Square:
    if not options:
        raise PreconditionFailed("no square matches the edge constraints")
    return options[rng.randrange(len(options))]


def enumerate_cubes(model: DgtModel):
    """Every cube over the model, in canonical order (small models only)."""
    def fill(placed, slot, *rest):
        for sq in _forced(model, slot, placed):
            faces = {**placed, slot: sq}
            if rest:
                yield from fill(faces, *rest)
            else:
                yield _cube(faces)

    return fill({}, *_DRAW_ORDER, "d1-")


def random_commutative_cube(model: DgtModel, rng: random.Random,
                            fixed: tuple[str, Square] | None = None) -> Cube:
    """Sample a commutative cube; optionally pin one face.

    ``fixed`` may pin the front (d3-), the left face (d2-), or the base
    (d1+); the lid is always the fold of the rest, so the result commutes by
    construction.
    """
    faces = dict([fixed]) if fixed else {}
    if faces.keys() - {"d3-", "d2-", "d1+"}:
        raise PreconditionFailed(f"cannot pin face {fixed[0]!r} while sampling")
    for slot in _DRAW_ORDER:
        if slot not in faces:
            faces[slot] = _pick(rng, _forced(model, slot, faces))
    faces["d1-"] = grid_compose(fold_layout(faces))
    if faces["d1-"] not in model:
        raise PreconditionFailed("fold escaped the model; sampling bug")
    return _cube(faces)


def random_cube(model: DgtModel, rng: random.Random) -> Cube:
    """Sample any cube: a commutative one with the lid filler re-rolled."""
    faces = dict(random_commutative_cube(model, rng).faces)
    faces["d1-"] = _pick(rng, _forced(model, "d1-", faces))
    return _cube(faces)
