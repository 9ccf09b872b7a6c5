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

``CubeKernel`` does all of this on square indices: a cube is a row of six
indices in ``FACE_SLOTS`` order, folded and pasted with the model's tables
``H``/``V`` and index maps (``DgtModel.maps``: reflections, inverses, thin
corners), and enumerated and sampled through the model's square groups
keyed by the seam edges (``_SEAMS``); it builds no index of its own.
Sampling (``CubeKernel.fill``) is the cube layout of ``DgtModel.fill``, the
model's one seeded draw: a batch of cubes drawn one face slot at a time; a
pinned draw and a re-rolled lid are the same draw with some faces given.
``enumerate_cubes``, ``random_commutative_cube`` and ``random_cube`` wrap its
rows in ``Cube`` objects.  ``Cube``, ``fold_five_faces`` and
``compose_cubes`` stay object-level: they serve single cubes read from a
workspace and are the references the kernel is tested against, the fold also
for the scalar oracle, one product over square indices that reads no filler.
"""

import random
from dataclasses import dataclass
from functools import cached_property, partial, reduce

from .crossed import EncodedXmod, sweep_crossed_module
from .dgt import _EDGES, DgtModel, _Groups
from .errors import EdgeMismatch, PreconditionFailed
from .grids import Grid, _fixed_plan, _fold, grid_compose, rows_first_cut
from .squares import Square, comp_h, comp_v, inv_h, inv_v, thin_square, transpose

# Imported after .dgt, which imports numpy itself: importing numpy ahead of
# .dgt's other imports raised the peak RSS of a whole vk session by 0.9 MB.
import numpy as np

FACE_SLOTS = ("d1-", "d1+", "d2-", "d2+", "d3-", "d3+")
_SLOT = {slot: k for k, slot in enumerate(FACE_SLOTS)}

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


def make_cube(lid, base, left, right, front, back) -> Cube:
    return Cube(dict(zip(FACE_SLOTS, (lid, base, left, right, front, back))))


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


def _oracle_preconditions(x: EncodedXmod):
    if len(x.fibers) != 1:
        raise PreconditionFailed("the scalar oracle needs a one-object base")
    if len(set(x.mu[0])) != len(x.mu[0]):
        raise PreconditionFailed("the scalar oracle needs an injective boundary")


def _oracle(comp: np.ndarray, inv: np.ndarray, edges, rows) -> np.ndarray:
    """The scalar oracle on ``rows`` of six square indices whose seams agree,
    where ``edges`` holds the squares' top, right, bottom and left arrows as
    four arrays: a conjugated product of the six faces' boundary words, taken
    in the base group off ``comp``, never ``H``/``V``."""
    T, R, B, L = edges

    def mul(*xs):  # one object: every composite is defined
        return reduce(lambda x, y: comp[x, y], xs)

    def conj(x, p):
        return mul(inv[p], x, p)

    word = mul(inv[B], inv[L], T, R)
    w = {slot: word[rows[..., k]] for k, slot in enumerate(FACE_SLOTS)}
    a_r = R[rows[..., _SLOT["d2-"]]]
    b_r = R[rows[..., _SLOT["d2+"]]]
    s_b = B[rows[..., _SLOT["d1+"]]]
    c_top = T[rows[..., _SLOT["d3+"]]]
    product = mul(
        conj(inv[w["d2+"]], inv[b_r]),
        conj(inv[w["d3-"]], mul(s_b, inv[b_r])),
        conj(w["d1+"], inv[b_r]),
        conj(w["d3+"], inv[b_r]),
        conj(w["d2-"], mul(inv[a_r], c_top)),
    )
    return product == w["d1-"]


def commutativity_oracle(c: Cube) -> bool:
    """Scalar commutativity test over a one-object base with injective boundary.

    ``_oracle`` on the cube's own six faces in the module's encoding, with
    no square pasting involved.  It reads no filler, so it agrees with
    ``is_commutative_cube`` only where fillers are unique; an invalid module
    and both preconditions (one object, injective ``mu``) raise
    ``PreconditionFailed``.
    """
    xm = c.face("d1-").xm
    x = sweep_crossed_module(xm)[1]
    if x is None:
        raise PreconditionFailed(f"the scalar oracle needs a valid crossed module, not {xm.name}")
    _oracle_preconditions(x)
    P = x.base
    edges = [[P.index[getattr(c.face(slot), e)] for slot in FACE_SLOTS] for e in _EDGES]
    return bool(_oracle(np.array(P.rows), np.array(P.inv), np.array(edges), np.arange(6)))


# -- cube composition -----------------------------------------------------------

def _axis(direction: int) -> tuple[str, str]:
    """The d- and d+ slots of a pasting direction, which must be 1, 2 or 3."""
    if direction not in (1, 2, 3):
        raise PreconditionFailed(f"direction must be 1, 2 or 3, got {direction}")
    return f"d{direction}-", f"d{direction}+"


def _pastes_vertically(slot: str, direction: int) -> bool:
    """Whether the ``slot`` faces of two cubes glued in ``direction`` paste
    vertically: when direction is the first of the face's remaining axes."""
    return direction == (2 if slot[1] == "1" else 1)


def compose_cubes(c1: Cube, c2: Cube, direction: int) -> Cube:
    """Glue two cubes along the shared face in direction 1, 2 or 3.

    The axis-d faces come from c1 (d-) and c2 (d+); every other face pastes
    vertically when d is the first of its two remaining axes, else horizontally.
    """
    minus, plus = _axis(direction)
    if c1.face(plus) != c2.face(minus):
        raise EdgeMismatch(f"direction-{direction} pasting needs {plus}(c1) = {minus}(c2)")
    faces = {minus: c1.face(minus), plus: c2.face(plus)}
    for slot in FACE_SLOTS:
        if slot not in faces:
            paste = comp_v if _pastes_vertically(slot, direction) else comp_h
            faces[slot] = paste(c1.face(slot), c2.face(slot))
    return Cube({slot: faces[slot] for slot in FACE_SLOTS})


# -- the cube kernel ----------------------------------------------------------------

# per slot position, its seams as (edge, other position, other edge) by edge name
_SEAMS = [sorted((e, _SLOT[o], oe) for seam in EDGE_SEAMS for (s, e), (o, oe) in (seam, seam[::-1])
                 if s == slot) for slot in FACE_SLOTS]
# every non-lid face's position, in drawing order; the lid is drawn last or folded
_DRAW_ORDER = tuple(_SLOT[slot] for slot in ("d3-", "d2-", "d1+", "d2+", "d3+"))
# grid_compose's bracketing of fold_layout's 3x3 grid
_FOLD_PLAN = _fixed_plan(3, 3, rows_first_cut)
# what a fold lacks where an index of its layout is -1: l, r, d, then corners
_NEEDS = ("transpose", "transpose or horizontal inverse", "vertical inverse") + ("thin corner",) * 4


def _undefined(idx) -> bool:
    """Whether an index, or any index of an array, is -1."""
    return bool((idx < 0).any()) if idx.ndim else idx < 0


def _paste(how: str, table: np.ndarray, x, y):
    """``table[x, y]``; EdgeMismatch where the ``how`` pasting is undefined (-1)."""
    z = table[x, y]
    if (z < 0).any() if z.ndim else z < 0:  # _undefined, inlined: folds paste often
        raise EdgeMismatch(f"{how} pasting of squares whose shared edge differs")
    return z


class CubeKernel:
    """Cubes over one model as rows of six square indices in ``FACE_SLOTS`` order.

    An index never reads -1: an undefined pasting raises EdgeMismatch, and a
    transpose, inverse or thin corner the model lacks raises
    PreconditionFailed.  ``seams`` checks a whole batch of cubes at once;
    ``fold``, ``compose`` and ``oracle`` check their input with it.  The
    tables, index maps and groupings it reads are its model's own, and
    ``enumerate`` and ``fill`` go face by face over the seams of ``_SEAMS``.
    """

    def __init__(self, model: DgtModel):
        self.model = model
        self.code = model.code()
        self.maps = model.maps()

    def seams(self, cubes) -> np.ndarray:
        """The cubes as an int array, once every seam of every cube agrees.

        Raises PreconditionFailed unless each cube is six square indices,
        and EdgeMismatch for the first seam in ``EDGE_SEAMS`` order that a
        cube breaks, naming the first such cube's arrows as ``Cube`` does.
        """
        rows = np.asarray(cubes)
        n = len(self.model.squares)
        if (rows.shape[-1:] != (6,) or rows.dtype.kind not in "iu"
                or ((rows < 0) | (rows >= n)).any()):
            raise PreconditionFailed(f"a cube over {self.model.name} is six square indices below {n}")
        for (sa, ea), (sb, eb) in EDGE_SEAMS:
            va = self.code.edge[ea][rows[..., _SLOT[sa]]].ravel()
            vb = self.code.edge[eb][rows[..., _SLOT[sb]]].ravel()
            if (va != vb).any():
                i = np.argmax(va != vb)
                a, b = self.code.names[va[i]], self.code.names[vb[i]]
                raise EdgeMismatch(f"seam {sa}.{ea} = {a} does not match {sb}.{eb} = {b}")
        return rows

    def fold(self, cubes) -> np.ndarray:
        """``fold_five_faces`` of each cube, as a square index."""
        rows = self.seams(cubes)
        return self._fold({slot: rows[..., k] for k, slot in enumerate(FACE_SLOTS)})

    def _fold(self, f: dict):
        """fold_layout and grid_compose on indices; the seams must agree.

        ``f`` maps each non-lid slot to an index or an index array.
        """
        m = self.maps
        u, base = f["d2-"], f["d1+"]
        l, r, d = m.transpose[f["d3-"]], m.flip[f["d3+"]], m.inv_v[f["d2+"]]
        # a corner keyed by a -1 reads a wrapped index, but the -1 fails first
        k00, k02, k20, k22 = m.fold_corners
        c00, c02, c20, c22 = k00[u], k02[u], k20[l], k22[d]
        if _undefined(l | r | d | c00 | c02 | c20 | c22):  # negative iff one is -1
            what = next(what for idx, what in zip((l, r, d, c00, c02, c20, c22), _NEEDS)
                        if _undefined(idx))
            raise PreconditionFailed(f"{self.model.name} has no {what} a fold needs")
        return _fold(_FOLD_PLAN, ((c00, u, c02), (l, base, r), (c20, d, c22)), *self._pastes)

    @cached_property
    def _pastes(self):
        """Horizontal and vertical ``_paste`` in the model's tables."""
        t = self.model.tables()
        return partial(_paste, "horizontal", t.H), partial(_paste, "vertical", t.V)

    def compose(self, c1, c2, direction: int) -> np.ndarray:
        """``compose_cubes`` on paired rows of two batches of cubes."""
        minus, plus = _axis(direction)
        c1, c2 = self.seams(c1), self.seams(c2)
        if (c1[..., _SLOT[plus]] != c2[..., _SLOT[minus]]).any():
            raise EdgeMismatch(f"direction-{direction} pasting needs {plus}(c1) = {minus}(c2)")
        h, v = self._pastes
        out = np.empty_like(c1)
        for k, slot in enumerate(FACE_SLOTS):
            if slot == minus:
                out[..., k] = c1[..., k]
            elif slot == plus:
                out[..., k] = c2[..., k]
            else:
                out[..., k] = (v if _pastes_vertically(slot, direction) else h)(c1[..., k], c2[..., k])
        return out

    def pairs(self, cubes, direction: int) -> tuple[np.ndarray, np.ndarray]:
        """Every (i, j) whose cubes paste in ``direction``, i then j ascending."""
        minus, plus = (_SLOT[slot] for slot in _axis(direction))
        rows = self.seams(cubes)
        by_minus = _Groups(len(self.model.squares), len(rows), [rows[:, minus]])
        return by_minus.extend((np.arange(len(rows)),), [rows[:, plus]])

    def oracle(self, cubes) -> np.ndarray:
        """``commutativity_oracle`` of each cube, with the same preconditions."""
        _oracle_preconditions(self.model.encoded)
        c = self.code
        return _oracle(c.comp, c.inv, (c.T, c.R, c.B, c.L), self.seams(cubes))

    def enumerate(self) -> np.ndarray:
        """Every cube over the model in canonical order: faces in draw order,
        then the lid, each running over its fitting squares in model order.
        SizeLimit once a step's tuples would pass MAX_TABLE_BYTES."""
        faces = {}
        for p in (*_DRAW_ORDER, 0):
            fit = [(e, self.code.edge[oe][faces[o]]) for e, o, oe in _SEAMS[p] if o in faces]
            g = self.model.groups(*(e for e, _ in fit))
            faces = dict(zip((*faces, p), g.extend(tuple(faces.values()), [col for _, col in fit])))
        return np.stack([faces[p] for p in range(6)], axis=-1)

    def fill(self, rng: random.Random, rows: np.ndarray, given: tuple = ()) -> np.ndarray:
        """Complete each row of ``rows``, an (n, 6) int array whose ``given``
        non-lid faces are set, to a cube, in place: ``DgtModel.fill`` on ``_SEAMS``
        draws the other non-lid faces in draw order, each uniform over the
        squares whose seams fit its row's faces placed before it, and the lid
        is folded; with all five non-lid faces given, the lid is drawn
        instead."""
        at = [_SLOT[slot] for slot in given]
        if ((rows[:, at] < 0) | (rows[:, at] >= len(self.model.squares))).any():
            raise PreconditionFailed(f"a given face is not a square of {self.model.name}")
        order = [p for p in _DRAW_ORDER if p not in at] or [0]
        self.model.fill(rng, rows, _SEAMS, order, at)
        if 0 not in order:
            rows[:, 0] = self._fold(dict(zip(FACE_SLOTS, rows.T)))
        return rows


# -- enumeration and sampling -----------------------------------------------------

def _wrap(model: DgtModel, row) -> Cube:
    return Cube({slot: model.squares[i] for slot, i in zip(FACE_SLOTS, row)})


def enumerate_cubes(model: DgtModel):
    """Every cube over the model, in canonical order (small models only)."""
    return (_wrap(model, row) for row in CubeKernel(model).enumerate().tolist())


def random_commutative_cube(model: DgtModel, rng: random.Random,
                            fixed: tuple[str, Square] | None = None) -> Cube:
    """Sample a commutative cube; optionally pin one face.

    ``fixed`` may pin one of the first three faces drawn, the front (d3-),
    the left face (d2-) or the base (d1+), and PreconditionFailed, before
    any draw, for another face; the
    lid is always the fold of the rest, so the result commutes by
    construction.
    """
    row, given = np.full((1, 6), -1, np.intp), ()
    if fixed:
        slot, sq = fixed
        if _SLOT.get(slot) not in _DRAW_ORDER[:3]:
            raise PreconditionFailed(f"cannot pin face {slot!r} while sampling")
        row[0, _SLOT[slot]] = model.index.get(sq.key(), -1) if sq.xm is model.xm else -1
        given = (slot,)
    return _wrap(model, CubeKernel(model).fill(rng, row, given)[0].tolist())


def random_cube(model: DgtModel, rng: random.Random) -> Cube:
    """Sample any cube: a commutative one with the lid filler re-rolled."""
    k = CubeKernel(model)
    row = k.fill(rng, np.full((1, 6), -1, np.intp))
    return _wrap(model, k.fill(rng, row, FACE_SLOTS[1:])[0].tolist())
