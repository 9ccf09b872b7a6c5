"""Finite double-groupoid models: all squares over a crossed module.

``lambda_functor`` builds the model of every filled square over a crossed
module; ``square_model`` is the special case of trivial fibers, whose squares
are exactly the commuting edge quadruples of the base groupoid.  ``gamma``
goes back: it reads a crossed module off a model using only the model's own
compositions and degeneracies.

Every composition law in ``validate_dgt`` reads the tables ``H``/``V``.  A
model keeps its module's one integer encoding (``crossed.EncodedXmod``), on
which ``lambda_functor`` composed its squares; ``DgtModel.code`` turns it
into int arrays (``SquareCode``) in the same numbering, with each square's
element and four edges.  ``DgtModel`` is the one place that turns squares
into indices, each lookup built once per model: ``groups`` groups the
squares by the arrows on a tuple of edges; ``find`` reads a square off its
element and edges through a dense slot index, one slot per square that
``lambda_square_count`` counts, so a lookup is arithmetic on per-arrow and
per-element arrays and one gather; ``tables`` builds ``H``/``V`` with numpy
formulas and ``find``, one block per pasting edge, each pasting the square
on the edges it forces, composed ones included, or InvalidDgt; ``maps``
gives each square's transpose and inverses and each arrow's units and thin
cube corners.  The law sweeps, ``draw_grids`` (the seeded grids of the
sampled interchange and of criteria 5 and 6) and ``cubes.CubeKernel``
read only these.  So a table is proven where it enters: ``tables()`` by
construction, and an outside table, which only ``interchange_sweep`` takes,
by ``_check_pastings``.  A law sweep splits its arrangements into blocks,
one per tuple of shared edges, each a product of such groups; both sides of
a block are row gathers from small sub-tables of ``H``/``V``, at each inner
pasting's rank in the group of its forced edge, so a sweep never reads a -1
as an index.  The interchange sweep's sub-tables hold element ranks packed
into int64 words, one word per row of an arrangement's last square: both
sides are squares on the same four edges, so they are equal exactly when
their elements are.  Both sweeps work modulo one list of symmetries of the
squares (``_symmetries``): the transpose tau and the inverses inv_h and
inv_v of ``maps()`` and, on a one-object base, the conjugations by the
base's generators.  ``_verify`` checks the list once for every sweep of the
tables: tau, then each other claim on H; where tau holds, V = tau H tau
gives V's claims.  A symmetry that holds maps a law's arrangements one to
one onto arrangements, both sides with them, and blocks onto blocks, so a
sweep compares only the least block of each orbit and counts it once per
block of its orbit: ``checked`` counts the arrangements covered, compared
or carried there by a symmetry.  Associativity is swept on H alone where
tau holds.  A model without these symmetries (a hollow one, doctored
tables) gets the full sweeps, and so does a sweep whose orbit pass finds a
violation, for the exact count and the first witness in scan order.  Every
sweep runs in this one process.  The object-level calculus
(``squares.comp_h``/``comp_v``) is the oracle the tables are tested against
and, in ``find_interchange_counterexample``, the readable scan for a
corrupted pasting, which stops at ``MAX_COUNTEREXAMPLE_SCAN`` arrangements;
``count_compatible_quadruples`` reads only the edges, never a table, so it
checks the sweeps' coverage independently.
"""

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from .crossed import CrossedModuleData, EncodedXmod, sweep_crossed_module, trivial_crossed_module
from .errors import EdgeMismatch, InvalidCrossedModule, InvalidDgt, PreconditionFailed, SizeLimit
from .finite import FiniteGroup, FiniteGroupoid
from .report import Report
from .squares import (
    Square,
    comp_h,
    comp_v,
    conn_minus,
    conn_plus,
    eps_h,
    eps_v,
    identity_square,
    is_thin,
    recheck_boundary,
)

_EDGES = ("top", "right", "bottom", "left")

# Largest combined size of the two composition tables tables() will allocate.
# It also keeps every flat table index below 2**31.
MAX_TABLE_BYTES = 1 << 28

# Most arrangements find_interchange_counterexample scans: about 2 s at the
# 1e5 arrangements/s its object-level calculus runs on a 2-vCPU VM.
MAX_COUNTEREXAMPLE_SCAN = 1 << 18

# Most arrangements, or packed words, a law sweep compares at once; bounds
# its temporaries.
_PIECE = 1 << 16

# The word an interchange sweep packs element ranks into (``_packed``).
_WORD = np.dtype(np.int64)


@dataclass
class SquareCode:
    """A model's squares as int arrays; -1 marks an undefined product.

    The numbering is the module's encoding (``crossed.EncodedXmod``): arrows
    in declared order, listed by ``names``, and fiber elements globally, in
    runs over the sorted objects.  ``E, T, R, B, L`` give each square's
    element and its top, right, bottom and left edges, also by name in
    ``edge``, where "elt" names ``E``.
    """

    names: list          # arrow -> its name
    comp: np.ndarray     # arrow x arrow -> arrow
    inv: np.ndarray      # arrow -> its inverse
    src: np.ndarray      # arrow -> the identity arrow at its source
    dst: np.ndarray      # arrow -> the identity arrow at its target
    width: np.ndarray    # arrow -> the order of the fiber at its target
    mul: np.ndarray      # element x element -> element, within one fiber
    elt_inv: np.ndarray  # element -> its inverse in its fiber
    elt_rank: np.ndarray  # element -> its position in its fiber
    unit: np.ndarray     # arrow -> the identity element of the fiber at its target
    act: np.ndarray      # element x arrow -> element, m^p
    E: np.ndarray
    T: np.ndarray
    R: np.ndarray
    B: np.ndarray
    L: np.ndarray
    arrows: int = field(init=False)
    edge: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.arrows = len(self.names)
        self.edge = dict(zip(("elt", *_EDGES), (self.E, self.T, self.R, self.B, self.L)))


def draw_below(rng: random.Random, sizes) -> np.ndarray:
    """One uniform int in [0, s) per entry s of ``sizes``: Lemire's exact
    multiply-shift with rejection (ACM TOMACS 29(1), 2019).  Each round reads
    one ``rng.randbytes`` as a little-endian 32-bit word u per pending entry,
    in order; an entry takes the high word of u * s unless the low word is
    below 2**32 mod s, and then draws again next round.  ValueError, before
    any draw, for a size of 0 or past 2**32."""
    s = np.asarray(sizes, np.int64)
    bad = (s < 1) | (s > 1 << 32)
    if bad.any():
        raise ValueError(f"cannot draw below {s[bad][0]}: sizes run 1..2**32")
    s, out, todo = s.astype(np.uint64), np.empty(len(s), np.intp), np.arange(len(s))
    while len(todo):
        m = np.frombuffer(rng.randbytes(4 * len(todo)), "<u4") * s[todo]
        ok = (m & 0xFFFFFFFF) >= (1 << 32) % s[todo]
        out[todo[ok]] = m[ok] >> 32
        todo = todo[~ok]
    return out


class _Groups:
    """Indices grouped by their entries in ``cols``: squares by the arrows on
    some of their edges, or cubes by one face.

    Each column's entries lie below ``radix``, and a key packs one entry per
    column in order.  The groups run in key order, each ascending; a key
    that no index has lands on the empty last group.  Lookups take one
    entry, or one array of entries, per column: arrays go through a search
    of the keys, scalars through a dict.  ``draw`` picks one member of each
    of a batch of groups (``draw_below``).
    """

    def __init__(self, radix: int, n: int, cols=()):
        self.radix = radix
        keys, dense = np.unique(self.pack(cols, np.zeros(n, np.int64)), return_inverse=True)
        # a sentinel above every key: a failed search lands on the empty group
        self.keys = np.append(keys, np.iinfo(np.int64).max)
        self.order = np.argsort(dense, kind="stable")
        self.count = np.bincount(dense, minlength=len(self.keys))
        self.start = np.cumsum(self.count) - self.count
        # key -> its group's bounds in order, as ints for scalar lookups
        self.spans = {k: (a, a + m) for k, a, m in
                      zip(keys.tolist(), self.start.tolist(), self.count.tolist())}

    def pack(self, cols, key=0):
        for col in cols:
            key = key * self.radix + col
        return key

    def group(self, *cols) -> np.ndarray:
        key = self.pack(cols)
        pos = np.searchsorted(self.keys, key)
        return np.where(self.keys[pos] == key, pos, len(self.keys) - 1)

    def size(self, *cols) -> np.ndarray:
        return self.count[self.group(*cols)]

    def members(self, *arrows) -> np.ndarray:
        lo, hi = self.spans.get(self.pack(arrows), (0, 0))
        return self.order[lo:hi]

    def draw(self, rng: random.Random, groups: np.ndarray) -> np.ndarray:
        """A uniform member of each of ``groups`` (``draw_below``), groups of
        squares; PreconditionFailed, before any draw, where one is empty."""
        try:
            return self.order[self.start[groups] + draw_below(rng, self.count[groups])]
        except ValueError:  # draw_below refused a size of 0 and drew nothing
            raise PreconditionFailed("no square matches the edge constraints") from None

    def rank(self) -> np.ndarray:
        """Each index's position within its group."""
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(len(self.order)) - np.repeat(self.start, self.count)
        return rank

    def extend(self, prefix: tuple, cols) -> tuple:
        """Each prefix tuple extended by every member of the group of its
        arrows in ``cols``, as one array per position, in prefix order with
        members ascending.  SizeLimit, before any allocation, when those
        arrays and the gather's two index arrays pass MAX_TABLE_BYTES."""
        g = self.group(*cols)
        if prefix:  # over no columns, one group for every prefix tuple
            g = np.broadcast_to(g, np.shape(prefix[0]))
        count = self.count[g]
        total = int(count.sum())
        need = (len(prefix) + 3) * total * np.dtype(np.intp).itemsize
        if need > MAX_TABLE_BYTES:
            raise SizeLimit(f"{total} tuples of {len(prefix) + 1} indices need "
                            f"{need} bytes, over the limit of {MAX_TABLE_BYTES}")
        at = np.repeat(self.start[g] - (np.cumsum(count) - count), count)
        at += np.arange(total)
        return (*(np.repeat(p, count) for p in prefix), self.order[at])


def _sub(table: np.ndarray, rows, cols) -> np.ndarray:
    """``table[rows[:, None], cols]``, as a row take then a column take."""
    return table.take(rows, 0).take(cols, 1)


def _odd_rows(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of the 2-d ``a`` with rows of odd length, one
    unset column longer where ``a``'s rows have even length.  A compare through the
    transpose of its row gathers then never strides by a multiple of 256
    bytes, which maps every read to the same few cache sets: on
    D4 -> Aut(D4), rows of 128 made such a compare three times slower."""
    out = np.empty((a.shape[0], a.shape[1] | 1), a.dtype)
    out[:, :a.shape[1]] = a
    return out


class _SlotIndex:
    """One slot per square ``lambda_square_count`` counts: by top t, then the
    rank of the left among the arrows leaving src t, of the right among
    those leaving dst t and of the element in the fiber at dst right.

    ``at`` maps each slot to the first square there (only a square off the
    boundary law shares one) or -1, then a -1 sentinel; ``key`` holds each
    square's element and four edges, then the -1s the sentinel reads.  The
    per-arrow and per-element arrays end in the pad an argument of -1
    reads.  All int32: SizeLimit where a slot sum could pass 2**31.
    """

    def __init__(self, c: SquareCode):
        leaving = c.src[:, None] == c.src  # [p, q]: q leaves where p does
        before = np.tril(leaving, -1)  # [p, q]: ... and comes before p
        fill = (c.dst[:, None] == c.src) @ c.width  # per top t: fill(dst t)
        size = leaving.sum(1) * fill
        self.count = count = int(size.sum())
        rank, offset, elt_rank = before.sum(1), before @ c.width, c.elt_rank
        # the largest sum slot() can form from any arguments, pads included
        most = (count + fill.max(initial=0) * rank.max(initial=0)
                + offset.max(initial=0) + elt_rank.max(initial=0))
        if most >= 1 << 31:
            raise SizeLimit(f"{count} square slots over {c.arrows} arrows pass the int32 range")

        def pad(a, value=0):
            return np.append(a, value).astype(np.int32)

        self.base, self.stride = pad(np.cumsum(size) - size, count), pad(fill)
        self.rank, self.offset, self.elt_rank = pad(rank), pad(offset), pad(elt_rank)
        self.key = tuple(pad(col, -1) for col in (c.E, c.T, c.R, c.B, c.L))
        # the first square at each slot
        slots, first = np.unique(self.slot(c.E, c.T, c.R, c.L), return_index=True)
        self.at = np.full(count + 1, -1, np.int32)
        self.at[slots[slots < count]] = first[slots < count]

    def slot(self, elt, top, right, left):
        """The slot of a square with these coordinates; the sentinel
        ``count`` for a top of -1 or a sum past the end."""
        return np.minimum(self.base.take(top) + self.stride.take(top) * self.rank.take(left)
                          + self.offset.take(right) + self.elt_rank.take(elt), self.count)


def check_table_size(name: str, n: int) -> np.dtype:
    """The tables' dtype for ``n`` squares; SizeLimit past MAX_TABLE_BYTES."""
    dtype = np.dtype(np.int16 if n < 1 << 15 else np.int32)
    need = 2 * n * n * dtype.itemsize
    if need > MAX_TABLE_BYTES:
        raise SizeLimit(
            f"{name}: composition tables for {n} squares need "
            f"{need} bytes, over the limit of {MAX_TABLE_BYTES}"
        )
    return dtype


@dataclass
class SquareTables:
    """Integer-indexed composition tables; -1 marks an undefined pasting.

    ``H[i, j]`` is the index of comp_h(squares[i], squares[j]) and ``V[i, j]``
    that of comp_v; int16 below 32,768 squares, int32 above.
    """

    H: np.ndarray
    V: np.ndarray


class IndexMaps:
    """Square indices, -1 where the model lacks the square.  Per square: its
    ``transpose``, ``inv_h``, ``inv_v`` and ``flip`` (inv_h of the
    transpose).  Per arrow p: ``eps_h``, ``eps_v`` and the four ``corners``
    of ``cubes.fold_layout`` once the seams agree, keyed by p = u.left,
    u.right, l.bottom and d.right; ``fold_corners`` are the same four keyed
    by the square u, u, l and d.  No reference to the model: no cycle."""

    def __init__(self, model: "DgtModel"):
        c = model.code()
        elt_inv = c.elt_inv[c.E]
        self.transpose = model.find(elt_inv, c.L, c.B, c.R, c.T)
        self.inv_h = model.find(c.act[elt_inv, c.inv[c.B]], c.inv[c.T], c.L, c.inv[c.B], c.R)
        self.inv_v = model.find(c.act[elt_inv, c.inv[c.R]], c.B, c.inv[c.R], c.T, c.inv[c.L])
        self.flip = np.where(self.transpose >= 0, self.inv_h[self.transpose], -1)
        p, src, dst = np.arange(c.arrows), c.src, c.dst
        self.eps_h = model.find(c.unit[p], src, p, dst, p)
        self.eps_v = model.find(c.unit[p], p, dst, p, src)
        self.corners = (
            model.find(c.unit[p], src, p, p, src),
            model.find(c.unit[src], src, src, c.inv, p),
            model.find(c.unit[c.inv], p, c.inv, src, src),
            model.find(c.unit[dst], p, dst, dst, p),
        )
        self.fold_corners = tuple(k[e] for k, e in zip(self.corners, (c.L, c.R, c.B, c.R)))


@dataclass
class DgtModel:
    """Edge groupoid plus the full set of squares with both compositions."""

    name: str
    xm: CrossedModuleData
    edges: FiniteGroupoid
    squares: tuple[Square, ...]
    connections_minus: dict[str, Square]
    connections_plus: dict[str, Square]
    encoded: EncodedXmod = field(repr=False, compare=False)  # xm's, as lambda_functor swept it
    index: dict[tuple, int] = field(init=False, repr=False)
    _edge_index: dict = field(default_factory=dict, init=False, repr=False)
    _code: SquareCode = field(default=None, init=False, repr=False)
    _slots: _SlotIndex = field(default=None, init=False, repr=False)
    _groups: dict = field(default_factory=dict, init=False, repr=False)
    _tables: SquareTables = field(default=None, init=False, repr=False)
    _maps: IndexMaps = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.index = {}
        for i, s in enumerate(self.squares):
            first = self.index.setdefault(s.key(), i)
            if first != i:
                raise InvalidDgt(f"{self.name}: square {s} is at both {first} and {i}")

    def __contains__(self, s: Square) -> bool:
        return s.key() in self.index

    def size(self) -> int:
        return len(self.squares)

    @property
    def thin_squares(self) -> list[Square]:
        c = self.code()
        return [self.squares[k] for k in np.flatnonzero(c.E == c.unit[c.R])]

    def squares_with(self, **edges) -> list[Square]:
        """All squares whose named edges carry the given arrows, in model order."""
        for e in edges:
            if e not in _EDGES:
                raise ValueError(f"unknown edge {e!r}")
        if not edges:
            return list(self.squares)
        names = tuple(sorted(edges))
        index = self._edge_index.get(names)
        if index is None:
            index = {}
            for s in self.squares:
                index.setdefault(tuple(getattr(s, e) for e in names), []).append(s)
            self._edge_index[names] = index
        return list(index.get(tuple(edges[e] for e in names), ()))

    def random_square(self, rng: random.Random) -> Square:
        return self.squares[rng.randrange(len(self.squares))]

    def draw_grids(self, rng: random.Random, n: int, rows: int, cols: int) -> np.ndarray:
        """``n`` seeded grids of ``rows`` x ``cols`` squares, as an (n, rows,
        cols) array of square indices, drawn one cell at a time across the
        grids, the cells in row-major order.  Each cell is uniform, in model
        order, over the squares whose left and top edges fit the cells drawn
        before it, by one ``draw_below`` per cell across the grids
        (``_Groups.draw``); PreconditionFailed, before that cell draws, where
        no square fits some grid's cell."""
        c = self.code()
        grids = np.empty((n, rows, cols), np.intp)
        for i, j in itertools.product(range(rows), range(cols)):
            seams = {}
            if j:
                seams["left"] = c.R[grids[:, i, j - 1]]
            if i:
                seams["top"] = c.B[grids[:, i - 1, j]]
            fit = self.groups(*seams)
            grids[:, i, j] = fit.draw(rng, np.broadcast_to(fit.group(*seams.values()), n))
        return grids

    def code(self) -> SquareCode:
        """``encoded`` as arrays, with each square's element and edges, built once."""
        if self._code is None:
            x = self.encoded
            P, fibers, start, n = x.base, x.fibers, x.start, x.size
            mul = np.full((n, n), -1, np.intp)
            elt_inv, elt_rank = np.empty(n, np.intp), np.empty(n, np.intp)
            for o in P.obj_index.values():
                F, k = fibers[o], start[o]
                run = slice(k, k + len(F.names))
                mul[run, run] = np.array(F.rows, np.intp) + k
                elt_inv[run] = np.array(F.inv, np.intp) + k
                elt_rank[run] = np.arange(len(F.names))
            act = np.full((n, len(P.names)), -1, np.intp)
            for p, ap in enumerate(x.act):
                k = start[P.src[p]]
                act[k:k + len(ap), p] = np.array(ap, np.intp) + start[P.dst[p]]
            index, cols = P.index, []
            for s in self.squares:
                r = index[s.right]
                cols.append((start[P.dst[r]] + fibers[P.dst[r]].index[s.elt], index[s.top], r,
                             index[s.bottom], index[s.left]))
            cols = np.array(cols, np.intp).reshape(-1, 5)
            self._code = SquareCode(
                list(P.names), np.array(P.rows, np.intp), np.array(P.inv, np.intp),
                np.array([P.unit[o] for o in P.src], np.intp),
                np.array([P.unit[o] for o in P.dst], np.intp),
                np.array([len(fibers[o].names) for o in P.dst], np.intp),
                mul, elt_inv, elt_rank,
                np.array([start[o] + fibers[o].unit[0] for o in P.dst], np.intp),
                act, *(cols[:, k].copy() for k in range(5)))
        return self._code

    def groups(self, *edges) -> _Groups:
        """The squares grouped by the arrows on ``edges``, built once per tuple."""
        g = self._groups.get(edges)
        if g is None:
            c = self.code()
            g = self._groups[edges] = _Groups(c.arrows, len(self.squares), [c.edge[e] for e in edges])
        return g

    def slots(self) -> _SlotIndex:
        """The slot index behind ``find``, built once."""
        if self._slots is None:
            self._slots = _SlotIndex(self.code())
        return self._slots

    def find(self, elt, top, right, bottom, left) -> np.ndarray:
        """Index of the square with each element and four edges, in ``code()``
        numbering; -1 where the model has none or an argument is -1.

        The arguments broadcast together.  The element, top, right and left
        give a slot (``slots()``), the slot gives a square, and the square
        counts only if all five of its coordinates are the ones asked for:
        so edges that do not compose, an element of another fiber and an
        argument of -1 all give -1.
        """
        s = self.slots()
        idx = s.at.take(s.slot(elt, top, right, left))
        E, T, R, B, L = s.key
        hit = ((E.take(idx) == elt) & (T.take(idx) == top) & (R.take(idx) == right)
               & (B.take(idx) == bottom) & (L.take(idx) == left))
        return np.where(hit, idx, -1)

    def maps(self) -> IndexMaps:
        """The squares under reflections and degeneracies, built once."""
        if self._maps is None:
            self._maps = IndexMaps(self)
        return self._maps

    def tables(self) -> SquareTables:
        """Both composition tables, built once; SizeLimit past MAX_TABLE_BYTES."""
        if self._tables is None:
            n = len(self.squares)
            dtype = check_table_size(self.name, n)
            c = self.code()
            # the int32 square columns and int32 copies of the base and fiber
            # tables: every temporary of a block is then an int32 or a bool
            E, T, R, B, L = self.slots().key
            comp, mul, act = (a.astype(np.int32) for a in (c.comp, c.mul, c.act))

            def fill(table, label, I, J, *square):
                idx = self.find(*square)
                if (idx < 0).any():
                    raise InvalidDgt(f"{self.name}: a {label} composite escapes the model")
                table[np.ix_(I, J)] = idx

            H = np.full((n, n), -1, dtype)
            V = np.full((n, n), -1, dtype)
            for e in range(c.arrows):
                # left square i, right square j pasted along their vertical edge e
                I, J = self.groups("right").members(e), self.groups("left").members(e)
                elt = mul.take(_sub(act, E.take(I), B.take(J)) * len(mul) + E.take(J))
                fill(H, "horizontal", I, J, elt, _sub(comp, T.take(I), T.take(J)), R.take(J),
                     _sub(comp, B.take(I), B.take(J)), L.take(I)[:, None])
                # upper square i, lower square j pasted along their horizontal edge e
                I, J = self.groups("bottom").members(e), self.groups("top").members(e)
                elt = mul.take(E.take(J) * len(mul) + _sub(act, E.take(I), R.take(J)))
                fill(V, "vertical", I, J, elt, T.take(I)[:, None], _sub(comp, R.take(I), R.take(J)),
                     B.take(J), _sub(comp, L.take(I), L.take(J)))
            self._tables = SquareTables(H, V)
        return self._tables


def lambda_functor(x: CrossedModuleData, name: str | None = None) -> DgtModel:
    """All filled squares over a valid crossed module, with its structure.

    Each candidate boundary bottom^-1 * left^-1 * top * right is composed
    on the module's integer encoding (``sweep_crossed_module``), which the
    model keeps; ``validate_dgt`` rechecks every square's boundary on the
    objects."""
    report, code = sweep_crossed_module(x)
    if not report.ok:
        raise InvalidCrossedModule(report)
    P = code.base
    names, rows, inv, src, dst, after = P.names, P.rows, P.inv, P.src, P.dst, P.after
    hom = {}  # (src, dst) object positions -> the arrows between them
    for a in range(len(names)):
        hom.setdefault((src[a], dst[a]), []).append(a)
    preimage: dict[int, list[str]] = {}  # loop -> the elements over it, by fiber order
    for o in P.obj_index.values():
        for m, a in zip(code.fibers[o].names, code.mu[o]):
            preimage.setdefault(a, []).append(m)
    keys = []
    for top in range(len(names)):
        for left in after[inv[top]]:  # the arrows leaving src top
            lt = rows[inv[left]][top]
            for right in after[top]:
                ltr = rows[lt][right]
                for bottom in hom.get((dst[left], dst[right]), ()):
                    for elt in preimage.get(rows[inv[bottom]][ltr], ()):
                        keys.append((elt, names[top], names[right], names[bottom], names[left]))
    keys.sort()  # Square.key() order
    arrows = sorted(x.base.arrows)
    return DgtModel(name or f"squares({x.name})", x, x.base, tuple(Square(x, *k) for k in keys),
                    {a: conn_minus(x, a) for a in arrows}, {a: conn_plus(x, a) for a in arrows},
                    code)


def lambda_square_count(x: CrossedModuleData) -> int:
    """How many squares ``lambda_functor(x)`` builds, from edges and fiber orders.

    A square is its top t, a left from src t, a right r from dst t and an
    element over dst r whose boundary fixes the bottom; as the bottom runs
    over its hom-set, the boundary word runs over every loop at dst r, so the
    elements number |M(dst r)|.  Reads neither mu nor the action, so it can
    refuse an oversized model before any square is built.
    """
    P = x.base
    out = dict.fromkeys(P.objects, 0)
    fill = dict.fromkeys(P.objects, 0)  # sum of |M(dst r)| over r leaving it
    for r in P.arrows:
        out[P.src[r]] += 1
        # a missing fiber is left for lambda_functor's validation to report
        fill[P.src[r]] += len(x.fibers[P.dst[r]].elements) if P.dst[r] in x.fibers else 0
    return sum(out[P.src[t]] * fill[P.dst[t]] for t in P.arrows)


def square_model(g: FiniteGroupoid, name: str | None = None) -> DgtModel:
    """Commuting squares of a groupoid: the trivial-fiber model, all thin."""
    return lambda_functor(trivial_crossed_module(g), name=name or f"sq({g.name})")


# -- law sweeps ---------------------------------------------------------------

def comp_h_unconjugated(left: Square, right: Square):
    """Deliberately wrong horizontal pasting that skips the conjugation step.

    Negative-control variant: composing elements as a bare product breaks
    the interchange law, which the sweep must be able to detect.
    """
    if left.right != right.left:
        raise EdgeMismatch("shared vertical edge differs")
    xm = left.xm
    P = xm.base
    alpha = xm.fibers[right.corner_se].mul(left.elt, right.elt)
    return Square(
        xm,
        alpha,
        P.compose(left.top, right.top),
        right.right,
        P.compose(left.bottom, right.bottom),
        left.left,
    )


def _class_sweep(blocks, pieces):
    """Check one law on every block of its edge-compatible arrangements.

    ``blocks`` lists the blocks, or groups of blocks, one per row, in the
    order they are swept.  ``pieces(blocks)`` yields the law's two sides on
    the arrangements of its rows as ``(lhs, rhs, members)``: two
    equal-shaped arrays and one ascending array of square indices per axis,
    so that position ``i`` holds the arrangement ``(members[0][i[0]],
    members[1][i[1]], ...)``.  The axes run in the law's scan order.  It
    may yield a count instead, of arrangements it has already found to
    hold.  Returns (checks, violations, first): the checks are the counts
    and the sizes of the compared arrays summed, and ``first`` is the least
    violating arrangement in scan order, or None.
    """
    checked = bad = 0
    first = None
    for piece in pieces(blocks):
        if isinstance(piece, int):
            checked += piece
            continue
        lhs, rhs, members = piece
        checked += lhs.size
        miss = lhs != rhs
        nb = int(np.count_nonzero(miss))
        if nb:
            bad += nb
            at = np.unravel_index(np.argmax(miss), miss.shape)
            hit = tuple(int(m[i]) for m, i in zip(members, at))
            first = hit if first is None else min(first, hit)
    return checked, bad, first


def _check_pastings(model: DgtModel, table: np.ndarray, name: str):
    """Check that every pasting in an outside table ``table``, "H" or "V"
    by ``name``, is a square on the edges it forces, as in ``tables()``'s.

    A pasting is a pair (i, j) with out(i) = into(j) (``_PASTES[name]``);
    its square must have into(i) on ``into``, out(j) on ``out`` and, on
    each edge of ``_COMPOSED[name]``, the composite of i's and j's.  A
    sweep finds a pasting by its rank among the squares with one of these
    edges, so a -1 or a square off them would read another square's row;
    InvalidDgt names the least such (i, j) in row-major order instead.
    One vectorised check per pasting edge.
    """
    c, (out, into), composed = model.code(), _PASTES[name], _COMPOSED[name]

    def forced(I, J):  # (edge column, what each pasting of I x J puts there)
        return [(c.edge[into], c.edge[into].take(I)[:, None]), (c.edge[out], c.edge[out].take(J))] + [
            (c.edge[k], _sub(c.comp, c.edge[k].take(I), c.edge[k].take(J))) for k in composed]

    wrong = []
    for e in range(c.arrows):
        I, J = model.groups(out).members(e), model.groups(into).members(e)
        t = _sub(table, I, J)
        bad = t < 0
        for col, want in forced(I, J):
            bad |= col.take(t) != want  # a -1 reads a wrapped edge, but is bad already
        if bad.any():
            a, b = np.unravel_index(np.argmax(bad), bad.shape)
            wrong.append((int(I[a]), int(J[b])))
    if wrong:
        i, j = min(wrong)
        t = int(table[i, j])
        at = f"{model.name}: {name}[{i}, {j}]"
        if t < 0:
            raise InvalidDgt(f"{at} is -1 on an edge-compatible pair")
        want = next(w.item() for col, w in forced([i], [j]) if col[t] != w.item())
        raise InvalidDgt(f"{at} = {t} is off the edge {c.names[want]} that the pasting forces")


def _packed(fields: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Rows of a table at each row of the 2-d ``at``, packed into ``_WORD``s.

    ``fields[i]`` is the table, values below 2**bits in unsigned ints (the
    lanes), shifted left by bits * i, for i below the values a lane holds;
    each ends in a row of zeros.  ``out[a, u]`` holds column u at the rows
    at[a]: value k in lane k % lanes at field k // lanes, the lanes zero
    padded to whole words.  Shape (len(at), columns, words); rows of ``at``
    of one length pack equal columns to equal words, and only those.
    """
    per, rows, cols = fields.shape
    m, n = at.shape
    lanes = -(-n // per)
    idx = np.full((m, per * lanes), rows - 1)
    idx[:, :n] = at
    idx = idx.reshape(m, per, lanes) + rows * np.arange(per)[:, None]
    packed = np.bitwise_or.reduce(fields.reshape(per * rows, cols).take(idx, axis=0), axis=1)
    lane, word = fields.itemsize, _WORD.itemsize
    out = np.zeros((m, cols, -(-lanes * lane // word) * word // lane), fields.dtype)
    out[..., :lanes] = packed.transpose(0, 2, 1)
    return out.view(_WORD)


def _joined(rows: np.ndarray, col: int, pairs: np.ndarray) -> np.ndarray:
    """Each row of ``rows`` followed by every v with (row[col], v) in
    ``pairs``, a sorted (k, 2) array; in the order of rows, then of v."""
    lo, hi = (np.searchsorted(pairs[:, 0], rows[:, col], side) for side in ("left", "right"))
    count = hi - lo
    at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    return np.column_stack([np.repeat(rows, count, axis=0), pairs[at, 1]])


# -- symmetries of the squares -----------------------------------------------

# Each table's pastings: (the first square's edge, the second's) they share,
# and the edges on which a pasting is the composite of its two squares'.
_PASTES = {"H": ("right", "left"), "V": ("bottom", "top")}
_COMPOSED = {"H": ("top", "bottom"), "V": ("left", "right")}

# Each kind of symmetry's image of a block (beta, rho, r, b) of interchange
# arrangements, through its arrow map ``f``.  The transpose takes
# [[x, y], [z, w]] to [[tx, tz], [ty, tw]], inv_h to [[iy, ix], [iw, iz]],
# inv_v to [[iz, iw], [ix, iy]] and a conjugation s to [[sx, sy], [sz, sw]].
_BLOCK_MAPS = {
    "transpose": lambda f, beta, rho, r, b: (rho, beta, b, r),
    "inv_h": lambda f, beta, rho, r, b: (f[b], rho, r, f[beta]),
    "inv_v": lambda f, beta, rho, r, b: (beta, f[r], f[rho], b),
    "conjugation": lambda f, beta, rho, r, b: (f[beta], f[rho], f[r], f[b]),
}

# tau s tau, by name, for each listed symmetry s that tau does not commute with
_PARTNERS = {"inv_h": "inv_v", "inv_v": "inv_h"}


@dataclass
class _Symmetry:
    """A map ``squares`` of a model's squares, -1 where the model lacks an
    image, which moves edges as its ``kind`` does and through the arrow
    map ``arrow``.  A sweep uses it only once ``_verify`` has checked its
    ``claim`` on the tables at hand."""

    name: str
    kind: str
    squares: np.ndarray
    arrow: np.ndarray

    def claim(self, table: str) -> tuple[str, bool]:
        """The table m carries ``table``'s pastings into, and whether it
        reverses them (target[m y, m x] = m table[x, y]) or not (target[m x,
        m y] = m table[x, y]).  tau swaps H and V; inv_h reverses H, inv_v V."""
        return ({"H": "V", "V": "H"}[table] if self.kind == "transpose" else table,
                self.kind == "inv_" + table.lower())

    def quad_block(self, beta, rho, r, b):
        """The block of interchange arrangements block (beta, rho, r, b) maps onto."""
        return _BLOCK_MAPS[self.kind](self.arrow, beta, rho, r, b)

    def triple_block(self, table: str, e1, e2):
        """The block that block (e1, e2) of ``table``'s associativity triples
        maps onto: (x, y, z) goes to (m x, m y, m z), or to (m z, m y, m x)
        where m reverses, as inv_h does on H and inv_v on V, each putting a
        square's in-edge unchanged on its image's out-edge."""
        return (e2, e1) if self.claim(table)[1] else (self.arrow[e1], self.arrow[e2])


def _generators(c: SquareCode) -> list[int]:
    """Arrows generating a one-object base, each outside the subgroup of those before it."""
    gens, reached = [], np.zeros(c.arrows, bool)
    reached[c.src[0]] = True
    for g in range(c.arrows):
        if not reached[g]:
            gens.append(g)
            while not reached[step := c.comp[np.flatnonzero(reached)][:, gens]].all():
                reached[step] = True
    return gens


def _symmetries(model: DgtModel) -> list[_Symmetry]:
    """The transpose tau (the element inverted, edges (t, r, b, l) ->
    (l, b, r, t)), inv_h and inv_v (``maps()``), and on a one-object base
    the conjugation by each generator g that moves an arrow, (m; t, r, b, l)
    -> (m^g; g^-1 t g, g^-1 r g, g^-1 b g, g^-1 l g); ``_Symmetry.claim``
    says how each carries the tables.  A central g moves no block."""
    c, m = model.code(), model.maps()
    out = [_Symmetry("transpose", "transpose", m.transpose, np.arange(c.arrows)),
           _Symmetry("inv_h", "inv_h", m.inv_h, c.inv), _Symmetry("inv_v", "inv_v", m.inv_v, c.inv)]
    for g in _generators(c) if len(model.edges.objects) == 1 else ():
        f = c.comp[c.comp[c.inv[g]], g]  # p -> g^-1 p g
        if (f != np.arange(c.arrows)).any():
            out.append(_Symmetry(f"conjugation by {c.names[g]}", "conjugation",
                                 model.find(c.act[c.E, g], f[c.T], f[c.R], f[c.B], f[c.L]), f))
    return out


def _holds(model: DgtModel, s: _Symmetry, tables: dict, k: str) -> bool:
    """Whether the permutation ``s`` carries the table ``k`` into ``tables``
    as it claims on every pasting of ``k``, and so maps a law's
    arrangements and both their sides onto themselves.  Every pasting of
    ``k`` must be a square on its forced edges, since ``s`` reads its
    entries.  O(n^2)."""
    (target, anti), m, table = s.claim(k), s.squares, tables[k]
    by_out, by_into = (model.groups(e) for e in _PASTES[k])
    values = m.astype(table.dtype)  # m, as the tables' entries: compared without a cast
    for e in range(model.code().arrows):
        I, J = by_out.members(e), by_into.members(e)
        image = (_sub(tables[target], m.take(J), m.take(I)).T if anti
                 else _sub(tables[target], m.take(I), m.take(J)))
        if not np.array_equal(image, values.take(_sub(table, I, J))):
            return False
    return True


@dataclass
class _Verified:
    """Tables H and V as ``_verify`` found them: whether tau holds, the
    symmetries that permute the squares, and per table those that hold on it."""

    tables: dict
    transposed: bool
    symmetries: list
    holds: dict

    def on(self, *tables) -> list[_Symmetry]:
        """The symmetries that carry ``tables`` into themselves."""
        return [s for s in self.symmetries
                if all(s.name in self.holds[k] and s.claim(k)[0] in tables for k in tables)]


def _verify(model: DgtModel, H: np.ndarray, V: np.ndarray) -> _Verified:
    """Check the symmetries once for every sweep that reads H and V, each
    pasting of which is a square on its forced edges (``tables()`` builds
    them so; ``interchange_sweep`` checks outside ones): tau, a permutation
    that is its own inverse and carries H onto V, then each other symmetry
    that permutes the squares on H.  Where tau holds, V = tau H tau, and
    where tau s tau is, as an array, a listed s', s V[a, b] = tau s' H[tau
    a, tau b], so s holds on V exactly when s' holds on H.  Otherwise V's
    claims are checked."""
    tables, n = {"H": H, "V": V}, model.size()
    symmetries = [s for s in _symmetries(model)
                  if not (s.squares < 0).any() and (np.bincount(s.squares, minlength=n) == 1).all()]
    by_name = {s.name: s for s in symmetries}
    tau = by_name.get("transpose")
    transposed = (tau is not None and np.array_equal(tau.squares.take(tau.squares), np.arange(n))
                  and _holds(model, tau, tables, "H"))
    on_h = {s.name for s in symmetries if (transposed if s is tau else _holds(model, s, tables, "H"))}

    def on_v(s):
        partner = by_name.get(_PARTNERS.get(s.name, s.name))
        if transposed and partner is not None and np.array_equal(
                tau.squares.take(s.squares.take(tau.squares)), partner.squares):
            return partner.name in on_h
        return s is not tau and _holds(model, s, tables, "V")

    return _Verified(tables, transposed, symmetries,
                     {"H": on_h, "V": {s.name for s in symmetries if on_v(s)}})


def _orbits(blocks: np.ndarray, arrows: int, images) -> np.ndarray:
    """Per block, the size of its orbit under the maps ``images`` (blocks
    to blocks) where it is the least block of that orbit, else 0.

    ``blocks`` runs in ascending lexicographic order, each column below
    ``arrows``, and each image is a block of the list, as a tuple of its
    columns.
    """
    shape = (arrows,) * blocks.shape[1]
    keys = np.ravel_multi_index(tuple(blocks.T), shape)
    moves = [np.searchsorted(keys, np.ravel_multi_index(img, shape)) for img in images]
    least = np.arange(len(blocks))
    while True:  # each block takes the least label among its images
        new = least
        for at in moves:
            new = np.minimum(new, new.take(at))
        if np.array_equal(new, least):
            break
        least = new
    return np.where(least == np.arange(len(blocks)), np.bincount(least, minlength=len(blocks)), 0)


def _orbit_sweep(sweep, blocks: np.ndarray, arrows: int, images, size):
    """``sweep(blocks)``, the (checked, violations, first) of a law on the
    given rows of ``blocks``, where each of ``images`` maps every block to
    the one a verified symmetry maps its arrangements onto, both sides
    with them.  A block then holds exactly when its images do: only the
    least block of each orbit is swept, counted once per block of its
    orbit (``size`` gives each block's arrangements).  If that finds a
    violation, or there is no image, every block is swept, for the exact
    count and the first violation in scan order."""
    if images:
        orbit = _orbits(blocks, arrows, images)
        least = orbit > 0
        if not sweep(blocks[least])[1]:
            return int((size(blocks[least]) * orbit[least]).sum()), 0, None
    return sweep(blocks)


def interchange_sweep(model: DgtModel, H: np.ndarray, V: np.ndarray):
    """Interchange on every edge-compatible 2x2 arrangement, read from H/V.

    ``[[x, y], [z, w]]`` holds when V[H[x, y], H[z, w]] == H[V[x, z], V[y, w]].
    The arrangements split into one block per edge tuple (r, b, beta, rho):
    the x with right r and bottom b, times the y with left r and bottom
    beta, the z with top b and right rho and the w with left rho and top
    beta.  In a block every H[x, y] has bottom d = b beta and every V[x, z]
    right e = r rho.  So the left side reads the sub-table V[u, H[z, w]],
    laid out (z, u, w) over the squares u with bottom d, at u = the rank of
    H[x, y] among them; the right side reads H[s, V[y, w]], laid out
    (s, y, w) over the squares s with right e, at s = the rank of V[x, z].

    The sweep first checks that each pasting of H and of V is a square
    with the outer edges of its two squares (``_check_pastings``), so both
    sides are squares on the same four edges: top x.top y.top, right
    y.right w.right, bottom z.bottom w.bottom and left x.left z.left.  A
    model holds one square per element and four edges, so the two sides
    are equal exactly when their elements are, that is when the elements'
    ranks in the fiber at the target of that right edge are.  The
    sub-tables therefore hold those ranks, ``bits`` apiece, packed along w
    into int64 words (``_packed``), and a block compares one word per (z,
    x, y) row where it compared one square per arrangement.  Only a piece
    whose words differ is compared again square by square, as (z, x, y, w)
    arrays of H/V entries, which counts its violations and finds the first.

    It then checks the symmetries (``_verify``).  Each symmetry that holds
    on both maps the arrangements and both their sides one to one onto
    themselves and whole blocks onto blocks (``_BLOCK_MAPS``): only the
    least block of each orbit, in (beta, rho, r, b) order, is compared,
    unless that finds a violation (``_orbit_sweep``).

    ``_class_sweep`` gets one row per (beta, rho) pair: its blocks share
    their w and their sub-tables.  Returns (checked, violations, first
    violating (x, y, z, w) in the scan order x, z, y, w, or None).
    """
    _check_pastings(model, H, "H")
    _check_pastings(model, V, "V")
    return _interchange(model, _verify(model, H, V))


def _interchange(model: DgtModel, verified: _Verified):
    """``interchange_sweep`` on tables whose pastings are squares on their
    forced edges, composed ones included, with ``_verify``'s symmetries."""
    c, H, V = model.code(), verified.tables["H"], verified.tables["V"]
    by_bottom, by_right = model.groups("bottom"), model.groups("right")
    bottom_rank, right_rank = by_bottom.rank(), by_right.rank()
    X, Y, Z, W = (model.groups(*e) for e in (("right", "bottom"), ("left", "bottom"),
                                             ("top", "right"), ("left", "top")))
    p = np.arange(c.arrows)
    nx, ny, nz, nw = (g.size(p[:, None], p) for g in (X, Y, Z, W))
    by_top, by_left = model.groups("top"), model.groups("left")
    top_rank, left_rank = by_top.rank(), by_left.rank()
    bits = max(1, (int(c.width.max(initial=1)) - 1).bit_length())
    # two-byte lanes where they hold more values a byte (at 3 and 5 bits):
    # 36 ranks of 3 bits then take 2 words, not 3; all per shifted copies
    # of a table take at most 10 bytes a pasting
    lane = np.dtype(np.uint16 if 16 // bits > 2 * (8 // bits) else np.uint8)
    per = 8 * lane.itemsize // bits
    rank = c.elt_rank[c.E].astype(lane)

    # per arrow d, the element ranks of the pastings along d, as _packed
    # reads them: of V[u, t], one row per t with top d and one column per u
    # with bottom d, each by its rank there; of H[s, v], one row per v with
    # left d and one column per s with right d
    def fields(table, rows, cols):
        t = np.zeros((len(cols) + 1, len(rows)), lane)
        t[:-1] = rank.take(_sub(table, rows, cols)).T
        return np.stack([t << (bits * i) for i in range(per)])

    V_ranks = [fields(V, by_bottom.members(d), by_top.members(d)) for d in p]
    H_ranks = [fields(H, by_right.members(d), by_left.members(d)) for d in p]

    def unpacked(xs, ys, zs, ws, d, e, hzw, hxy, vxz):
        lhs_table = np.ascontiguousarray(_sub(V, by_bottom.members(d), hzw).transpose(1, 0, 2))
        rhs_table = _sub(H, by_right.members(e), _sub(V, ys, ws))
        step = max(1, _PIECE // (len(ys) * len(zs) * len(ws)))
        for lo in range(0, len(xs), step):
            part = slice(lo, lo + step)
            lhs = lhs_table.take(hxy[part], axis=1)
            rhs = rhs_table.take(vxz[:, part], axis=0)
            yield lhs.transpose(1, 0, 2, 3), rhs.transpose(1, 0, 2, 3), (xs[part], zs, ys, ws)

    comp = c.comp.tolist()

    def pieces(rows):
        for beta, rho, bs in rows:
            ws = W.members(rho, beta)
            rhs_words = {}  # per r
            for b, rs in bs:
                zs, d = Z.members(b, rho), comp[b][beta]
                hzw = _sub(H, zs, ws)
                lhs_words = _packed(V_ranks[d], top_rank.take(hzw))
                for r in rs:
                    xs, ys, e = X.members(r, b), Y.members(r, beta), comp[r][rho]
                    if r not in rhs_words:
                        rhs_words[r] = np.ascontiguousarray(
                            _packed(H_ranks[e], left_rank.take(_sub(V, ys, ws))).transpose(1, 0, 2))
                    hxy = bottom_rank.take(_sub(H, xs, ys))
                    vxz = right_rank.take(_sub(V, xs, zs)).T
                    step = max(1, _PIECE // lhs_words[:, 0].size // len(ys))
                    for lo in range(0, len(xs), step):
                        part = slice(lo, lo + step)
                        if (lhs_words.take(hxy[part], axis=1)
                                == rhs_words[r].take(vxz[:, part], axis=0)).all():
                            yield len(xs[part]) * len(ys) * len(zs) * len(ws)
                        else:
                            yield from unpacked(xs[part], ys, zs, ws, d, e, hzw,
                                                hxy[part], vxz[:, part])

    def size(blocks):
        beta, rho, r, b = blocks.T
        return nx[r, b] * ny[r, beta] * nz[b, rho] * nw[rho, beta]

    def sweep(blocks):
        # one row per (beta, rho): (beta, rho, [(b, [r, ...]), ...]), b ascending
        rows = {}
        for beta, rho, r, b in blocks.tolist():
            rows.setdefault((beta, rho), {}).setdefault(b, []).append(r)
        rows = [(beta, rho, sorted(bs.items())) for (beta, rho), bs in rows.items()]
        return _class_sweep(rows, pieces)

    # every non-empty block (beta, rho, r, b), in that order
    blocks = _joined(_joined(np.argwhere(nw.T), 0, np.argwhere(ny.T)), 2, np.argwhere(nx))
    blocks = blocks[nz[blocks[:, 3], blocks[:, 1]] > 0]
    images = [s.quad_block(*blocks.T) for s in verified.on("H", "V")]
    checked, bad, first = _orbit_sweep(sweep, blocks, c.arrows, images, size)
    return checked, bad, None if first is None else (first[0], first[2], first[1], first[3])


def interchange_exhaustive(model: DgtModel) -> tuple[int, int, tuple | None]:
    """Check interchange on every edge-compatible 2x2 arrangement.

    Runs ``interchange_sweep``'s sweep on the model's own tables, which
    need no pasting check.  Returns (quadruples checked, violations, first
    violating quadruple of square indices or None).
    """
    t = model.tables()
    return _interchange(model, _verify(model, t.H, t.V))


def count_compatible_quadruples(model: DgtModel) -> int:
    """Independent count of edge-compatible 2x2 arrangements.

    Uses only edge bookkeeping (no composition tables): [[x, y], [z, w]] is
    x, then y with y.left = x.right, z with z.top = x.bottom and w with
    (w.left, w.top) = (z.right, y.bottom).  With N(p, q) the matrix counting
    squares by a pair of edges, the total is the contraction
    sum N(R,B)[r,b] N(L,B)[r,b'] N(T,R)[b,r'] N(L,T)[r',b'].
    """
    c = model.code()
    a = c.arrows

    def pairs(p, q):
        return np.bincount(p * a + q, minlength=a * a).reshape(a, a)

    upper = pairs(c.R, c.B).T @ pairs(c.L, c.B)  # [x.bottom, y.bottom]
    lower = pairs(c.T, c.R) @ pairs(c.L, c.T)    # [z.top, w.top]
    return int((upper.astype(object) * lower).sum())


def find_interchange_counterexample(model: DgtModel, comp2=comp_h):
    """First 2x2 arrangement on which the two evaluation orders differ.

    Scans quadruples in the model's canonical order using ``comp2`` for the
    horizontal pasting; with the real composition this returns None.
    SizeLimit, naming the count, once ``MAX_COUNTEREXAMPLE_SCAN``
    arrangements have been scanned without a counterexample.
    """
    scanned = 0
    for x in model.squares:
        for y in model.squares_with(left=x.right):
            upper = comp2(x, y)
            for z in model.squares_with(top=x.bottom):
                left_side = comp_v(x, z)
                for w in model.squares_with(left=z.right, top=y.bottom):
                    if scanned == MAX_COUNTEREXAMPLE_SCAN:
                        raise SizeLimit(
                            f"{model.name}: no counterexample in the first {scanned} of "
                            f"{count_compatible_quadruples(model)} arrangements, the most "
                            f"the object-level scan takes")
                    scanned += 1
                    lhs = comp_v(upper, comp2(z, w))
                    rhs = comp2(left_side, comp_v(y, w))
                    if lhs != rhs:
                        return (x, y, z, w)
    return None


def _assoc_sweep(model: DgtModel, verified: _Verified, name: str) -> tuple[int, int, tuple | None]:
    """Exhaustive associativity over the table ``name``, "H" or "V", of
    ``verified``, which pastes the edge ``out`` of one square to the edge
    ``into`` of the next (``_PASTES``).

    ``table[table[x, y], z] == table[x, table[y, z]]`` for every x, y, z
    with out(x) = in(y) and out(y) = in(z).  One block per (e1, e2): the
    product of the x with out e1, the y with in e1 and out e2 and the z with
    in e2.  Both sides are row gathers, per chunk of x and of y: rows of
    table[u, zs], over the squares u with out e2, at the rank of table[x, y]
    among them, laid out (x, y, z); and rows of table[xs, v].T, over the
    squares v with in e1, built once per e1, at the rank of table[y, z],
    laid out (y, z, x) and compared through a transposed view.

    Each symmetry that ``_verify`` found to carry the table onto itself
    (inv_h, inv_v, the conjugations) maps the triples and both their sides
    one to one onto themselves and whole blocks onto blocks
    (``_Symmetry.triple_block``): only the least block of each orbit is
    compared, unless that finds a violation (``_orbit_sweep``).  Returns
    (checked, violations, first violating (x, y, z) or None).
    """
    c, table, (out, into) = model.code(), verified.tables[name], _PASTES[name]
    by_out, by_in, Y = model.groups(out), model.groups(into), model.groups(into, out)
    out_rank, in_rank = by_out.rank(), by_in.rank()
    p = np.arange(c.arrows)
    sizes = Y.size(p[:, None], p) * by_out.size(p)[:, None] * by_in.size(p)  # per (e1, e2)
    blocks = np.argwhere(sizes)

    # chunks of x sized by the largest group of z, so that one y's
    # arrangements within a chunk stay within _PIECE
    x_step = max(1, _PIECE // max(1, int(by_in.count.max())))

    def pieces(rows):
        rhs_at = None
        for e1, e2 in rows.tolist():
            xs, ys, zs = by_out.members(e1), Y.members(e1, e2), by_in.members(e2)
            if rhs_at != e1:
                rhs_at, vs = e1, by_in.members(e1)
                rhs_parts = [_odd_rows(_sub(table, xs[lo:lo + x_step], vs).T)
                             for lo in range(0, len(xs), x_step)]
            lhs_table = _sub(table, by_out.members(e2), zs)
            txy, tyz = out_rank.take(_sub(table, xs, ys)), in_rank.take(_sub(table, ys, zs))
            for k, rhs_part in enumerate(rhs_parts):
                xp = slice(k * x_step, (k + 1) * x_step)
                nx = len(xs[xp])
                y_step = max(1, _PIECE // (nx * len(zs)))
                for lo in range(0, len(ys), y_step):
                    yp = slice(lo, lo + y_step)
                    yield (lhs_table.take(txy[xp, yp], axis=0),
                           rhs_part.take(tyz[yp], axis=0)[..., :nx].transpose(2, 0, 1),
                           (xs[xp], ys[yp], zs))

    images = [s.triple_block(name, *blocks.T) for s in verified.on(name)]
    return _orbit_sweep(lambda rows: _class_sweep(rows, pieces), blocks, c.arrows, images,
                        lambda rows: sizes[rows[:, 0], rows[:, 1]])


def validate_dgt(model: DgtModel, interchange: str = "exhaustive", seed: int = 0,
                 samples: int = 20000) -> Report:
    """Sweep the double-groupoid axioms over the whole model.

    Every composition law reads the tables ``H``/``V``; the degeneracies
    and the unit and inverse laws read the indices of ``model.maps()``.
    Only the connections, the model's given data, are checked as objects.
    ``interchange`` is "exhaustive" or "sampled" (``samples`` 2x2 grids
    drawn at ``seed`` by ``draw_grids``); any other value is a ValueError
    before any table is built.

    The tables need no pasting check: ``tables()`` builds each pasting as
    the square on its forced edges, composed ones included, and refuses a
    model where there is none.  Every law sweep reads one check of the
    symmetries (``_verify``).  Where the transpose tau holds, it maps H's
    triples and both their sides one to one onto V's, so v-associativity
    takes h-associativity's counts; otherwise V gets its own sweep.
    """
    if interchange not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown interchange mode {interchange!r}")
    report = Report(f"dgt {model.name}")
    t = model.tables()  # first, so an oversized model fails before any sweep
    H, V, c = t.H, t.V, model.code()
    P, sq, n = model.edges, model.squares, len(model.squares)
    report.count(n)
    for s in sq:
        if not recheck_boundary(s):
            report.fail("boundary", f"square {s} violates the boundary law")
    # degeneracies and connections are present and thin; a degeneracy that
    # maps() finds carries its fiber's unit, so only a connection can be thick
    m = model.maps()
    report.count(4 * len(c.names))
    index = model.encoded.base.index
    for a in sorted(P.arrows):
        k, cm, cp = index[a], model.connections_minus[a], model.connections_plus[a]
        for present, s, label in ((m.eps_v[k] >= 0, None, "eps_v"), (m.eps_h[k] >= 0, None, "eps_h"),
                                  (cm in model, cm, "conn-"), (cp in model, cp, "conn+")):
            if not present:
                report.fail("degeneracy-closure", f"{label}({a}) not in model")
            elif s is not None and not is_thin(s):
                report.fail("degeneracy-thin", f"{label}({a}) is not thin")
    for a in sorted(P.arrows):
        gm, gp = model.connections_minus[a], model.connections_plus[a]
        e_dst, e_src = P.id_at(P.dst[a]), P.id_at(P.src[a])
        report.count(2)
        if (gm.top, gm.left, gm.right, gm.bottom) != (a, a, e_dst, e_dst):
            report.fail("connection-boundary", f"conn-({a}) has wrong edges")
        if (gp.bottom, gp.right, gp.top, gp.left) != (a, a, e_src, e_src):
            report.fail("connection-boundary", f"conn+({a}) has wrong edges")
    # units and inverses; a law whose unit is absent is left to
    # degeneracy-closure, so a read at a -1 never counts
    i = np.arange(n)
    right, left, top, bottom = m.eps_h[c.R], m.eps_h[c.L], m.eps_v[c.T], m.eps_v[c.B]

    def fails(unit, table, x, y, want):
        return (unit >= 0) & (table[x, y] != want)

    laws = (("h-unit", "eps_h unit law", fails(right, H, i, right, i) | fails(left, H, left, i, i)),
            ("v-unit", "eps_v unit law", fails(top, V, top, i, i) | fails(bottom, V, i, bottom, i)),
            ("h-inverse", "inv_h", (m.inv_h < 0) | fails(left, H, i, m.inv_h, left)),
            ("v-inverse", "inv_v", (m.inv_v < 0) | fails(top, V, i, m.inv_v, top)))
    report.count(6 * n)
    for k in np.flatnonzero(np.any([bad for _, _, bad in laws], axis=0)):
        for law, what, bad in laws:
            if bad[k]:
                report.fail(law, f"{what} fails at {sq[k]}")
    report.count(int((H >= 0).sum() + (V >= 0).sum()))
    verified = _verify(model, H, V)
    h = _assoc_sweep(model, verified, "H")
    v = h if verified.transposed else _assoc_sweep(model, verified, "V")
    for law, (checked, bad, _) in (("h", h), ("v", v)):
        report.count(checked)
        if bad:
            report.fail(f"{law}-associativity", f"{bad} violating triples")
    # thin squares closed under both compositions: the thin x thin blocks
    thin_at = c.E == c.unit[c.R]
    thin = np.flatnonzero(thin_at)
    hits = []
    for op, table in enumerate((H, V)):
        block = table[np.ix_(thin, thin)]
        i, j = np.nonzero(block >= 0)
        report.count(len(i))
        bad = ~thin_at[block[i, j]]
        hits += zip(thin[i[bad]], itertools.repeat(op), thin[j[bad]])
    for i, op, j in sorted(hits):
        report.fail("thin-closure", f"{sq[i]} {('o2', 'o1')[op]} {sq[j]} is not thin")
    # interchange
    if interchange == "exhaustive":
        checked, bad, first = _interchange(model, verified)
        report.count(checked)
        if bad:
            report.fail("interchange", f"{bad} violations, first at indices {first}")
    else:
        # with no arrangement at all every grid would fail, so draw none
        drawn = samples if count_compatible_quadruples(model) else 0
        x, y, z, w = model.draw_grids(random.Random(seed), drawn, 2, 2).reshape(drawn, 4).T
        report.count(drawn)
        # tables() defines every entry an edge-compatible pair reads
        for k in np.flatnonzero(V[H[x, y], H[z, w]] != H[V[x, z], V[y, w]]):
            report.fail("interchange", "sampled violation at "
                        + ", ".join(str(sq[q[k]]) for q in (x, y, z, w)))
    return report


# -- connection transport law ---------------------------------------------------

def thin_candidate_family(model: DgtModel) -> list[Square]:
    """Degeneracies and connections of every edge, deduplicated by value."""
    out = {}
    for a in sorted(model.edges.arrows):
        for sq in (
            eps_v(model.xm, a),
            eps_h(model.xm, a),
            model.connections_minus[a],
            model.connections_plus[a],
        ):
            out[sq.key()] = sq
    return [out[k] for k in sorted(out)]


def transport_fill_search(model: DgtModel, a: str, b: str):
    """Corner fills making [[conn-(a), X], [Y, conn-(b)]] compose to conn-(ab).

    Searches the thin candidate family under the seam constraints plus the
    requirement that the outer boundary equal that of conn-(a*b); returns the
    list of (X, Y) fills that survive.
    """
    P = model.edges
    ab = P.compose(a, b)
    target = model.connections_minus[ab]
    corner_a = model.connections_minus[a]
    corner_b = model.connections_minus[b]
    family = thin_candidate_family(model)
    xs = [
        s
        for s in family
        if s.left == corner_a.right
        and s.bottom == corner_b.top
        and P.compose(corner_a.top, s.top) == target.top
        and P.compose(s.right, corner_b.right) == target.right
    ]
    ys = [
        s
        for s in family
        if s.top == corner_a.bottom
        and s.right == corner_b.left
        and P.compose(corner_a.left, s.left) == target.left
        and P.compose(s.bottom, corner_b.bottom) == target.bottom
    ]
    return [(x, y) for x in xs for y in ys]


def connection_transport_report(model: DgtModel) -> Report:
    """Uniqueness and correctness of the 2x2 transport layout for conn-."""
    from .grids import Grid, grid_compose

    report = Report(f"transport {model.name}")
    P = model.edges
    for a in sorted(P.arrows):
        for b in sorted(P.arrows):
            if P.dst[a] != P.src[b]:
                continue
            report.count()
            fills = transport_fill_search(model, a, b)
            if len(fills) != 1:
                report.fail(
                    "transport-uniqueness",
                    f"conn-({a}*{b}): {len(fills)} edge-compatible fills",
                )
                continue
            x, y = fills[0]
            grid = Grid(((model.connections_minus[a], x), (y, model.connections_minus[b])))
            if grid_compose(grid) != model.connections_minus[P.compose(a, b)]:
                report.fail("transport-value", f"conn-({a}*{b}) not reproduced")
    return report


# -- gamma: crossed module of a model --------------------------------------------

def gamma(d: DgtModel, name: str | None = None) -> CrossedModuleData:
    """Read a crossed module off a model using only its own operations.

    The fiber at an object collects the squares whose top, left and right
    edges are identities there; they form a group under horizontal pasting,
    the boundary is the bottom edge, and arrows act by the degenerate
    three-square sandwich  eps_v(p^-1) o2 m o2 eps_v(p).
    """
    P = d.edges
    fibers: dict[str, FiniteGroup] = {}
    mu: dict[str, dict[str, str]] = {}
    fiber_squares: dict[str, list[Square]] = {}
    elt_name: dict[tuple, str] = {}
    for s in sorted(P.objects):
        e = P.id_at(s)
        members = sorted(d.squares_with(top=e, left=e, right=e), key=lambda q: q.key())
        if identity_square(d.xm, s) not in members:
            raise InvalidDgt(f"{d.name}: no identity square at {s!r}")
        fiber_squares[s] = members
        names = {q.key(): f"q{i}" for i, q in enumerate(members)}
        elt_name.update(names)
        table = {}
        for q1 in members:
            for q2 in members:
                prod = comp_h(q1, q2)
                if prod.key() not in names:
                    raise InvalidDgt(
                        f"{d.name}: fiber at {s!r} is not closed under pasting"
                    )
                table[(names[q1.key()], names[q2.key()])] = names[prod.key()]
        ident = names[identity_square(d.xm, s).key()]
        inverse = {n1: n2 for (n1, n2), prod in table.items() if prod == ident}
        if len(inverse) != len(members):
            raise InvalidDgt(f"{d.name}: fiber at {s!r} has no inverses")
        fibers[s] = FiniteGroup(f"gamma@{s}", tuple(names.values()), table, ident, inverse)
        mu[s] = {names[q.key()]: q.bottom for q in members}
    action: dict[tuple[str, str], str] = {}
    for p in P.arrows:
        left_wall = eps_v(d.xm, P.inv(p))
        right_wall = eps_v(d.xm, p)
        for q in fiber_squares[P.src[p]]:
            moved = comp_h(comp_h(left_wall, q), right_wall)
            nm = elt_name.get(moved.key())
            if nm is None or moved not in d:
                raise InvalidDgt(f"{d.name}: sandwich of {q} along {p} escapes the fibers")
            action[(elt_name[q.key()], p)] = nm
    return CrossedModuleData(name or f"gamma({d.name})", P, fibers, mu, action)


# -- crossed module isomorphism over a fixed base --------------------------------

def _fiber_isos(ma: FiniteGroup, mb: FiniteGroup, mu_a: dict[str, str], mu_b: dict[str, str]):
    """Yield every group isomorphism ma -> mb compatible with the boundaries."""
    if ma.order() != mb.order():
        return
    candidates = {
        m: [
            n
            for n in mb.elements
            if mu_b[n] == mu_a[m] and ((m == ma.identity) == (n == mb.identity))
        ]
        for m in ma.elements
    }
    order = sorted(ma.elements)

    def extend(i, phi, used):
        if i == len(order):
            full = dict(phi)
            if all(
                full[ma.mul(m1, m2)] == mb.mul(full[m1], full[m2])
                for m1 in ma.elements
                for m2 in ma.elements
            ):
                yield full
            return
        m = order[i]
        for n in candidates[m]:
            if n in used:
                continue
            phi[m] = n
            used.add(n)
            for m2 in list(phi):
                if (phi.get(ma.mul(m, m2)) not in (None, mb.mul(n, phi[m2]))
                        or phi.get(ma.mul(m2, m)) not in (None, mb.mul(phi[m2], n))):
                    break
            else:
                yield from extend(i + 1, phi, used)
            used.discard(n)
            del phi[m]

    yield from extend(0, {}, set())


def find_xmod_isomorphism(a: CrossedModuleData, b: CrossedModuleData):
    """Fiberwise group isomorphism over the shared base, or None.

    Searches all boundary-compatible fiber isomorphisms and keeps the first
    combination that is also equivariant for the base action.
    """
    if (
        a.base.objects != b.base.objects
        or a.base.arrows != b.base.arrows
        or a.base.table != b.base.table
    ):
        return None
    objects = sorted(a.base.objects)
    per_object = []
    for s in objects:
        isos = list(_fiber_isos(a.fibers[s], b.fibers[s], a.mu[s], b.mu[s]))
        if not isos:
            return None
        per_object.append(isos)
    for combo in itertools.product(*per_object):
        iso = dict(zip(objects, combo))
        if all(
            iso[a.base.dst[p]][a.action[(m, p)]] == b.action[(iso[a.base.src[p]][m], p)]
            for p in a.base.arrows
            for m in a.fibers[a.base.src[p]].elements
        ):
            return iso
    return None
