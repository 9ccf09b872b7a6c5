"""Finite double-groupoid models: all squares over a crossed module.

``lambda_functor`` builds the model of every filled square over a crossed
module; ``square_model`` is the special case of trivial fibers, whose squares
are exactly the commuting edge quadruples of the base groupoid.  ``gamma``
goes back: it reads a crossed module off a model using only the model's own
compositions and degeneracies.

Every composition law in ``validate_dgt`` reads the tables ``H``/``V``.
Each model is encoded once as int arrays (``SquareCode``): base composition,
fiber multiplication over global element ids, the action as element x arrow
-> element, and per square its element and four edges.  ``DgtModel.tables``
builds ``H``/``V`` from those arrays with numpy formulas, one block per
pasting edge.  ``DgtModel.groups`` groups the squares by the arrows on a
tuple of edges, once per model and tuple, for the tables, the sweeps, the
sampled draws and the cube kernel.  A law sweep splits its arrangements
into blocks, one per tuple of shared edges, each a product of such groups;
both sides of a block are row gathers from small sub-tables of ``H``/``V``,
at each inner pasting's rank in the group of its forced edge, so a sweep
never reads a -1 as an index.  The object-level calculus
(``squares.comp_h``/``comp_v``) is the oracle the tables are tested against
and, in ``find_interchange_counterexample``, the readable scan for a
corrupted pasting; ``count_compatible_quadruples`` reads only the edges,
never a table, so it checks the sweeps' coverage independently.
"""

import itertools
import os
import pickle
import random
import signal
from dataclasses import dataclass, field

import numpy as np

from .crossed import CrossedModuleData, trivial_crossed_module, validate_crossed_module
from .errors import InvalidCrossedModule, InvalidDgt, SizeLimit
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
    inv_h,
    inv_v,
    is_thin,
    recheck_boundary,
)

_EDGES = ("top", "right", "bottom", "left")

# Largest combined size of the two composition tables tables() will allocate.
# It also keeps every flat table index below 2**31.
MAX_TABLE_BYTES = 1 << 28

# Most arrangements a law sweep compares at once; bounds its temporaries.
_PIECE = 1 << 16

# Fewest checks for which a law sweep forks a second worker.  A fork and its
# wait cost about 5 ms on a 2-vCPU VM, where the block kernel checks some
# 4e8 triples/s: near 2**22 checks a fork about breaks even (A3 in S3's
# 7.6M-check associativity sweeps take 19-21 ms serially, 17-18 ms forked),
# and past that halving the sweep pays, while smaller sweeps stay here.
_FORK_CHECKS = 1 << 22


@dataclass
class SquareCode:
    """A model's squares as int arrays; -1 marks an undefined product.

    Arrows are numbered in sorted order and fiber elements globally, object
    by object.  ``E, T, R, B, L`` give each square's element and its top,
    right, bottom and left edges, also by name in ``edge``; ``order`` lists
    the squares by ``key``, whose sorted values are ``sorted_keys``.
    """

    arrows: int
    comp: np.ndarray     # arrow x arrow -> arrow
    inv: np.ndarray      # arrow -> its inverse
    mul: np.ndarray      # element x element -> element, within one fiber
    elt_inv: np.ndarray  # element -> its inverse in its fiber
    unit: np.ndarray     # arrow -> the identity element of the fiber at its target
    act: np.ndarray      # element x arrow -> element, m^p
    E: np.ndarray
    T: np.ndarray
    R: np.ndarray
    B: np.ndarray
    L: np.ndarray
    order: np.ndarray = field(init=False, repr=False)
    sorted_keys: np.ndarray = field(init=False, repr=False)
    edge: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.edge = dict(zip(_EDGES, (self.T, self.R, self.B, self.L)))
        keys = self.key(self.E, self.T, self.R, self.L)
        self.order = np.argsort(keys)
        self.sorted_keys = keys[self.order]

    def key(self, elt, top, right, left):
        """One integer per (element, top, right, left); the bottom follows."""
        a = self.arrows
        return ((elt * a + top) * a + right) * a + left


def _encode(xm: CrossedModuleData, squares) -> SquareCode:
    P = xm.base
    arrows = {a: i for i, a in enumerate(sorted(P.arrows))}
    elts = {}
    for s in sorted(P.objects):
        for m in xm.fibers[s].elements:
            elts[(s, m)] = len(elts)
    comp = np.full((len(arrows), len(arrows)), -1, np.intp)
    for (a, b), ab in P.table.items():
        comp[arrows[a], arrows[b]] = arrows[ab]
    inv = np.array([arrows[P.inv(a)] for a in arrows], np.intp)
    unit = np.array([elts[(P.dst[a], xm.fibers[P.dst[a]].identity)] for a in arrows], np.intp)
    mul = np.full((len(elts), len(elts)), -1, np.intp)
    elt_inv = np.empty(len(elts), np.intp)
    for s in P.objects:
        M = xm.fibers[s]
        for m, n in itertools.product(M.elements, repeat=2):
            mul[elts[(s, m)], elts[(s, n)]] = elts[(s, M.mul(m, n))]
        for m in M.elements:
            elt_inv[elts[(s, m)]] = elts[(s, M.inv(m))]
    act = np.full((len(elts), len(arrows)), -1, np.intp)
    for p, i in arrows.items():
        for m in xm.fibers[P.src[p]].elements:
            act[elts[(P.src[p], m)], i] = elts[(P.dst[p], xm.action[(m, p)])]
    cols = np.array(
        [(elts[(P.dst[s.right], s.elt)], arrows[s.top], arrows[s.right],
          arrows[s.bottom], arrows[s.left]) for s in squares],
        dtype=np.intp,
    ).reshape(-1, 5)
    return SquareCode(len(arrows), comp, inv, mul, elt_inv, unit, act,
                      *(cols[:, k].copy() for k in range(5)))


class _Groups:
    """Indices grouped by their entries in ``cols``: squares by the arrows on
    some of their edges, or cubes by one face.

    Each column's entries lie below ``radix``, and a key packs one entry per
    column in order.  The groups run in key order, each ascending; a key
    that no index has lands on the empty last group.  Lookups take one
    entry, or one array of entries, per column: arrays go through a search
    of the keys, scalars through a dict.
    """

    def __init__(self, radix: int, n: int, cols=()):
        self.radix = radix
        keys, dense = np.unique(self.pack(cols, np.zeros(n, np.int64)), return_inverse=True)
        self.ids = dict(zip(keys.tolist(), range(len(keys))))  # key -> group
        # a sentinel above every key: a failed search lands on the empty group
        self.keys = np.append(keys, np.iinfo(np.int64).max)
        self.order = np.argsort(dense, kind="stable")
        self.count = np.bincount(dense, minlength=len(self.keys))
        self.start = np.cumsum(self.count) - self.count
        self.lists = {}

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
        g = self.ids.get(self.pack(arrows), len(self.keys) - 1)
        return self.order[self.start[g]:self.start[g] + self.count[g]]

    def options(self, *arrows) -> list[int]:
        """``members`` as a list, kept per key for single draws."""
        key = self.pack(arrows)
        out = self.lists.get(key)
        if out is None:
            out = self.lists[key] = self.members(*arrows).tolist()
        return out

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
        count = self.count[g]
        total = int(count.sum())
        need = (len(prefix) + 3) * total * np.dtype(np.intp).itemsize
        if need > MAX_TABLE_BYTES:
            raise SizeLimit(f"{total} tuples of {len(prefix) + 1} indices need "
                            f"{need} bytes, over the limit of {MAX_TABLE_BYTES}")
        at = np.repeat(self.start[g] - (np.cumsum(count) - count), count)
        at += np.arange(total)
        return (*(np.repeat(p, count) for p in prefix), self.order[at])


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


@dataclass
class DgtModel:
    """Edge groupoid plus the full set of squares with both compositions."""

    name: str
    xm: CrossedModuleData
    edges: FiniteGroupoid
    squares: tuple[Square, ...]
    connections_minus: dict[str, Square]
    connections_plus: dict[str, Square]
    index: dict[tuple, int] = field(default=None, repr=False)
    _edge_index: dict = field(default_factory=dict, init=False, repr=False)
    _code: SquareCode = field(default=None, init=False, repr=False)
    _groups: dict = field(default_factory=dict, init=False, repr=False)
    _tables: SquareTables = field(default=None, init=False, repr=False)
    _cubes: object = field(default=None, init=False, repr=False)  # the cube kernel's index maps

    def __post_init__(self):
        if self.index is None:
            self.index = {s.key(): i for i, s in enumerate(self.squares)}

    def __contains__(self, s: Square) -> bool:
        return s.key() in self.index

    def size(self) -> int:
        return len(self.squares)

    @property
    def thin_squares(self) -> list[Square]:
        return [s for s in self.squares if is_thin(s)]

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

    def code(self) -> SquareCode:
        if self._code is None:
            self._code = _encode(self.xm, self.squares)
        return self._code

    def groups(self, *edges) -> _Groups:
        """The squares grouped by the arrows on ``edges``, built once per tuple."""
        g = self._groups.get(edges)
        if g is None:
            c = self.code()
            g = self._groups[edges] = _Groups(c.arrows, len(self.squares), [c.edge[e] for e in edges])
        return g

    def find(self, elt, top, right, bottom, left) -> np.ndarray:
        """Index of the square with each element and four edges, in ``code()``
        numbering; -1 where the model has none or an argument is -1.

        The arguments broadcast together; a search of the sorted keys.
        """
        c = self.code()
        elt, top, right, bottom, left = np.broadcast_arrays(elt, top, right, bottom, left)
        q = c.key(elt, top, right, left)
        if not len(c.order):
            return np.full(q.shape, -1, np.intp)
        pos = np.minimum(np.searchsorted(c.sorted_keys, q), len(c.order) - 1)
        idx = c.order[pos]
        given = (elt >= 0) & (top >= 0) & (right >= 0) & (bottom >= 0) & (left >= 0)
        return np.where(given & (c.sorted_keys[pos] == q) & (c.B[idx] == bottom), idx, -1)

    def tables(self) -> SquareTables:
        """Both composition tables, built once; SizeLimit past MAX_TABLE_BYTES."""
        if self._tables is None:
            n = len(self.squares)
            dtype = check_table_size(self.name, n)
            c = self.code()

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
                i, j = I[:, None], J[None, :]
                fill(H, "horizontal", I, J, c.mul[c.act[c.E[i], c.B[j]], c.E[j]],
                     c.comp[c.T[i], c.T[j]], c.R[j], c.comp[c.B[i], c.B[j]], c.L[i])
                # upper square i, lower square j pasted along their horizontal edge e
                I, J = self.groups("bottom").members(e), self.groups("top").members(e)
                i, j = I[:, None], J[None, :]
                fill(V, "vertical", I, J, c.mul[c.E[j], c.act[c.E[i], c.R[j]]],
                     c.T[i], c.comp[c.R[i], c.R[j]], c.B[j], c.comp[c.L[i], c.L[j]])
            self._tables = SquareTables(H, V)
        return self._tables


def lambda_functor(x: CrossedModuleData, name: str | None = None) -> DgtModel:
    """All filled squares over a valid crossed module, with its structure."""
    report = validate_crossed_module(x)
    if not report.ok:
        raise InvalidCrossedModule(report)
    P = x.base
    arrows = sorted(P.arrows)
    preimage: dict[str, dict[str, list[str]]] = {
        s: {} for s in P.objects
    }
    for s in P.objects:
        for m in x.fibers[s].elements:
            preimage[s].setdefault(x.mu[s][m], []).append(m)
    squares = []
    for top in arrows:
        rights = [a for a in arrows if P.src[a] == P.dst[top]]
        lefts = [a for a in arrows if P.src[a] == P.src[top]]
        for left in lefts:
            for right in rights:
                z = P.dst[right]
                for bottom in P.hom(P.dst[left], z):
                    word = P.compose_all([P.inv(bottom), P.inv(left), top, right])
                    for elt in preimage[z].get(word, ()):
                        squares.append(Square(x, elt, top, right, bottom, left))
    squares.sort(key=lambda s: s.key())
    return DgtModel(
        name or f"squares({x.name})",
        x,
        P,
        tuple(squares),
        {a: conn_minus(x, a) for a in arrows},
        {a: conn_plus(x, a) for a in arrows},
    )


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
        from .errors import EdgeMismatch

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


def _class_sweep(blocks, pieces, total: int):
    """Check one law on every block of its edge-compatible arrangements.

    ``blocks`` lists the blocks, one per row, in the order they are swept.
    ``pieces(rows)`` yields the law's two sides on the arrangements of those
    rows as ``(lhs, rhs, members)``: two equal-shaped arrays and one
    ascending array of square indices per axis, so that position ``i``
    holds the arrangement ``(members[0][i[0]], members[1][i[1]], ...)``.
    The axes run in the law's scan order.  Returns (checks, violations,
    first): the checks are the sizes of the compared arrays summed, and
    ``first`` is the least violating arrangement in scan order, or None.

    Two workers at most: when ``total``, the sweep's exact check count, is
    at least ``_FORK_CHECKS``, there are two blocks or more and the process
    may run on two CPUs, one ``os.fork()``ed child sweeps every other block
    while this process sweeps the rest; otherwise the blocks run serially
    here.  Each arrangement lies in exactly one block, so the sums of the
    counts and the lesser ``first`` equal the serial result.
    """
    def sweep(rows):
        checked = bad = 0
        first = None
        for lhs, rhs, members in pieces(rows):
            checked += lhs.size
            miss = lhs != rhs
            nb = int(np.count_nonzero(miss))
            if nb:
                bad += nb
                at = np.unravel_index(np.argmax(miss), miss.shape)
                hit = tuple(int(m[i]) for m, i in zip(members, at))
                first = hit if first is None else min(first, hit)
        return checked, bad, first

    if (total < _FORK_CHECKS or len(blocks) < 2 or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2):
        return sweep(blocks)
    return _forked(sweep, blocks)


def _forked(sweep, blocks):
    """``sweep(blocks)``, with every other block swept by a forked child.

    The child pickles its result, or the text of what it raised, down a
    pipe and leaves with ``os._exit``; a child that fails makes this raise.
    If this side raises, the child is killed; either way it is reaped before
    this returns.  When no child can be forked, all blocks run here.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return sweep(blocks)
    if pid == 0:
        try:
            os.close(r)
            try:
                out = ("ok", sweep(blocks[1::2]))
            except BaseException as exc:  # reported to the parent, then exit
                out = ("error", f"{type(exc).__name__}: {exc}")
            with os.fdopen(w, "wb") as pipe:
                pickle.dump(out, pipe)
        finally:
            os._exit(0)
    os.close(w)
    try:
        c0, b0, f0 = sweep(blocks[::2])
        with os.fdopen(r, "rb") as pipe:
            r = None
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        pid = None
    finally:
        if r is not None:
            os.close(r)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"sweep worker died without a result (wait status {status})")
    kind, theirs = pickle.loads(data)
    if kind != "ok":
        raise RuntimeError(f"sweep worker failed: {theirs}")
    c1, b1, f1 = theirs
    # each first is the least violation of its half, in scan order
    return c0 + c1, b0 + b1, min((f for f in (f0, f1) if f is not None), default=None)


def _pastings(model: DgtModel, table: np.ndarray, name: str, xs, ys, edge, want):
    """``table[xs, ys]``, once every entry is a square whose ``edge`` is ``want``.

    A sweep finds each such pasting by its rank among the squares with that
    edge, so a -1 or a square off the edge the pasting forces would read
    another square's row; InvalidDgt names the first such pair instead.
    """
    t = table.take(xs, 0).take(ys, 1)
    wrong = (t < 0) | (edge.take(t) != want)
    if wrong.any():
        i, j = np.unravel_index(np.argmax(wrong), wrong.shape)
        at = f"{model.name}: {name}[{xs[i]}, {ys[j]}]"
        if t[i, j] < 0:
            raise InvalidDgt(f"{at} is -1 on an edge-compatible pair")
        raise InvalidDgt(f"{at} = {t[i, j]} is off the edge "
                         f"{sorted(model.edges.arrows)[want]} that the pasting forces")
    return t


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
    Both come out as (z, x, y, w) arrays.  Returns (checked, violations,
    first violating (x, y, z, w) in the scan order x, z, y, w, or None).
    """
    c = model.code()
    by_bottom, by_right = model.groups("bottom"), model.groups("right")
    bottom_rank, right_rank = by_bottom.rank(), by_right.rank()
    X, Y, Z, W = (model.groups(*e) for e in (("right", "bottom"), ("left", "bottom"),
                                             ("top", "right"), ("left", "top")))
    p = np.arange(c.arrows)
    nx, ny, nz, nw = (g.size(p[:, None], p) for g in (X, Y, Z, W))
    blocks = np.array([(beta, rho, b, r) for beta, rho in np.argwhere(nw.T).tolist()
                       for b in np.flatnonzero(nz[:, rho]).tolist()
                       for r in np.flatnonzero(nx[:, b] * ny[:, beta]).tolist()],
                      np.intp).reshape(-1, 4)

    def pieces(rows):
        lhs_at = rhs_at = None
        for beta, rho, b, r in rows.tolist():
            xs, ys = X.members(r, b), Y.members(r, beta)
            zs, ws = Z.members(b, rho), W.members(rho, beta)
            d, e = c.comp[b, beta], c.comp[r, rho]
            if lhs_at != (beta, rho, b):
                lhs_at = (beta, rho, b)
                hzw = _pastings(model, H, "H", zs, ws, c.T, d)
                lhs_table = np.ascontiguousarray(
                    V.take(by_bottom.members(d), 0).take(hzw, 1).transpose(1, 0, 2))
            if rhs_at != (beta, rho):
                rhs_at, rhs_tables = (beta, rho), {}  # per r
            if r not in rhs_tables:
                vyw = _pastings(model, V, "V", ys, ws, c.L, e)
                rhs_tables[r] = H.take(by_right.members(e), 0).take(vyw, 1)
            hxy = bottom_rank.take(_pastings(model, H, "H", xs, ys, c.B, d))
            vxz = right_rank.take(_pastings(model, V, "V", xs, zs, c.R, e)).T
            step = max(1, _PIECE // (len(ys) * len(zs) * len(ws)))
            for lo in range(0, len(xs), step):
                part = slice(lo, lo + step)
                lhs = lhs_table.take(hxy[part], axis=1)
                rhs = rhs_tables[r].take(vxz[:, part], axis=0)
                yield lhs.transpose(1, 0, 2, 3), rhs.transpose(1, 0, 2, 3), (xs[part], zs, ys, ws)

    checked, bad, first = _class_sweep(blocks, pieces, count_compatible_quadruples(model))
    return checked, bad, None if first is None else (first[0], first[2], first[1], first[3])


def interchange_exhaustive(model: DgtModel) -> tuple[int, int, tuple | None]:
    """Check interchange on every edge-compatible 2x2 arrangement.

    Runs ``interchange_sweep`` on the model's own integer tables.  Returns
    (number of quadruples checked, number of violations, first violating
    quadruple of square indices or None).
    """
    t = model.tables()
    return interchange_sweep(model, t.H, t.V)


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
    """
    for x in model.squares:
        for y in model.squares_with(left=x.right):
            upper = comp2(x, y)
            for z in model.squares_with(top=x.bottom):
                left_side = comp_v(x, z)
                for w in model.squares_with(left=z.right, top=y.bottom):
                    lhs = comp_v(upper, comp2(z, w))
                    rhs = comp2(left_side, comp_v(y, w))
                    if lhs != rhs:
                        return (x, y, z, w)
    return None


def _assoc_sweep(model: DgtModel, table: np.ndarray, edge_out: np.ndarray,
                 edge_in: np.ndarray) -> tuple[int, int, tuple | None]:
    """Exhaustive associativity over one composition table.

    ``table[table[x, y], z] == table[x, table[y, z]]`` for every x, y, z
    with out(x) = in(y) and out(y) = in(z).  One block per (e1, e2): the
    product of the x with out e1, the y with in e1 and out e2 and the z with
    in e2.  The left side takes, along u, the sub-table table[u, z] over the
    squares u with out e2 at the rank of table[x, y] among them; the right
    side takes element (x, v) of table[x, v] over the squares v with in e1,
    at v the rank of table[y, z].  Returns (checked, violations, first
    violating (x, y, z) or None).
    """
    a, n = model.code().arrows, len(edge_out)
    by_out, by_in, Y = (_Groups(a, n, cols) for cols in ([edge_out], [edge_in], [edge_in, edge_out]))
    out_rank, in_rank = by_out.rank(), by_in.rank()
    p = np.arange(a)
    blocks = np.argwhere(Y.size(p[:, None], p) * by_out.size(p)[:, None] * by_in.size(p))

    def pieces(rows):
        rhs_at = None
        for e1, e2 in rows.tolist():
            xs, ys, zs = by_out.members(e1), Y.members(e1, e2), by_in.members(e2)
            if rhs_at != e1:
                rhs_at = e1
                rhs_table = table.take(xs, 0).take(by_in.members(e1), 1)
            lhs_table = table.take(by_out.members(e2), 0).take(zs, 1)
            txy = out_rank.take(_pastings(model, table, "table", xs, ys, edge_out, e2))
            tyz = in_rank.take(_pastings(model, table, "table", ys, zs, edge_in, e1))
            step = max(1, _PIECE // (len(ys) * len(zs)))
            for lo in range(0, len(xs), step):
                part = slice(lo, lo + step)
                yield (lhs_table.take(txy[part], axis=0), rhs_table[part].take(tyz, axis=1),
                       (xs[part], ys, zs))

    # (x, y, z) with x.out = y.in and y.out = z.in: summed over y
    total = int((by_out.size(edge_in) * by_in.size(edge_out)).sum())
    return _class_sweep(blocks, pieces, total)


def validate_dgt(model: DgtModel, interchange: str = "auto", seed: int = 0,
                 samples: int = 20000) -> Report:
    """Sweep the double-groupoid axioms over the whole model.

    Every composition law reads the tables ``H``/``V``; the object-level
    calculus only builds the squares they are checked against (degeneracies,
    connections, inverses).  ``interchange`` is "exhaustive", "sampled", or
    "auto" (exhaustive when the quadruple count stays below 2e8, sampled
    otherwise).
    """
    report = Report(f"dgt {model.name}")
    t = model.tables()  # first, so an oversized model fails before any sweep
    H, V, c = t.H, t.V, model.code()
    xm, P, sq, n = model.xm, model.edges, model.squares, len(model.squares)
    for s in sq:
        report.count()
        if not recheck_boundary(s):
            report.fail("boundary", f"square {s} violates the boundary law")
    # degeneracies and connections are present and thin; eh/ev give the
    # index of eps_h/eps_v per arrow, -1 when absent
    eh, ev = {}, {}
    for a in sorted(P.arrows):
        unit_v, unit_h = eps_v(xm, a), eps_h(xm, a)
        ev[a], eh[a] = model.index.get(unit_v.key(), -1), model.index.get(unit_h.key(), -1)
        for s, label in ((unit_v, "eps_v"), (unit_h, "eps_h"),
                         (model.connections_minus[a], "conn-"), (model.connections_plus[a], "conn+")):
            report.count()
            if s not in model:
                report.fail("degeneracy-closure", f"{label}({a}) not in model")
            elif not is_thin(s):
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
    # degeneracy-closure, so -1 never indexes a table
    report.count(6 * n)
    for i, s in enumerate(sq):
        right, left, top, bottom = eh[s.right], eh[s.left], ev[s.top], ev[s.bottom]
        hi, vi = model.index.get(inv_h(s).key(), -1), model.index.get(inv_v(s).key(), -1)
        if (right >= 0 and H[i, right] != i) or (left >= 0 and H[left, i] != i):
            report.fail("h-unit", f"eps_h unit law fails at {s}")
        if (top >= 0 and V[top, i] != i) or (bottom >= 0 and V[i, bottom] != i):
            report.fail("v-unit", f"eps_v unit law fails at {s}")
        if hi < 0 or (left >= 0 and H[i, hi] != left):
            report.fail("h-inverse", f"inv_h fails at {s}")
        if vi < 0 or (top >= 0 and V[i, vi] != top):
            report.fail("v-inverse", f"inv_v fails at {s}")
    report.count(int((H >= 0).sum() + (V >= 0).sum()))
    # composites stay inside the model: tables() checked every one
    ch, bh, _ = _assoc_sweep(model, H, c.R, c.L)
    report.count(ch)
    if bh:
        report.fail("h-associativity", f"{bh} violating triples")
    cv, bv, _ = _assoc_sweep(model, V, c.B, c.T)
    report.count(cv)
    if bv:
        report.fail("v-associativity", f"{bv} violating triples")
    # thin squares closed under both compositions: the thin x thin blocks
    thin_at = np.array([is_thin(q) for q in sq], bool)
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
    mode = interchange
    if mode == "auto":
        mode = "exhaustive" if count_compatible_quadruples(model) <= 2 * 10**8 else "sampled"
    if mode == "exhaustive":
        checked, bad, first = interchange_exhaustive(model)
        report.count(checked)
        if bad:
            report.fail("interchange", f"{bad} violations, first at indices {first}")
    elif mode == "sampled":
        # partners in model order, so each seed draws the same quadruples
        by_left, by_top, by_corner = (model.groups(*e) for e in (("left",), ("top",), ("left", "top")))
        rng = random.Random(seed)
        quads = []
        # with no arrangement at all every draw would fail, so draw none
        drawable = count_compatible_quadruples(model) > 0
        while drawable and len(quads) < samples:
            x = rng.randrange(n)
            ys, zs = by_left.members(c.R[x]), by_top.members(c.B[x])
            if not len(ys) or not len(zs):
                continue
            y, z = ys[rng.randrange(len(ys))], zs[rng.randrange(len(zs))]
            ws = by_corner.members(c.R[z], c.B[y])
            if not len(ws):
                continue
            quads.append((x, y, z, ws[rng.randrange(len(ws))]))
        report.count(len(quads))
        x, y, z, w = np.array(quads, np.intp).reshape(-1, 4).T
        # tables() defines every entry an edge-compatible pair reads
        for k in np.flatnonzero(V[H[x, y], H[z, w]] != H[V[x, z], V[y, w]]):
            report.fail("interchange", "sampled violation at "
                        + ", ".join(str(sq[q]) for q in quads[k]))
    else:
        raise ValueError(f"unknown interchange mode {interchange!r}")
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
        names = {}
        for i, q in enumerate(members):
            nm = f"q{i}"
            names[q.key()] = nm
            elt_name[q.key()] = nm
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
        inverse = {}
        for q1 in members:
            for q2 in members:
                if table[(names[q1.key()], names[q2.key()])] == ident:
                    inverse[names[q1.key()]] = names[q2.key()]
        if len(inverse) != len(members):
            raise InvalidDgt(f"{d.name}: fiber at {s!r} has no inverses")
        fibers[s] = FiniteGroup(
            f"gamma@{s}",
            tuple(sorted(names.values(), key=lambda nm: int(nm[1:]))),
            table,
            ident,
            inverse,
        )
        mu[s] = {names[q.key()]: q.bottom for q in members}
    action: dict[tuple[str, str], str] = {}
    for p in P.arrows:
        s, t = P.src[p], P.dst[p]
        left_wall = eps_v(d.xm, P.inv(p))
        right_wall = eps_v(d.xm, p)
        for q in fiber_squares[s]:
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
            ok = True
            for m2 in list(phi):
                if phi.get(ma.mul(m, m2)) not in (None, mb.mul(n, phi[m2])):
                    ok = False
                    break
                if phi.get(ma.mul(m2, m)) not in (None, mb.mul(phi[m2], n)):
                    ok = False
                    break
            if ok:
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
