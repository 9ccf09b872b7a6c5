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
pasting edge.  A sweep groups its outer square by edge class, so each costs
two flat gathers per arrangement.  The object-level calculus
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

# Partner tuples a sweep handles at once; bounds its temporaries.
_CHUNK = 1 << 14

# Fewest checks for which a law sweep forks a second worker.  A fork and its
# wait cost about 5 ms on a 2-vCPU VM, where the kernel checks about 1e8
# quadruples/s: 4.2M checks take some 40 ms serially, so halving them pays
# several times over, while smaller sweeps stay in one process.
_FORK_CHECKS = 1 << 22


@dataclass
class SquareCode:
    """A model's squares as int arrays; -1 marks an undefined product.

    Arrows are numbered in sorted order and fiber elements globally, object
    by object.  ``E, T, R, B, L`` give each square's element and its top,
    right, bottom and left edges.
    """

    arrows: int
    comp: np.ndarray  # arrow x arrow -> arrow
    mul: np.ndarray   # element x element -> element, within one fiber
    act: np.ndarray   # element x arrow -> element, m^p
    E: np.ndarray
    T: np.ndarray
    R: np.ndarray
    B: np.ndarray
    L: np.ndarray

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
    mul = np.full((len(elts), len(elts)), -1, np.intp)
    for s in P.objects:
        M = xm.fibers[s]
        for m, n in itertools.product(M.elements, repeat=2):
            mul[elts[(s, m)], elts[(s, n)]] = elts[(s, M.mul(m, n))]
    act = np.full((len(elts), len(arrows)), -1, np.intp)
    for p, i in arrows.items():
        for m in xm.fibers[P.src[p]].elements:
            act[elts[(P.src[p], m)], i] = elts[(P.dst[p], xm.action[(m, p)])]
    cols = np.array(
        [(elts[(P.dst[s.right], s.elt)], arrows[s.top], arrows[s.right],
          arrows[s.bottom], arrows[s.left]) for s in squares],
        dtype=np.intp,
    ).reshape(-1, 5)
    return SquareCode(len(arrows), comp, mul, act, *(cols[:, k].copy() for k in range(5)))


class _Groups:
    """Square indices grouped by an integer key, each group in model order."""

    def __init__(self, keys: np.ndarray, size: int):
        self.order = np.argsort(keys, kind="stable")
        self.count = np.bincount(keys, minlength=size)
        self.start = np.cumsum(self.count) - self.count

    def members(self, k) -> np.ndarray:
        return self.order[self.start[k]:self.start[k] + self.count[k]]

    def extend(self, prefix: tuple, key: np.ndarray):
        """Extend each prefix tuple by every member of its group ``key``.

        Yields (*prefix, member) as arrays, in prefix order with members
        ascending, in chunks of about ``_CHUNK`` tuples.
        """
        count = self.count[key]
        ends = np.cumsum(count)
        lo = 0
        while lo < len(key):
            base = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
            c = count[lo:hi]
            if ends[hi - 1] > base:
                offset = np.repeat(self.start[key[lo:hi]] - (np.cumsum(c) - c), c)
                member = self.order[offset + np.arange(ends[hi - 1] - base)]
                yield (*(np.repeat(p[lo:hi], c) for p in prefix), member)
            lo = hi


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
    _tables: SquareTables = field(default=None, init=False, repr=False)

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

    def tables(self) -> SquareTables:
        """Both composition tables, built once; SizeLimit past MAX_TABLE_BYTES."""
        if self._tables is None:
            n = len(self.squares)
            dtype = check_table_size(self.name, n)
            c = self.code()
            keys = c.key(c.E, c.T, c.R, c.L)
            order = np.argsort(keys)
            sorted_keys = keys[order]

            def fill(table, label, I, J, elt, top, right, bottom, left):
                q = c.key(elt, top, right, left)
                pos = np.minimum(np.searchsorted(sorted_keys, q), n - 1)
                idx = order[pos]
                if not ((sorted_keys[pos] == q) & (c.B[idx] == bottom)).all():
                    raise InvalidDgt(f"{self.name}: a {label} composite escapes the model")
                table[np.ix_(I, J)] = idx

            H = np.full((n, n), -1, dtype)
            V = np.full((n, n), -1, dtype)
            by = {e: _Groups(getattr(c, e), c.arrows) for e in "TRBL"}
            for e in range(c.arrows):
                # left square i, right square j pasted along their vertical edge e
                I, J = by["R"].members(e), by["L"].members(e)
                i, j = I[:, None], J[None, :]
                fill(H, "horizontal", I, J, c.mul[c.act[c.E[i], c.B[j]], c.E[j]],
                     c.comp[c.T[i], c.T[j]], c.R[j], c.comp[c.B[i], c.B[j]], c.L[i])
                # upper square i, lower square j pasted along their horizontal edge e
                I, J = by["B"].members(e), by["T"].members(e)
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


def _class_sweep(x_class: np.ndarray, classes: int, partners, evaluate, total: int):
    """Check one law for every outer square, grouped by its edge class.

    Every square x with ``x_class[x] == k`` shares the partner tuples that
    ``partners(k)`` yields in scan order, as chunks ``(members, aux)``:
    ``members`` holds one index array per partner square and ``aux`` is
    handed to ``evaluate(x, aux)``, which returns the law's two sides.
    Returns (checks, violations, first) with ``first`` the violation
    ``(x, *partners)`` that comes first in (x, scan) order, or None.

    Two workers at most: when ``total``, the sweep's exact check count, is
    at least ``_FORK_CHECKS``, there are two classes or more and the process
    may run on two CPUs, one ``os.fork()``ed child sweeps every other class
    while this process sweeps the rest; otherwise the classes run serially
    here.  Each x lies in exactly one class, so the sums of the counts and
    the ``first`` with the smaller x equal the serial result.
    """
    groups = _Groups(x_class, classes)
    ks = np.flatnonzero(groups.count)

    def sweep(ks):
        checked = bad = 0
        first = None
        for k in ks:
            xs = groups.members(k)
            for members, aux in partners(k):
                checked += len(xs) * len(members[0])
                for x in xs:
                    lhs, rhs = evaluate(x, aux)
                    miss = lhs != rhs
                    nb = int(np.count_nonzero(miss))
                    if nb:
                        bad += nb
                        # within a class chunks come in scan order, so the
                        # first hit for x is its earliest
                        if first is None or x < first[0]:
                            i = int(np.argmax(miss))
                            first = (int(x), *(int(m[i]) for m in members))
        return checked, bad, first

    if (total < _FORK_CHECKS or len(ks) < 2 or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2):
        return sweep(ks)
    return _forked(sweep, ks)


def _forked(sweep, ks):
    """``sweep(ks)``, with every other class swept by a forked child.

    The child pickles its result, or the text of what it raised, down a
    pipe and leaves with ``os._exit``; a child that fails makes this raise.
    If this side raises, the child is killed; either way it is reaped before
    this returns.  When no child can be forked, all classes run here.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return sweep(ks)
    if pid == 0:
        try:
            os.close(r)
            try:
                out = ("ok", sweep(ks[1::2]))
            except BaseException as exc:  # reported to the parent, then exit
                out = ("error", f"{type(exc).__name__}: {exc}")
            with os.fdopen(w, "wb") as pipe:
                pickle.dump(out, pipe)
        finally:
            os._exit(0)
    os.close(w)
    try:
        c0, b0, f0 = sweep(ks[::2])
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
    # x leads each first, and the two halves share no x
    return c0 + c1, b0 + b1, min((f for f in (f0, f1) if f is not None), default=None)


def interchange_sweep(model: DgtModel, H: np.ndarray, V: np.ndarray):
    """Interchange on every edge-compatible 2x2 arrangement, read from H/V.

    ``[[x, y], [z, w]]`` holds when V[H[x, y], H[z, w]] == H[V[x, z], V[y, w]].
    Squares x are grouped by (x.right, x.bottom): all x in a class share
    their (y, z, w) triples, so H[z, w] and V[y, w] are gathered once per
    class.  Returns (checked, violations, first violating (x, y, z, w) in
    the scan order x, z, y, w, or None).
    """
    c = model.code()
    a, n = c.arrows, len(model.squares)
    by_left, by_top = _Groups(c.L, a), _Groups(c.T, a)
    by_corner = _Groups(c.L * a + c.T, a * a)
    Hf, Vf = H.ravel(), V.ravel()

    def partners(k):
        ys, zs = by_left.members(k // a), by_top.members(k % a)
        z0, y0 = np.repeat(zs, len(ys)), np.tile(ys, len(zs))
        for z, y, w in by_corner.extend((z0, y0), c.R[z0] * a + c.B[y0]):
            yield (y, z, w), (y, z, Hf.take(z * n + w).astype(np.intp),
                              Vf.take(y * n + w).astype(np.intp))

    def evaluate(x, aux):
        y, z, hzw, vyw = aux
        at = (H[x].astype(np.intp) * n).take(y)
        at += hzw
        lhs = Vf.take(at)
        at = (V[x].astype(np.intp) * n).take(z)
        at += vyw
        return lhs, Hf.take(at)

    return _class_sweep(c.R * a + c.B, a * a, partners, evaluate,
                        count_compatible_quadruples(model))


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
                 edge_in: np.ndarray) -> tuple[int, int]:
    """Exhaustive associativity over one composition table.

    Squares x are grouped by their outgoing edge; every x in a class shares
    its composable (y, z) pairs and their products table[y, z].
    """
    n, a = len(table), model.code().arrows
    tf = table.ravel()
    by_in = _Groups(edge_in, a)

    def partners(e):
        ys = by_in.members(e)
        for y, z in by_in.extend((ys,), edge_out[ys]):
            yield (y, z), (y, z, tf.take(y * n + z))

    def evaluate(x, aux):
        y, z, inner = aux
        return tf.take((table[x].astype(np.intp) * n).take(y) + z), table[x].take(inner)

    # (x, y, z) with x.out = y.in and y.out = z.in: summed over y
    total = int((np.bincount(edge_out, minlength=a)[edge_in]
                 * np.bincount(edge_in, minlength=a)[edge_out]).sum())
    checked, bad, _ = _class_sweep(edge_out, a, partners, evaluate, total)
    return checked, bad


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
    ch, bh = _assoc_sweep(model, H, c.R, c.L)
    report.count(ch)
    if bh:
        report.fail("h-associativity", f"{bh} violating triples")
    cv, bv = _assoc_sweep(model, V, c.B, c.T)
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
        a = c.arrows
        by_left, by_top = _Groups(c.L, a), _Groups(c.T, a)
        by_corner = _Groups(c.L * a + c.T, a * a)
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
            ws = by_corner.members(c.R[z] * a + c.B[y])
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
