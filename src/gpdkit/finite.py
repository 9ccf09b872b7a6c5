"""Finite groups and finite groupoids given by explicit tables.

These are the brute-force semantic targets: every law the kernel cares about
can be checked on them by plain enumeration.  Multiplication is written left
to right throughout: ``mul(x, y)`` means "x then y", and for permutations
``(p * q)(i) = q(p(i))``.

The axiom sweeps run on, and return, an integer encoding (``Encoded``) that
numbers names in declared order: the one numbering crossed modules and their
square models build on.  ``isomorphisms`` is the one isomorphism search:
``crossed.automorphisms`` and ``dgt.find_xmod_isomorphism`` both run it.
"""

import itertools
from dataclasses import dataclass, field

from .errors import MissingEntry
from .report import Report


@dataclass
class FiniteGroup:
    """A group as a plain multiplication table over named elements."""

    name: str
    elements: tuple[str, ...]
    table: dict[tuple[str, str], str]
    identity: str
    inverse: dict[str, str]

    def mul(self, x: str, y: str) -> str:
        try:
            return self.table[(x, y)]
        except KeyError:
            raise MissingEntry(f"{self.name} has no product {x} * {y}") from None

    def inv(self, x: str) -> str:
        try:
            return self.inverse[x]
        except KeyError:
            raise MissingEntry(f"{self.name} has no inverse of {x}") from None

    def conj(self, m: str, p: str) -> str:
        """Right conjugation p^-1 * m * p."""
        return self.mul(self.mul(self.inv(p), m), p)

    def order(self) -> int:
        return len(self.elements)


@dataclass
class FiniteGroupoid:
    """A groupoid with explicitly tabulated composition.

    ``table[(x, y)]`` is defined exactly when ``dst[x] == src[y]``.  The
    constructor does not validate; use :func:`validate_finite_groupoid` to
    sweep the axioms and collect witnesses.
    """

    name: str
    objects: tuple[str, ...]
    arrows: tuple[str, ...]
    src: dict[str, str]
    dst: dict[str, str]
    table: dict[tuple[str, str], str]
    identity: dict[str, str]
    inverse: dict[str, str]
    _hom: dict[tuple[str, str], list[str]] = field(default=None, init=False, repr=False, compare=False)

    def compose(self, x: str, y: str) -> str:
        try:
            return self.table[(x, y)]
        except KeyError:
            raise MissingEntry(f"{self.name} has no composite {x} . {y}") from None

    def compose_all(self, arrows) -> str:
        """Fold a nonempty chain of composable arrows left to right."""
        chain = iter(arrows)
        out = next(chain)
        for x in chain:
            out = self.compose(out, x)
        return out

    def inv(self, x: str) -> str:
        try:
            return self.inverse[x]
        except KeyError:
            raise MissingEntry(f"{self.name} has no inverse of {x}") from None

    def id_at(self, obj: str) -> str:
        try:
            return self.identity[obj]
        except KeyError:
            raise MissingEntry(f"{self.name} has no identity at {obj!r}") from None

    def is_identity(self, x: str) -> bool:
        return self.identity.get(self.src[x]) == x

    def hom(self, s: str, t: str) -> list[str]:
        if self._hom is None:
            hom: dict[tuple[str, str], list[str]] = {}
            for a in sorted(self.arrows):
                hom.setdefault((self.src[a], self.dst[a]), []).append(a)
            object.__setattr__(self, "_hom", hom)
        return self._hom.get((s, t), [])

    def vertex_arrows(self, obj: str) -> list[str]:
        return self.hom(obj, obj)

    def size(self) -> int:
        return len(self.arrows)


@dataclass
class Encoded:
    """A group's or groupoid's tables as plain int lists, built by its sweep.

    Names, which the sweep requires to be distinct, are numbered in
    declared order.  ``rows[i][j]`` is the position of the product of
    positions ``i`` and ``j`` and ``inv[k]`` that of the inverse, -1 where
    the entry is missing or names something outside ``names``.  ``unit``
    holds the identity at each object position, one for a group.  A
    groupoid also carries its objects' positions (``obj_index``), its
    arrows' endpoints as object positions and, for each arrow, the arrows
    that compose after it (``after``).
    """

    names: tuple[str, ...]
    index: dict[str, int]
    rows: list[list[int]]
    inv: list[int]
    unit: list[int] | None = None
    obj_index: dict[str, int] | None = None
    src: list[int] | None = None
    dst: list[int] | None = None
    after: list[list[int]] | None = None


def _positions(report: Report, kind: str, names) -> dict[str, int]:
    """Each name's position; a name that repeats fails ``names``."""
    index: dict[str, int] = {}
    for k, x in enumerate(names):
        if index.setdefault(x, k) != k:
            report.fail("names", f"{kind} {x} is repeated")
    return index


def _associativity(report: Report, names, rows, after) -> None:
    """(x*y)*z against x*(y*z) for every composable triple, in x, y, z order."""
    # composites[w]: w composed with each arrow that composes after w; a
    # composite x*y has the target of y, so composites[x*y] lines up with
    # composites[y]
    composites = [[row[z] for z in after[w]] for w, row in enumerate(rows)]
    checks = 0
    for x, rx in enumerate(rows):
        for y in after[x]:
            checks += len(after[y])
            if composites[rx[y]] != [rx[yz] for yz in composites[y]]:
                rxy, ry = rows[rx[y]], rows[y]
                for z in after[y]:
                    if rxy[z] != rx[ry[z]]:
                        x_, y_, z_ = names[x], names[y], names[z]
                        report.fail("associativity", f"({x_}*{y_})*{z_} != {x_}*({y_}*{z_})")
    report.count(checks)


def isomorphisms(a: FiniteGroup, b: FiniteGroup, fits=None):
    """Yield every group isomorphism a -> b, as a dict, that sends each m to
    an n with ``fits(m, n)`` (any n when ``fits`` is None).

    Backtracks over a's elements in sorted order, trying images in b's
    declared order, each image distinct and the identity sent to the
    identity, and drops a partial map at the first product it breaks among
    the elements mapped so far; the whole map is checked to be a
    homomorphism before it is yielded."""
    if a.order() != b.order():
        return
    order = sorted(a.elements)
    candidates = [[n for n in b.elements if (m == a.identity) == (n == b.identity)
                   and (fits is None or fits(m, n))] for m in order]

    def extend(phi):
        if len(phi) == len(order):
            if all(phi[a.mul(x, y)] == b.mul(phi[x], phi[y]) for x in order for y in order):
                yield dict(phi)
            return
        m = order[len(phi)]
        for n in candidates[len(phi)]:
            if n in phi.values():
                continue
            phi[m] = n
            if all(phi.get(a.mul(m, x)) in (None, b.mul(n, y)) and phi.get(a.mul(x, m)) in (None, b.mul(y, n))
                   for x, y in phi.items()):
                yield from extend(phi)
            del phi[m]

    yield from extend({})


def validate_finite_group(g: FiniteGroup) -> Report:
    return sweep_group(g)[0]


def sweep_group(g: FiniteGroup) -> tuple[Report, Encoded]:
    """Sweep the group axioms over ``g``'s integer encoding; return the
    report and the encoding.

    The encoding is whole only when the report is ok."""
    report = Report(f"group {g.name}")
    elems = g.elements
    n = len(elems)
    index = _positions(report, "element", elems)
    get = g.table.get
    rows = [[index.get(get((x, y)), -1) for y in elems] for x in elems]
    code = Encoded(elems, index, rows, [])
    if not n:
        report.fail("identity", f"group has no elements, so no identity {g.identity}")
    if report.violations:
        return report, code
    report.count(n * n)
    for i, row in enumerate(rows):
        if -1 in row:
            for j, z in enumerate(row):
                if z < 0:
                    report.fail("closure", f"{elems[i]}*{elems[j]} undefined or escapes")
    if report.violations:
        return report, code
    # the products below are all defined once the identity and every
    # inverse are elements; otherwise raise as the first lookup would
    e = index.get(g.identity, -1)
    if e < 0:
        raise MissingEntry(f"{g.name} has no product {g.identity} * {elems[0]}")
    code.unit = [e]
    inverse = g.inverse
    inv = code.inv = [index.get(inverse.get(x), -1) for x in elems]
    if -1 in inv:
        x = elems[inv.index(-1)]
        if x not in inverse:
            raise MissingEntry(f"{g.name} has no inverse of {x}")
        raise MissingEntry(f"{g.name} has no product {x} * {inverse[x]}")
    report.count(4 * n)
    left_by_e = rows[e]
    for x in range(n):
        if left_by_e[x] != x or rows[x][e] != x:
            report.fail("identity", f"identity fails on {elems[x]}")
        if rows[x][inv[x]] != e or rows[inv[x]][x] != e:
            report.fail("inverse", f"inverse fails on {elems[x]}")
    everything = list(range(n))
    _associativity(report, elems, rows, [everything] * n)
    return report, code


_ABSENT = object()


def validate_finite_groupoid(f: FiniteGroupoid) -> Report:
    """Exhaustively check every groupoid axiom, with a witness per failure."""
    return sweep_groupoid(f)[0]


def sweep_groupoid(f: FiniteGroupoid) -> tuple[Report, Encoded | None]:
    """Sweep the groupoid axioms over ``f``'s integer encoding; return the
    report and the encoding.

    The encoding is whole only when the report is ok.  An identity, inverse
    or composite outside ``f.arrows`` counts as foreign, whatever ``f.src``
    says of it."""
    report = Report(f"groupoid {f.name}")
    if not f.objects:
        report.fail("objects", "groupoid has no objects")
        return report, None
    arrows = f.arrows
    objs = _positions(report, "object", f.objects)
    index = _positions(report, "arrow", arrows)
    if report.violations:
        return report, None
    src = [objs.get(f.src.get(a), -1) for a in arrows]
    dst = [objs.get(f.dst.get(a), -1) for a in arrows]
    for k, a in enumerate(arrows):
        if src[k] < 0 or dst[k] < 0:
            report.fail("endpoints", f"arrow {a} has undeclared endpoints")
            return report, None
    report.count(len(f.objects))
    unit = [-1] * len(f.objects)
    for obj in f.objects:
        o = objs[obj]
        e = unit[o] = index.get(f.identity.get(obj), -1)
        if e < 0 or src[e] != o or dst[e] != o:
            report.fail("identity-arrow", f"object {obj} lacks an identity loop")
    if report.violations:
        return report, None
    get = f.table.get
    rows = []
    report.count(len(arrows) ** 2)
    for i, x in enumerate(arrows):
        sx, dx = src[i], dst[i]
        row = []
        for j, y in enumerate(arrows):
            z = get((x, y), _ABSENT)
            row.append(-1 if z is _ABSENT else index.get(z, -1))
            defined, should = z is not _ABSENT, dx == src[j]
            if defined != should:
                report.fail("domain", f"{x}*{y} defined={defined}, composable={should}")
            elif defined and (row[j] < 0 or src[row[j]] != sx or dst[row[j]] != dst[j]):
                report.fail("endpoints", f"{x}*{y}={z} breaks endpoint bookkeeping")
        rows.append(row)
    if report.violations:
        return report, None
    # every composite of composable arrows is now an arrow
    report.count(4 * len(arrows))
    inverse = f.inverse
    inv = []
    for x, a in enumerate(arrows):
        s, t = src[x], dst[x]
        if rows[unit[s]][x] != x or rows[x][unit[t]] != x:
            report.fail("unit", f"identity law fails at {a}")
        xi = index.get(inverse.get(a), -1)
        inv.append(xi)
        if xi < 0 or src[xi] != t or dst[xi] != s:
            report.fail("inverse", f"{a} lacks a well-typed inverse")
        elif rows[x][xi] != unit[s] or rows[xi][x] != unit[t]:
            report.fail("inverse", f"{a} * {inverse[a]} is not the identity")
    leaving: list[list[int]] = [[] for _ in f.objects]
    for k, s in enumerate(src):
        leaving[s].append(k)
    after = [leaving[t] for t in dst]
    _associativity(report, arrows, rows, after)
    return report, Encoded(arrows, index, rows, inv, unit, objs, src, dst, after)


# -- standard groups ----------------------------------------------------------

def _cycle_name(perm: tuple[int, ...]) -> str:
    """Cycle notation on points 1..n, 'e' for the identity."""
    seen = set()
    parts = []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc = [i]
        j = perm[i]
        while j != i:
            cyc.append(j)
            j = perm[j]
        seen.update(cyc)
        parts.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "e"


def _perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # left-to-right: apply p, then q
    return tuple(q[p[i]] for i in range(len(p)))


def trivial_group() -> FiniteGroup:
    return FiniteGroup("triv", ("e",), {("e", "e"): "e"}, "e", {"e": "e"})


def cyclic_group(n: int) -> FiniteGroup:
    names = ["e"] + [f"t{k}" if k > 1 else "t" for k in range(1, n)]
    table = {
        (names[i], names[j]): names[(i + j) % n]
        for i in range(n)
        for j in range(n)
    }
    inverse = {names[i]: names[(-i) % n] for i in range(n)}
    return FiniteGroup(f"c{n}", tuple(names), table, "e", inverse)


def symmetric_group(n: int) -> FiniteGroup:
    perms = sorted(itertools.permutations(range(n)))
    names = {p: _cycle_name(p) for p in perms}
    table = {
        (names[p], names[q]): names[_perm_mul(p, q)]
        for p in perms
        for q in perms
    }
    inverse = {}
    ident = tuple(range(n))
    for p in perms:
        pinv = tuple(sorted(range(n), key=lambda i: p[i]))
        inverse[names[p]] = names[pinv]
    return FiniteGroup(f"s{n}", tuple(sorted(names.values())), table, names[ident], inverse)


def even_elements(g: FiniteGroup) -> set[str]:
    """Subgroup generated by all squares; for symmetric groups this is A_n."""
    gens = {g.mul(x, x) for x in g.elements}
    closure = set(gens) | {g.identity}
    frontier = list(closure)
    while frontier:
        x = frontier.pop()
        for y in list(closure):
            for z in (g.mul(x, y), g.mul(y, x)):
                if z not in closure:
                    closure.add(z)
                    frontier.append(z)
    return closure


def subgroup_table(g: FiniteGroup, subset, name: str) -> FiniteGroup:
    """Restrict ``g`` to a subset that is assumed closed; caller validates."""
    subset = tuple(sorted(subset))
    table = {
        (x, y): g.mul(x, y) for x in subset for y in subset
    }
    inverse = {x: g.inv(x) for x in subset}
    return FiniteGroup(name, subset, table, g.identity, inverse)


# -- groupoids built from groups ----------------------------------------------

def group_as_groupoid(g: FiniteGroup, obj: str = "*", name: str | None = None) -> FiniteGroupoid:
    """View a group as a one-object groupoid; arrows keep the element names."""
    table = dict(g.table)
    return FiniteGroupoid(
        name or g.name,
        (obj,),
        tuple(g.elements),
        {x: obj for x in g.elements},
        {x: obj for x in g.elements},
        table,
        {obj: g.identity},
        dict(g.inverse),
    )


def interval_finite_groupoid() -> FiniteGroupoid:
    """The four-arrow groupoid on objects 0, 1: both identities, i, i^-1."""
    arrows = ("id0", "id1", "i", "i_inv")
    src = {"id0": "0", "id1": "1", "i": "0", "i_inv": "1"}
    dst = {"id0": "0", "id1": "1", "i": "1", "i_inv": "0"}
    table = {}
    for x in arrows:
        for y in arrows:
            if dst[x] != src[y]:
                continue
            if x in ("id0", "id1"):
                table[(x, y)] = y
            elif y in ("id0", "id1"):
                table[(x, y)] = x
            else:
                table[(x, y)] = "id0" if x == "i" else "id1"
    return FiniteGroupoid(
        "interval4",
        ("0", "1"),
        arrows,
        src,
        dst,
        table,
        {"0": "id0", "1": "id1"},
        {"id0": "id0", "id1": "id1", "i": "i_inv", "i_inv": "i"},
    )


def standard_battery() -> list[FiniteGroupoid]:
    """The finite test targets used by every semantic cross-check."""
    return [
        group_as_groupoid(trivial_group(), name="triv"),
        group_as_groupoid(cyclic_group(2), name="c2"),
        group_as_groupoid(cyclic_group(3), name="c3"),
        group_as_groupoid(symmetric_group(3), name="s3"),
    ]
