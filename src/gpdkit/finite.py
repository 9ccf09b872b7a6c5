"""Finite groups and finite groupoids given by explicit tables.

These are the brute-force semantic targets: every law the kernel cares about
can be checked on them by plain enumeration.  Multiplication is written left
to right throughout: ``mul(x, y)`` means "x then y", and for permutations
``(p * q)(i) = q(p(i))``.
"""

import itertools
from dataclasses import dataclass, field

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
        return self.table[(x, y)]

    def inv(self, x: str) -> str:
        return self.inverse[x]

    def conj(self, m: str, p: str) -> str:
        """Right conjugation p^-1 * m * p."""
        return self.mul(self.mul(self.inv(p), m), p)

    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self.elements


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
    _hom: dict[tuple[str, str], list[str]] = field(default=None, repr=False, compare=False)

    def compose(self, x: str, y: str) -> str:
        return self.table[(x, y)]

    def compose_all(self, arrows) -> str:
        """Fold a nonempty chain of composable arrows left to right."""
        arrows = list(arrows)
        out = arrows[0]
        for x in arrows[1:]:
            out = self.compose(out, x)
        return out

    def inv(self, x: str) -> str:
        return self.inverse[x]

    def id_at(self, obj: str) -> str:
        return self.identity[obj]

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


def validate_finite_group(g: FiniteGroup) -> Report:
    report = Report(f"group {g.name}")
    elems = g.elements
    for x, y in itertools.product(elems, repeat=2):
        report.count()
        if g.table.get((x, y)) not in elems:
            report.fail("closure", f"{x}*{y} undefined or escapes")
    if report.violations:
        return report
    for x in elems:
        report.count(2)
        if g.mul(g.identity, x) != x or g.mul(x, g.identity) != x:
            report.fail("identity", f"identity fails on {x}")
        report.count(2)
        if g.mul(x, g.inv(x)) != g.identity or g.mul(g.inv(x), x) != g.identity:
            report.fail("inverse", f"inverse fails on {x}")
    for x, y, z in itertools.product(elems, repeat=3):
        report.count()
        if g.mul(g.mul(x, y), z) != g.mul(x, g.mul(y, z)):
            report.fail("associativity", f"({x}*{y})*{z} != {x}*({y}*{z})")
    return report


def validate_finite_groupoid(f: FiniteGroupoid) -> Report:
    """Exhaustively check every groupoid axiom, with a witness per failure."""
    report = Report(f"groupoid {f.name}")
    if not f.objects:
        report.fail("objects", "groupoid has no objects")
        return report
    arrows = f.arrows
    for a in arrows:
        if f.src.get(a) not in f.objects or f.dst.get(a) not in f.objects:
            report.fail("endpoints", f"arrow {a} has undeclared endpoints")
            return report
    for obj in f.objects:
        report.count()
        e = f.identity.get(obj)
        if e is None or f.src.get(e) != obj or f.dst.get(e) != obj:
            report.fail("identity-arrow", f"object {obj} lacks an identity loop")
    if report.violations:
        return report
    for x, y in itertools.product(arrows, repeat=2):
        report.count()
        defined = (x, y) in f.table
        should = f.dst[x] == f.src[y]
        if defined != should:
            report.fail("domain", f"{x}*{y} defined={defined}, composable={should}")
        elif defined:
            z = f.table[(x, y)]
            if f.src.get(z) != f.src[x] or f.dst.get(z) != f.dst[y]:
                report.fail("endpoints", f"{x}*{y}={z} breaks endpoint bookkeeping")
    if report.violations:
        return report
    for x in arrows:
        report.count(2)
        if f.compose(f.id_at(f.src[x]), x) != x or f.compose(x, f.id_at(f.dst[x])) != x:
            report.fail("unit", f"identity law fails at {x}")
        report.count(2)
        xi = f.inverse.get(x)
        if xi is None or f.src.get(xi) != f.dst[x] or f.dst.get(xi) != f.src[x]:
            report.fail("inverse", f"{x} lacks a well-typed inverse")
        elif (
            f.compose(x, xi) != f.id_at(f.src[x])
            or f.compose(xi, x) != f.id_at(f.dst[x])
        ):
            report.fail("inverse", f"{x} * {xi} is not the identity")
    for x, y, z in itertools.product(arrows, repeat=3):
        if f.dst[x] == f.src[y] and f.dst[y] == f.src[z]:
            report.count()
            if f.compose(f.compose(x, y), z) != f.compose(x, f.compose(y, z)):
                report.fail("associativity", f"({x}*{y})*{z} != {x}*({y}*{z})")
    return report


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


def disjoint_union(f1: FiniteGroupoid, f2: FiniteGroupoid, name: str | None = None) -> FiniteGroupoid:
    """Place two groupoids side by side, prefixing names on collision."""
    def tag(needed, label, items):
        return {x: (f"{label}.{x}" if needed else x) for x in items}

    clash_obj = bool(set(f1.objects) & set(f2.objects))
    clash_arr = bool(set(f1.arrows) & set(f2.arrows))
    o1 = tag(clash_obj, "1", f1.objects)
    o2 = tag(clash_obj, "2", f2.objects)
    a1 = tag(clash_arr, "1", f1.arrows)
    a2 = tag(clash_arr, "2", f2.arrows)
    src = {a1[x]: o1[f1.src[x]] for x in f1.arrows}
    src.update({a2[x]: o2[f2.src[x]] for x in f2.arrows})
    dst = {a1[x]: o1[f1.dst[x]] for x in f1.arrows}
    dst.update({a2[x]: o2[f2.dst[x]] for x in f2.arrows})
    table = {(a1[x], a1[y]): a1[z] for (x, y), z in f1.table.items()}
    table.update({(a2[x], a2[y]): a2[z] for (x, y), z in f2.table.items()})
    identity = {o1[o]: a1[e] for o, e in f1.identity.items()}
    identity.update({o2[o]: a2[e] for o, e in f2.identity.items()})
    inverse = {a1[x]: a1[y] for x, y in f1.inverse.items()}
    inverse.update({a2[x]: a2[y] for x, y in f2.inverse.items()})
    return FiniteGroupoid(
        name or f"{f1.name}+{f2.name}",
        tuple(o1[x] for x in f1.objects) + tuple(o2[x] for x in f2.objects),
        tuple(a1[x] for x in f1.arrows) + tuple(a2[x] for x in f2.arrows),
        src,
        dst,
        table,
        identity,
        inverse,
    )


def standard_battery() -> list[FiniteGroupoid]:
    """The finite test targets used by every semantic cross-check."""
    return [
        group_as_groupoid(trivial_group(), name="triv"),
        group_as_groupoid(cyclic_group(2), name="c2"),
        group_as_groupoid(cyclic_group(3), name="c3"),
        group_as_groupoid(symmetric_group(3), name="s3"),
    ]
